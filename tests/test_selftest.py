import math

import numpy as np
import pytest

from bellgeo import selftest
from bellgeo.geometry import (
    ReconstructionError,
    projection_angles,
    reconstruct,
    sign_condition_ok,
    symmetry_transforms,
    two_qubit_of,
)
from bellgeo.realization import (
    SIGMA1,
    SIGMA2,
    SIGMA3,
    TwoQubitRealization,
    embed,
    haar_unitary,
    promote,
    random_two_qubit,
    simulate_cbehavior,
    xz_observable,
)
from bellgeo.selftest import (
    DerivedOperators,
    ExtendedRealization,
    anticommutator_residual,
    derive_operators,
    protocol_chain,
    protocol_lemma6_pair,
    protocol_zb,
    swap_isometry,
)
from bellgeo.tolerances import COINCIDENT_SIN, RESIDUAL_PASS, root_tol

RNG = np.random.default_rng(20240816)


def conforming_realization(rng=None, chi_min=0.05):
    rng = rng if rng is not None else np.random.default_rng(61)
    while True:
        r = random_two_qubit(rng)
        if not chi_min <= r.chi <= math.pi / 4 - 0.05:
            continue
        if sign_condition_ok(projection_angles(r)):
            return r


def conforming_extension_angle(r, rng):
    """An in-plane angle for the third observable that keeps {B_0, B_2} usable."""
    while True:
        theta2 = rng.uniform(-math.pi, math.pi)
        if abs(math.sin(theta2 - r.thetaB[0])) < 0.05:
            continue
        alt = TwoQubitRealization(thetaA=r.thetaA, thetaB=[r.thetaB[0], theta2], chi=r.chi)
        if sign_condition_ok(projection_angles(alt)):
            return theta2


def test_derived_operators_are_paulis_on_promoted_realization():
    for _ in range(20):
        r = random_two_qubit(RNG)
        if min(abs(math.sin(r.thetaA[0] - r.thetaA[1])), abs(math.sin(r.thetaB[0] - r.thetaB[1]))) < 1e-3:
            continue
        ops = derive_operators(promote(r), projection_angles(r))
        assert np.abs(ops.ZA - SIGMA3).max() < 1e-9
        assert np.abs(ops.ZB - SIGMA3).max() < 1e-9
        assert np.abs(ops.XA - SIGMA1).max() < 1e-9
        assert np.abs(ops.XB - SIGMA1).max() < 1e-9


def test_residuals_vanish_on_promoted_and_embedded():
    rng = np.random.default_rng(71)
    r = conforming_realization(rng)
    g = projection_angles(r)
    p = promote(r)
    res = anticommutator_residual(p, derive_operators(p, g), g)
    assert max(res.values()) < 1e-12
    e = embed(p, unitaryA=haar_unitary(rng, 3), unitaryB=haar_unitary(rng, 4), padA=1, padB=2)
    res_e = anticommutator_residual(e, derive_operators(e, g), g)
    assert max(res_e.values()) < 1e-9


def test_residuals_detect_out_of_plane_observable():
    r = conforming_realization()
    g = projection_angles(r)
    p = promote(r)
    tilted = (
        math.cos(0.1) * xz_observable(r.thetaB[1]) + math.sin(0.1) * SIGMA2
    )
    broken = type(p)(dimA=2, dimB=2, psi=p.psi, A=p.A, B=(p.B[0], tilted))
    res = anticommutator_residual(broken, derive_operators(broken, g), g)
    assert max(res.values()) > 1e-3


def test_swap_isometry_extracts_the_state():
    rng = np.random.default_rng(81)
    for _ in range(10):
        r = conforming_realization(rng)
        g = projection_angles(r)
        p = promote(r)
        iso = swap_isometry(p, derive_operators(p, g), g.chi)
        assert iso.fidelity == pytest.approx(1.0, abs=1e-9)
        target = np.array([math.cos(g.chi), 0, 0, math.sin(g.chi)])
        assert np.abs(np.abs(iso.extractedState) - target).max() < 1e-7


def test_swap_isometry_embedded_realization():
    rng = np.random.default_rng(82)
    r = conforming_realization(rng)
    g = projection_angles(r)
    e = embed(promote(r), unitaryA=haar_unitary(rng, 3), unitaryB=haar_unitary(rng, 4), padA=1, padB=2)
    iso = swap_isometry(e, derive_operators(e, g), g.chi)
    assert iso.fidelity == pytest.approx(1.0, abs=1e-9)


def test_swap_isometry_flipped_input_state():
    r = conforming_realization()
    g = projection_angles(r)
    p = promote(r)
    ops = derive_operators(p, g)
    m = p.state_matrix
    flipped = SIGMA1 @ m @ SIGMA1.T  # X_A X_B acting on the shared state
    target = np.array([math.sin(g.chi), 0, 0, math.cos(g.chi)])
    iso = swap_isometry(p, ops, g.chi, state=flipped, target=target)
    assert iso.fidelity == pytest.approx(1.0, abs=1e-9)


def test_planar_state_identities():
    """The state is reconstructed by its own Z/X image, term by term."""
    for _ in range(10):
        r = conforming_realization(RNG)
        g = projection_angles(r)
        p = promote(r)
        ops = derive_operators(p, g)
        m = p.state_matrix
        s2, c2 = math.sin(2 * g.chi), math.cos(2 * g.chi)
        zaxb = float(np.vdot(ops.ZA @ m @ (ops.XB @ ops.XB).T, ops.ZA @ m).real)
        assert zaxb == pytest.approx(1.0, abs=1e-9)
        cross = float(np.vdot(m, ops.XA @ ops.ZA.conj() @ m).real)
        assert cross == pytest.approx(0.0, abs=1e-9)
        combo = m - s2 * (ops.XA @ m @ ops.XB.T) - c2 * (ops.ZA @ m)
        assert np.linalg.norm(combo) < 1e-9


def test_protocol_zb_accepts_aligned_added_observable():
    r = conforming_realization()
    ext = ExtendedRealization(base=promote(r), B2=SIGMA3)
    report = protocol_zb(ext, tol=1e-7)
    assert report["selfTested"]
    assert report["fidelity"] == pytest.approx(1.0, abs=1e-6)
    assert max(report["conditions"].values()) < 1e-9


def test_protocol_zb_accepts_every_conforming_draw():
    # 15 of these draws were rejected when the branch patterns were taken in
    # a fixed order instead of tightest first
    from test_acceptance import random_conforming

    rng = np.random.default_rng(7)
    rejected = []
    for _ in range(2000):
        g = random_conforming(rng)
        report = protocol_zb(ExtendedRealization(base=promote(two_qubit_of(g)), B2=SIGMA3))
        if not report["selfTested"]:
            rejected.append((g.thetaA, g.thetaB, g.chi, report.get("error")))
    assert rejected == []


def test_protocol_zb_rejects_misaligned_added_observable():
    r = conforming_realization()
    ext = ExtendedRealization(base=promote(r), B2=SIGMA1)
    report = protocol_zb(ext, tol=1e-7)
    assert not report["selfTested"]
    assert "error" in report


def test_protocol_paired_accepts_in_plane_extension():
    rng = np.random.default_rng(91)
    for _ in range(5):
        r = conforming_realization(rng)
        theta2 = conforming_extension_angle(r, rng)
        ext = ExtendedRealization(base=promote(r), B2=xz_observable(theta2))
        report = protocol_lemma6_pair(ext, tol=1e-7)
        assert report["selfTested"], report.get("error")
        recovered = report["thetaB2"]
        diff = (recovered - theta2 + math.pi) % (2 * math.pi) - math.pi
        alt_diff = (recovered + theta2 + math.pi) % (2 * math.pi) - math.pi
        assert min(abs(diff), abs(alt_diff)) < 1e-6


def test_protocol_paired_accepts_every_conforming_draw():
    # 10 of these draws were rejected when the branch patterns were taken in
    # a fixed order instead of tightest first
    rng = np.random.default_rng(7)
    rejected = []
    for _ in range(1000):
        r = conforming_realization(rng)
        theta2 = conforming_extension_angle(r, rng)
        report = protocol_lemma6_pair(ExtendedRealization(base=promote(r), B2=xz_observable(theta2)))
        if not report["selfTested"]:
            rejected.append((r.thetaA, r.thetaB, r.chi, theta2, report.get("error")))
    assert rejected == []


def test_protocol_paired_rejects_out_of_plane_extension():
    rng = np.random.default_rng(92)
    r = conforming_realization(rng)
    theta2 = conforming_extension_angle(r, rng)
    w = 0.2
    corrupted = math.sqrt(1 - w * w) * xz_observable(theta2) + w * SIGMA2
    ext = ExtendedRealization(base=promote(r), B2=corrupted)
    report = protocol_lemma6_pair(ext, tol=1e-7)
    assert not report["selfTested"]


def test_protocol_paired_rejects_degenerate_extension():
    r = conforming_realization()
    ext = ExtendedRealization(base=promote(r), B2=xz_observable(r.thetaB[0]))
    report = protocol_lemma6_pair(ext, tol=1e-7)
    assert not report["selfTested"]
    # rejected either as a failed reconstruction of the doubled pair or,
    # when reconstruction happens to go through, as an explicit degeneracy
    err = report.get("error", "")
    assert "degenerate" in err or "reconstruction" in err


def test_protocol_chain_mixed_batch():
    rng = np.random.default_rng(93)
    r = conforming_realization(rng)
    good = xz_observable(conforming_extension_angle(r, rng))
    bad = SIGMA2
    reports = list(protocol_chain(promote(r), [good, bad], tol=1e-7))
    assert len(reports) == 2
    assert reports[0]["selfTested"]
    assert not reports[1]["selfTested"]


def test_extended_realization_validation():
    p = promote(conforming_realization())
    with pytest.raises(ValueError):
        ExtendedRealization(base=p, B2=np.array([[0, 2], [2, 0]], dtype=complex))
    with pytest.raises(ValueError):
        ExtendedRealization(base=p, B2=np.eye(3, dtype=complex))


def test_derived_operator_degenerate_angles_rejected():
    p = promote(TwoQubitRealization(thetaA=[0.5, 0.5], thetaB=[0.1, 1.0], chi=0.3))
    g = projection_angles(TwoQubitRealization(thetaA=[0.5, 0.5], thetaB=[0.1, 1.0], chi=0.3))
    with pytest.raises(ValueError):
        derive_operators(p, g)


def test_sigma2_component_invisible_in_correlators():
    """The out-of-plane Pauli contributes nothing to any planar correlator."""
    r = conforming_realization()
    p = promote(r)
    m = p.state_matrix
    for a in p.A:
        val = np.vdot(m, a @ m @ SIGMA2.T)
        assert abs(val.real) < 1e-12
    assert abs(np.vdot(m, m @ SIGMA2.T).real) < 1e-12


def _reference_pair(ext, tol=RESIDUAL_PASS):
    """The paired protocol as one self-contained run, base stage included."""
    r = ext.base
    report = {"protocol": "pairedReconstruction", "selfTested": False}
    ang_tol = root_tol(tol)
    try:
        g = reconstruct(simulate_cbehavior(r), tol=ang_tol)
    except ReconstructionError as exc:
        report["error"] = f"base behavior fails reconstruction: {exc}"
        return report
    alt = type(r)(dimA=r.dimA, dimB=r.dimB, psi=r.psi, A=r.A, B=(r.B[0], np.asarray(ext.B2)))
    try:
        g2 = reconstruct(simulate_cbehavior(alt), tol=ang_tol)
    except ReconstructionError as exc:
        report["error"] = f"extended behavior fails reconstruction: {exc}"
        return report
    if abs(g.chi - g2.chi) > ang_tol:
        report["error"] = f"entanglement mismatch between reconstructions: {g.chi} vs {g2.chi}"
        return report
    matched = None
    for cand in symmetry_transforms(g2):
        dA = np.mod(np.asarray(cand.thetaA) - np.asarray(g.thetaA) + math.pi, 2 * math.pi) - math.pi
        dB0 = (cand.thetaB[0] - g.thetaB[0] + math.pi) % (2 * math.pi) - math.pi
        if np.abs(dA).max() <= ang_tol and abs(dB0) <= ang_tol:
            matched = cand
            break
    if matched is None:
        report["error"] = "reconstructions do not share the measurement plane"
        return report
    theta2 = float(matched.thetaB[1])
    if abs(math.sin(theta2 - g.thetaB[0])) < COINCIDENT_SIN:
        report["error"] = "added observable coincides with B_0 (degenerate pair)"
        return report
    ops = derive_operators(r, g)
    residuals = anticommutator_residual(r, ops, g)
    m = r.state_matrix

    def in_plane_residual(t):
        model = math.sin(t) * ops.XB + math.cos(t) * ops.ZB
        return float(np.linalg.norm(m @ (np.asarray(ext.B2) - model).T))

    res_pm = {t: in_plane_residual(t) for t in (theta2, -theta2)}
    theta2 = min(res_pm, key=res_pm.get)
    report["thetaB2"] = theta2
    residuals["b2InPlane"] = res_pm[theta2]
    report["residuals"] = residuals
    report["geometry"] = g.to_json_dict()
    iso = swap_isometry(r, ops, g.chi)
    report["fidelity"] = iso.fidelity
    report["selfTested"] = bool(
        max(residuals.values()) <= tol and abs(iso.fidelity - 1.0) <= root_tol(tol)
    )
    return report


def _mixed(theta, w=0.2):
    return math.sqrt(1 - w * w) * xz_observable(theta) + w * SIGMA2


def _same_report(a, b):
    assert list(a) == list(b)
    for key in a:
        if key == "geometry":
            assert list(a[key]) == list(b[key])
            for name in a[key]:
                assert np.array_equal(a[key][name], b[key][name]), (key, name)
        else:
            assert a[key] == b[key], key


def test_protocol_chain_matches_independent_pairs():
    rng = np.random.default_rng(94)
    seen = set()
    for _ in range(40):
        if rng.uniform() < 0.7:
            r = conforming_realization(rng)
            theta2 = conforming_extension_angle(r, rng)
        else:
            r = random_two_qubit(rng)
            theta2 = rng.uniform(-math.pi, math.pi)
        added = [
            xz_observable(theta2),
            xz_observable(rng.uniform(-math.pi, math.pi)),
            xz_observable(r.thetaB[0]),
            _mixed(theta2),
            SIGMA3,
        ]
        base = promote(r)
        chain = list(protocol_chain(base, added))
        assert len(chain) == len(added)
        for b2, report in zip(added, chain):
            _same_report(report, _reference_pair(ExtendedRealization(base=base, B2=b2)))
            seen.add(report.get("error", "certified" if report["selfTested"] else "rejected")[:20])
    assert seen == {
        "base behavior fails ",
        "extended behavior fa",
        "certified",
        "rejected",
    }, seen


def _counting(monkeypatch, name):
    calls = []
    inner = getattr(selftest, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(selftest, name, counted)
    return calls


def test_protocol_chain_certifies_the_base_once(monkeypatch):
    rng = np.random.default_rng(95)
    r = conforming_realization(rng)
    added = [xz_observable(conforming_extension_angle(r, rng)) for _ in range(8)]
    reconstructions = _counting(monkeypatch, "reconstruct")
    isometries = _counting(monkeypatch, "swap_isometry")
    reports = list(protocol_chain(promote(r), added))
    assert all(report["selfTested"] for report in reports)
    assert len(reconstructions) == len(added) + 1
    assert len(isometries) == 1


# {A_0, A_1, B_0, B_2} is a boundary behavior, and so certifiable, only where
# the extension conforms: for this base, theta2 in (-1.021, 0.227) mod pi
KNOWN_BASE = TwoQubitRealization(thetaA=(0.4, 1.9), thetaB=(0.9, -0.6), chi=0.3)
KNOWN_ANGLES = [
    t for t in np.linspace(-0.95, 0.15, 8) + math.pi * (np.arange(8) % 2)
    if min(abs(math.sin(t - KNOWN_BASE.thetaB[0])), abs(math.sin(t))) >= math.sin(0.05)
]


def test_protocol_chain_known_answer_on_spaced_observables():
    base = promote(KNOWN_BASE)
    assert len(KNOWN_ANGLES) == 7
    reports = list(protocol_chain(base, [xz_observable(t) for t in KNOWN_ANGLES]))
    for theta2, report in zip(KNOWN_ANGLES, reports):
        assert report["selfTested"], (theta2, report.get("error"))
        recovered = report["thetaB2"]
        off = [abs((recovered - s * theta2 + math.pi) % (2 * math.pi) - math.pi) for s in (1, -1)]
        assert min(off) < 1e-7, (theta2, recovered)
    for k in range(len(KNOWN_ANGLES)):
        added = [xz_observable(t) for t in KNOWN_ANGLES]
        added[k] = _mixed(KNOWN_ANGLES[k])
        verdicts = [report["selfTested"] for report in protocol_chain(base, added)]
        assert verdicts == [j != k for j in range(len(added))]


def test_protocol_zb_accepts_maximally_entangled_near_zero_angles():
    # chi = pi/4 with one B-angle within 1e-6 to 1e-2 of 0 or pi: at the
    # reconstruction tolerance sqrt(RESIDUAL_PASS) the first fitting sign
    # assignment can be about 1e-6 off; 111 of these 300 were rejected when
    # it, rather than the best-fitting one, was taken
    rng = np.random.default_rng(5)
    rejected, drawn = [], 0
    while drawn < 300:
        thetaA1 = rng.uniform(0.0, 2.0 * math.pi)
        near = rng.choice([0.0, math.pi]) + rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-6, -2)
        thetaB = [near, rng.uniform(0.0, 2.0 * math.pi)]
        if rng.uniform() < 0.5:
            thetaB.reverse()
        if abs(math.sin(thetaA1)) < 0.05:
            continue
        base = promote(TwoQubitRealization(thetaA=(0.0, thetaA1), thetaB=thetaB, chi=math.pi / 4))
        try:
            reconstruct(simulate_cbehavior(base), tol=root_tol(RESIDUAL_PASS))
        except ReconstructionError:
            continue
        drawn += 1
        report = protocol_zb(ExtendedRealization(base=base, B2=SIGMA3))
        if not report["selfTested"]:
            rejected.append((thetaA1, thetaB, report.get("error")))
    assert rejected == []
