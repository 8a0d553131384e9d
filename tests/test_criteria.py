import math

import numpy as np
import pytest

from bellgeo.behavior import CBehavior, DBehavior, InvalidBehaviorError
from bellgeo.criteria import (
    crypt_gaps,
    crypt_gaps_batch,
    crypt_membership,
    d_quantities,
    extremal_criterion,
    s_quantities,
    scaled_correlators,
    tlm_gap,
    two_qubit_condition,
)
from bellgeo.realization import (
    TwoQubitRealization,
    random_two_qubit,
    simulate_cbehavior,
    simulate_dbehavior,
)
from bellgeo.geometry import projection_angles, sign_condition_ok

RNG = np.random.default_rng(20240813)


def tsirelson():
    c = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    return CBehavior(cA=[0.0, 0.0], cB=[0.0, 0.0], c=c)


def reference_point(eps=1e-9):
    r = TwoQubitRealization(thetaA=[0.0, math.pi / 2], thetaB=[eps, -math.pi / 4], chi=math.pi / 12)
    return simulate_cbehavior(r)


def test_s_quantities_tsirelson():
    s = s_quantities(tsirelson())
    assert np.abs(s.sPlus - 1.0).max() < 1e-12
    assert np.abs(s.sMinus - 0.5).max() < 1e-12
    assert np.abs(s.J - 1.5).max() < 1e-12


def test_s_quantities_uniform():
    s = s_quantities(CBehavior(cA=[0, 0], cB=[0, 0], c=np.zeros((2, 2))))
    assert np.abs(s.J - 1.0).max() == 0.0
    assert np.abs(s.K).max() == 0.0
    assert np.abs(s.sPlus - 1.0).max() == 0.0
    assert np.abs(s.sMinus).max() == 0.0


def test_s_quantities_reference_point():
    s = s_quantities(reference_point())
    # three pairs take the upper branch, the (1,1) pair the lower one
    assert s.sPlus[0, 0] == pytest.approx(0.25, abs=1e-6)
    assert s.sPlus[0, 1] == pytest.approx(0.25, abs=1e-6)
    assert s.sPlus[1, 0] == pytest.approx(0.25, abs=1e-6)
    assert s.sMinus[1, 1] == pytest.approx(0.25, abs=1e-6)


def test_s_root_identities():
    for _ in range(100):
        b = simulate_cbehavior(random_two_qubit(RNG))
        s = s_quantities(b)
        assert np.abs(s.sPlus + s.sMinus - s.J).max() < 1e-12
        assert np.abs(s.sPlus * s.sMinus - s.K**2).max() < 1e-10


def test_two_qubit_condition_on_planar_realizations():
    for _ in range(100):
        r = random_two_qubit(RNG)
        patterns = two_qubit_condition(simulate_cbehavior(r), 1e-9)
        target = math.sin(2 * r.chi) ** 2
        assert any(abs(p.commonValue - target) < 1e-7 for p in patterns)


def test_two_qubit_condition_reference_pattern():
    patterns = two_qubit_condition(reference_point(), 1e-6)
    match = [p for p in patterns if abs(p.commonValue - 0.25) < 1e-5]
    assert len(match) == 1
    assert np.array_equal(match[0].p, np.array([[1, 1], [1, -1]]))
    assert match[0].H >= 0.0


def test_two_qubit_condition_tightest_pattern_first():
    # two pairs are nearly branch-degenerate: at the protocols' tolerance the
    # all-plus pattern also passes (spread ~1e-4) and used to come first,
    # 2.8e-5 off sin^2(2 chi)
    r = TwoQubitRealization(
        thetaA=[4.435488943082649, 3.1734529214141087],
        thetaB=[5.810443820051876, 0.0378362661182437],
        chi=0.6071019578905176,
    )
    patterns = two_qubit_condition(simulate_cbehavior(r), math.sqrt(1e-7))
    assert np.array_equal(patterns[0].p, np.array([[1, 1], [1, -1]]))
    assert abs(patterns[0].commonValue - math.sin(2 * r.chi) ** 2) < 1e-12


def test_two_qubit_condition_rejects_all_minus_at_tsirelson():
    patterns = two_qubit_condition(tsirelson())
    values = sorted(p.commonValue for p in patterns)
    assert values == pytest.approx([1.0], abs=1e-12)
    all_plus = patterns[0]
    assert np.array_equal(all_plus.p, np.ones((2, 2)))
    # the S^- = 0.5 assignment is consistent but has a negative product
    b = tsirelson()
    h_minus = float(np.prod((1.0 - 0.5) * np.asarray(b.c)))
    assert h_minus < 0.0


def test_two_qubit_condition_generic_behavior_empty():
    b = CBehavior(cA=[0.3, -0.2], cB=[0.1, 0.4], c=[[0.5, 0.1], [-0.3, 0.2]])
    assert two_qubit_condition(b, 1e-9) == []


def test_d_quantities_examples():
    b = reference_point()
    dB, dA = d_quantities(b, 0.25)
    assert dB == pytest.approx([1.0, 0.25], abs=1e-6)
    assert dA == pytest.approx([1.0, 0.625], abs=1e-6)
    # the maximally entangled value pushes the aligned slot above 1; no clipping
    dB1, _ = d_quantities(b, 1.0)
    assert dB1[0] > 1.0
    with pytest.raises(ValueError):
        d_quantities(b, 1.5)


def test_tlm_gap_examples():
    root = 1.0 / math.sqrt(2.0)
    assert tlm_gap(np.array([[root, root], [root, -root]])) == pytest.approx(0.0, abs=1e-12)
    assert tlm_gap(np.zeros((2, 2))) == pytest.approx(2.0, abs=1e-15)
    ct = np.array([[1.0, root], [0.0, -root]])
    assert tlm_gap(ct) == pytest.approx(0.0, abs=1e-12)
    for bad in (1.5, math.nan):
        with pytest.raises(InvalidBehaviorError):
            tlm_gap(np.array([[bad, 0], [0, 0]]))
    with pytest.raises(ValueError):
        tlm_gap(np.zeros(4))


def test_tlm_gap_sign_flip_invariance():
    for _ in range(50):
        ct = RNG.uniform(-1, 1, (2, 2))
        g = tlm_gap(ct)
        assert tlm_gap(-ct) == pytest.approx(g, abs=1e-12)
        flipped = ct.copy()
        flipped[0, :] *= -1.0
        assert tlm_gap(flipped) == pytest.approx(g, abs=1e-12)


def test_scaled_correlators_zero_bias_slots():
    d = DBehavior(deltaB=[0.0, 0.25], deltaA=[1.0, 1.0], c=[[0.0, 0.0], [0.3, 0.1]])
    ct = scaled_correlators(d, "B")
    assert ct[0, 0] == 0.0 and ct[0, 1] == 0.0
    assert ct[1, 0] == pytest.approx(0.6)
    d_bad = DBehavior(deltaB=[0.0, 0.25], deltaA=[1.0, 1.0], c=[[0.2, 0.0], [0.3, 0.1]])
    assert scaled_correlators(d_bad, "B")[0, 0] == 2.0


def test_crypt_membership_on_planar_realizations():
    for _ in range(200):
        d = simulate_dbehavior(random_two_qubit(RNG))
        assert crypt_membership(d, 1e-9)


def _near_saturation(rng):
    """Two-qubit points with one scaled correlator of side A within 1e-9 to
    1e-7 of +/-1: thetaB_0 = atan(tan thetaA_0 / sin 2chi) + k pi, offset."""
    thetaA = rng.uniform(0.0, 2.0 * math.pi, 2)
    chi = rng.uniform(0.01, math.pi / 4 - 0.01)
    thetaB0 = math.atan(math.tan(thetaA[0]) / math.sin(2.0 * chi)) + math.pi * rng.integers(2)
    thetaB0 += rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9.0, -7.0)
    return TwoQubitRealization(
        thetaA=thetaA, thetaB=[thetaB0, rng.uniform(0.0, 2.0 * math.pi)], chi=chi
    )


def test_crypt_membership_near_saturated_scaled_correlators():
    # the boundary gap of a scaled correlator near +/-1 is computed from a
    # rounded c~, so it is off from its exact value 0 by up to about
    # sqrt(ulp); tested at plain tol, 373 of these 2000 points fell out
    # (worst -2.5e-8)
    rng = np.random.default_rng(3)
    worst, rejected = 0.0, []
    for _ in range(2000):
        r = _near_saturation(rng)
        d = simulate_dbehavior(r)
        gaps = crypt_gaps(d)
        worst = min(worst, gaps["tlmA"], gaps["tlmB"])
        if not crypt_membership(d):
            rejected.append((r.thetaA, r.thetaB, r.chi, gaps))
    assert rejected == []
    assert worst < -1e-9  # the family reaches past plain tol


def test_crypt_gaps_saturated_at_reference_point():
    r = TwoQubitRealization(thetaA=[0.0, math.pi / 2], thetaB=[1e-9, -math.pi / 4], chi=math.pi / 12)
    gaps = crypt_gaps(simulate_dbehavior(r))
    assert abs(gaps["tlmB"]) < 1e-7
    assert abs(gaps["tlmA"]) < 1e-7
    assert gaps["capB"] >= -1e-12 and gaps["capA"] >= -1e-12


def _loop_crypt_gaps(d: DBehavior, tol: float) -> dict:
    """``crypt_gaps`` as one scalar 2x2 loop per side: the reference the
    batched kernel must equal exactly."""
    gaps = {}
    for side, delta in (("B", d.deltaB), ("A", d.deltaA)):
        root = np.sqrt(np.clip(delta, 0.0, None))
        denom = root[:, None] * np.ones((1, 2)) if side == "B" else root[None, :] * np.ones((2, 1))
        cap = float((denom - np.abs(d.c)).min())
        ct = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                if denom[i, j] > 0.0:
                    ct[i, j] = d.c[i, j] / denom[i, j]
                else:
                    ct[i, j] = 0.0 if d.c[i, j] == 0.0 else 2.0
        gaps["cap" + side] = cap
        if np.abs(ct).max() > 1.0 + math.sqrt(tol):
            gaps["tlm" + side] = min(cap, 0.0)
        else:
            ct = np.clip(ct, -1.0, 1.0)
            comp = np.clip(1.0 - ct**2, 0.0, None)
            lhs = abs(ct[0, 0] * ct[0, 1] - ct[1, 0] * ct[1, 1])
            rhs = math.sqrt(comp[0, 0] * comp[0, 1]) + math.sqrt(comp[1, 0] * comp[1, 1])
            gaps["tlm" + side] = float(rhs - lhs)
    return gaps


def _stacked_d_points(rng, tol):
    """D-points covering every branch of the gap: realizable points, random
    scaled correlators, zero biases with zero and nonzero correlators, and
    a scaled correlator just beyond 1 inside and outside 1 + sqrt(tol)."""
    points = [simulate_dbehavior(random_two_qubit(rng)) for _ in range(20)]
    for k in range(40):
        dB, dA = rng.uniform(0.0, 1.0, 2), rng.uniform(0.0, 1.0, 2)
        c = rng.uniform(-1.0, 1.0, (2, 2)) * np.sqrt(dB)[:, None]
        if k % 4 == 0:
            dB[0], c[0] = 0.0, 0.0
        elif k % 4 == 1:
            dB[0], c[0, 0] = 0.0, 0.3
        elif k % 4 == 2:
            dB[1], c[1, 0] = 0.5, math.sqrt(0.5) * (1.0 + 10.0 * tol)
        else:
            dB[1], c[1, 0] = 0.5, math.sqrt(0.5) * (1.0 + 10.0 * math.sqrt(tol))
        points.append(DBehavior(deltaB=dB, deltaA=dA, c=c))
    return points


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
def test_crypt_gaps_batch_matches_scalar_exactly(tol):
    rng = np.random.default_rng(11)
    points = _stacked_d_points(rng, tol)
    deltaB = np.array([d.deltaB for d in points])
    deltaA = np.array([d.deltaA for d in points])
    c = np.array([d.c for d in points])
    scalar = [crypt_gaps(d, tol) for d in points]
    assert scalar == [_loop_crypt_gaps(d, tol) for d in points]
    # the stack holds the zero-bias sentinel, the clipped branch and the cap deficit
    peak = np.array([np.abs(scaled_correlators(d, "B")).max() for d in points])
    assert np.any(peak == 2.0)
    assert np.any((peak > 1.0 + tol) & (peak <= 1.0 + math.sqrt(tol)))
    assert np.any((peak > 1.0 + math.sqrt(tol)) & (peak < 2.0))
    for shape in [(60,), (6, 10)]:
        batch = crypt_gaps_batch(
            deltaB.reshape(shape + (2,)), deltaA.reshape(shape + (2,)), c.reshape(shape + (2, 2)), tol
        )
        assert list(batch) == ["capB", "tlmB", "capA", "tlmA"]
        for key, values in batch.items():
            assert values.shape == shape
            assert values.ravel().tolist() == [g[key] for g in scalar]


def test_crypt_membership_extremes():
    inside = DBehavior(deltaB=[1.0, 1.0], deltaA=[1.0, 1.0], c=np.zeros((2, 2)))
    assert crypt_membership(inside)
    outside = DBehavior(deltaB=[0.25, 0.25], deltaA=[0.25, 0.25], c=0.9 * np.ones((2, 2)))
    assert not crypt_membership(outside)
    gaps = crypt_gaps(outside)
    assert gaps["capB"] < 0.0 and gaps["capA"] < 0.0


def test_extremal_criterion_tsirelson():
    v = extremal_criterion(tsirelson())
    assert v.conditionSPlus and v.tlmBSaturated and v.tlmASaturated
    assert v.conjecture1Candidate
    assert v.sin2chiSquared == pytest.approx(1.0, abs=1e-12)
    # a maximally entangled point: the geometry does not pin angles uniquely
    assert not v.uniquenessTrivial


def test_extremal_criterion_reference_point():
    v = extremal_criterion(reference_point(1e-4), 1e-7)
    # the consistent branch at this point is the minus branch at (1,1),
    # so the all-plus condition fails while the point is still on the boundary
    assert not v.conditionSPlus
    assert not v.conjecture1Candidate


def test_extremal_criterion_on_conforming_geometry():
    rng = np.random.default_rng(314)
    found = 0
    while found < 10:
        r = random_two_qubit(rng)
        if r.chi > math.pi / 4 - 0.05 or r.chi < 0.05:
            continue
        if not sign_condition_ok(projection_angles(r)):
            continue
        s = s_quantities(simulate_cbehavior(r))
        if s.sPlus.max() - s.sPlus.min() > 1e-10:
            continue  # the upper branch must be the consistent one
        v = extremal_criterion(simulate_cbehavior(r), 1e-9)
        assert v.conditionSPlus and v.tlmBSaturated and v.tlmASaturated
        assert v.conjecture1Candidate
        assert v.sin2chiSquared == pytest.approx(math.sin(2 * r.chi) ** 2, abs=1e-7)
        found += 1


def test_extremal_criterion_rejects_local_and_invalid():
    with pytest.raises(InvalidBehaviorError):
        extremal_criterion(CBehavior(cA=[0, 0], cB=[0, 0], c=np.zeros((2, 2))))
    with pytest.raises(InvalidBehaviorError):
        extremal_criterion(CBehavior(cA=[1.0, 0], cB=[-1.0, 0], c=[[1.0, 0], [0, 0]]))


def test_discriminant_failure_raises():
    b = CBehavior(cA=[0.9, 0.0], cB=[0.9, 0.0], c=[[-0.9, 0.0], [0.0, 0.0]])
    with pytest.raises(InvalidBehaviorError):
        s_quantities(b)
