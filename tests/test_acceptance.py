"""Acceptance gate: the eight end-to-end criteria of the package.

Each test computes its verdict, prints one summary line, and asserts.
Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import math
import time

import numpy as np

from bellgeo.behavior import CBehavior, mix, is_local
from bellgeo.criteria import crypt_membership, s_quantities, two_qubit_condition
from bellgeo.geometry import (
    d_values,
    projection_angles,
    reconstruct,
    sign_condition_ok,
    symmetry_equivalent,
)
from bellgeo.qbell import DegenerateGeometryError, construct_pair, evaluate, uniqueness_check
from bellgeo.realization import (
    SIGMA1,
    SIGMA2,
    SIGMA3,
    GeneralRealization,
    TwoQubitRealization,
    embed,
    guessing_bias,
    guessing_bias_oracle,
    haar_unitary,
    promote,
    random_general,
    random_two_qubit,
    simulate_cbehavior,
    simulate_dbehavior,
    xz_observable,
)
from bellgeo.selftest import ExtendedRealization, derive_operators, protocol_lemma6_pair, protocol_zb, swap_isometry, anticommutator_residual
from realizations import random_conforming, reference_realization


def _report(n, ok, detail):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def tsirelson_behavior():
    c = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    return CBehavior(cA=[0.0, 0.0], cB=[0.0, 0.0], c=c)


def test_acceptance_1_counterexample():
    start = time.perf_counter()
    limit = 1.0 - 1.0 / math.sqrt(2.0)
    details = []
    ok = True
    for eps, tol in ((0.01, 2e-2), (0.001, 2e-3)):
        p = reference_realization(eps)
        q = TwoQubitRealization(thetaA=p.thetaA, thetaB=p.thetaB, chi=math.pi / 8)
        pc, qc = simulate_cbehavior(p), simulate_cbehavior(q)

        def chsh(b):
            return float(b.c[0, 0] + b.c[0, 1] + b.c[1, 0] - b.c[1, 1])

        lam = (2.0 - chsh(pc)) / (2.0 - chsh(qc))
        w = [1.0 / (1.0 - lam), -lam / (1.0 - lam)]
        lc = mix([pc, qc], w)
        ld = mix([simulate_dbehavior(p), simulate_dbehavior(q)], w)
        local = is_local(lc, 1e-9)
        member = crypt_membership(ld, 1e-9)
        lam_ok = abs(lam - limit) < tol
        ok = ok and local and not member and lam_ok
        details.append(
            f"eps={eps}: |lambda-limit|={abs(lam - limit):.2e} (<{tol}), "
            f"L local={local}, L in crypt set={member}"
        )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(1, ok, "; ".join(details) + f"; runtime {elapsed:.3f}s (<1s)")


def test_acceptance_2_s_branch_structure():
    ts = tsirelson_behavior()
    s = s_quantities(ts)
    splus_ok = np.abs(s.sPlus - 1.0).max() <= 1e-9
    sminus_ok = np.abs(s.sMinus - 0.5).max() <= 1e-9
    h_minus = float(np.prod((1.0 - 0.5) * np.asarray(ts.c)))
    p = simulate_cbehavior(reference_realization(1e-9))
    patterns = two_qubit_condition(p, 1e-6)
    match = [pat for pat in patterns if abs(pat.commonValue - 0.25) < 1e-5]
    pattern_ok = len(match) == 1 and np.array_equal(match[0].p, np.array([[1, 1], [1, -1]]))
    ok = splus_ok and sminus_ok and h_minus < 0.0 and pattern_ok
    _report(
        2,
        ok,
        f"Tsirelson S+ spread {np.abs(s.sPlus - 1.0).max():.1e}, "
        f"S- spread {np.abs(s.sMinus - 0.5).max():.1e}, all-minus H={h_minus:.3f} (<0); "
        f"reference point (+,+,+,-) pattern with common value 0.25: {pattern_ok}",
    )


def test_acceptance_3_geometry_roundtrip():
    start = time.perf_counter()
    rng = np.random.default_rng(33033)
    failures = 0
    done = 0
    while done < 1000:
        r = random_two_qubit(rng)
        # strict partial entanglement: near chi = pi/4 the marginal-to-angle
        # map is ill-conditioned and near chi = 0 the behavior turns local
        if not 0.01 <= r.chi <= math.pi / 4 - 0.01:
            continue
        g = projection_angles(r)
        if not sign_condition_ok(g):
            continue
        try:
            g2 = reconstruct(simulate_cbehavior(r), tol=1e-7)
        except Exception:
            failures += 1
            done += 1
            continue
        if not symmetry_equivalent(g2, g, tol=1e-7):
            failures += 1
        done += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 10.0
    _report(3, ok, f"{done} roundtrips, {failures} failures, runtime {elapsed:.2f}s (<10s)")


def test_acceptance_4_quantum_bell_construction():
    rng = np.random.default_rng(44044)
    worst_sat = 0.0
    worst_ident = 0.0
    pairs = []
    for _ in range(20):
        g = projection_angles(random_conforming(rng))
        ineqB, ineqA, coeffs = construct_pair(g)
        d = simulate_dbehavior(promote(TwoQubitRealization(thetaA=g.thetaA, thetaB=g.thetaB, chi=g.chi)))
        worst_sat = max(
            worst_sat,
            abs(evaluate(ineqB, d) - ineqB.bound),
            abs(evaluate(ineqA, d) - ineqA.bound),
        )
        for ineq, coeff in zip((ineqB, ineqA), coeffs):
            u, s = np.asarray(coeff.u), np.asarray(coeff.s)
            vm, vc = np.asarray(ineq.Vmarg), np.asarray(ineq.Vcorr)
            worst_ident = max(
                worst_ident,
                abs(np.sum(u**2) - 1.0),
                abs(u[0, 0] * u[0, 1] - u[1, 0] * u[1, 1]),
                abs(vm[1] * vc[0, 0] * vc[0, 1] + vm[0] * vc[1, 0] * vc[1, 1]),
                abs(vm[0] - ineq.q * s[0] ** 2),
                abs(vm[1] - ineq.q * s[1] ** 2),
                abs(ineq.bound - 1.0 / (4.0 * ineq.q)),
                max(-vm.min(), 0.0),
            )
        pairs.append((ineqB, ineqA))
    worst_excess = -math.inf
    for _ in range(1000):
        d = simulate_dbehavior(random_two_qubit(rng))
        for ineqB, ineqA in pairs:
            worst_excess = max(
                worst_excess,
                evaluate(ineqB, d) - ineqB.bound,
                evaluate(ineqA, d) - ineqA.bound,
            )
    ok = worst_sat <= 1e-9 and worst_ident <= 1e-9 and worst_excess <= 1e-7
    _report(
        4,
        ok,
        f"20 geometries: worst saturation error {worst_sat:.1e} (<=1e-9), worst "
        f"coefficient-identity error {worst_ident:.1e} (<=1e-9); 1000 realizations: "
        f"worst bound excess {worst_excess:.1e} (<=1e-7)",
    )


def test_acceptance_5_uniqueness():
    rng = np.random.default_rng(55055)
    g_ref = projection_angles(reference_realization(0.05))
    reports = [(g_ref, uniqueness_check(g_ref))]
    checked = 0
    while checked < 20:
        g = projection_angles(random_conforming(rng))
        try:
            reports.append((g, uniqueness_check(g)))
        except DegenerateGeometryError:
            continue
        checked += 1
    all_trivial = all(rep.trivialOnly for _, rep in reports)
    worst_res = 0.0
    found_trivial = True
    for g, rep in reports:
        ta_ref = math.cos(g.thetaA[0] - g.thetaA[1])
        tb_ref = math.cos(g.thetaB[0] - g.thetaB[1])
        hit = [
            resid
            for ta, tb, resid in rep.solutions
            if abs(ta - ta_ref) <= 1e-4 and abs(tb - tb_ref) <= 1e-4
        ]
        if not hit:
            found_trivial = False
        else:
            worst_res = max(worst_res, min(hit))
    ok = all_trivial and found_trivial and worst_res <= 1e-8
    _report(
        5,
        ok,
        f"reference + 20 random geometries all trivialOnly={all_trivial}; trivial "
        f"solution always found={found_trivial}, worst residual {worst_res:.1e} (<=1e-8)",
    )


def test_acceptance_6_guessing_bias():
    rng = np.random.default_rng(66066)
    worst_oracle = 0.0
    for _ in range(200):
        dimA = int(rng.integers(2, 5))
        dimB = int(rng.integers(2, 5))
        r = random_general(rng, dimA, dimB)
        side = "B" if rng.uniform() < 0.5 else "A"
        setting = int(rng.integers(0, 2))
        worst_oracle = max(
            worst_oracle,
            abs(guessing_bias(r, side, setting) - guessing_bias_oracle(r, side, setting)),
        )
    worst_d = 0.0
    for _ in range(100):
        r = random_two_qubit(rng)
        g = projection_angles(r)
        dB, dA = d_values(g)
        p = promote(r)
        for x in range(2):
            worst_d = max(worst_d, abs(guessing_bias(p, "B", x) ** 2 - dB[x]))
        for y in range(2):
            worst_d = max(worst_d, abs(guessing_bias(p, "A", y) ** 2 - dA[y]))
    ok = worst_oracle <= 1e-6 and worst_d <= 1e-9
    _report(
        6,
        ok,
        f"closed form vs oracle on 200 realizations: worst gap {worst_oracle:.1e} "
        f"(<=1e-6); promoted bias^2 vs planar d on 100 realizations: worst gap "
        f"{worst_d:.1e} (<=1e-9)",
    )


def test_acceptance_7_self_testing():
    rng = np.random.default_rng(77077)
    worst_fid = 0.0
    worst_resid = 0.0
    for i in range(50):
        while True:
            r = random_two_qubit(rng)
            if 0.05 <= r.chi <= math.pi / 4 - 0.05 and sign_condition_ok(projection_angles(r)):
                break
        g = projection_angles(r)
        p = promote(r)
        ops = derive_operators(p, g)
        worst_fid = max(worst_fid, abs(swap_isometry(p, ops, g.chi) - 1.0))
        e = embed(p, unitaryA=haar_unitary(rng, 3), unitaryB=haar_unitary(rng, 3), padA=1, padB=1)
        ops_e = derive_operators(e, g)
        worst_fid = max(worst_fid, abs(swap_isometry(e, ops_e, g.chi) - 1.0))
        worst_resid = max(worst_resid, max(anticommutator_residual(p, ops, g).values()))
    # conforming extensions accepted
    protocols_ok = True
    for _ in range(5):
        while True:
            r = random_two_qubit(rng)
            if 0.05 <= r.chi <= math.pi / 4 - 0.05 and sign_condition_ok(projection_angles(r)):
                break
        p = promote(r)
        if not protocol_zb(ExtendedRealization(base=p, B2=SIGMA3), tol=1e-7)["selfTested"]:
            protocols_ok = False
        while True:
            theta2 = rng.uniform(-math.pi, math.pi)
            if abs(math.sin(theta2 - r.thetaB[0])) < 0.05:
                continue
            alt = TwoQubitRealization(thetaA=r.thetaA, thetaB=[r.thetaB[0], theta2], chi=r.chi)
            if sign_condition_ok(projection_angles(alt)):
                break
        rep = protocol_lemma6_pair(ExtendedRealization(base=p, B2=xz_observable(theta2)), tol=1e-7)
        if not rep["selfTested"]:
            protocols_ok = False
    # corrupted extensions rejected
    rejected = 0
    total_corrupted = 100
    for i in range(total_corrupted):
        while True:
            r = random_two_qubit(rng)
            if 0.05 <= r.chi <= math.pi / 4 - 0.05 and sign_condition_ok(projection_angles(r)):
                break
        p = promote(r)
        w = rng.uniform(0.05, 0.8)
        theta2 = rng.uniform(-math.pi, math.pi)
        corrupted = math.sqrt(1.0 - w * w) * xz_observable(theta2) + w * SIGMA2
        proto = protocol_zb if i % 2 == 0 else protocol_lemma6_pair
        if not proto(ExtendedRealization(base=p, B2=corrupted), tol=1e-7)["selfTested"]:
            rejected += 1
    ok = (
        worst_fid <= 1e-9
        and worst_resid <= 1e-9
        and protocols_ok
        and rejected == total_corrupted
    )
    _report(
        7,
        ok,
        f"worst |fidelity-1| {worst_fid:.1e} (<=1e-9) over 50 promoted + 50 embedded; "
        f"worst identity residual {worst_resid:.1e} (<=1e-9); conforming protocols "
        f"accepted={protocols_ok}; corrupted rejected {rejected}/{total_corrupted}",
    )


def test_acceptance_8_membership_chain():
    rng = np.random.default_rng(88088)
    members = 0
    for _ in range(1000):
        if crypt_membership(simulate_dbehavior(random_two_qubit(rng)), 1e-9):
            members += 1
    # the completely random correlation admits two distinct bias representations
    rep1 = GeneralRealization(
        dimA=2, dimB=2, psi=[1, 0, 0, 0], A=(SIGMA1, SIGMA1), B=(SIGMA1, SIGMA1)
    )
    d1 = simulate_dbehavior(rep1)
    zero_ok = (
        np.abs(np.asarray(d1.deltaB)).max() <= 1e-12
        and np.abs(np.asarray(d1.deltaA)).max() <= 1e-12
        and np.abs(np.asarray(d1.c)).max() <= 1e-12
    )
    root = 1.0 / math.sqrt(2.0)
    rep2 = GeneralRealization(
        dimA=2, dimB=2, psi=[root, 0, 0, root], A=(SIGMA1, SIGMA1), B=(SIGMA3, SIGMA3)
    )
    d2 = simulate_dbehavior(rep2)
    one_ok = (
        np.abs(np.asarray(d2.deltaB) - 1.0).max() <= 1e-12
        and np.abs(np.asarray(d2.deltaA) - 1.0).max() <= 1e-12
        and np.abs(np.asarray(d2.c)).max() <= 1e-12
    )
    ok = members == 1000 and zero_ok and one_ok
    _report(
        8,
        ok,
        f"{members}/1000 random realizations pass membership; zero-bias "
        f"representation exact={zero_ok}; unit-bias representation exact={one_ok}",
    )
