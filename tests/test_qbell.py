import math
import os
import subprocess
import sys

import numpy as np
import pytest

import bellgeo
from bellgeo.behavior import DBehavior
from bellgeo.cli import main
from bellgeo.geometry import projection_angles, sign_condition_ok, two_qubit_of
from bellgeo.qbell import (
    ROOT_SEPARATION,
    DegenerateGeometryError,
    QuantumBellInequality,
    _ratio_values,
    chain_slacks,
    construct_pair,
    evaluate,
    recovered_d_squared,
    uniqueness_check,
    verify_cryptographic_chain,
)
from bellgeo.realization import (
    TwoQubitRealization,
    random_two_qubit,
    simulate_dbehavior,
)

RNG = np.random.default_rng(20240815)


def reference_realization(eps=1e-9):
    return TwoQubitRealization(
        thetaA=[0.0, math.pi / 2], thetaB=[eps, -math.pi / 4], chi=math.pi / 12
    )


def tsirelson_realization():
    return TwoQubitRealization(
        thetaA=[math.pi / 4, -math.pi / 4], thetaB=[0.0, math.pi / 2], chi=math.pi / 4
    )


def random_conforming(rng):
    while True:
        r = random_two_qubit(rng)
        if not 0.05 <= r.chi <= math.pi / 4 - 0.05:
            continue
        g = projection_angles(r)
        if sign_condition_ok(g):
            try:
                construct_pair(g)
            except DegenerateGeometryError:
                continue
            return g


def test_reference_point_saturates_both_sides():
    g = projection_angles(reference_realization())
    ineqB, ineqA, _ = construct_pair(g)
    d = simulate_dbehavior(two_qubit_of(g))
    assert evaluate(ineqB, d) == pytest.approx(ineqB.bound, abs=1e-9)
    assert evaluate(ineqA, d) == pytest.approx(ineqA.bound, abs=1e-9)


def test_tsirelson_inequality_shape():
    g = projection_angles(tsirelson_realization())
    ineqB, ineqA, _ = construct_pair(g)
    assert ineqB.q == pytest.approx(0.5, abs=1e-12)
    assert ineqB.bound == pytest.approx(0.5, abs=1e-12)
    v = np.abs(np.asarray(ineqB.Vcorr))
    assert v.max() - v.min() < 1e-12  # all correlator weights equal in magnitude
    signs = np.sign(np.asarray(ineqB.Vcorr))
    assert np.array_equal(signs, np.array([[1.0, 1.0], [1.0, -1.0]]))
    d = simulate_dbehavior(two_qubit_of(g))
    assert evaluate(ineqB, d) == pytest.approx(0.5, abs=1e-12)
    assert evaluate(ineqA, d) == pytest.approx(ineqA.bound, abs=1e-12)


def test_coefficient_identities():
    rng = np.random.default_rng(77)
    for _ in range(20):
        g = random_conforming(rng)
        for ineq, coeff in zip(construct_pair(g)[:2], construct_pair(g)[2]):
            u, s = np.asarray(coeff.u), np.asarray(coeff.s)
            vmarg, vcorr = np.asarray(ineq.Vmarg), np.asarray(ineq.Vcorr)
            assert vmarg.min() >= 0.0
            assert np.prod(vcorr) <= 1e-12  # overall product nonpositive
            # one cross-relation tying the two rows together
            lhs = vmarg[1] * vcorr[0, 0] * vcorr[0, 1]
            rhs = -vmarg[0] * vcorr[1, 0] * vcorr[1, 1]
            assert lhs == pytest.approx(rhs, abs=1e-9)
            assert np.sum(u**2) == pytest.approx(1.0, abs=1e-9)
            assert u[0, 0] * u[0, 1] == pytest.approx(u[1, 0] * u[1, 1], abs=1e-9)
            assert ineq.q * s[0] ** 2 == pytest.approx(vmarg[0], abs=1e-12)
            assert ineq.bound == pytest.approx(1.0 / (4.0 * ineq.q), abs=1e-12)
            if np.isfinite(coeff.alpha) and np.isfinite(coeff.beta):
                assert coeff.alpha == pytest.approx(u[0, 1] / u[0, 0], abs=1e-12)
                assert coeff.beta == pytest.approx(u[1, 0] / u[1, 1], abs=1e-12)


def test_saturation_on_random_conforming_geometries():
    rng = np.random.default_rng(88)
    for _ in range(20):
        g = random_conforming(rng)
        ineqB, ineqA, _ = construct_pair(g)
        d = simulate_dbehavior(two_qubit_of(g))
        assert evaluate(ineqB, d) == pytest.approx(ineqB.bound, abs=1e-9)
        assert evaluate(ineqA, d) == pytest.approx(ineqA.bound, abs=1e-9)


def test_recovered_d_squared_matches_geometry():
    rng = np.random.default_rng(99)
    for _ in range(20):
        g = random_conforming(rng)
        from bellgeo.geometry import d_values

        dB, dA = d_values(g)
        ineqB, ineqA, (coeffB, coeffA) = construct_pair(g)
        d0, d1 = recovered_d_squared(coeffB, ineqB.q, math.cos(coeffB.dthetaRef))
        assert d0 == pytest.approx(dB[0], abs=1e-9)
        assert d1 == pytest.approx(dB[1], abs=1e-9)
        a0, a1 = recovered_d_squared(coeffA, ineqA.q, math.cos(coeffA.dthetaRef))
        assert a0 == pytest.approx(dA[0], abs=1e-9)
        assert a1 == pytest.approx(dA[1], abs=1e-9)


def test_bounds_respected_by_random_realizations():
    rng = np.random.default_rng(111)
    geometries = [random_conforming(rng) for _ in range(5)]
    pairs = [construct_pair(g)[:2] for g in geometries]
    for _ in range(200):
        d = simulate_dbehavior(random_two_qubit(rng))
        for ineqB, ineqA in pairs:
            assert evaluate(ineqB, d) <= ineqB.bound + 1e-7
            assert evaluate(ineqA, d) <= ineqA.bound + 1e-7


def test_chain_slacks_vanish_on_generator():
    rng = np.random.default_rng(123)
    g = random_conforming(rng)
    ineqB, ineqA, (coeffB, coeffA) = construct_pair(g)
    d = simulate_dbehavior(two_qubit_of(g))
    for ineq, coeff in ((ineqB, coeffB), (ineqA, coeffA)):
        slacks = chain_slacks(ineq, coeff, d)
        assert abs(slacks["slackCrypt"]) < 1e-9
        assert abs(slacks["slackQuadratic"]) < 1e-9
        assert slacks["value"] == pytest.approx(ineq.bound, abs=1e-9)


def test_chain_slacks_nonnegative_on_foreign_behavior():
    rng = np.random.default_rng(131)
    g = random_conforming(rng)
    ineqB, ineqA, (coeffB, coeffA) = construct_pair(g)
    for _ in range(100):
        d = simulate_dbehavior(random_two_qubit(rng))
        for ineq, coeff in ((ineqB, coeffB), (ineqA, coeffA)):
            slacks = chain_slacks(ineq, coeff, d)
            assert slacks["slackCrypt"] >= -1e-9
            assert slacks["slackQuadratic"] >= -1e-9


def test_verify_cryptographic_chain():
    g = projection_angles(reference_realization())
    report = verify_cryptographic_chain(g, two_qubit_of(g), tol=1e-9)
    for side in ("B", "A"):
        assert abs(report[side]["slackCrypt"]) < 1e-9
        assert abs(report[side]["slackQuadratic"]) < 1e-9
    with pytest.raises(ValueError):
        verify_cryptographic_chain(g, tsirelson_realization(), tol=1e-9)


def test_uniqueness_reference_point_trivial():
    g = projection_angles(reference_realization(1e-4))
    report = uniqueness_check(g)
    assert report.trivialOnly
    assert len(report.solutions) == 1
    ta, tb, resid = report.solutions[0]
    assert resid <= 1e-8
    assert ta == pytest.approx(math.cos(g.thetaA[0] - g.thetaA[1]), abs=1e-6)
    assert tb == pytest.approx(math.cos(g.thetaB[0] - g.thetaB[1]), abs=1e-6)


def test_uniqueness_random_conforming():
    rng = np.random.default_rng(222)
    trivial = 0
    for _ in range(5):
        g = random_conforming(rng)
        report = uniqueness_check(g)
        # the reference solution is always present and always accurate
        assert any(
            abs(ta - math.cos(g.thetaA[0] - g.thetaA[1])) < 1e-4
            and abs(tb - math.cos(g.thetaB[0] - g.thetaB[1])) < 1e-4
            for ta, tb, _ in report.solutions
        )
        assert all(resid <= 1e-12 for _, _, resid in report.solutions)
        trivial += report.trivialOnly
    assert trivial >= 1


def _grid_roots(g, n=101, steps=30, h=1e-7):
    """Roots of the uniqueness system found apart from the solver: every
    local minimum of the residual on an n x n grid, refined by Gauss-Newton
    steps with a finite-difference Jacobian, kept when it converges."""
    _, _, (coeffB, coeffA) = construct_pair(g)

    def residual(x):
        return _ratio_values(coeffA, x[0]) - _ratio_values(coeffB, x[1])

    ts = np.linspace(-1.0, 1.0, n)
    res = np.sum(
        (_ratio_values(coeffA, ts)[:, :, None] - _ratio_values(coeffB, ts)[:, None, :]) ** 2,
        axis=0,
    )
    pad = np.pad(res, 1, constant_values=np.inf)
    mid = pad[1:-1, 1:-1]
    is_min = (
        (mid <= pad[:-2, 1:-1]) & (mid <= pad[2:, 1:-1])
        & (mid <= pad[1:-1, :-2]) & (mid <= pad[1:-1, 2:])
    )
    roots = []
    for i, j in zip(*np.nonzero(is_min)):
        x = np.array([ts[i], ts[j]])
        for _ in range(steps):
            jac = np.stack(
                [
                    (residual(x + [h, 0.0]) - residual(x - [h, 0.0])) / (2 * h),
                    (residual(x + [0.0, h]) - residual(x - [0.0, h])) / (2 * h),
                ],
                axis=1,
            )
            x = np.clip(x - np.linalg.lstsq(jac, residual(x), rcond=None)[0], -1.0, 1.0)
        if np.sum(residual(x) ** 2) <= 1e-20:
            roots.append(x)
    return roots


def test_uniqueness_finds_every_grid_root():
    rng = np.random.default_rng(222)
    for _ in range(5):
        g = random_conforming(rng)
        report = uniqueness_check(g)
        roots = _grid_roots(g)
        assert roots
        for ta, tb in roots:
            assert any(
                abs(ta - s[0]) <= ROOT_SEPARATION and abs(tb - s[1]) <= ROOT_SEPARATION
                for s in report.solutions
            ), f"root ({ta}, {tb}) missing from {report.solutions}"


def test_uniqueness_ill_conditioned_reference_has_no_second_root():
    # the system's smallest Jacobian singular value is about 0.03 here; a
    # local search stopped short of the reference root and reported a
    # spurious second one
    r = TwoQubitRealization(
        thetaA=[4.2061373426717035, 1.724919968560045],
        thetaB=[5.25820710404598, 1.45865376210962],
        chi=0.7113538893957978,
    )
    report = uniqueness_check(projection_angles(r))
    assert report.trivialOnly
    assert len(report.solutions) == 1
    assert main(["qbell", "-i", r.to_json()]) == 0


def test_uniqueness_maximally_entangled_degenerate_line():
    report = uniqueness_check(projection_angles(tsirelson_realization()))
    assert not report.trivialOnly
    assert len(report.solutions) > 1
    # the solutions fill the line tA = tB; its clipped endpoints are reported
    ends = {(round(ta, 9), round(tb, 9)) for ta, tb, _ in report.solutions}
    assert {(-1.0, -1.0), (1.0, 1.0)} <= ends
    assert all(abs(ta - tb) <= 1e-12 for ta, tb, _ in report.solutions)


def test_cli_import_leaves_scipy_out():
    code = "import sys, bellgeo.cli; sys.exit('scipy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(bellgeo.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, timeout=60
    )
    assert proc.returncode == 0


def test_boundary_coefficient_geometry_still_constructs():
    # phi^B_0 = theta^B_1 makes one u entry vanish: alpha or beta degenerates
    # but the inequality itself remains finite and saturated
    chi = 0.3
    s2 = math.sin(2 * chi)
    tA0 = 0.9
    phiB0 = math.atan2(math.sin(tA0) * s2, math.cos(tA0))
    r = TwoQubitRealization(thetaA=[tA0, 2.4], thetaB=[phiB0, -0.6], chi=chi)
    g = projection_angles(r)
    if sign_condition_ok(g):
        ineqB, _, _ = construct_pair(g)
        d = simulate_dbehavior(r)
        assert evaluate(ineqB, d) == pytest.approx(ineqB.bound, abs=1e-9)


def test_evaluate_interior_behavior_below_bound():
    g = projection_angles(reference_realization())
    ineqB, ineqA, _ = construct_pair(g)
    quiet = DBehavior(deltaB=[1.0, 1.0], deltaA=[1.0, 1.0], c=np.zeros((2, 2)))
    assert evaluate(ineqB, quiet) < ineqB.bound
    assert evaluate(ineqA, quiet) < ineqA.bound


def test_degenerate_geometry_rejected():
    r = TwoQubitRealization(thetaA=[0.5, 0.5], thetaB=[0.2, 1.0], chi=0.3)
    with pytest.raises(DegenerateGeometryError):
        construct_pair(projection_angles(r))


def test_inequality_json_round_trip():
    g = projection_angles(reference_realization())
    ineqB, _, _ = construct_pair(g)
    again = QuantumBellInequality.from_json(ineqB.to_json())
    assert again.side == ineqB.side
    assert np.array_equal(np.asarray(again.Vmarg), np.asarray(ineqB.Vmarg))
    assert np.array_equal(np.asarray(again.Vcorr), np.asarray(ineqB.Vcorr))
    assert again.q == ineqB.q and again.bound == ineqB.bound
