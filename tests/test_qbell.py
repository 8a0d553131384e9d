import json
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
    uniqueness_check,
)
from bellgeo.realization import (
    TwoQubitRealization,
    random_two_qubit,
    simulate_dbehavior,
)
from realizations import random_conforming, reference_realization, tsirelson_realization

RNG = np.random.default_rng(20240815)


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
        g = projection_angles(random_conforming(rng))
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


def test_saturation_on_random_conforming_geometries():
    rng = np.random.default_rng(88)
    for _ in range(20):
        g = projection_angles(random_conforming(rng))
        ineqB, ineqA, _ = construct_pair(g)
        d = simulate_dbehavior(two_qubit_of(g))
        assert evaluate(ineqB, d) == pytest.approx(ineqB.bound, abs=1e-9)
        assert evaluate(ineqA, d) == pytest.approx(ineqA.bound, abs=1e-9)


def test_bounds_respected_by_random_realizations():
    rng = np.random.default_rng(111)
    geometries = [projection_angles(random_conforming(rng)) for _ in range(5)]
    pairs = [construct_pair(g)[:2] for g in geometries]
    for _ in range(200):
        d = simulate_dbehavior(random_two_qubit(rng))
        for ineqB, ineqA in pairs:
            assert evaluate(ineqB, d) <= ineqB.bound + 1e-7
            assert evaluate(ineqA, d) <= ineqA.bound + 1e-7


def test_chain_slacks_vanish_on_generator():
    rng = np.random.default_rng(123)
    g = projection_angles(random_conforming(rng))
    ineqB, ineqA, (coeffB, coeffA) = construct_pair(g)
    d = simulate_dbehavior(two_qubit_of(g))
    for ineq, coeff in ((ineqB, coeffB), (ineqA, coeffA)):
        slacks = chain_slacks(ineq, coeff, d)
        assert abs(slacks["slackCrypt"]) < 1e-9
        assert abs(slacks["slackQuadratic"]) < 1e-9
        assert slacks["value"] == pytest.approx(ineq.bound, abs=1e-9)


def test_chain_slacks_nonnegative_on_foreign_behavior():
    rng = np.random.default_rng(131)
    g = projection_angles(random_conforming(rng))
    ineqB, ineqA, (coeffB, coeffA) = construct_pair(g)
    for _ in range(100):
        d = simulate_dbehavior(random_two_qubit(rng))
        for ineq, coeff in ((ineqB, coeffB), (ineqA, coeffA)):
            slacks = chain_slacks(ineq, coeff, d)
            assert slacks["slackCrypt"] >= -1e-9
            assert slacks["slackQuadratic"] >= -1e-9


def test_verify_cryptographic_chain():
    """The bound chain of the reference pair: both slacks vanish on the
    reference behavior, and the Tsirelson behavior, which the pair does not
    self-test, leaves the first step of the chain far from tight."""
    g = projection_angles(reference_realization())
    ineqB, ineqA, (coeffB, coeffA) = construct_pair(g)
    own = simulate_dbehavior(two_qubit_of(g))
    foreign = simulate_dbehavior(tsirelson_realization())
    for ineq, coeff in ((ineqB, coeffB), (ineqA, coeffA)):
        slacks = chain_slacks(ineq, coeff, own)
        assert abs(slacks["slackCrypt"]) < 1e-9
        assert abs(slacks["slackQuadratic"]) < 1e-9
        slacks = chain_slacks(ineq, coeff, foreign)
        assert slacks["slackQuadratic"] >= -1e-9
        assert slacks["slackCrypt"] > 0.1
        assert slacks["value"] < ineq.bound - 0.1


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
        g = projection_angles(random_conforming(rng))
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
        g = projection_angles(random_conforming(rng))
        report = uniqueness_check(g)
        roots = _grid_roots(g)
        assert roots
        for ta, tb in roots:
            assert any(
                abs(ta - s[0]) <= ROOT_SEPARATION and abs(tb - s[1]) <= ROOT_SEPARATION
                for s in report.solutions
            ), f"root ({ta}, {tb}) missing from {report.solutions}"


ILL_CONDITIONED = {
    # the system's smallest Jacobian singular value is about 0.03 here; a
    # local search stopped short of the reference root and reported a
    # spurious second one
    "shallow-valley": (
        (4.2061373426717035, 1.724919968560045), (5.25820710404598, 1.45865376210962),
        0.7113538893957978,
    ),
    # benchmark certify candidates, by seed: a residual of the ratios
    # normalized at the reference cosines passed points within 1e-5 of them
    # that solve no sign system as second roots
    "seed-904": (
        (5.168133156021628, 0.19642927668002796), (2.833322467363358, 0.48060962507082067),
        0.6114575748301248,
    ),
    "seed-1006": (
        (0.06182358147960837, 1.5215125875251092), (3.048933545000224, 3.5673078765437056),
        0.27977249860397546,
    ),
    "seed-1015": (
        (0.0803976510077037, 1.531298379364234), (0.7774684355351601, 3.093882145438255),
        0.48784537798275185,
    ),
    "seed-1018": (
        (3.2017632377839744, 4.029548155517673), (3.3633789412102186, 5.58038570052085),
        0.6445769584622997,
    ),
    "seed-1019": (
        (4.98775923808944, 3.087260798038875), (5.858002631451818, 4.658841300435234),
        0.706440310338344,
    ),
}


@pytest.mark.parametrize("name", ILL_CONDITIONED)
def test_uniqueness_ill_conditioned_reference_has_no_second_root(name, capsys):
    thetaA, thetaB, chi = ILL_CONDITIONED[name]
    r = TwoQubitRealization(thetaA=thetaA, thetaB=thetaB, chi=chi)
    report = uniqueness_check(projection_angles(r))
    assert report.trivialOnly
    assert len(report.solutions) == 1
    assert main(["check", "-i", r.to_json()]) == 0
    assert json.loads(capsys.readouterr().out)["uniquenessTrivial"] is True
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
