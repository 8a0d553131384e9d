"""Each output checker accepts the program's real output and rejects a wrong one.

Run from the repository root with ``python -m pytest bench/test_checks.py``.
The repository's own test run collects only ``tests/``, so these stay out of
it.  They call the CLI in-process to obtain outputs known to be right, then
corrupt one field at a time.
"""

import contextlib
import io
import json
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import bellgeo.cli  # noqa: E402
from bellgeo.realization import GeneralRealization, guessing_bias_oracle  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from checks import Mismatch  # noqa: E402


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bellgeo.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def edit_csv(out: str, row: int, col: int, fn) -> str:
    lines = out.strip().split("\n")
    fields = lines[row].split(",")
    fields[col] = fn(fields[col])
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def shift(delta):
    return lambda v: repr(float(v) + delta)


def edit_json(out: str, fn) -> str:
    v = json.loads(out)
    fn(v)
    return json.dumps(v)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(12345)


# -- sweep ------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep():
    return cli("sweep", "--mode", "random", "--samples", "40", "--seed", "7")


def test_sweep_accepts_program_output(sweep):
    checks.check_sweep(*sweep, 40)


@pytest.mark.parametrize(
    "row, col, fn",
    [
        (5, 6, shift(1e-6)),  # chshMax
        (9, 7, lambda v: "0"),  # cryptMember
        (3, 8, shift(1e-6)),  # tlmGapB
        (12, 9, shift(-1e-6)),  # tlmGapA
        (2, 1, shift(0.01)),  # an echoed angle no longer matches the row
    ],
)
def test_sweep_rejects_perturbed_field(sweep, row, col, fn):
    code, out, err = sweep
    with pytest.raises(Mismatch):
        checks.check_sweep(code, edit_csv(out, row, col, fn), err, 40)


def test_sweep_rejects_missing_row(sweep):
    code, out, err = sweep
    with pytest.raises(Mismatch):
        checks.check_sweep(code, out.rsplit("\n", 2)[0] + "\n", err, 40)


# -- counterexample boundary -------------------------------------------------

EPS = 0.03


@pytest.fixture(scope="module")
def boundary():
    return cli("counterexample", "--format", "csv", "--epsilon", repr(EPS), "--samples", "6")


def test_boundary_accepts_program_output(boundary):
    checks.check_boundary(*boundary, EPS, 6)


def _interior_endpoint_rows(out: str):
    """(row, column) of boundary endpoints that are neither the cap nor 1."""
    found = []
    for i, line in enumerate(out.strip().split("\n")[1:], start=1):
        side, label, c11, lo, hi = line.split(",")
        if label != "boundary":
            continue
        if float(lo) > float(c11) ** 2 + 1e-6:
            found.append((i, 3))
        if float(hi) < 1.0 - 1e-6:
            found.append((i, 4))
    return found


@pytest.mark.parametrize("delta", [1e-3, -1e-3])
def test_boundary_rejects_moved_endpoint(boundary, delta):
    code, out, err = boundary
    targets = _interior_endpoint_rows(out)
    assert targets, "the fixture has no endpoint away from the cap and 1"
    for row, col in targets:
        with pytest.raises(Mismatch):
            checks.check_boundary(code, edit_csv(out, row, col, shift(delta)), err, EPS, 6)


def test_boundary_rejects_wrong_marker(boundary):
    code, out, err = boundary
    row = next(i for i, line in enumerate(out.split("\n")) if line.startswith("A,L,"))
    with pytest.raises(Mismatch):
        checks.check_boundary(code, edit_csv(out, row, 3, shift(1e-6)), err, EPS, 6)


def test_boundary_rejects_fail_exit(boundary):
    _, out, err = boundary
    with pytest.raises(Mismatch):
        checks.check_boundary(2, out, err, EPS, 6)


# -- certify ----------------------------------------------------------------


@pytest.fixture(scope="module")
def candidate(rng):
    r = inputs.conforming(rng)
    behavior = json.dumps(inputs.behavior_json(r))
    return r, cli("check", "-i", behavior), cli("qbell", "-i", behavior)


def test_certify_checks_accept_program_output(candidate):
    r, check, qbell = candidate
    checks.check_candidate(*check, r)
    checks.check_qbell(*qbell, r)


@pytest.mark.parametrize(
    "fn",
    [
        lambda v: v.update(conjecture1Candidate=False),
        lambda v: v.update(uniquenessTrivial=False),
        lambda v: v.update(sin2chiSquared=v["sin2chiSquared"] + 1e-6),
    ],
)
def test_candidate_check_rejects_wrong_verdict(candidate, fn):
    r, (code, out, err), _ = candidate
    with pytest.raises(Mismatch):
        checks.check_candidate(code, edit_json(out, fn), err, r)


@pytest.mark.parametrize(
    "fn",
    [
        lambda v: v.update(valueB=v["valueB"] + 1e-6),
        lambda v: v.update(valueA=v["valueA"] - 1e-6),
        lambda v: v.update(solutions=[[s[0] + 1e-3, s[1], s[2]] for s in v["solutions"]]),
    ],
)
def test_qbell_check_rejects_wrong_output(candidate, fn):
    r, _, (code, out, err) = candidate
    with pytest.raises(Mismatch):
        checks.check_qbell(code, edit_json(out, fn), err, r)


def test_outside_check_rejects_candidate_verdict(rng):
    r = inputs.misoriented(rng)
    code, out, err = cli("check", "-i", json.dumps(inputs.behavior_json(r)))
    checks.check_outside(code, out, err)
    with pytest.raises(Mismatch):
        checks.check_outside(0, edit_json(out, lambda v: v.update(conjecture1Candidate=True)), err)


def test_selftest_check(rng):
    r = inputs.conforming(rng)
    good = {"base": r.to_json(), "protocol": "addedZ", "B2": inputs.matrix_json(inputs.SIGMA3)}
    bad = dict(good, B2=inputs.matrix_json(inputs.corrupt(rng, inputs.SIGMA3)))
    code, out, err = cli("selftest", "-i", json.dumps(good))
    checks.check_selftest(code, out, err, True)
    with pytest.raises(Mismatch):
        checks.check_selftest(code, edit_json(out, lambda v: v.update(fidelity=0.999)), err, True)
    code, out, err = cli("selftest", "-i", json.dumps(bad))
    checks.check_selftest(code, out, err, False)
    with pytest.raises(Mismatch):  # a corrupted extension reported as certified
        checks.check_selftest(0, edit_json(out, lambda v: v.update(selfTested=True)), err, False)


# -- general ----------------------------------------------------------------


def test_general_checks(rng):
    e = inputs.embedding(rng)
    text = json.dumps(e.to_json())
    code, out, err = cli("simulate", "-i", text)
    checks.check_simulate(code, out, err, e.base)
    for key, field in (("cbehavior", "cA"), ("dbehavior", "deltaB")):
        def bump(v, key=key, field=field):
            v[key][field][0] += 1e-6
        with pytest.raises(Mismatch):
            checks.check_simulate(code, edit_json(out, bump), err, e.base)
    value = guessing_bias_oracle(GeneralRealization.from_json(text), "A", 1)
    checks.check_oracle(value, e.base, "A", 1)
    with pytest.raises(Mismatch):
        checks.check_oracle(value + 1e-5, e.base, "A", 1)


def test_embedding_reproduces_closed_form(rng):
    """The generator's embedding has the base realization's correlators."""
    e = inputs.embedding(rng)
    m = e.psi.reshape(e.dimA, e.dimB)
    c = np.array([[np.vdot(m, a @ m @ b.T).real for b in e.B] for a in e.A])
    _, _, want = inputs.correlators(e.base.thetaA, e.base.thetaB, e.base.chi)
    assert np.abs(c - want).max() < 1e-12
    assert abs(np.vdot(m, m @ e.sigma3B.T).real - math.cos(2 * e.base.chi)) < 1e-12


def test_uniqueness_conditioning_matches_program_jacobian(rng):
    """The closed-form Jacobian equals a finite difference of the program's ratios."""
    from bellgeo.behavior import CBehavior
    from bellgeo.geometry import reconstruct
    from bellgeo.qbell import _ratio_values, construct_pair

    for _ in range(5):
        r = inputs.conforming(rng)
        b = inputs.behavior_json(r)
        g = reconstruct(CBehavior(cA=np.array(b["cA"]), cB=np.array(b["cB"]), c=np.array(b["c"])))
        _, _, (coeffB, coeffA) = construct_pair(g)
        tA, tB, h = math.cos(coeffA.dthetaRef), math.cos(coeffB.dthetaRef), 1e-6
        jac = np.stack([
            (_ratio_values(coeffA, tA + h) - _ratio_values(coeffA, tA - h)) / (2 * h),
            -(_ratio_values(coeffB, tB + h) - _ratio_values(coeffB, tB - h)) / (2 * h),
        ], axis=1)
        want = np.linalg.svd(jac, compute_uv=False)[-1]
        assert inputs.uniqueness_conditioning(r.thetaA, r.thetaB, r.chi) == pytest.approx(want, rel=1e-6)
        assert want >= inputs.MIN_UNIQUENESS_CONDITIONING


def test_conforming_leaves_out_shallow_uniqueness_valley():
    """A realization on which ``check`` reports a spurious second solution."""
    r = inputs.TwoQubit((4.2061373426717035, 1.724919968560045),
                        (5.25820710404598, 1.45865376210962), 0.7113538893957978)
    assert inputs.uniqueness_conditioning(r.thetaA, r.thetaB, r.chi) < 0.035
    assert not inputs.in_condition(r.thetaA, r.thetaB, r.chi)
