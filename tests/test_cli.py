import json
import math

import contextlib
import io
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bellgeo import behavior, criteria, geometry, qbell, realization
from bellgeo.behavior import DBehavior, chsh_values
from bellgeo.cli import _boundary_intervals, _pq_params, _sweep_columns, main
from bellgeo.criteria import crypt_gaps, scaled_correlators
from bellgeo.geometry import GeometryParams, projection_angles, symmetry_equivalent
from bellgeo.realization import (
    TwoQubitRealization,
    promote,
    random_two_qubit,
    random_two_qubit_params,
    simulate_cbehavior,
    simulate_dbehavior,
)
from bellgeo.tolerances import BOUNDARY_TOL
from realizations import random_conforming

P_JSON = TwoQubitRealization(
    thetaA=[0.0, math.pi / 2], thetaB=[1e-9, -math.pi / 4], chi=math.pi / 12
).to_json()

TSIRELSON_JSON = json.dumps(
    {
        "cA": [0.0, 0.0],
        "cB": [0.0, 0.0],
        "c": [
            [1 / math.sqrt(2), 1 / math.sqrt(2)],
            [1 / math.sqrt(2), -1 / math.sqrt(2)],
        ],
    }
)


def test_simulate_realization(capsys):
    assert main(["simulate", "-i", P_JSON]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["cbehavior"]["cA"][0] == pytest.approx(0.8660254, abs=1e-6)
    assert report["dbehavior"]["deltaB"] == pytest.approx([1.0, 0.25], abs=1e-6)


def test_simulate_malformed_json(capsys):
    assert main(["simulate", "-i", "{not json"]) == 1
    assert "error" in capsys.readouterr().err
    deep = "{" + '"a": ' + "[" * 100_000
    assert main(["simulate", "-i", deep]) == 1
    assert "error" in capsys.readouterr().err


def test_simulate_out_of_range_parameter(capsys):
    bad = json.dumps({"thetaA": [0, 1], "thetaB": [0, 1], "chi": 2.0})
    assert main(["simulate", "-i", bad]) == 1


def test_check_tsirelson_passes(capsys):
    assert main(["check", "-i", TSIRELSON_JSON]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["conjecture1Candidate"] is True
    assert report["sin2chiSquared"] == pytest.approx(1.0, abs=1e-9)
    assert report["uniquenessTrivial"] is False


def test_check_off_branch_behavior_fails(capsys):
    # nonlocal, but no consistent S^+ branch: a FAIL verdict with no common value
    r = TwoQubitRealization(
        thetaA=[4.1491352244035369, 1.5428503976869685],
        thetaB=[4.8287347157826961, 1.3299916326525307],
        chi=0.65288172842398529,
    )
    assert main(["check", "-i", r.to_json()]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["conditionSPlus"] is False
    assert report["conjecture1Candidate"] is False
    assert report["sin2chiSquared"] is None


def test_check_local_behavior_is_error():
    uniform = json.dumps({"cA": [0, 0], "cB": [0, 0], "c": [[0, 0], [0, 0]]})
    assert main(["check", "-i", uniform]) == 1


def test_check_dbehavior_membership(capsys):
    inside = json.dumps({"deltaB": [1, 1], "deltaA": [1, 1], "c": [[0, 0], [0, 0]]})
    assert main(["check", "-i", inside]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["member"] is True
    outside = json.dumps(
        {"deltaB": [0.25, 0.25], "deltaA": [0.25, 0.25], "c": [[0.9, 0.9], [0.9, 0.9]]}
    )
    assert main(["check", "-i", outside]) == 2


def test_geometry_file_round_trip(tmp_path, capsys):
    src = tmp_path / "realization.json"
    src.write_text(P_JSON)
    dst = tmp_path / "geometry.json"
    assert main(["geometry", "-i", str(src), "-o", str(dst), "--tol", "1e-7"]) == 0
    report = json.loads(dst.read_text())
    assert report["chi"] == pytest.approx(math.pi / 12, abs=1e-7)
    assert report["chiDegrees"] == pytest.approx(15.0, abs=1e-5)
    assert report["thetaA"] == pytest.approx([0.0, math.pi / 2], abs=1e-6)


def test_geometry_failure_exit_code(capsys):
    generic = json.dumps(
        {"cA": [0.3, -0.2], "cB": [0.1, 0.4], "c": [[0.5, 0.1], [-0.3, 0.2]]}
    )
    assert main(["geometry", "-i", generic]) == 2
    assert "error" in json.loads(capsys.readouterr().out)


def test_qbell_reference_point(capsys):
    # a slightly rotated first setting keeps the uniqueness system
    # nondegenerate (at theta^B_0 = 0 one hyperplane coefficient vanishes)
    r = TwoQubitRealization(
        thetaA=[0.0, math.pi / 2], thetaB=[0.05, -math.pi / 4], chi=math.pi / 12
    )
    assert main(["qbell", "-i", r.to_json(), "--tol", "1e-7"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["trivialOnly"] is True
    assert report["valueB"] == pytest.approx(report["inequalityB"]["bound"], abs=1e-7)
    assert report["valueA"] == pytest.approx(report["inequalityA"]["bound"], abs=1e-7)


def test_qbell_malformed_geometry(capsys):
    short = json.dumps(
        {"thetaA": [0.1, 1.0], "thetaB": [0.3], "phiB": [0.1, 0.2], "phiA": [0.2, 0.3],
         "chi": 0.3, "psiPrimeNorm": 0.5}
    )
    assert main(["qbell", "-i", short]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "thetaB" in err[0]


def test_selftest_pass_and_fail(capsys):
    base = json.loads(P_JSON)
    good = json.dumps({"base": base, "B2": [[1, 0], [0, 0], [0, 0], [-1, 0]], "protocol": "addedZ"})
    assert main(["selftest", "-i", good]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["selfTested"] is True
    assert report["fidelity"] == pytest.approx(1.0, abs=1e-6)
    bad = json.dumps({"base": base, "B2": [[0, 0], [1, 0], [1, 0], [0, 0]], "protocol": "addedZ"})
    assert main(["selftest", "-i", bad]) == 2


def test_selftest_paired_protocol(capsys):
    base = json.loads(
        TwoQubitRealization(thetaA=[0.3, 1.9], thetaB=[0.7, -0.9], chi=0.3).to_json()
    )
    req = json.dumps({"base": base, "thetaB2": -0.258, "protocol": "paired"})
    assert main(["selftest", "-i", req]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["selfTested"] is True
    assert abs(abs(report["thetaB2"]) - 0.258) < 1e-6


def test_selftest_schema_errors():
    assert main(["selftest", "-i", json.dumps({"B2": [[1, 0]]})]) == 1
    base = json.loads(P_JSON)
    assert main(["selftest", "-i", json.dumps({"base": base})]) == 1
    assert main(
        ["selftest", "-i", json.dumps({"base": base, "thetaB2": 0.0, "protocol": "nope"})]
    ) == 1


def test_counterexample_verdict_and_tolerance(capsys):
    assert main(["counterexample", "--epsilon", "0.01"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["LIsLocal"] is True
    assert report["LInCryptSet"] is False
    assert abs(report["lambda"] - report["lambdaLimit"]) < 2e-2
    assert report["chshL"] == pytest.approx(2.0, abs=1e-9)


def test_counterexample_tighter_epsilon(capsys):
    assert main(["counterexample", "--epsilon", "0.001"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["lambda"] - report["lambdaLimit"]) < 2e-3


def test_counterexample_epsilon_range():
    assert main(["counterexample", "--epsilon", "0.5"]) == 1
    assert main(["counterexample", "--epsilon", "0"]) == 1


def test_counterexample_csv_sections(tmp_path):
    out = tmp_path / "sections.csv"
    assert main(
        ["counterexample", "--epsilon", "0.01", "--format", "csv", "--samples", "11", "-o", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "section,label,c11,deltaMin,deltaMax"
    labels = {line.split(",")[1] for line in lines[1:]}
    assert {"boundary", "P", "Q", "L"} <= labels


def _p_dbehavior(eps: float) -> DBehavior:
    """P's guessing-bias point, as ``counterexample`` builds it."""
    k = realization.two_qubit_behaviors(*_pq_params(eps))
    return DBehavior(deltaB=k.deltaB[0], deltaA=k.deltaA[0], c=k.c[0])


def _curve_gap(d_ref: DBehavior, side: str, c11: float, delta: float) -> float:
    """Scalar ``crypt_gaps`` of one side under the strict rule (no slack on
    the scaled correlators), at ``d_ref`` with C_11 and that side's delta_1
    replaced."""
    c = np.array(d_ref.c)
    c[1, 1] = c11
    deltas = {"B": d_ref.deltaB.copy(), "A": d_ref.deltaA.copy()}
    deltas[side][1] = delta
    d = DBehavior(deltaB=deltas["B"], deltaA=deltas["A"], c=c)
    return crypt_gaps(d, tol=BOUNDARY_TOL)["tlm" + side]


def _scalar_boundary_interval(d_ref: DBehavior, side: str, c11: float):
    """A scalar bisection, one ``crypt_gaps`` call per point: the reference
    the closed-form rows must meet within its resolution."""

    def gap(delta: float) -> float:
        return _curve_gap(d_ref, side, c11, delta)

    lo = c11 * c11
    if gap(lo) < 0.0 and gap(1.0) < 0.0:
        return None
    lo_ok, hi_ok = gap(lo) >= 0.0, gap(1.0) >= 0.0
    lo_bound, hi_bound = lo, 1.0
    if not lo_ok:
        a, b = lo, 1.0
        mids = np.linspace(lo, 1.0, 65)
        feas = [m for m in mids if gap(m) >= 0.0]
        if not feas:
            return None
        b = feas[0]
        for _ in range(60):
            mid = 0.5 * (a + b)
            if gap(mid) >= 0.0:
                b = mid
            else:
                a = mid
        lo_bound = b
    if not hi_ok:
        a, b = lo_bound, 1.0
        for _ in range(60):
            mid = 0.5 * (a + b)
            if gap(mid) >= 0.0:
                a = mid
            else:
                b = mid
        hi_bound = a
    return lo_bound, hi_bound


def _scalar_boundary_rows(d_ref: DBehavior, grid: np.ndarray) -> dict:
    rows = {"B": [], "A": []}
    for side, found in rows.items():
        for c11 in grid:
            interval = _scalar_boundary_interval(d_ref, side, float(c11))
            if interval is not None:
                found.append((c11, *interval))
    return rows


def _check_boundary_csv(out: str, d_ref: DBehavior, samples: int) -> dict:
    """Rows of ``_boundary_intervals`` at ``d_ref``, after checking that the
    CSV prints them and that each end meets the gap contract."""
    lines = out.splitlines()
    assert lines[0] == "section,label,c11,deltaMin,deltaMax"
    rows = _boundary_intervals(d_ref, np.linspace(-1.0, 0.2, samples))
    body = iter(lines[1:])
    for side in ("B", "A"):
        # this section's boundary rows in grid order, then its own markers
        for c11, lo, hi in rows[side]:
            assert next(body) == f"{side},boundary,{c11:.10g},{lo:.10g},{hi:.10g}"

            def gap(delta):
                return _curve_gap(d_ref, side, c11, delta)

            # feasible just inside each end, infeasible just outside it
            # unless the end is the cap C_11^2 or 1
            assert gap(lo + 1e-10) >= -1e-9 and gap(hi - 1e-10) >= -1e-9
            if lo != c11 * c11:
                assert gap(max(lo - 1e-6, c11 * c11)) < 0.0
            if hi != 1.0:
                assert gap(min(hi + 1e-6, 1.0)) < 0.0
        assert [next(body).split(",")[1] for _ in range(3)] == ["P", "Q", "L"]
    assert next(body, None) is None
    return rows


#: How far the kernel's own edge, where its gap changes sign, may lie from
#: the closed-form lower end: the two round differently, by up to 3.5 ulps of
#: 1 over 800 seeded epsilon at --samples 6, 61 and 200.
EDGE_ROUNDING = 8 * 2.0**-52
#: The scalar oracle brackets the kernel's edge within 2^-60.
ORACLE_RESOLUTION = 2.0**-60 + EDGE_ROUNDING


@pytest.mark.parametrize("eps", [1e-4, 0.01, 0.05, math.pi / 40 - 1e-4])
def test_counterexample_boundary_rows(capsys, eps):
    samples = 61
    assert main(
        ["counterexample", "--epsilon", repr(eps), "--format", "csv", "--samples", str(samples)]
    ) == 0
    p_d = _p_dbehavior(eps)
    rows = _check_boundary_csv(capsys.readouterr().out, p_d, samples)
    ref = _scalar_boundary_rows(p_d, np.linspace(-1.0, 0.2, samples))
    for side in ("B", "A"):
        assert [r[0] for r in rows[side]] == [r[0] for r in ref[side]]
        for (_, lo, hi), (_, lo_ref, hi_ref) in zip(rows[side], ref[side]):
            assert abs(lo - lo_ref) <= ORACLE_RESOLUTION and hi == hi_ref


@pytest.mark.parametrize("eps", [1e-4, 0.01])
def test_counterexample_lower_end_is_exact(capsys, eps):
    # section A at C_11 = 0 is feasible down to delta^A_1 = C_01^2 = 1/2,
    # where the scaled correlator C_01 / sqrt(delta^A_1) reaches 1; a gap
    # with slack would print about 0.49996838 = 0.5 / (1 + sqrt(1e-9))^2
    assert main(["counterexample", "--epsilon", repr(eps), "--format", "csv", "--samples", "61"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    (row,) = [r for r in rows if r[:2] == ["A", "boundary"] and abs(float(r[2])) < 1e-12]
    assert abs(float(row[3]) - 0.5) <= 1e-9


@pytest.mark.parametrize("eps", [1e-12, 1e-6])
def test_counterexample_small_epsilon_lower_end_is_exact(capsys, eps):
    # section B at C_11 = 0: v = 0, so only the kappa_+ root binds and
    # lo = C_10^2 / (1 - kappa_+^2), about eps^2 / 2; a bisection of 60
    # halvings of a 2^-6 scan step stops at 2^-66 = 1.36e-20
    assert main(["counterexample", "--epsilon", repr(eps), "--format", "csv", "--samples", "61"]) == 0
    p_d = _p_dbehavior(eps)
    rows = _check_boundary_csv(capsys.readouterr().out, p_d, 61)
    (lo,) = [lo for c11, lo, _ in rows["B"] if c11 == 0.0]
    a, b = p_d.c[0] / math.sqrt(p_d.deltaB[0])
    kappa = math.sqrt((1.0 - a * a) * (1.0 - b * b)) - a * b
    assert lo == pytest.approx(p_d.c[1, 0] ** 2 / (1.0 - kappa * kappa), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("samples", [1, 2, 61])
@pytest.mark.parametrize("eps", [5e-324, 1e-300, math.pi / 40 - 1e-15])
def test_counterexample_csv_at_epsilon_edges(capsys, eps, samples):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(
            ["counterexample", "--epsilon", repr(eps), "--format", "csv", "--samples", str(samples)]
        )
    assert code == 0
    _check_boundary_csv(capsys.readouterr().out, _p_dbehavior(eps), samples)


def _curve_gaps(d_ref: DBehavior, c11: np.ndarray, delta: np.ndarray) -> tuple:
    """Kernel gaps (B, A) under the strict rule at ``d_ref`` with C_11 and
    both delta_1 replaced by stacked values: each side's gap reads only its
    own biases, so one call scans the curves of both sections."""
    c11, delta = np.broadcast_arrays(c11, delta)
    deltaB = np.broadcast_to(d_ref.deltaB, delta.shape + (2,)).copy()
    deltaA = np.broadcast_to(d_ref.deltaA, delta.shape + (2,)).copy()
    deltaB[..., 1] = deltaA[..., 1] = delta
    c = np.broadcast_to(d_ref.c, delta.shape + (2, 2)).copy()
    c[..., 1, 1] = c11
    gaps = criteria.crypt_gaps_batch(deltaB, deltaA, c, tol=BOUNDARY_TOL)
    return gaps["tlmB"], gaps["tlmA"]


def test_boundary_range_is_one_interval_reaching_one():
    # the claim behind the closed-form lower end and the fixed upper end 1:
    # on a dense kernel scan of every curve, the feasible set is one interval
    # that reaches delta = 1, and it starts within one scan step of the
    # closed-form lower end
    grid = np.linspace(-1.0, 0.2, 31)
    deltas = np.linspace(grid * grid, 1.0, 4097)
    step = deltas[1] - deltas[0]
    for eps in np.random.default_rng(18).uniform(0.0, math.pi / 40, 20):
        d_ref = _p_dbehavior(float(eps))
        rows = _boundary_intervals(d_ref, grid)
        for side, gaps in zip(("B", "A"), _curve_gaps(d_ref, grid, deltas)):
            feasible = gaps >= 0.0
            lower = {c11: lo for c11, lo, hi in rows[side] if hi == 1.0}
            assert len(lower) == len(rows[side]) == feasible.any(axis=0).sum()
            for j in np.flatnonzero(feasible.any(axis=0)):
                first = feasible[:, j].argmax()
                assert feasible[first:, j].all()
                lo, edge = lower[grid[j]], deltas[first, j]
                if first == 0:
                    assert lo == grid[j] ** 2
                assert edge - step[j] - EDGE_ROUNDING <= lo <= edge + EDGE_ROUNDING


def test_counterexample_csv_calls_the_gap_kernel_at_most_twice(monkeypatch, capsys):
    # one batched call for both ends of every curve, one for the point L
    calls = []
    kernel = criteria.crypt_gaps_batch

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(criteria, "crypt_gaps_batch", counted)
    assert main(["counterexample", "--format", "csv", "--samples", "61"]) == 0
    assert len(calls) <= 2


def _counted(monkeypatch, modules, name):
    """Count calls of ``name`` through every module that binds it; each call
    records its first argument."""
    calls = []
    for mod in modules:
        inner = getattr(mod, name)

        def counted(*args, _inner=inner, **kwargs):
            calls.append(args[0])
            return _inner(*args, **kwargs)

        monkeypatch.setattr(mod, name, counted)
    return calls


def _candidate_jsons(n):
    """Realizations whose behavior ``check`` accepts as a candidate."""
    rng = np.random.default_rng(190)
    found = []
    while len(found) < n:
        r = geometry.two_qubit_of(random_conforming(rng))
        b = simulate_cbehavior(r)
        if not behavior.is_local(b) and criteria.extremal_criterion(b).conjecture1Candidate:
            found.append(r.to_json())
    return found


def test_check_on_a_candidate_evaluates_each_quantity_once(monkeypatch, capsys):
    # the S+ test and the reconstruction share one branch table, one
    # saturation-gap evaluation and one validity check
    for text in _candidate_jsons(5):
        tables = _counted(monkeypatch, (criteria, geometry), "_branch_table")
        gaps = _counted(monkeypatch, (criteria, geometry), "saturation_gaps")
        validity = _counted(monkeypatch, (criteria, behavior), "is_valid")
        assert main(["check", "-i", text]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["uniquenessTrivial"] is True
        assert (len(tables), len(gaps), len(validity)) == (1, 1, 1)
        monkeypatch.undo()


def test_qbell_builds_each_side_once(monkeypatch, capsys):
    # the uniqueness check takes each side's u from the geometry without
    # building the hyperplanes again
    for text in _candidate_jsons(4):
        sides = _counted(monkeypatch, (qbell,), "_construct_side")
        assert main(["qbell", "-i", text]) == 0
        capsys.readouterr()
        assert sides == ["B", "A"]
        monkeypatch.undo()


def _matrix_path_behaviors(thetaA, thetaB, chi):
    """``two_qubit_behaviors`` fields of ``counterexample`` from the matrix
    path: the state, the observables and the eigendecompositions."""
    reals = [TwoQubitRealization(thetaA=a, thetaB=b, chi=x) for a, b, x in zip(thetaA, thetaB, chi)]
    cb = [simulate_cbehavior(r) for r in reals]
    db = [simulate_dbehavior(r) for r in reals]
    return SimpleNamespace(
        cA=np.array([b.cA for b in cb]),
        cB=np.array([b.cB for b in cb]),
        c=np.array([b.c for b in cb]),
        deltaB=np.array([d.deltaB for d in db]),
        deltaA=np.array([d.deltaA for d in db]),
    )


def _numbers(x, path=""):
    if isinstance(x, dict):
        for k, v in x.items():
            yield from _numbers(v, f"{path}.{k}")
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from _numbers(v, f"{path}[{i}]")
    else:
        yield path, x


def test_counterexample_pq_from_kernel_match_matrix_path(monkeypatch, capsys):
    # every number to 1e-14, except the two boundary gaps of L: their slope
    # in a scaled correlator m is up to 1 / sqrt(1 - m^2), which carries a
    # 1e-14 difference of the inputs into the gap that much larger
    kernel = realization.two_qubit_behaviors
    for eps in np.random.default_rng(51).uniform(0.0, math.pi / 40, 50):
        reports = []
        for path in (kernel, _matrix_path_behaviors):
            monkeypatch.setattr(realization, "two_qubit_behaviors", path)
            code = main(["counterexample", "--epsilon", repr(float(eps))])
            reports.append((code, json.loads(capsys.readouterr().out)))
        (code, report), (code_ref, ref) = reports
        assert code == code_ref
        assert (report["LIsLocal"], report["LInCryptSet"]) == (ref["LIsLocal"], ref["LInCryptSet"])
        l_d = DBehavior.from_dict(report["L"]["dbehavior"])
        bound = {
            f".cryptGaps.tlm{side}": 1e-14 / math.sqrt(1.0 - m**2)
            for side in ("B", "A")
            for m in [np.abs(scaled_correlators(l_d, side)).max()]
        }
        for (path, x), (path_ref, x_ref) in zip(_numbers(report), _numbers(ref)):
            assert path == path_ref
            assert abs(x - x_ref) <= bound.get(path, 1e-14), (eps, path, x, x_ref)


def test_sweep_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert main(["sweep", "--seed", "42", "--samples", "50", "-o", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header.startswith("index,thetaA0")


def test_sweep_chi_grid(capsys):
    assert main(["sweep", "--mode", "chi-grid", "--samples", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    last = lines[-1].split(",")
    assert float(last[1]) == pytest.approx(math.pi / 4, abs=1e-9)
    assert float(last[2]) == pytest.approx(1.0, abs=1e-9)


def _sweep_rows(capsys, argv):
    assert main(argv) == 0
    return [[float(v) for v in line.split(",")] for line in capsys.readouterr().out.splitlines()[1:]]


def test_sweep_echoes_the_draws(capsys):
    rows = _sweep_rows(capsys, ["sweep", "--seed", "5", "--samples", "300"])
    rng = np.random.default_rng(5)
    for row in rows:
        r = random_two_qubit(rng)
        want = [*r.thetaA, *r.thetaB, r.chi]
        assert row[1:6] == [float(f"{v:.10g}") for v in want]


def _matrix_columns(r: TwoQubitRealization, tol: float = 1e-9):
    """chshMax, cryptMember, tlmGapB, tlmGapA by the per-sample matrix path,
    and per side the smallest 1 - c~^2 over the scaled correlators."""
    d = simulate_dbehavior(r)
    gaps = crypt_gaps(d, tol)
    chsh = float(np.abs(chsh_values(simulate_cbehavior(r))).max())
    comp = [float((1.0 - scaled_correlators(d, side) ** 2).min()) for side in ("B", "A")]
    return chsh, criteria.gaps_member(gaps, tol), gaps["tlmB"], gaps["tlmA"], comp


def test_sweep_columns_match_matrix_path(capsys):
    rows = _sweep_rows(capsys, ["sweep", "--seed", "11", "--samples", "400"])
    thetaA, thetaB, chi = random_two_qubit_params(np.random.default_rng(11), 400)
    chsh, member, gaps = _sweep_columns(thetaA, thetaB, chi, 1e-9)
    columns = np.column_stack([chsh, member, gaps["tlmB"], gaps["tlmA"]])
    assert [row[6:] for row in rows] == [[float(f"{v:.10g}") for v in col] for col in columns]
    assert member.all()
    for k in range(400):
        r = TwoQubitRealization(thetaA=thetaA[k], thetaB=thetaB[k], chi=chi[k])
        want_chsh, want_member, want_b, want_a, comp = _matrix_columns(r)
        assert abs(chsh[k] - want_chsh) <= 1e-12
        assert member[k] == want_member
        # a gap moves by about e / sqrt(1 - c~^2) when a scaled correlator
        # c~ near +-1 moves by e, and the matrix path's c~ is off by e ~ 1e-16:
        # row 25 of this draw has 1 - c~^2 = 1.6e-10 and gaps 1.5e-11 apart
        for got, want, m in ((gaps["tlmB"][k], want_b, comp[0]), (gaps["tlmA"][k], want_a, comp[1])):
            assert abs(got - want) <= 1e-12 + 1e-15 / math.sqrt(max(m, 1e-300))


def test_sweep_gap_is_exact_where_a_scaled_correlator_reaches_one():
    # a draw of the sweep whose side-A scaled correlator c~_00 is 1 - 1.8e-17
    # and whose side-A gap is exactly 0; from the rounded c~, 1 - c~^2 is 0
    # instead of 3.6e-17, and the gap came out -5.7e-9, so cryptMember was 0
    thetaA = np.array([[3.734143482278612, 3.728012823861153]])
    thetaB = np.array([[1.2363696744401378, 1.8439301473068954]])
    chi = np.array([0.11806513748003136])
    _, member, gaps = _sweep_columns(thetaA, thetaB, chi, 1e-9)
    assert member[0]
    assert abs(gaps["tlmA"][0]) <= 1e-15 and gaps["tlmB"][0] > 1.0


def test_sweep_chi_grid_matches_matrix_path(capsys):
    samples = 101
    assert main(["sweep", "--mode", "chi-grid", "--samples", str(samples)]) == 0
    want = ["index,chi,sin2chiSquared,chshMax,cryptMember"]
    for i, chi in enumerate(np.linspace(0.0, math.pi / 4, samples)):
        r = TwoQubitRealization(thetaA=(0.0, math.pi / 2), thetaB=(math.pi / 4, -math.pi / 4), chi=chi)
        chsh, member, *_ = _matrix_columns(r)
        want.append(f"{i},{chi:.10g},{math.sin(2 * chi) ** 2:.10g},{chsh:.10g},{int(member)}")
    assert capsys.readouterr().out.splitlines() == want


def test_sweep_honours_tol(monkeypatch, capsys):
    seen = []
    batch, member = criteria.crypt_gaps_batch, criteria.gaps_member

    def recording_batch(deltaB, deltaA, c, tol=None, **kwargs):
        seen.append(("gaps", tol))
        return batch(deltaB, deltaA, c, tol, **kwargs)

    def recording_member(gaps, tol=None):
        seen.append(("member", tol))
        return member(gaps, tol)

    monkeypatch.setattr(criteria, "crypt_gaps_batch", recording_batch)
    monkeypatch.setattr(criteria, "gaps_member", recording_member)
    monkeypatch.delenv("NONLOC_TOL", raising=False)
    assert main(["sweep", "--samples", "5"]) == 0
    assert main(["sweep", "--samples", "5", "--tol", "1e-6"]) == 0
    monkeypatch.setenv("NONLOC_TOL", "1e-7")
    assert main(["sweep", "--samples", "5"]) == 0
    assert main(["sweep", "--mode", "chi-grid", "--samples", "5"]) == 0
    capsys.readouterr()
    assert seen == [(kind, tol) for tol in (1e-9, 1e-6, 1e-7, 1e-7) for kind in ("gaps", "member")]


def test_samples_must_be_positive(capsys):
    assert main(["sweep", "--samples", "-3"]) == 1
    assert main(["sweep", "--mode", "chi-grid", "--samples", "0"]) == 1
    assert main(["counterexample", "--format", "csv", "--samples", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 3


README_REALIZATION = {"thetaA": [0, 1.5707963], "thetaB": [0.05, -0.7853982], "chi": 0.2617994}


def test_tol_env_variable_reaches_selftest(monkeypatch, capsys):
    req = json.dumps({"base": README_REALIZATION, "B2": SIGMA3_PAIRS})
    monkeypatch.delenv("NONLOC_TOL", raising=False)
    assert main(["selftest", "-i", req]) == 0
    assert main(["selftest", "-i", req, "--tol", "1e-30"]) == 2
    monkeypatch.setenv("NONLOC_TOL", "1e-30")
    assert main(["selftest", "-i", req]) == 2
    assert main(["selftest", "-i", req, "--tol", "1e-7"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--bogus"],
        ["sweep", "--samples", "abc"],
        ["sweep", "--mode", "nope"],
        [],
        # each subcommand takes only the flags it reads
        ["sweep", "--samples", "2", "--format", "json"],
        ["simulate", "-i", P_JSON, "--tol", "1e-7"],
    ],
    ids=["unknown-flag", "samples-not-int", "unknown-mode", "no-subcommand", "sweep-format",
         "simulate-tol"],
)
def test_argument_error_is_one_error_line(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("error:"), err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "-h"])
    assert exc.value.code == 0
    assert "--samples" in capsys.readouterr().out


def test_tol_env_variable(monkeypatch, capsys):
    monkeypatch.setenv("NONLOC_TOL", "1e-7")
    assert main(["geometry", "-i", P_JSON]) == 0
    capsys.readouterr()
    monkeypatch.setenv("NONLOC_TOL", "1e-13")
    # overly tight tolerance makes the reconstruction reject the same input
    assert main(["geometry", "-i", P_JSON]) == 2


SIGMA3_PAIRS = [[1, 0], [0, 0], [0, 0], [-1, 0]]


@pytest.mark.parametrize(
    "base",
    [
        # thetaA_1 is within 1.2e-3 of pi: at the protocol's reconstruction
        # tolerance a wrong sign assignment also fits, and only the
        # best-fitting one certifies
        {"thetaA": [5.772619754553491, 3.140425647940171],
         "thetaB": [0.8323370302998073, 6.093489034671855], "chi": 0.44804837003084674},
        # nearly branch-degenerate pairs: at the reconstruction tolerance the
        # all-S+ pattern also passes, about 3e-5 off sin^2(2 chi), and only
        # the tightest pattern saturates the boundary (gaps 7.9e-4, 1.3e-3
        # otherwise) ...
        {"thetaA": [4.435488943082649, 3.1734529214141087],
         "thetaB": [5.810443820051876, 0.0378362661182437], "chi": 0.6071019578905176},
        # ... or matches the added correlators (2-4e-5 off otherwise)
        {"thetaA": [6.1558364900174345, 3.5160778236892583],
         "thetaB": [5.546237752491198, 0.20455120872298369], "chi": 0.49586627981324366},
        # chi = pi/4 with thetaB_0 within 1.3e-6 of 0: of the four sign
        # assignments of the maximally entangled path, the first that fits
        # is 6.7e-7 off in a1b2, and only the best-fitting one certifies
        {"thetaA": [0, 3.402101183476623],
         "thetaB": [-1.2980119315177805e-06, 2.6558221377616955], "chi": 0.7853981633974483},
    ],
    ids=["angle-near-pi", "boundary-unsaturated", "added-correlators-off", "max-entangled"],
)
def test_selftest_resolves_barely_resolved_signs(capsys, base):
    req = json.dumps({"base": base, "B2": SIGMA3_PAIRS, "protocol": "addedZ"})
    assert main(["selftest", "-i", req]) == 0
    assert json.loads(capsys.readouterr().out)["selfTested"] is True


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 1.5, 1.9])
def test_tilted_chsh_known_answer(alpha):
    # the optimum of alpha <A_0> + CHSH (Acin, Massar & Pironio, PRL 108,
    # 100402 (2012)): A = (sigma3, sigma1), B_y = cos(mu) sigma3 +- sin(mu)
    # sigma1 with tan(mu) = sin(2 chi) on cos(chi)|00> + sin(chi)|11>
    s2 = math.sqrt((4 - alpha**2) / (4 + alpha**2))
    mu = math.atan(s2)
    source = TwoQubitRealization(thetaA=[0.0, math.pi / 2], thetaB=[mu, -mu],
                                 chi=0.5 * math.asin(s2))
    b = simulate_cbehavior(promote(source))
    tilted = alpha * b.cA[0] + b.c[0, 0] + b.c[0, 1] + b.c[1, 0] - b.c[1, 1]
    assert abs(tilted - math.sqrt(8 + 2 * alpha**2)) < 1e-12

    code, verdict = _run(["check", "-i", source.to_json()])
    assert code == 0 and verdict["conjecture1Candidate"] and verdict["uniquenessTrivial"]
    assert abs(verdict["sin2chiSquared"] - s2**2) < 1e-12
    code, report = _run(["geometry", "-i", source.to_json()])
    assert code == 0
    g = GeometryParams.from_dict(report)
    assert symmetry_equivalent(projection_angles(source), g, 1e-7)
    code, report = _run(["qbell", "-i", source.to_json()])
    assert code == 0 and report["trivialOnly"] is True

    base = json.loads(source.to_json())
    requests = [
        ({"base": base, "B2": SIGMA3_PAIRS, "protocol": "addedZ"}, 0),
        ({"base": base, "thetaB2": -math.pi / 2, "protocol": "paired"}, 0),
        # {B_0, B_2} at thetaB2 = 0.3 is not a conforming pair
        ({"base": base, "thetaB2": 0.3, "protocol": "paired"}, 2),
    ]
    for request, expected in requests:
        code, report = _run(["selftest", "-i", json.dumps(request)])
        assert code == expected and report["selfTested"] is (expected == 0), report


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "command, text, field",
    [
        ("check", json.dumps({"cA": {"a": 1}, "cB": [0, 0], "c": [[0, 0], [0, 0]]}), "cA"),
        ("simulate", json.dumps({"thetaA": [0, 1], "thetaB": [0, 1], "chi": [0.1]}), "chi"),
        ("simulate", json.dumps({"dimA": 2, "dimB": 2, "psi": [1, 0, 0, 0],
                                 "A": [SIGMA3_PAIRS] * 2, "B": [SIGMA3_PAIRS] * 2}), "psi"),
        ("selftest", json.dumps({"base": json.loads(P_JSON), "B2": 5}), "B2"),
        ("selftest", json.dumps({"base": json.loads(P_JSON), "thetaB2": [1]}), "thetaB2"),
        ("selftest", json.dumps({"base": None, "thetaB2": 0.0}), "base"),
        ("check", json.dumps({"cA": [NAN, 0], "cB": [0, 0], "c": [[0, 0], [0, 0]]}), "cA"),
        ("check", json.dumps({"deltaB": [NAN, 1], "deltaA": [1, 1], "c": [[0, 0], [0, 0]]}),
         "deltaB"),
        ("simulate", json.dumps({"thetaA": [0, 1], "thetaB": [0, 1], "chi": NAN}), "chi"),
        ("geometry", json.dumps({"thetaA": [0, 1], "thetaB": [0, INF], "chi": 0.3}), "thetaB"),
        ("qbell", '{"thetaA": [0, 1], "thetaB": [0, 1e999], "chi": 0.3}', "thetaB"),
        ("qbell", json.dumps({"thetaA": [0.1, 1.0], "thetaB": [0.3, 0.4], "phiB": [0.1, 0.2],
                              "phiA": [0.2, 0.3], "chi": 0.3}), "psiPrimeNorm"),
        ("selftest", json.dumps({"base": json.loads(P_JSON),
                                 "B2": [[NAN, 0], [0, 0], [0, 0], [-1, 0]]}), "B2"),
    ],
    ids=["cA-object", "chi-list", "psi-plain-numbers", "B2-number", "thetaB2-list",
         "base-null", "cA-nan", "deltaB-nan", "chi-nan", "thetaB-infinity", "thetaB-1e999",
         "psiPrimeNorm-missing", "B2-nan"],
)
def test_malformed_field_is_one_error_line(capsys, command, text, field):
    assert main([command, "-i", text]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("error:") and field in err[0], err


_FIELDS = ["cA", "cB", "c", "deltaB", "deltaA", "thetaA", "thetaB", "chi", "phiB", "phiA",
           "psiPrimeNorm", "dimA", "dimB", "psi", "A", "B", "side", "Vmarg", "Vcorr", "q",
           "bound"]
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=10,
)
# values of the shapes the records hold, so that inputs also get past decoding
_number = st.floats(-1.2, 1.2) | st.sampled_from([0.0, 1.0, -1.0, NAN, INF, 1e300])
_pair = st.lists(_number, min_size=2, max_size=2)
_pairs = st.lists(_pair, min_size=1, max_size=9)
_values = st.one_of(
    _json_values, _number, _pair, st.lists(_pair, min_size=2, max_size=2), _pairs,
    st.lists(_pairs, min_size=2, max_size=2), st.integers(0, 4),
)
_objects = st.fixed_dictionaries({}, optional={k: _values for k in _FIELDS})
_fuzzed_requests = st.fixed_dictionaries(
    {},
    optional={**{k: _values for k in _FIELDS}, "base": _objects | _values, "B2": _values,
              "thetaB2": _values, "protocol": st.sampled_from(["addedZ", "paired"]) | _values},
)

# well-formed realizations at the degenerate edges: chi -> 0 or pi/4,
# sin(theta_0 - theta_1) -> 0, and angles -> 0 or pi, by as little as 1e-16
_tiny = st.sampled_from([0.0, 1e-16, 1e-12, 1e-8]) | st.floats(1e-16, 1e-2)
_offset = st.tuples(st.sampled_from([1.0, -1.0]), _tiny).map(lambda t: t[0] * t[1])
_angle = st.floats(0.0, 2.0 * math.pi)


@st.composite
def _edge_realizations(draw):
    thetas = [[draw(_angle), draw(_angle)], [draw(_angle), draw(_angle)]]
    chi = draw(st.floats(0.0, math.pi / 4) | _tiny | _tiny.map(lambda e: math.pi / 4 - e))
    if draw(st.booleans()):
        side = thetas[draw(st.integers(0, 1))]
        side[1] = side[0] + draw(st.sampled_from([0.0, math.pi])) + draw(_offset)
    for side in thetas:
        if draw(st.booleans()):
            side[draw(st.integers(0, 1))] = draw(st.sampled_from([0.0, math.pi])) + draw(_offset)
    return TwoQubitRealization(thetaA=thetas[0], thetaB=thetas[1], chi=chi)


@st.composite
def _edge_requests(draw):
    r = draw(_edge_realizations())
    obj = r if draw(st.booleans()) else simulate_cbehavior(promote(r))
    request = json.loads(obj.to_json())
    request["base"] = json.loads(r.to_json())
    if draw(st.booleans()):
        request["B2"] = SIGMA3_PAIRS
    else:
        request["thetaB2"] = draw(_angle | st.sampled_from([0.0, math.pi]) | _offset)
    request["protocol"] = draw(st.sampled_from(["addedZ", "paired"]))
    return request


_requests = _fuzzed_requests | _edge_requests()


@settings(max_examples=600, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["simulate", "check", "geometry", "qbell", "selftest"]), _requests)
def test_fuzzed_json_input_ends_in_verdict_or_one_error(command, request):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "-i", json.dumps(request)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        lines = err.getvalue().strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
