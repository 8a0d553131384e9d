"""Command-line front end.

Subcommands expose the pipeline: simulate behaviors of a realization,
check extremality/membership criteria, reconstruct the planar geometry,
build and analyze the quantum Bell inequality pair, run the self-testing
protocols, reproduce the local-but-not-quantum counterexample, and sweep
random samples to CSV.

Exit codes: 0 for pass verdicts, 2 for fail verdicts, 1 for errors.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import os
import sys

import numpy as np

from . import behavior, criteria, geometry, jsonio, qbell, realization, selftest
from .tolerances import BOUNDARY_TOL, DEFAULT_TOL, RESIDUAL_PASS

PASS, ERROR, FAIL = 0, 1, 2


class CliError(Exception):
    pass


def _read_input(arg: str) -> dict:
    if arg is None:
        raise CliError("missing --input")
    if arg == "-":
        text = sys.stdin.read()
    elif arg.lstrip().startswith("{"):
        text = arg
    else:
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read input: {exc}") from exc
    try:
        data = jsonio.loads(text)
    except (ValueError, RecursionError) as exc:
        raise CliError(f"malformed JSON input: {exc}") from exc
    if not isinstance(data, dict):
        raise CliError("input must be a JSON object")
    return data


def _parse_object(data: dict):
    """Dispatch on the field signature of the JSON object."""
    if "thetaA" in data and "chi" in data and "phiB" not in data:
        cls = realization.TwoQubitRealization
    elif "dimA" in data and "psi" in data:
        cls = realization.GeneralRealization
    elif "phiB" in data:
        cls = geometry.GeometryParams
    elif "cA" in data:
        cls = behavior.CBehavior
    elif "deltaB" in data and "deltaA" in data:
        cls = behavior.DBehavior
    else:
        raise CliError("unrecognized input object (no known field signature)")
    try:
        return cls.from_dict(data)
    except ValueError as exc:
        raise CliError(f"cannot parse input object: {exc}") from exc


def _as_realization(obj):
    if isinstance(obj, realization.TwoQubitRealization):
        return realization.promote(obj)
    if isinstance(obj, realization.GeneralRealization):
        return obj
    raise CliError(f"expected a realization, got {type(obj).__name__}")


def _read_behavior(arg: str):
    """The input object, with a realization replaced by its correlator behavior."""
    obj = _parse_object(_read_input(arg))
    if isinstance(obj, (realization.TwoQubitRealization, realization.GeneralRealization)):
        return realization.simulate_cbehavior(obj)
    return obj


def _write(out_path: str | None, text: str):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write output: {exc}") from exc
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def cmd_simulate(args) -> int:
    obj = _parse_object(_read_input(args.input))
    r = _as_realization(obj)
    cb, db = realization._simulate(r)
    _write(
        args.output,
        jsonio.dumps(
            {"cbehavior": cb.to_json_dict(), "dbehavior": db.to_json_dict()}, indent=2
        ),
    )
    return PASS


def cmd_check(args) -> int:
    obj = _read_behavior(args.input)
    if isinstance(obj, behavior.CBehavior):
        try:
            verdict = criteria.extremal_criterion(obj, tol=args.tol)
        except behavior.InvalidBehaviorError as exc:
            raise CliError(str(exc)) from exc
        _write(args.output, verdict.to_json(indent=2))
        return PASS if verdict.conjecture1Candidate else FAIL
    if isinstance(obj, behavior.DBehavior):
        gaps = criteria.crypt_gaps(obj, tol=args.tol)
        member = criteria.gaps_member(gaps, tol=args.tol)
        _write(args.output, jsonio.dumps({"member": member, "gaps": gaps}, indent=2))
        return PASS if member else FAIL
    raise CliError("check expects a behavior or a realization")


def _geometry_report(g: geometry.GeometryParams) -> dict:
    report = g.to_json_dict()
    for key in ("thetaA", "thetaB", "phiB", "phiA"):
        report[key + "Degrees"] = np.degrees(np.asarray(report[key]))
    report["chiDegrees"] = math.degrees(g.chi)
    return report


def cmd_geometry(args) -> int:
    obj = _read_behavior(args.input)
    if not isinstance(obj, behavior.CBehavior):
        raise CliError("geometry expects a correlator behavior or a realization")
    try:
        g = geometry.reconstruct(obj, tol=args.tol)
    except geometry.ReconstructionError as exc:
        _write(args.output, jsonio.dumps({"error": str(exc)}, indent=2))
        return FAIL
    _write(args.output, jsonio.dumps(_geometry_report(g), indent=2))
    return PASS


def cmd_qbell(args) -> int:
    obj = _read_behavior(args.input)
    if isinstance(obj, behavior.CBehavior):
        try:
            g = geometry.reconstruct(obj, tol=args.tol)
        except geometry.ReconstructionError as exc:
            raise CliError(str(exc)) from exc
    elif isinstance(obj, geometry.GeometryParams):
        g = obj
    else:
        raise CliError("qbell expects a geometry, behavior, or realization")
    try:
        ineqB, ineqA, _ = qbell.construct_pair(g)
        k = realization.two_qubit_behaviors(g.thetaA, g.thetaB, g.chi)
        d = behavior.DBehavior(deltaB=k.deltaB, deltaA=k.deltaA, c=k.c)
        uniq = qbell.uniqueness_check(g)
    except qbell.DegenerateGeometryError as exc:
        raise CliError(str(exc)) from exc
    report = {
        "inequalityB": ineqB.to_json_dict(),
        "inequalityA": ineqA.to_json_dict(),
        "valueB": qbell.evaluate(ineqB, d),
        "valueA": qbell.evaluate(ineqA, d),
        "trivialOnly": uniq.trivialOnly,
        "solutions": [list(s) for s in uniq.solutions],
    }
    _write(args.output, jsonio.dumps(report, indent=2))
    return PASS if uniq.trivialOnly else FAIL


def cmd_selftest(args) -> int:
    data = _read_input(args.input)
    if "base" not in data:
        raise CliError('selftest expects {"base": realization, "B2": ... or "thetaB2": ...}')
    if not isinstance(data["base"], dict):
        raise CliError("base must be a JSON object")
    base = _as_realization(_parse_object(data["base"]))
    if "thetaB2" in data:
        b2 = realization.xz_observable(jsonio.number(data["thetaB2"], "thetaB2"))
    elif "B2" in data:
        b2 = jsonio.complex_array(data["B2"], "B2", square=True)
    else:
        raise CliError("selftest input needs B2 (matrix) or thetaB2 (angle)")
    try:
        ext = selftest.ExtendedRealization(base=base, B2=b2)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    protocols = {"addedZ": selftest.protocol_zb, "paired": selftest.protocol_lemma6_pair}
    protocol = data.get("protocol", "addedZ")
    if not isinstance(protocol, str) or protocol not in protocols:
        raise CliError(f"unknown protocol {protocol!r}")
    report = protocols[protocol](ext, tol=args.tol)
    _write(args.output, jsonio.dumps(report, indent=2))
    return PASS if report["selfTested"] else FAIL


def _pq_params(eps: float):
    """thetaA, thetaB and chi of P (chi = pi/12) and Q (chi = pi/8), stacked."""
    thetaA = np.array([[0.0, math.pi / 2]] * 2)
    thetaB = np.array([[eps, -math.pi / 4]] * 2)
    return thetaA, thetaB, np.array([math.pi / 12, math.pi / 8])


def _chsh(b: behavior.CBehavior) -> float:
    return float(b.c[0, 0] + b.c[0, 1] + b.c[1, 0] - b.c[1, 1])


def _boundary_intervals(d_ref: behavior.DBehavior, grid: np.ndarray) -> dict:
    """Feasible range of the varied bias coordinate on every C_11 curve.

    A curve of section B (A) sets C_11 of ``d_ref`` to a grid value and
    varies delta = delta^B_1 (delta^A_1) over [C_11^2, 1]; a point is
    feasible where the scaled-correlator gap of that side is >= 0.  A curve
    has a range if one batched gap evaluation finds either end feasible.

    The range is [lo, 1], lo in closed form.  Section B scales row 0 of C
    to a fixed (a, b) and row 1, (u, v), to (u, v) / sqrt(delta); section A
    does so with the columns.  With kappa = sqrt(1 - a^2) sqrt(1 - b^2) -
    s ab for s = +1 and -1, the gap is >= 0 exactly where delta >= max(u^2,
    v^2) and delta >= delta_s = (u^2 + v^2 + 2 s kappa uv) / (1 - kappa^2)
    for each s with kappa delta_s + s uv <= 0.  A root failing that test is
    the one squaring brings in, and |kappa| = 1 binds nothing.  The scaled
    row moves along a ray from 0 in a convex set that holds 0, so no upper
    end can fail.  Returns, per section, the rows (c11, lo, 1.0) in grid
    order.
    """
    n = len(grid)
    c = np.broadcast_to(d_ref.c, (n, 2, 2)).copy()
    c[:, 1, 1] = grid
    # each side's gap reads only its own biases, so one evaluation at both
    # ends of every curve serves both sections
    ends = np.stack([grid * grid, np.ones(n)])
    deltaB = np.broadcast_to(d_ref.deltaB, ends.shape + (2,)).copy()
    deltaA = np.broadcast_to(d_ref.deltaA, ends.shape + (2,)).copy()
    deltaB[..., 1] = deltaA[..., 1] = ends
    c_ends = np.broadcast_to(c, ends.shape + (2, 2))
    gaps = criteria.crypt_gaps_batch(deltaB, deltaA, c_ends, tol=BOUNDARY_TOL)
    keep = np.concatenate([gaps["tlmB"], gaps["tlmA"]], axis=-1).max(axis=0) >= 0.0
    # section A's columns are the rows of the transpose
    rows = np.concatenate([c, c.swapaxes(-1, -2)])
    scale = np.sqrt(np.repeat([d_ref.deltaB[0], d_ref.deltaA[0]], n))
    a, b = np.clip(rows[:, 0] / scale[:, None], -1.0, 1.0).T
    u, v = rows[:, 1].T
    s = np.array([[1.0], [-1.0]])
    kappa = np.sqrt((1.0 - a * a) * (1.0 - b * b)) - s * a * b
    num, den = u * u + v * v + 2.0 * s * kappa * u * v, 1.0 - kappa * kappa
    root = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
    root = np.where((den > 0.0) & (kappa * root + s * u * v <= 0.0), root, 0.0)
    lo = np.maximum(np.maximum(u * u, v * v), root.max(axis=0))
    return {
        side: [(x, y, 1.0) for x, y in zip(grid[k], lo_side[k])]
        for side, k, lo_side in zip("BA", keep.reshape(2, n), lo.reshape(2, n))
    }


def _check_samples(args):
    if args.samples < 1:
        raise CliError(f"--samples={args.samples} must be at least 1")


def cmd_counterexample(args) -> int:
    _check_samples(args)
    eps = args.epsilon
    if not 0.0 < eps < math.pi / 40:
        raise CliError(f"epsilon={eps} outside (0, pi/40)")
    k = realization.two_qubit_behaviors(*_pq_params(eps))
    p_c, q_c = (behavior.CBehavior(cA=k.cA[i], cB=k.cB[i], c=k.c[i]) for i in range(2))
    p_d, q_d = (
        behavior.DBehavior(deltaB=k.deltaB[i], deltaA=k.deltaA[i], c=k.c[i]) for i in range(2)
    )
    lam = (2.0 - _chsh(p_c)) / (2.0 - _chsh(q_c))
    w = [1.0 / (1.0 - lam), -lam / (1.0 - lam)]
    l_c = behavior.mix([p_c, q_c], w)
    l_d = behavior.mix([p_d, q_d], w)
    local = behavior.is_local(l_c, tol=args.tol)
    gaps = criteria.crypt_gaps(l_d, tol=args.tol)
    member = criteria.gaps_member(gaps, tol=args.tol)
    report = {
        "epsilon": eps,
        "lambda": lam,
        "lambdaLimit": 1.0 - 1.0 / math.sqrt(2.0),
        "LIsLocal": local,
        "LInCryptSet": member,
        "cryptGaps": gaps,
        "chshP": _chsh(p_c),
        "chshQ": _chsh(q_c),
        "chshL": _chsh(l_c),
        "L": {"cbehavior": l_c.to_json_dict(), "dbehavior": l_d.to_json_dict()},
    }
    ok = local and not member
    if args.format == "csv":
        buf = io.StringIO()
        buf.write("section,label,c11,deltaMin,deltaMax\n")
        rows = _boundary_intervals(p_d, np.linspace(-1.0, 0.2, args.samples))
        for side in ("B", "A"):
            for c11, lo, hi in rows[side]:
                buf.write(f"{side},boundary,{c11:.10g},{lo:.10g},{hi:.10g}\n")
            for label, d in (("P", p_d), ("Q", q_d), ("L", l_d)):
                delta = getattr(d, "delta" + side)[1]
                buf.write(f"{side},{label},{d.c[1, 1]:.10g},{delta:.10g},{delta:.10g}\n")
        _write(args.output, buf.getvalue())
    else:
        _write(args.output, jsonio.dumps(report, indent=2))
    return PASS if ok else FAIL


def _sweep_columns(thetaA, thetaB, chi, tol: float):
    """chshMax, cryptMember and the gaps of stacked two-qubit realizations:
    the closed forms, one gap kernel call and one CHSH product for all rows."""
    k = realization.two_qubit_behaviors(thetaA, thetaB, chi)
    gaps = criteria.crypt_gaps_batch(k.deltaB, k.deltaA, k.c, tol=tol, comp=(k.compB, k.compA))
    chsh = np.abs(behavior.chsh_values_batch(k.c)).max(axis=-1)
    return chsh, criteria.gaps_member(gaps, tol=tol), gaps


def _csv(header: str, row: str, columns: list) -> str:
    """The header, then ``row % (index, *values)`` per sample."""
    values = zip(range(len(columns[0])), *(col.tolist() for col in columns))
    return header + "".join([row % v for v in values])


def cmd_sweep(args) -> int:
    _check_samples(args)
    n = args.samples
    if args.mode == "random":
        rng = np.random.default_rng(args.seed)
        thetaA, thetaB, chi = realization.random_two_qubit_params(rng, n)
        chsh, member, gaps = _sweep_columns(thetaA, thetaB, chi, args.tol)
        text = _csv(
            "index,thetaA0,thetaA1,thetaB0,thetaB1,chi,chshMax,cryptMember,tlmGapB,tlmGapA\n",
            "%d,%.10g,%.10g,%.10g,%.10g,%.10g,%.10g,%d,%.10g,%.10g\n",
            [*thetaA.T, *thetaB.T, chi, chsh, member, gaps["tlmB"], gaps["tlmA"]],
        )
    elif args.mode == "chi-grid":
        chi = np.linspace(0.0, math.pi / 4, n)
        thetaA = np.broadcast_to((0.0, math.pi / 2), (n, 2))
        thetaB = np.broadcast_to((math.pi / 4, -math.pi / 4), (n, 2))
        chsh, member, _ = _sweep_columns(thetaA, thetaB, chi, args.tol)
        text = _csv(
            "index,chi,sin2chiSquared,chshMax,cryptMember\n",
            "%d,%.10g,%.10g,%.10g,%d\n",
            [chi, np.sin(2.0 * chi) ** 2, chsh, member],
        )
    else:
        raise CliError(f"unknown sweep mode {args.mode!r}")
    _write(args.output, text)
    return PASS


class _Parser(argparse.ArgumentParser):
    """An argument error is a ``CliError``: one ``error:`` line and exit 1."""

    def error(self, message):
        raise CliError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bellgeo",
        description="Geometry, boundary criteria, and self-testing for the "
        "two-party two-setting Bell scenario.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, needs_input=True, tol=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if needs_input:
            p.add_argument("--input", "-i", help="path, '-' for stdin, or inline JSON")
        p.add_argument("--output", "-o", help="output path (default stdout)")
        if tol:
            p.add_argument("--tol", type=float, default=None, help="tolerance override")
        return p

    command("simulate", cmd_simulate, "behaviors of a realization", tol=False)
    command("check", cmd_check, "extremality / membership criteria")
    command("geometry", cmd_geometry, "reconstruct the planar geometry")
    command("qbell", cmd_qbell, "quantum Bell pair and uniqueness")
    command("selftest", cmd_selftest, "run a self-testing protocol")
    ce = command(
        "counterexample", cmd_counterexample, "local-but-not-quantum extrapolation",
        needs_input=False,
    )
    ce.add_argument("--format", choices=("json", "csv"), default="json")
    ce.add_argument("--epsilon", type=float, default=0.01)
    ce.add_argument("--samples", type=int, default=61, help="points per boundary curve")
    sw = command("sweep", cmd_sweep, "randomized or grid CSV datasets", needs_input=False)
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--samples", type=int, default=100)
    sw.add_argument("--mode", choices=("random", "chi-grid"), default="random")
    return parser


def _resolve_tol(args):
    """``--tol``, else ``NONLOC_TOL``, else the subcommand's default; a NaN,
    infinite or negative value from the flag or the variable, or a variable
    that is not a number, is an error."""
    source = "--tol"
    if args.tol is None:
        env = os.environ.get("NONLOC_TOL")
        if env:
            source = "NONLOC_TOL"
            try:
                args.tol = float(env)
            except ValueError as exc:
                raise CliError(f"NONLOC_TOL={env!r} is not a number") from exc
        else:
            args.tol = RESIDUAL_PASS if args.command == "selftest" else DEFAULT_TOL
    if not 0.0 <= args.tol < math.inf:
        raise CliError(f"{source}={args.tol} must be finite and nonnegative")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if "tol" in args:
            _resolve_tol(args)
        return args.handler(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR

if __name__ == "__main__":
    sys.exit(main())
