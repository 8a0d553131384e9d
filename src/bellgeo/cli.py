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
import io
import math
import os
import sys

import numpy as np

from . import behavior, criteria, geometry, jsonio, qbell, realization, selftest

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
    except ValueError as exc:
        raise CliError(f"malformed JSON input: {exc}") from exc
    if not isinstance(data, dict):
        raise CliError("input must be a JSON object")
    return data


def _parse_object(data: dict):
    """Dispatch on the field signature of the JSON object."""
    text = jsonio.dumps(data)
    try:
        if "thetaA" in data and "chi" in data and "phiB" not in data:
            return realization.TwoQubitRealization.from_json(text)
        if "dimA" in data and "psi" in data:
            return realization.GeneralRealization.from_json(text)
        if "phiB" in data:
            return geometry.GeometryParams.from_json(text)
        if "cA" in data:
            return behavior.CBehavior.from_json(text)
        if "deltaB" in data and "deltaA" in data:
            return behavior.DBehavior.from_json(text)
        if "side" in data and "Vmarg" in data:
            return qbell.QuantumBellInequality.from_json(text)
    except (ValueError, KeyError) as exc:
        raise CliError(f"cannot parse input object: {exc}") from exc
    raise CliError("unrecognized input object (no known field signature)")


def _as_realization(obj):
    if isinstance(obj, realization.TwoQubitRealization):
        return realization.promote(obj)
    if isinstance(obj, realization.GeneralRealization):
        return obj
    raise CliError(f"expected a realization, got {type(obj).__name__}")


def _write(out_path: str | None, text: str):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def cmd_simulate(args) -> int:
    obj = _parse_object(_read_input(args.input))
    r = _as_realization(obj)
    cb = realization.simulate_cbehavior(r)
    db = realization.simulate_dbehavior(r)
    _write(
        args.output,
        jsonio.dumps(
            {"cbehavior": cb.to_json_dict(), "dbehavior": db.to_json_dict()}, indent=2
        ),
    )
    return PASS


def cmd_check(args) -> int:
    obj = _parse_object(_read_input(args.input))
    if isinstance(obj, (realization.TwoQubitRealization, realization.GeneralRealization)):
        obj = realization.simulate_cbehavior(_as_realization(obj))
    if isinstance(obj, behavior.CBehavior):
        try:
            verdict = criteria.extremal_criterion(obj, tol=args.tol)
        except behavior.InvalidBehaviorError as exc:
            raise CliError(str(exc)) from exc
        _write(args.output, verdict.to_json(indent=2))
        return PASS if verdict.conjecture1Candidate else FAIL
    if isinstance(obj, behavior.DBehavior):
        gaps = criteria.crypt_gaps(obj, tol=args.tol)
        member = criteria.crypt_membership(obj, tol=args.tol)
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
    obj = _parse_object(_read_input(args.input))
    if isinstance(obj, (realization.TwoQubitRealization, realization.GeneralRealization)):
        obj = realization.simulate_cbehavior(_as_realization(obj))
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
    obj = _parse_object(_read_input(args.input))
    if isinstance(obj, (realization.TwoQubitRealization, realization.GeneralRealization)):
        obj = realization.simulate_cbehavior(_as_realization(obj))
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
        d = realization.simulate_dbehavior(realization.promote(geometry.two_qubit_of(g)))
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
    base = _as_realization(_parse_object(data["base"]))
    if "thetaB2" in data:
        b2 = realization.xz_observable(float(data["thetaB2"]))
    elif "B2" in data:
        pairs = data["B2"]
        z = np.array([complex(re, im) for re, im in pairs])
        b2 = z.reshape(base.dimB, base.dimB)
    else:
        raise CliError("selftest input needs B2 (matrix) or thetaB2 (angle)")
    try:
        ext = selftest.ExtendedRealization(base=base, B2=b2)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    protocol = data.get("protocol", "addedZ")
    if protocol == "addedZ":
        report = selftest.protocol_zb(ext, tol=args.tol if args.tol_set else selftest.RESIDUAL_PASS)
    elif protocol == "paired":
        report = selftest.protocol_lemma6_pair(
            ext, tol=args.tol if args.tol_set else selftest.RESIDUAL_PASS
        )
    else:
        raise CliError(f"unknown protocol {protocol!r}")
    _write(args.output, jsonio.dumps(report, indent=2))
    return PASS if report["selfTested"] else FAIL


def _pq_realizations(eps: float):
    p = realization.TwoQubitRealization(
        thetaA=(0.0, math.pi / 2), thetaB=(eps, -math.pi / 4), chi=math.pi / 12
    )
    q = realization.TwoQubitRealization(
        thetaA=(0.0, math.pi / 2), thetaB=(eps, -math.pi / 4), chi=math.pi / 8
    )
    return p, q


def _chsh(b: behavior.CBehavior) -> float:
    return float(b.c[0, 0] + b.c[0, 1] + b.c[1, 0] - b.c[1, 1])


def _boundary_interval(d_ref: behavior.DBehavior, side: str, c11: float):
    """Feasible range of the varied bias coordinate at fixed C_11.

    The boundary solves a zero of the scaled-correlator gap by bisection;
    the lower end of the range is the cap C_11^2.
    """
    c = np.array(d_ref.c)
    c[1, 1] = c11

    def gap(delta: float) -> float:
        if side == "B":
            d = behavior.DBehavior(
                deltaB=(d_ref.deltaB[0], delta), deltaA=d_ref.deltaA, c=c
            )
        else:
            d = behavior.DBehavior(
                deltaB=d_ref.deltaB, deltaA=(d_ref.deltaA[0], delta), c=c
            )
        return criteria.crypt_gaps(d)["tlm" + side]

    lo = c11 * c11
    if gap(lo) < 0.0 and gap(1.0) < 0.0:
        return None
    # the gap is positive on the feasible interval; bisect each endpoint
    lo_ok, hi_ok = gap(lo) >= 0.0, gap(1.0) >= 0.0
    lo_bound, hi_bound = lo, 1.0
    if not lo_ok:
        a, b = lo, 1.0
        # find any feasible point to bracket against
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


def _check_samples(args):
    if args.samples < 1:
        raise CliError(f"--samples={args.samples} must be at least 1")


def cmd_counterexample(args) -> int:
    _check_samples(args)
    eps = args.epsilon
    if not 0.0 < eps < math.pi / 40:
        raise CliError(f"epsilon={eps} outside (0, pi/40)")
    p_real, q_real = _pq_realizations(eps)
    p_c = realization.simulate_cbehavior(p_real)
    q_c = realization.simulate_cbehavior(q_real)
    lam = (2.0 - _chsh(p_c)) / (2.0 - _chsh(q_c))
    w = [1.0 / (1.0 - lam), -lam / (1.0 - lam)]
    l_c = behavior.mix([p_c, q_c], w)
    p_d = realization.simulate_dbehavior(p_real)
    q_d = realization.simulate_dbehavior(q_real)
    l_d = behavior.mix([p_d, q_d], w)
    local = behavior.is_local(l_c, tol=args.tol)
    gaps = criteria.crypt_gaps(l_d, tol=args.tol)
    member = criteria.crypt_membership(l_d, tol=args.tol)
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
        markers = {
            "B": [("P", p_d.c[1, 1], p_d.deltaB[1]), ("Q", q_d.c[1, 1], q_d.deltaB[1]),
                  ("L", l_d.c[1, 1], l_d.deltaB[1])],
            "A": [("P", p_d.c[1, 1], p_d.deltaA[1]), ("Q", q_d.c[1, 1], q_d.deltaA[1]),
                  ("L", l_d.c[1, 1], l_d.deltaA[1])],
        }
        for side in ("B", "A"):
            for c11 in np.linspace(-1.0, 0.2, args.samples):
                interval = _boundary_interval(p_d, side, float(c11))
                if interval is None:
                    continue
                buf.write(
                    f"{side},boundary,{c11:.10g},{interval[0]:.10g},{interval[1]:.10g}\n"
                )
            for label, c11, delta in markers[side]:
                buf.write(f"{side},{label},{c11:.10g},{delta:.10g},{delta:.10g}\n")
        _write(args.output, buf.getvalue())
    else:
        _write(args.output, jsonio.dumps(report, indent=2))
    return PASS if ok else FAIL


def cmd_sweep(args) -> int:
    _check_samples(args)
    rng = np.random.default_rng(args.seed)
    buf = io.StringIO()
    if args.mode == "random":
        buf.write(
            "index,thetaA0,thetaA1,thetaB0,thetaB1,chi,chshMax,cryptMember,"
            "tlmGapB,tlmGapA\n"
        )
        for i in range(args.samples):
            r = realization.random_two_qubit(rng)
            cb = realization.simulate_cbehavior(r)
            d = realization.simulate_dbehavior(r)
            gaps = criteria.crypt_gaps(d)
            member = criteria.crypt_membership(d)
            chsh = float(np.abs(behavior.chsh_values(cb)).max())
            buf.write(
                f"{i},{r.thetaA[0]:.10g},{r.thetaA[1]:.10g},{r.thetaB[0]:.10g},"
                f"{r.thetaB[1]:.10g},{r.chi:.10g},{chsh:.10g},{int(member)},"
                f"{gaps['tlmB']:.10g},{gaps['tlmA']:.10g}\n"
            )
    elif args.mode == "chi-grid":
        buf.write("index,chi,sin2chiSquared,chshMax,cryptMember\n")
        thetaA = (0.0, math.pi / 2)
        thetaB = (math.pi / 4, -math.pi / 4)
        for i, chi in enumerate(np.linspace(0.0, math.pi / 4, args.samples)):
            r = realization.TwoQubitRealization(thetaA=thetaA, thetaB=thetaB, chi=float(chi))
            cb = realization.simulate_cbehavior(r)
            d = realization.simulate_dbehavior(r)
            chsh = float(np.abs(behavior.chsh_values(cb)).max())
            buf.write(
                f"{i},{chi:.10g},{math.sin(2 * chi) ** 2:.10g},{chsh:.10g},"
                f"{int(criteria.crypt_membership(d))}\n"
            )
    else:
        raise CliError(f"unknown sweep mode {args.mode!r}")
    _write(args.output, buf.getvalue())
    return PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellgeo",
        description="Geometry, boundary criteria, and self-testing for the "
        "two-party two-setting Bell scenario.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", "-i", help="path, '-' for stdin, or inline JSON")
        p.add_argument("--output", "-o", help="output path (default stdout)")
        p.add_argument("--tol", type=float, default=None, help="tolerance override")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    common(sub.add_parser("simulate", help="behaviors of a realization"))
    common(sub.add_parser("check", help="extremality / membership criteria"))
    common(sub.add_parser("geometry", help="reconstruct the planar geometry"))
    common(sub.add_parser("qbell", help="quantum Bell pair and uniqueness"))
    common(sub.add_parser("selftest", help="run a self-testing protocol"))
    ce = sub.add_parser("counterexample", help="local-but-not-quantum extrapolation")
    common(ce, needs_input=False)
    ce.add_argument("--epsilon", type=float, default=0.01)
    ce.add_argument("--samples", type=int, default=61, help="points per boundary curve")
    sw = sub.add_parser("sweep", help="randomized or grid CSV datasets")
    common(sw, needs_input=False)
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--samples", type=int, default=100)
    sw.add_argument("--mode", choices=("random", "chi-grid"), default="random")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.tol_set = args.tol is not None
    if args.tol is None:
        env = os.environ.get("NONLOC_TOL")
        args.tol = float(env) if env else behavior.DEFAULT_TOL
    handlers = {
        "simulate": cmd_simulate,
        "check": cmd_check,
        "geometry": cmd_geometry,
        "qbell": cmd_qbell,
        "selftest": cmd_selftest,
        "counterexample": cmd_counterexample,
        "sweep": cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR
    except (ValueError, behavior.InvalidBehaviorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
