#!/usr/bin/env python3
"""Closed-loop benchmark of the bellgeo CLI pipeline.

    python3 bench/run.py --workload {sweep,boundary,certify,general} \\
        --seed N --seconds S --trace {0,1}

One process is one client: it calls ``bellgeo.cli.main`` in-process with
generated flags and JSON, and starts the next operation when the previous
one returns.  Every output is checked against closed forms computed in
``inputs``/``checks``, apart from bellgeo.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  See README.md in this directory.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "bellgeo", "cli.py")):
    sys.stderr.write(f"error: no bellgeo sources under {SRC}\n")
    sys.exit(1)
sys.path.insert(0, SRC)
_start = time.perf_counter()
import bellgeo.cli  # noqa: E402  -- timed: the import a cold CLI call pays

IMPORT_S = time.perf_counter() - _start

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from spans import Tracer  # noqa: E402

SWEEP_SAMPLES = 100
BOUNDARY_SAMPLES = 6
#: Candidates per round, followed by two behaviors outside the condition.
#: Candidate j of round k comes from conditioning band
#: j * BAND_CYCLE + k % BAND_CYCLE, so every BAND_CYCLE rounds draw once
#: from each band.
CERTIFY_CANDIDATES = 6
BAND_CYCLE = (len(inputs.CONDITIONING_BANDS) - 1) // CERTIFY_CANDIDATES
#: Percentile reported as latency_tail_ms; each leaves at least ten
#: operations beyond it at the operation counts the README records.
TAIL_PERCENTILE = {"sweep": 94.0, "boundary": 94.0, "certify": 75.0, "general": 99.0}
#: Rounds cycled by the traced run; whole passes keep per-item counts exact.
TRACE_ROUNDS = {"sweep": 8, "boundary": 8, "certify": BAND_CYCLE, "general": 40}
#: Fresh interpreters that import bellgeo.cli, besides this one; setup_s is
#: the median over all of them.
SETUP_CHILDREN = 2
IMPORT_CHILD = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import bellgeo.cli; print(time.perf_counter() - t)"
)
#: Behaviors outside the condition that fail the S+ test; ``check`` stops on
#: them with a serialization error today.  They do not depend on --seed, so
#: that failure takes the same share of every run.
_fault_rng = np.random.default_rng(20191011)
FAULT_BEHAVIORS = [
    inputs.TwoQubit(
        (4.1491352244035369, 1.5428503976869685), (4.8287347157826961, 1.3299916326525307),
        0.65288172842398529,
    ),
    *(inputs.off_branch(_fault_rng) for _ in range(3)),
]
KNOWN_FAULT = "cannot serialize non-finite number"
#: Nominal seconds of each reference part, as timed on a 2-vCPU x86-64
#: machine; the timing metrics read as times on a machine that runs the
#: reference parts this fast.
REFERENCE_NOMINAL_S = {"eigh": 6.6e-4, "loop": 5.9e-4, "arrays": 9.4e-4, "json": 7.4e-4}
#: Seconds of operations between two timings of the reference.
REFERENCE_EVERY_S = 0.1
#: Timings on either side of an operation's own that its speed is taken over.
REFERENCE_WINDOW = 2


class Reference:
    """Fixed computations, apart from bellgeo, timed between operations.

    The machine's speed drifts by up to 1.5x between phases that last
    minutes, and swings within a phase at sub-second scale; operation times
    drift with it.  Four parts cover the kinds of work the program does:
    small Hermitian ``eigh`` calls, an interpreter loop, passes over arrays
    and a JSON round trip.  Each operation is charged to the timing that
    follows it, and ``scales()`` gives each operation the geometric mean over
    the parts of nominal / measured time, the measured time being the median
    of the timings within REFERENCE_WINDOW of its own.  Operation times are
    multiplied by it, which puts operations run at different speeds of the
    machine on one footing.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((40, 4, 4)) + 1j * rng.standard_normal((40, 4, 4))
        self.herm = list(z + np.conj(np.swapaxes(z, 1, 2)))
        self.vec = rng.standard_normal(80_000)
        self.doc = {"a": rng.standard_normal(300).tolist(), "m": rng.standard_normal((64, 2)).tolist()}
        self.parts = {
            "eigh": self._eigh, "loop": self._loop, "arrays": self._arrays, "json": self._json,
        }
        self.times: dict[str, list[float]] = {name: [] for name in self.parts}
        self.owner: list[int] = []  # per operation, the index of its timing
        self.pending = REFERENCE_EVERY_S  # due after the first operation

    def _eigh(self):
        for h in self.herm:
            np.linalg.eigh(h)

    def _loop(self):
        bins: dict[int, float] = {}
        for i in range(3000):
            bins[i % 97] = bins.get(i % 97, 0.0) + 0.5 * i

    def _arrays(self):
        np.sort(self.vec[:20_000])
        np.sqrt(np.abs(self.vec))

    def _json(self):
        json.loads(json.dumps(self.doc))

    def warm_up(self):
        for part in self.parts.values():
            part()
            part()

    def after(self, busy: float):
        """Account an operation of ``busy`` seconds; time the reference when due."""
        self.owner.append(len(self.times["eigh"]))
        self.pending += busy
        if self.pending < REFERENCE_EVERY_S:
            return
        self.pending = 0.0
        for name, part in self.parts.items():
            start = time.perf_counter()
            part()
            self.times[name].append(time.perf_counter() - start)

    def scales(self) -> np.ndarray:
        """Per operation, the factor that brings its time to nominal speed."""
        n = len(self.times["eigh"])
        local = np.empty(n)
        for i in range(n):
            lo, hi = max(0, i - REFERENCE_WINDOW), i + REFERENCE_WINDOW + 1
            local[i] = math.exp(statistics.fmean(
                math.log(REFERENCE_NOMINAL_S[name] / statistics.median(t[lo:hi]))
                for name, t in self.times.items()
            ))
        return local[np.minimum(self.owner, n - 1)]


class Client:
    """A closed-loop client; ``busy`` sums the wall time spent inside calls."""

    def __init__(self):
        self.busy = 0.0
        self.rows = 0

    def cli(self, *argv: str):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = bellgeo.cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects its arguments
                code = exc.code if isinstance(exc.code, int) else 1
        self.busy += time.perf_counter() - start
        return code, out.getvalue(), err.getvalue()

    def library(self, fn: Callable, *args):
        start = time.perf_counter()
        value = fn(*args)
        self.busy += time.perf_counter() - start
        return value


@dataclass
class Op:
    items: int
    run: Callable[[Client], None]
    known_fault: bool = False


def sweep_round(rng, _):
    seed = str(int(rng.integers(0, 2**31 - 1)))

    def run(c: Client):
        res = c.cli("sweep", "--mode", "random", "--samples", str(SWEEP_SAMPLES), "--seed", seed)
        checks.check_sweep(*res, SWEEP_SAMPLES)

    return [Op(SWEEP_SAMPLES, run)]


def boundary_round(rng, _):
    eps = 0.0
    while not 0.0 < eps < math.pi / 40:
        eps = float(rng.uniform(0.0, math.pi / 40))

    def run(c: Client):
        res = c.cli(
            "counterexample", "--format", "csv", "--epsilon", repr(eps),
            "--samples", str(BOUNDARY_SAMPLES),
        )
        checks.check_boundary(*res, eps, BOUNDARY_SAMPLES)
        c.rows += checks.boundary_rows(res[1])

    return [Op(2 * BOUNDARY_SAMPLES, run)]


def _candidate(rng, j, k):
    r = inputs.conforming(rng, band=j * BAND_CYCLE + k % BAND_CYCLE)
    behavior = json.dumps(inputs.behavior_json(r))
    theta2 = inputs.conforming_theta_b2(rng, r)
    # a third of the selftest calls get an extension with sigma2 mixed in
    bad_zb, bad_pair = j % 3 == 1, j % 3 == 2
    zb = {"base": r.to_json(), "protocol": "addedZ", "B2": inputs.matrix_json(
        inputs.corrupt(rng, inputs.SIGMA3) if bad_zb else inputs.SIGMA3)}
    pair = {"base": r.to_json(), "protocol": "paired"}
    if bad_pair:
        pair["B2"] = inputs.matrix_json(inputs.corrupt(rng, inputs.xz(theta2)))
    else:
        pair["thetaB2"] = theta2
    zb, pair = json.dumps(zb), json.dumps(pair)

    def run(c: Client):
        checks.check_candidate(*c.cli("check", "-i", behavior), r)
        checks.check_qbell(*c.cli("qbell", "-i", behavior), r)
        checks.check_selftest(*c.cli("selftest", "-i", zb), not bad_zb)
        checks.check_selftest(*c.cli("selftest", "-i", pair), not bad_pair)

    return Op(1, run)


def _outside(r: inputs.TwoQubit, known_fault: bool):
    behavior = json.dumps(inputs.behavior_json(r))

    def run(c: Client):
        checks.check_outside(*c.cli("check", "-i", behavior))

    return Op(1, run, known_fault)


def certify_round(rng, k):
    ops = [_candidate(rng, j, k) for j in range(CERTIFY_CANDIDATES)]
    ops.append(_outside(inputs.misoriented(rng), False))
    ops.append(_outside(FAULT_BEHAVIORS[k % len(FAULT_BEHAVIORS)], True))
    return ops


def _oracle(text: str, side: str, setting: int) -> float:
    r = bellgeo.realization.GeneralRealization.from_json(text)
    return bellgeo.realization.guessing_bias_oracle(r, side, setting)


def general_round(rng, _):
    e = inputs.embedding(rng)
    side, setting = ("B", "A")[int(rng.integers(0, 2))], int(rng.integers(0, 2))
    text = json.dumps(e.to_json())
    zb = json.dumps(
        {"base": e.to_json(), "protocol": "addedZ", "B2": inputs.matrix_json(e.sigma3B)}
    )

    def run(c: Client):
        checks.check_simulate(*c.cli("simulate", "-i", text), e.base)
        checks.check_selftest(*c.cli("selftest", "-i", zb), True)
        checks.check_oracle(c.library(_oracle, text, side, setting), e.base, side, setting)

    return [Op(1, run)]


WORKLOADS = {
    "sweep": sweep_round,
    "boundary": boundary_round,
    "certify": certify_round,
    "general": general_round,
}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    items: int = 0
    unexpected: int = 0
    first_error: str = ""
    latencies: list = field(default_factory=list)


def run_op(op: Op, client: Client, tally: Tally):
    before = client.busy
    try:
        op.run(client)
        ok, message = True, ""
    except Exception as exc:  # a wrong output or a traceback: the operation failed
        ok, message = False, f"{type(exc).__name__}: {exc}"
    tally.attempted += 1
    tally.latencies.append(client.busy - before)
    if ok:
        tally.items += op.items
        return
    tally.failed += 1
    if not (op.known_fault and KNOWN_FAULT in message):
        tally.unexpected += 1
        if not tally.first_error:
            tally.first_error = message
            sys.stderr.write(f"unexpected failure: {message}\n")


def import_children(importtime: bool) -> list[str]:
    """Output of fresh interpreters that import bellgeo.cli (stdout or -X importtime)."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", IMPORT_CHILD, SRC]
    outs = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        outs.append(proc.stderr if importtime else proc.stdout)
    return outs


def cumulative_import_s(log: str, module: str) -> float:
    """Cumulative seconds of one module in a ``-X importtime`` log."""
    for line in log.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e6
    raise ValueError(f"{module} missing from the import log")


def end_to_end(workload: str, tally: Tally, reference: Reference) -> dict:
    setup = [IMPORT_S] + [float(s) for s in import_children(importtime=False)]
    lat = np.array(tally.latencies)
    pct = TAIL_PERCENTILE[workload]
    beyond = int(np.sum(lat > np.percentile(lat, pct)))
    print(
        f"{workload}: {tally.attempted} operations, latency_tail_ms is p{pct:g} "
        f"with {beyond} operations beyond it"
    )
    scales = reference.scales()
    nominal = lat * scales

    def timings(t: np.ndarray) -> dict:
        return {
            "items_per_s": tally.items / float(t.sum()),
            "latency_p50_ms": float(np.median(t)) * 1e3,
            "latency_tail_ms": float(np.percentile(t, pct)) * 1e3,
        }

    print(
        f"reference: {len(reference.times['eigh'])} timings, scale "
        f"{scales.min():.4g}-{scales.max():.4g} (mean {scales.mean():.4g}); unscaled: "
        + ", ".join(f"{k} = {v:.6g}" for k, v in timings(lat).items())
    )
    return {
        "setup_s": statistics.median(setup),
        **timings(nominal),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


SELF_LAYERS = ("behavior", "realization", "criteria", "geometry", "qbell", "selftest",
               "jsonio", "cli", "scipy")
CALLS = {
    "realization.promote.calls": "realization.promote",
    "realization.simulate_cbehavior.calls": "realization.simulate_cbehavior",
    "realization.conditional_states.calls": "realization.conditional_states",
    "criteria.crypt_gaps.calls": "criteria.crypt_gaps",
    "behavior.validate.calls": "behavior.validate",
    "geometry.reconstruct.calls": "geometry.reconstruct",
    "qbell.uniqueness_check.calls": "qbell.uniqueness_check",
    "qbell.least_squares.calls": "scipy.least_squares",
}
INCLUSIVE = (
    "realization.simulate_dbehavior", "realization.guessing_bias_oracle", "criteria.crypt_gaps",
    "criteria.extremal_criterion", "geometry.reconstruct", "qbell.uniqueness_check",
    "selftest.protocol_zb", "selftest.protocol_lemma6_pair", "jsonio.dumps", "jsonio.loads",
)


def per_layer(tracer: Tracer, client: Client, tally: Tally) -> dict:
    n = max(tally.items, 1)
    self_ms = tracer.self_ms_by_module()
    out = {f"{m}.self_ms": self_ms.get(m, 0.0) / n for m in SELF_LAYERS}
    out.update({k: tracer.calls_of(v) / n for k, v in CALLS.items()})
    out.update({f"{k}.ms": tracer.incl_ms(k) / n for k in INCLUSIVE})
    refinements = tracer.calls_of("scipy.least_squares")
    gap_calls = tracer.calls_of("criteria.crypt_gaps")
    out["qbell.solutions_per_refinement"] = tracer.solutions / refinements if refinements else 0.0
    out["cli.rows_per_gap_call"] = client.rows / gap_calls if gap_calls else 0.0
    logs = import_children(importtime=True)
    out["bellgeo.import_s"] = statistics.median(cumulative_import_s(s, "bellgeo") for s in logs)
    out["qbell.import_s"] = statistics.median(cumulative_import_s(s, "bellgeo.qbell") for s in logs)
    return out


def declared_units(trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    units = declared_units(bool(args.trace))
    make_round = WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    client, tally = Client(), Tally()
    # one warm-up operation, neither timed nor counted: first calls fill caches
    run_op(make_round(np.random.default_rng([args.seed, 1]), 0)[0], client, Tally())
    if args.trace:
        rounds = [make_round(rng, k) for k in range(TRACE_ROUNDS[args.workload])]
        tracer = Tracer()
        tracer.install(bellgeo)
        deadline = time.perf_counter() + args.seconds
        while True:
            for ops in rounds:
                for op in ops:
                    run_op(op, client, tally)
            if time.perf_counter() >= deadline:
                break
        metrics = per_layer(tracer, client, tally)
        out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_spans(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
        print(f"traced: {tally.items / sum(tally.latencies):.6g} items/s, "
              f"{tracer.span_count} spans")
    else:
        reference = Reference()
        reference.warm_up()
        deadline = time.perf_counter() + args.seconds
        k = 0
        while time.perf_counter() < deadline:
            for op in make_round(rng, k):
                run_op(op, client, tally)
                reference.after(tally.latencies[-1])
            k += 1
        metrics = end_to_end(args.workload, tally, reference)
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
