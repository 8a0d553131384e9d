"""The CLI output corpus: seeded calls of ``bellgeo.cli.main`` and how to run one.

``cases()`` yields each case as ``{id, argv, stdin?, env?}``; ``run(case)``
gives its exit code, stderr and stdout.  ``expected.jsonl`` holds every case
with its output, and ``test_golden.py`` replays the argv stored there, not
the generator's: the general realizations come from ``haar_unitary``'s QR,
whose digits depend on the LAPACK build.  ``regen.py`` rewrites the file.
"""

import contextlib
import io
import itertools
import json
import math
import os
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np

from bellgeo import jsonio
from bellgeo.cli import main
from bellgeo.geometry import projection_angles
from bellgeo.realization import (
    SIGMA3,
    TwoQubitRealization,
    embed,
    haar_unitary,
    promote,
    simulate_cbehavior,
    simulate_dbehavior,
    xz_observable,
)
from bellgeo.tolerances import DEFAULT_TOL, root_tol
from realizations import (
    PUSH_SIZES,
    draws,
    embedded_pair,
    general_draws,
    pushed_draws,
    random_conforming,
    reference_realization,
    tsirelson_realization,
)

EXPECTED = Path(__file__).with_name("expected.jsonl")

README = TwoQubitRealization(thetaA=[0, 1.5707963], thetaB=[0.05, -0.7853982], chi=0.2617994)
# a behavior outside the two-qubit boundary
OUTSIDE = {"cA": [0.3, -0.2], "cB": [0.1, 0.4], "c": [[0.5, 0.1], [-0.3, 0.2]]}
# the reconstruction tolerance of the criterion, and of the frozen comparisons
ROOT_TOL = repr(root_tol(DEFAULT_TOL))


def _case(name, *argv, stdin=None, env=None):
    extra = {k: v for k, v in (("stdin", stdin), ("env", env)) if v is not None}
    return {"id": name, "argv": [str(a) for a in argv], **extra}


def _pairs(m):
    """A complex matrix as the row-major [re, im] pairs of the JSON input."""
    return np.stack([m.real, m.imag], axis=-1).reshape(-1, 2).tolist()


def _selftest(name, base, protocol, added):
    """``added`` is a thetaB2 angle or a B2 matrix."""
    key, value = ("thetaB2", added) if isinstance(added, float) else ("B2", _pairs(added))
    request = {"base": base.to_json_dict(), "protocol": protocol, key: value}
    return _case(name, "selftest", "-i", jsonio.dumps(request))


def _pipeline(name, r, extra=()):
    """check, geometry and qbell of r, and the selftests of the CLI tests."""
    text = r.to_json()
    yield _case(f"check/{name}", "check", "-i", text)
    yield _case(f"geometry/{name}", "geometry", "-i", text)
    yield _case(f"qbell/{name}", "qbell", "-i", text)
    for k, (protocol, added) in enumerate(
            [("addedZ", SIGMA3), ("paired", -math.pi / 2), *extra]):
        yield _selftest(f"selftest/{name}/{k}", promote(r), protocol, added)


def _commands():
    """Every subcommand and input kind, the tolerance sources and stdin."""
    text = README.to_json()
    yield _case("simulate/readme", "simulate", "-i", text)
    yield from _pipeline("readme", README, [("addedZ", 0.0), ("paired", xz_observable(0.3))])
    yield _case("check/readme/tol", "check", "-i", text, "--tol", "1e-6")
    yield _case("check/readme/env", "check", "-i", text, env={"NONLOC_TOL": "1e-6"})
    yield _case("selftest/readme/env", "selftest", "-i",
                jsonio.dumps({"base": README.to_json_dict(), "thetaB2": 0.3}),
                env={"NONLOC_TOL": "1e-9"})
    cbehavior = simulate_cbehavior(README).to_json()
    yield _case("check/readme/stdin", "check", "-i", "-", stdin=cbehavior)
    yield _case("geometry/readme/stdin", "geometry", "-i", "-", stdin=cbehavior)
    yield _case("check/readme/dbehavior", "check", "-i", simulate_dbehavior(promote(README)).to_json())
    for name, r in (("reference", reference_realization()),
                    ("reference-0.05", reference_realization(0.05)),
                    ("tsirelson", tsirelson_realization())):
        yield from _pipeline(name, r)
    yield _case("geometry/reference/env", "geometry", "-i", reference_realization().to_json(),
                env={"NONLOC_TOL": "1e-13"})
    yield _case("check/tsirelson/cbehavior", "check", "-i", json.dumps(
        {"cA": [0, 0], "cB": [0, 0], "c": [[0.5**0.5, 0.5**0.5], [0.5**0.5, -0.5**0.5]]}))
    yield _case("geometry/outside", "geometry", "-i", json.dumps(OUTSIDE))
    yield _case("check/outside/dbehavior", "check", "-i", json.dumps(
        {"deltaB": [0.3, 0.2], "deltaA": [0.5, 0.1], "c": OUTSIDE["c"]}))
    geometry = projection_angles(TwoQubitRealization(thetaA=[0.4, 1.9], thetaB=[0.9, -0.6], chi=0.3))
    yield _case("qbell/geometry", "qbell", "-i", geometry.to_json())
    for eps in (0.001, 0.01, 0.05, math.pi / 40 - 1e-15):
        yield _case(f"counterexample/json/{eps!r}", "counterexample", "--epsilon", repr(eps))
    yield _case("counterexample/json/tol", "counterexample", "--tol", "1e-3")
    for eps, samples in ((5e-324, 1), (1e-300, 2), (1e-4, 61), (0.01, 6),
                         (math.pi / 40 - 1e-15, 61), (0.05, 200)):
        yield _case(f"counterexample/csv/{eps!r}/{samples}", "counterexample", "--format", "csv",
                    "--epsilon", repr(eps), "--samples", str(samples))
    yield _case("sweep/random", "sweep", "--samples", "40", "--seed", "3")
    yield _case("sweep/random/tol", "sweep", "--samples", "10", "--tol", "0.1")
    yield _case("sweep/chi-grid", "sweep", "--mode", "chi-grid", "--samples", "11")


def _errors():
    """Inputs that end in one ``error:`` line with exit 1."""
    text = README.to_json()
    base = json.loads(text)
    bad = {
        "no-subcommand": [],
        "unknown-flag": ["check", "--bogus"],
        "samples-not-int": ["sweep", "--samples", "x"],
        "samples-zero": ["sweep", "--samples", "0"],
        "epsilon-range": ["counterexample", "--epsilon", "0.5"],
        "malformed-json": ["simulate", "-i", "{not json"],
        "not-an-object": ["check", "-i", "-"],
        "unknown-object": ["check", "-i", '{"foo": 1}'],
        "tol-nan": ["check", "-i", text, "--tol", "nan"],
        "tol-negative": ["selftest", "-i", text, "--tol", "-1"],
        "chi-range": ["simulate", "-i", '{"thetaA": [0, 1], "thetaB": [0, 1], "chi": 2.0}'],
        "cA-nan": ["check", "-i", '{"cA": [NaN, 0], "cB": [0, 0], "c": [[0, 0], [0, 0]]}'],
        "local": ["check", "-i", '{"cA": [0, 0], "cB": [0, 0], "c": [[0, 0], [0, 0]]}'],
        "invalid": ["check", "-i", '{"cA": [0.9, 0], "cB": [-0.9, 0], "c": [[0.9, 1], [1, -1]]}'],
        "simulate-behavior": ["simulate", "-i", '{"cA": [0, 0], "cB": [0, 0], "c": [[0, 0], [0, 0]]}'],
        "geometry-dbehavior": ["geometry", "-i", simulate_dbehavior(promote(README)).to_json()],
        "qbell-reconstruction": ["qbell", "-i", json.dumps(OUTSIDE)],
        "phiB-inconsistent": ["qbell", "-i", '{"thetaA": [0.4, 1.9], "thetaB": [0.9, -0.6], '
                              '"phiB": [0.1, 2.0], "phiA": [-1.0, 0.7], "chi": 0.3, '
                              '"psiPrimeNorm": 0.123}'],
        "selftest-no-base": ["selftest", "-i", '{"thetaB2": 0.3}'],
        "selftest-no-added": ["selftest", "-i", json.dumps({"base": base})],
        "selftest-protocol": ["selftest", "-i", json.dumps(
            {"base": base, "thetaB2": 0.3, "protocol": "other"})],
        "selftest-B2-hermitian": ["selftest", "-i", json.dumps(
            {"base": base, "B2": [[1, 0], [1, 0], [0, 0], [-1, 0]]})],
    }
    for name, argv in bad.items():
        yield _case(f"error/{name}", *argv, stdin="[1, 2]" if "-" in argv else None)
    for value in ("abc", "inf"):
        yield _case(f"error/env-{value}", "check", "-i", text, env={"NONLOC_TOL": value})


def _families():
    """The draw families of ``realizations``, each through the commands that
    print the kernels it was drawn for."""
    count = {}
    for label, r, b in draws(np.random.default_rng(2601), 100):
        j = count[label] = count.get(label, -1) + 1
        name = f"{label}/{j:02d}"
        text = b.to_json() if r is None else r.to_json()
        yield _case(f"check/{name}", "check", "-i", text)
        yield _case(f"geometry/{name}", "geometry", "-i", text)
        yield _case(f"geometry-rootTol/{name}", "geometry", "-i", text, "--tol", ROOT_TOL)
        yield _case(f"qbell-rootTol/{name}", "qbell", "-i", text, "--tol", ROOT_TOL)
        if r is not None:
            yield _case(f"qbell-geometry/{name}", "qbell", "-i", projection_angles(r).to_json())
    for j, (_, b) in enumerate(pushed_draws(np.random.default_rng(2602), 12)):
        for tol, command in itertools.product(PUSH_SIZES, ("check", "geometry")):
            yield _case(f"{command}/pushed/{j:02d}/{tol!r}", command, "-i", b.to_json(),
                        "--tol", repr(tol))
    rng = np.random.default_rng(2603)
    for j, g in enumerate(general_draws(rng, 10)):
        yield _case(f"simulate/general/{j:02d}", "simulate", "-i", g.to_json())
        yield _case(f"check/general/{j:02d}", "check", "-i", g.to_json())
    for j in range(4):
        dims = [int(d) for d in rng.integers(2, 5, size=2)]
        g, z = embedded_pair(rng, *dims, random_conforming(rng))
        for protocol in ("addedZ", "paired"):
            yield _selftest(f"selftest-{protocol}/embedded/{j:02d}", g, protocol, z)
    rng = np.random.default_rng(2604)
    for j in range(8):
        r = promote(random_conforming(rng, pair=False))
        theta = [float(t) for t in rng.uniform(-3.0, 3.0, 2)]
        for protocol, added in (("addedZ", SIGMA3), ("paired", theta[0]),
                                ("addedZ", theta[1]), ("paired", xz_observable(theta[0]))):
            kind = "B2" if isinstance(added, np.ndarray) else "thetaB2"
            yield _selftest(f"selftest-{protocol}-{kind}/conforming/{j:02d}", r, protocol, added)


def _edges():
    """The edges that open items of the roadmap name."""
    # the README realization under local Haar rotations, UA then UB from
    # default_rng(3): addedZ with UB sigma3 UB^+, paired with thetaB2 = -pi/2
    rng = np.random.default_rng(3)
    for j in range(12):
        ua, ub = haar_unitary(rng, 2), haar_unitary(rng, 2)
        g = embed(promote(README), unitaryA=ua, unitaryB=ub)
        for protocol, b2 in (("addedZ", SIGMA3), ("paired", xz_observable(-math.pi / 2))):
            yield _selftest(f"selftest-{protocol}/readme-rotated/{j:02d}", g, protocol,
                            ub @ b2 @ ub.conj().T)
    # draw 1818 of default_rng(7): pair (1, 0) has discriminant 6.4e-11
    rng = np.random.default_rng(7)
    for _ in range(1819):
        r = random_conforming(rng)
    yield from _pipeline("draw1818", r)
    # the tilted CHSH optimum at alpha = 0.5, whose thetaA_0 = 0
    s2 = math.sqrt((4 - 0.5**2) / (4 + 0.5**2))
    mu = math.atan(s2)
    tilted = TwoQubitRealization(thetaA=[0.0, math.pi / 2], thetaB=[mu, -mu], chi=0.5 * math.asin(s2))
    yield from _pipeline("tilted-0.5", tilted, [("paired", 0.3)])
    # the sixth draw of default_rng(8): the paired protocol certifies
    # thetaB2 in (0.0728, 0.0809), where the extended geometry is not conforming
    rng = np.random.default_rng(8)
    for _ in range(6):
        r = random_conforming(rng)
    for theta in (0.07, 0.075, 0.085):
        yield _selftest(f"selftest-paired/rng8-draw6/{theta!r}", promote(r), "paired", theta)


def cases():
    yield from _commands()
    yield from _errors()
    yield from _families()
    yield from _edges()


def run(case):
    """Exit code, stderr and stdout of one case, with ``env`` as the only
    NONLOC_TOL, ``stdin`` on stdin, and a RuntimeWarning an error as in the
    tests."""
    env = {k: v for k, v in os.environ.items() if k != "NONLOC_TOL"}
    env.update(case.get("env", {}))
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env, clear=True), \
            mock.patch.object(sys, "stdin", io.StringIO(case.get("stdin", ""))), \
            warnings.catch_warnings(), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(case["argv"])
    return {"exit": code, "stderr": err.getvalue(), "stdout": out.getvalue()}
