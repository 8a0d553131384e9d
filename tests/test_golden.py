"""The CLI output corpus ``golden/expected.jsonl``, replayed through ``cli.main``.

Each case must give its stored exit code, and its stdout and stderr must
match the stored text with every number token masked.  The numbers, those
inside error messages too, must agree pairwise within ``GOLDEN_ABS +
GOLDEN_REL * |expected|``: the digits depend on the BLAS kernel the machine
runs, not only on the program.  Every number of a JSON stdout must read as
the emitter writes it, ``format(x, ".17g")``, and every number of a CSV
stdout as ``"%.10g" % x``.  ``golden/regen.py`` rewrites the file.
"""

import json
import re

from golden.cases import EXPECTED, run

#: Floor of the number comparison, for numbers near 0: over the kernels
#: measured, a number below 1e-2 moved by at most 2.7e-13.
GOLDEN_ABS = 1e-11
#: Relative term: over the kernels measured, a number moved by at most
#: 1.6e-10 of its value, an angle the reconstruction gets from an arccos.
GOLDEN_REL = 1e-9
#: Cases whose numbers the BLAS kernel moves beyond any useful bound: their
#: exit code and masked text are compared, their numbers are not.  Within
#: 1e-6 of chi = pi/4 the reconstruction knows cos(2 chi) only to a relative
#: ulp / cos(2 chi)^2; an angle at 0 comes from an arccos near 1, known to
#: about sqrt(ulp).
KERNEL_SENSITIVE = frozenset("""
    geometry/maxEntangled/10 geometry-rootTol/maxEntangled/02 geometry-rootTol/maxEntangled/08
    geometry-rootTol/maxEntangled/10 geometry-rootTol/maxEntangled/17
    qbell-rootTol/maxEntangled/02 qbell-rootTol/maxEntangled/08
    qbell-rootTol/maxEntangled/14 qbell-rootTol/maxEntangled/17 selftest/tilted-0.5/0
    selftest/tilted-0.5/1 selftest-addedZ/readme-rotated/01 selftest-paired/readme-rotated/01
    selftest-paired/embedded/02""".split())

# a number token: not part of a name such as ``thetaB2`` or ``x86``
_NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def _misformatted(argv, stdout):
    """Number tokens of stdout that the emitter would not have written."""
    if argv[:1] == ["sweep"] or "csv" in argv:
        return [t for t in _NUMBER.findall(stdout) if t != "%.10g" % float(t)]
    tokens = _NUMBER.findall(_STRING.sub('""', stdout))
    return [t for t in tokens if t != format(float(t), ".17g")]


def _faults(case, got):
    faults = [] if got["exit"] == case["exit"] else [f"exit {got['exit']}, want {case['exit']}"]
    for stream in ("stdout", "stderr"):
        if _NUMBER.sub("#", got[stream]) != _NUMBER.sub("#", case[stream]):
            faults.append(f"{stream} text: {got[stream][:300]!r}")
            continue
        pairs = zip(map(float, _NUMBER.findall(got[stream])), map(float, _NUMBER.findall(case[stream])))
        off = [(a, b) for a, b in pairs if not abs(a - b) <= GOLDEN_ABS + GOLDEN_REL * abs(b)]
        if off and case["id"] not in KERNEL_SENSITIVE:
            faults.append(f"{stream} numbers (got, want): {off[:3]}")
    bad = _misformatted(case["argv"], got["stdout"])
    return faults + ([f"stdout tokens not as the emitter writes them: {bad[:3]}"] if bad else [])


def test_cli_output_matches_the_corpus():
    cases = [json.loads(line) for line in EXPECTED.read_text().splitlines()]
    assert KERNEL_SENSITIVE <= {case["id"] for case in cases}
    failed = {case["id"]: f for case in cases if (f := _faults(case, run(case)))}
    assert not failed, f"{len(failed)} of {len(cases)} cases differ: {failed}"
