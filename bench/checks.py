"""Output checkers: each compares one CLI or library output with the closed forms.

A checker returns nothing when the output is right and raises ``Mismatch``
naming the first disagreement otherwise.  The closed forms come from
``inputs``, never from ``bellgeo``.
"""

from __future__ import annotations

import json
import math

import numpy as np

import inputs

SQRT2 = math.sqrt(2.0)
#: Columns of ``sweep --mode random``.
SWEEP_HEADER = "index,thetaA0,thetaA1,thetaB0,thetaB1,chi,chshMax,cryptMember,tlmGapB,tlmGapA"
BOUNDARY_HEADER = "section,label,c11,deltaMin,deltaMax"
#: Distance inside a printed boundary endpoint at which the gap must be
#: nonnegative.  It exceeds the rounding of a 10-significant-digit value in
#: [0, 1], so the point lies inside the true interval.
INSIDE = 1e-10
#: Distance outside a boundary endpoint at which the gap must be negative.
OUTSIDE = 1e-6


class Mismatch(Exception):
    """An output disagrees with the independent computation."""


def expect(ok: bool, message: str):
    if not ok:
        raise Mismatch(message)


def _json(out: str) -> dict:
    try:
        return json.loads(out)
    except ValueError as exc:
        raise Mismatch(f"output is not JSON: {exc}") from exc


def _number(v) -> bool:
    """JSON numbers: a float printed as "1" parses as int."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _exit(code: int, want: int, err: str):
    expect(code == want, f"exit {code}, expected {want}: {err.strip()[:200]}")


# -- sweep ------------------------------------------------------------------


def _sweep_closed_form(p: np.ndarray):
    """(chshMax, tlmGapB, tlmGapA) per row of echoed (thetaA, thetaB, chi)."""
    tA, tB, chi = p[..., 0:2], p[..., 2:4], p[..., 4]
    _, _, c = inputs.correlators(tA, tB, chi)
    dB, dA = inputs.deltas(tA, tB, chi)
    gB = inputs.tlm_gap(c / np.sqrt(dB)[..., :, None])
    gA = inputs.tlm_gap(c / np.sqrt(dA)[..., None, :])
    return inputs.chsh_max(c), gB, gA


def _echo_halfwidth(v: np.ndarray) -> np.ndarray:
    """Bound on the rounding of a value printed with 10 significant digits."""
    mag = np.abs(v)
    exp = np.floor(np.log10(np.where(mag > 0.0, mag, 1.0)))
    return np.where(mag > 0.0, 6e-10 * 10.0**exp, 0.0)


def check_sweep(code: int, out: str, err: str, samples: int):
    """Rows of ``sweep --mode random`` against the closed forms.

    The gaps are recomputed from the echoed angles, which carry 10
    significant digits.  Where the gap is steep in the angles (a scaled
    correlator near +/-1) that rounding moves it by more than 1e-8, so the
    tolerance of each row adds the change of the closed form over the
    rounding interval of every echoed angle.
    """
    _exit(code, 0, err)
    lines = out.strip().split("\n")
    expect(lines[0] == SWEEP_HEADER, f"unexpected header {lines[0]!r}")
    expect(len(lines) - 1 == samples, f"{len(lines) - 1} rows, expected {samples}")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    expect(rows.shape[1] == 10, f"rows have {rows.shape[1]} fields, expected 10")
    expect(np.array_equal(rows[:, 0], np.arange(samples)), "index column is not 0..N-1")
    p = rows[:, 1:6]
    expect(
        bool(np.all((p[:, 4] >= 0.0) & (p[:, 4] <= math.pi / 4 + 1e-9))), "chi outside [0, pi/4]"
    )
    chsh, gB, gA = _sweep_closed_form(p)
    worst = np.abs(rows[:, 6] - chsh)
    expect(worst.max() <= 1e-8, f"chshMax differs from the closed form by {worst.max():.3g}")
    expect(rows[:, 6].max() <= 2.0 * SQRT2 + 1e-9, f"chshMax {rows[:, 6].max()} exceeds 2*sqrt(2)")
    expect(bool(np.all(rows[:, 7] == 1.0)), "cryptMember is not 1 on every row")
    h = _echo_halfwidth(p)
    spread = np.zeros((2, len(p)))
    for i in range(5):
        for sign in (1.0, -1.0):
            q = p.copy()
            q[:, i] += sign * h[:, i]
            _, qB, qA = _sweep_closed_form(q)
            spread[0] += np.abs(qB - gB) / 2.0
            spread[1] += np.abs(qA - gA) / 2.0
    for k, (name, got, want) in enumerate((("tlmGapB", rows[:, 8], gB), ("tlmGapA", rows[:, 9], gA))):
        tol = 1e-8 + 2.0 * spread[k]
        expect(bool(np.all(got >= -1e-9 - 2.0 * spread[k])), f"{name} below -1e-9: {got.min():.3g}")
        bad = np.abs(got - want) - tol
        expect(bad.max() <= 0.0, f"{name} differs from the closed form by {np.abs(got - want).max():.3g}")


# -- counterexample boundary -------------------------------------------------


def pq_points(eps: float):
    """Closed-form C and (deltaB, deltaA) of the P and Q realizations."""
    out = []
    for chi in (math.pi / 12, math.pi / 8):
        tA, tB = (0.0, math.pi / 2), (eps, -math.pi / 4)
        _, _, c = inputs.correlators(tA, tB, chi)
        dB, dA = inputs.deltas(tA, tB, chi)
        out.append((c, dB, dA))
    return out


def _chsh(c) -> float:
    return float(c[0, 0] + c[0, 1] + c[1, 0] - c[1, 1])


def mixed_point(eps: float):
    """P, Q and their affine mix L, which sits on the CHSH facet."""
    (cp, bp, ap), (cq, bq, aq) = pq_points(eps)
    lam = (2.0 - _chsh(cp)) / (2.0 - _chsh(cq))
    w0, w1 = 1.0 / (1.0 - lam), -lam / (1.0 - lam)
    return {
        "P": (cp, bp, ap),
        "Q": (cq, bq, aq),
        "L": (w0 * cp + w1 * cq, w0 * bp + w1 * bq, w0 * ap + w1 * aq),
    }


def boundary_gap(eps: float, side: str, c11: float, delta: float) -> float:
    """Scaled-correlator gap at P's D-point with C_11 and one bias replaced."""
    (c, dB, dA), _ = pq_points(eps)
    c = c.copy()
    c[1, 1] = c11
    dB, dA = dB.copy(), dA.copy()
    (dB if side == "B" else dA)[1] = delta
    return inputs.region_gaps(dB, dA, c)["tlm" + side]


def check_boundary(code: int, out: str, err: str, eps: float, samples: int):
    """CSV of ``counterexample --format csv`` against P's closed-form D-point."""
    _exit(code, 0, err)
    lines = out.strip().split("\n")
    expect(lines[0] == BOUNDARY_HEADER, f"unexpected header {lines[0]!r}")
    grid = np.linspace(-1.0, 0.2, samples)
    points = mixed_point(eps)
    seen = {"B": [], "A": []}
    for line in lines[1:]:
        side, label, *vals = line.split(",")
        expect(side in seen and len(vals) == 3, f"malformed row {line!r}")
        c11, lo, hi = (float(v) for v in vals)
        seen[side].append(label)
        if label in points:
            c, dB, dA = points[label]
            delta = (dB if side == "B" else dA)[1]
            expect(
                abs(c11 - c[1, 1]) <= 1e-9 and abs(lo - delta) <= 1e-9 and abs(hi - delta) <= 1e-9,
                f"marker {side},{label} is ({c11}, {lo}, {hi}), expected ({c[1, 1]}, {delta})",
            )
            continue
        expect(label == "boundary", f"unknown row label {label!r}")
        expect(bool(np.any(np.abs(grid - c11) <= 1e-9)), f"c11={c11} is not on the grid")
        expect(c11 * c11 - 1e-9 <= lo <= hi <= 1.0 + 1e-9, f"interval [{lo}, {hi}] at c11={c11}")
        inner = (lo + INSIDE, hi - INSIDE) if hi - lo > 2 * INSIDE else (0.5 * (lo + hi),)
        for d in inner:
            g = boundary_gap(eps, side, c11, d)
            expect(g >= -1e-9, f"gap {g:.3g} inside [{lo}, {hi}] at {side} c11={c11}")
        if lo > c11 * c11 + 1e-9:
            g = boundary_gap(eps, side, c11, lo - OUTSIDE)
            expect(g < 0.0, f"gap {g:.3g} below the lower end {lo} at {side} c11={c11}")
        if hi < 1.0 - 1e-9:
            g = boundary_gap(eps, side, c11, hi + OUTSIDE)
            expect(g < 0.0, f"gap {g:.3g} above the upper end {hi} at {side} c11={c11}")
    for side, labels in seen.items():
        expect(labels[-3:] == ["P", "Q", "L"], f"section {side} lacks its P, Q, L markers")
        expect(set(labels[:-3]) <= {"boundary"}, f"section {side} has markers out of place")
        expect(len(labels) - 3 <= samples, f"section {side} has {len(labels) - 3} boundary rows")
    c, dB, dA = points["L"]
    expect(float(inputs.chsh_max(c)) <= 2.0 + 1e-9, "L is not local")
    expect(min(inputs.region_gaps(dB, dA, c).values()) < -1e-9, "L lies inside the region")


def boundary_rows(out: str) -> int:
    return sum(1 for line in out.split("\n") if ",boundary," in line)


# -- certify ----------------------------------------------------------------


def check_candidate(code: int, out: str, err: str, r: inputs.TwoQubit):
    """``check`` of a behavior inside the condition: a unique candidate."""
    _exit(code, 0, err)
    v = _json(out)
    expect(v.get("conjecture1Candidate") is True, "conjecture1Candidate is not true")
    expect(v.get("uniquenessTrivial") is True, "uniquenessTrivial is not true")
    want = math.sin(2.0 * r.chi) ** 2
    got = v.get("sin2chiSquared")
    expect(_number(got) and abs(got - want) <= 1e-9, f"sin2chiSquared {got}, expected {want}")


def check_outside(code: int, out: str, err: str):
    """``check`` of a nonlocal behavior outside the condition: a FAIL verdict."""
    _exit(code, 2, err)
    expect(_json(out).get("conjecture1Candidate") is False, "conjecture1Candidate is not false")


def check_qbell(code: int, out: str, err: str, r: inputs.TwoQubit):
    """Both inequalities saturated, and the reference cosines among the solutions."""
    _exit(code, 0, err)
    v = _json(out)
    for side in ("B", "A"):
        value, bound = v["value" + side], v["inequality" + side]["bound"]
        expect(abs(value - bound) <= 1e-9, f"value{side} {value} differs from its bound {bound}")
    tA = math.cos(r.thetaA[0] - r.thetaA[1])
    tB = math.cos(r.thetaB[0] - r.thetaB[1])
    expect(
        any(abs(s[0] - tA) <= 1e-4 and abs(s[1] - tB) <= 1e-4 for s in v["solutions"]),
        f"no solution near the reference cosines ({tA}, {tB})",
    )


def check_selftest(code: int, out: str, err: str, conforming: bool):
    """A conforming extension certifies with unit fidelity; a corrupted one fails."""
    v = _json(out) if code in (0, 2) else None
    if conforming:
        _exit(code, 0, err)
        expect(v.get("selfTested") is True, "selfTested is not true")
        fid = v.get("fidelity")
        expect(_number(fid) and abs(fid - 1.0) <= 1e-9, f"fidelity {fid}, expected 1")
    else:
        _exit(code, 2, err)
        expect(v.get("selfTested") is False, "corrupted extension was certified")


# -- general ----------------------------------------------------------------


def check_simulate(code: int, out: str, err: str, r: inputs.TwoQubit):
    """Correlators and squared biases of an embedding equal the base closed form."""
    _exit(code, 0, err)
    v = _json(out)
    cA, cB, c = inputs.correlators(r.thetaA, r.thetaB, r.chi)
    dB, dA = inputs.deltas(r.thetaA, r.thetaB, r.chi)
    cb, db = v["cbehavior"], v["dbehavior"]
    for name, got, want in (
        ("cA", cb["cA"], cA),
        ("cB", cb["cB"], cB),
        ("c", cb["c"], c),
        ("deltaB", db["deltaB"], dB),
        ("deltaA", db["deltaA"], dA),
        ("dbehavior c", db["c"], c),
    ):
        diff = float(np.abs(np.asarray(got, dtype=float) - want).max())
        expect(diff <= 1e-9, f"{name} differs from the closed form by {diff:.3g}")


def check_oracle(value: float, r: inputs.TwoQubit, side: str, setting: int):
    """The variational bias equals sqrt(delta) of the closed form."""
    dB, dA = inputs.deltas(r.thetaA, r.thetaB, r.chi)
    want = math.sqrt((dB if side == "B" else dA)[setting])
    expect(abs(value - want) <= 1e-6, f"oracle bias {value}, closed form {want}")
