"""Criteria locating behaviors on the boundary of the quantum set.

Everything here operates on behaviors alone, with no reference to any
particular realization: invariant quantities built from the correlators,
saturation gaps of the boundary inequality of the scaled correlators, and
a composite criterion singling out candidates for extremal points of the
correlator-space quantum set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .behavior import CBehavior, DBehavior, DEFAULT_TOL, InvalidBehaviorError, is_local, is_valid
from .jsonio import dumps


@dataclass(frozen=True)
class SQuantities:
    """The two invariant branches S^+ and S^- per setting pair.

    For a pair of settings with joint correlator C and marginals cA, cB,
    define J = C^2 - cA^2 - cB^2 + 1 and K = C - cA*cB.  The branches are
    the roots of S^2 - J*S + K^2 = 0, so sPlus + sMinus = J and
    sPlus*sMinus = K^2.  On any two-qubit realization one branch equals
    sin^2(2 chi) simultaneously for every setting pair.
    """

    J: np.ndarray
    K: np.ndarray
    sPlus: np.ndarray
    sMinus: np.ndarray


@dataclass(frozen=True)
class SignPattern:
    """A consistent branch assignment.

    ``p[x][y]`` in {+1, -1} selects the S^+ or S^- branch at each setting
    pair; all four selected values agree on ``commonValue``.  ``H`` is the
    product prod_xy [(1 - S) C_xy - cA_x cB_y], nonnegative for accepted
    patterns.
    """

    p: np.ndarray
    commonValue: float
    H: float


@dataclass(frozen=True)
class ExtremalVerdict:
    """Flags of ``extremal_criterion``; ``sin2chiSquared`` is None when the
    S^+ test fails, since there is no common branch value to report."""

    conditionSPlus: bool
    tlmBSaturated: bool
    tlmASaturated: bool
    uniquenessTrivial: bool
    conjecture1Candidate: bool
    sin2chiSquared: float | None
    residuals: dict

    def to_json(self, indent: int | None = None) -> str:
        return dumps(
            {
                "conditionSPlus": self.conditionSPlus,
                "tlmBSaturated": self.tlmBSaturated,
                "tlmASaturated": self.tlmASaturated,
                "uniquenessTrivial": self.uniquenessTrivial,
                "conjecture1Candidate": self.conjecture1Candidate,
                "sin2chiSquared": self.sin2chiSquared,
                "residuals": self.residuals,
            },
            indent=indent,
        )


def s_quantities(b: CBehavior, tol: float = DEFAULT_TOL) -> SQuantities:
    J = b.c**2 - b.cA[:, None] ** 2 - b.cB[None, :] ** 2 + 1.0
    K = b.c - b.cA[:, None] * b.cB[None, :]
    disc = J**2 - 4.0 * K**2
    if disc.min() < -tol:
        bad = np.unravel_index(disc.argmin(), disc.shape)
        raise InvalidBehaviorError(
            f"branch equation has no real roots at setting pair {bad} "
            f"(discriminant {disc.min()})"
        )
    root = np.sqrt(np.clip(disc, 0.0, None))
    return SQuantities(J=J, K=K, sPlus=0.5 * (J + root), sMinus=0.5 * (J - root))


def _h_product(b: CBehavior, common: float) -> float:
    return float(np.prod((1.0 - common) * b.c - b.cA[:, None] * b.cB[None, :]))


def two_qubit_condition(b: CBehavior, tol: float = DEFAULT_TOL) -> list[SignPattern]:
    """All branch assignments consistent with some two-qubit realization.

    Enumerates the 16 sign patterns, keeping those whose selected branch
    values agree within ``tol`` and whose H product is >= -tol.  Patterns
    that only differ at branch-degenerate pairs (S^+ = S^-) are merged, so
    each accepted commonValue appears once.
    """
    s = s_quantities(b, tol)
    found: list[SignPattern] = []
    for signs in itertools.product((1, -1), repeat=4):
        g = np.array(signs).reshape(2, 2)
        vals = np.where(g > 0, s.sPlus, s.sMinus)
        if vals.max() - vals.min() > tol:
            continue
        common = float(vals.mean())
        if any(abs(common - f.commonValue) <= tol for f in found):
            continue
        h = _h_product(b, common)
        if h < -tol:
            continue
        found.append(SignPattern(p=g, commonValue=common, H=h))
    return found


def d_quantities(b: CBehavior, sin2chiSq: float) -> tuple[np.ndarray, np.ndarray]:
    """Guessing-bias coordinates of a two-qubit point with the given branch value.

    Returns (dB, dA) with dB_x = cA_x^2 + sin2chiSq and dA_y = cB_y^2 +
    sin2chiSq.  Entries may exceed 1 for inputs that are not actually
    two-qubit realizable; no clipping is applied.
    """
    if not 0.0 <= sin2chiSq <= 1.0:
        raise ValueError(f"sin2chiSq={sin2chiSq} outside [0, 1]")
    return b.cA**2 + sin2chiSq, b.cB**2 + sin2chiSq


def tlm_gap(ctilde: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """Boundary gap RHS - LHS of the quadratic correlator inequality.

    For a 2x2 matrix of (scaled) correlators c the inequality reads
    |c00 c01 - c10 c11| <= sqrt((1-c00^2)(1-c01^2)) + sqrt((1-c10^2)(1-c11^2)).
    A nonnegative gap means satisfied; |gap| <= tol means saturated.
    """
    ct = np.asarray(ctilde, dtype=float)
    if ct.shape != (2, 2):
        raise ValueError(f"expected a 2x2 correlator matrix, got shape {ct.shape}")
    if np.abs(ct).max() > 1.0 + tol:
        raise InvalidBehaviorError(
            f"correlator magnitude {np.abs(ct).max()} exceeds 1; gap undefined"
        )
    lhs = abs(ct[0, 0] * ct[0, 1] - ct[1, 0] * ct[1, 1])
    comp = np.clip(1.0 - ct**2, 0.0, None)
    rhs = math.sqrt(comp[0, 0] * comp[0, 1]) + math.sqrt(comp[1, 0] * comp[1, 1])
    return float(rhs - lhs)


def scaled_correlators(d: DBehavior, side: str) -> np.ndarray:
    """Joint correlators rescaled by the guessing biases of one side.

    Where the bias vanishes the correlator must vanish too for the point
    to be quantum; a zero-over-zero slot is defined as 0 and a nonzero
    correlator over a zero bias maps to 2 (an always-violating sentinel).
    """
    if side == "B":
        denom = np.sqrt(np.clip(d.deltaB, 0.0, None))[:, None] * np.ones((1, 2))
    elif side == "A":
        denom = np.sqrt(np.clip(d.deltaA, 0.0, None))[None, :] * np.ones((2, 1))
    else:
        raise ValueError("side must be 'A' or 'B'")
    ct = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            if denom[i, j] > 0.0:
                ct[i, j] = d.c[i, j] / denom[i, j]
            else:
                ct[i, j] = 0.0 if d.c[i, j] == 0.0 else 2.0
    return ct


def crypt_gaps(d: DBehavior, tol: float = DEFAULT_TOL) -> dict:
    """Slacks of the necessary quantum conditions in guessing-bias space.

    ``capB``/``capA`` are min_x,y (sqrt(delta) - |C_xy|) for the two
    scalings; ``tlmB``/``tlmA`` are the boundary gaps of the scaled
    correlators.  Any negative entry certifies the point lies outside the
    quantum region.
    """
    gaps = {}
    for side, delta in (("B", d.deltaB), ("A", d.deltaA)):
        root = np.sqrt(np.clip(delta, 0.0, None))
        if side == "B":
            cap = float((root[:, None] - np.abs(d.c)).min())
        else:
            cap = float((root[None, :] - np.abs(d.c)).min())
        gaps["cap" + side] = cap
        ct = scaled_correlators(d, side)
        if np.abs(ct).max() > 1.0 + math.sqrt(tol):
            # scaled correlator out of range; report the cap deficit as the gap
            gaps["tlm" + side] = min(cap, 0.0)
        else:
            gaps["tlm" + side] = tlm_gap(np.clip(ct, -1.0, 1.0), tol)
    return gaps


def crypt_membership(d: DBehavior, tol: float = DEFAULT_TOL) -> bool:
    """Necessary conditions for quantum realizability in guessing-bias space."""
    gaps = crypt_gaps(d, tol)
    return bool(min(gaps.values()) >= -tol)


def extremal_criterion(b: CBehavior, tol: float = DEFAULT_TOL) -> ExtremalVerdict:
    """Composite test flagging candidates for extremal nonlocal quantum points.

    The candidate flag requires (i) a consistent all-S^+ branch assignment
    with nonnegative H and (ii) saturation of the boundary inequality of
    the scaled correlators on both sides.  ``uniquenessTrivial`` records
    whether the induced geometry additionally pins the realization down
    uniquely; maximally entangled points legitimately fail that flag while
    remaining extremal, so it stays out of the candidate verdict.  The
    verdict is conditional evidence, never a proof of extremality.
    """
    if not is_valid(b, tol):
        raise InvalidBehaviorError("extremal criterion requires a valid behavior")
    if is_local(b, tol):
        raise InvalidBehaviorError("extremal criterion addresses nonlocal behaviors only")
    s = s_quantities(b, tol)
    spread = float(s.sPlus.max() - s.sPlus.min())
    common = float(s.sPlus.mean())
    h = _h_product(b, common)
    cond_splus = spread <= tol and h >= -tol
    residuals = {"sPlusSpread": spread, "hProduct": h}
    tlm_b = tlm_a = False
    uniq_trivial = False
    if cond_splus:
        dB, dA = d_quantities(b, min(common, 1.0))
        d = DBehavior(deltaB=np.clip(dB, 0.0, 1.0), deltaA=np.clip(dA, 0.0, 1.0), c=b.c)
        try:
            gb = tlm_gap(np.clip(scaled_correlators(d, "B"), -1.0, 1.0), tol)
            ga = tlm_gap(np.clip(scaled_correlators(d, "A"), -1.0, 1.0), tol)
        except InvalidBehaviorError:
            gb = ga = math.inf
        residuals["tlmGapB"] = gb
        residuals["tlmGapA"] = ga
        # saturation of a square-root expression: tolerance loosened to sqrt(tol)
        tlm_b = abs(gb) <= math.sqrt(tol)
        tlm_a = abs(ga) <= math.sqrt(tol)
        if tlm_b and tlm_a:
            # deferred import: the reconstruction layer builds on this module
            from .geometry import ReconstructionError, reconstruct
            from .qbell import DegenerateGeometryError, uniqueness_check

            try:
                g = reconstruct(b, tol=math.sqrt(tol))
                uniq = uniqueness_check(g)
                uniq_trivial = uniq.trivialOnly
                residuals["uniquenessSolutions"] = len(uniq.solutions)
            except (ReconstructionError, DegenerateGeometryError) as exc:
                residuals["uniquenessError"] = str(exc)
    return ExtremalVerdict(
        conditionSPlus=bool(cond_splus),
        tlmBSaturated=bool(tlm_b),
        tlmASaturated=bool(tlm_a),
        uniquenessTrivial=bool(uniq_trivial),
        conjecture1Candidate=bool(cond_splus and tlm_b and tlm_a),
        sin2chiSquared=common if cond_splus else None,
        residuals=residuals,
    )
