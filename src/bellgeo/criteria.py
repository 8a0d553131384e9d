"""Criteria locating behaviors on the boundary of the quantum set.

Everything here operates on behaviors alone, with no reference to any
particular realization: invariant quantities built from the correlators,
saturation gaps of the boundary inequality of the scaled correlators, and
a composite criterion singling out candidates for extremal points of the
correlator-space quantum set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .behavior import (
    SIGN_PATTERNS,
    CBehavior,
    DBehavior,
    InvalidBehaviorError,
    _chsh_local,
    is_valid,
)
from .jsonio import Record
from .tolerances import DEFAULT_TOL, root_tol


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
class ExtremalVerdict(Record):
    """Flags of ``extremal_criterion``; ``sin2chiSquared`` is None when the
    S^+ test fails, since there is no common branch value to report."""

    conditionSPlus: bool
    tlmBSaturated: bool
    tlmASaturated: bool
    uniquenessTrivial: bool
    conjecture1Candidate: bool
    sin2chiSquared: float | None
    residuals: dict


def _branches(b: CBehavior) -> tuple[np.ndarray, ...]:
    """J, K, the discriminant J^2 - 4 K^2 and both branch values, per setting pair."""
    J = b.c**2 - b.cA[:, None] ** 2 - b.cB[None, :] ** 2 + 1.0
    K = b.c - b.cA[:, None] * b.cB[None, :]
    disc = J**2 - 4.0 * K**2
    root = np.sqrt(np.maximum(disc, 0.0))
    return J, K, disc, 0.5 * (J + root), 0.5 * (J - root)


def _require_real_roots(disc: np.ndarray, tol: float) -> None:
    if disc.min() < -tol:
        bad = tuple(map(int, np.unravel_index(disc.argmin(), disc.shape)))
        raise InvalidBehaviorError(
            f"branch equation has no real roots at setting pair {bad} "
            f"(discriminant {disc.min()})"
        )


def s_quantities(b: CBehavior, tol: float = DEFAULT_TOL) -> SQuantities:
    J, K, disc, s_plus, s_minus = _branches(b)
    _require_real_roots(disc, tol)
    return SQuantities(J=J, K=K, sPlus=s_plus, sMinus=s_minus)


# the 16 branch patterns p[x][y], all-plus first
_PATTERNS = SIGN_PATTERNS.reshape(16, 2, 2)
_PLUS = _PATTERNS > 0


def _branch_table(b: CBehavior) -> tuple[np.ndarray, ...]:
    """Discriminant, and spread, commonValue and H product of every branch
    pattern, in one broadcast.

    Row k selects S^+ where ``_PATTERNS[k]`` is +1 and S^- where it is -1;
    row 0 is the all-plus pattern.  No entry depends on a tolerance: only
    the test of the discriminant does (``_require_real_roots``), so one
    table serves the criterion and the reconstruction at their two
    tolerances.
    """
    _, _, disc, s_plus, s_minus = _branches(b)
    vals = np.where(_PLUS, s_plus, s_minus).reshape(16, 4)
    spread = vals.max(axis=1) - vals.min(axis=1)
    common = vals.sum(axis=1) / 4.0  # the mean, as ndarray.mean forms it
    h = np.prod((1.0 - common)[:, None, None] * b.c - b.cA[:, None] * b.cB[None, :], axis=(1, 2))
    return disc, spread, common, h


def _accepted_patterns(table: tuple[np.ndarray, ...], tol: float) -> list[SignPattern]:
    """The acceptance walk of ``two_qubit_condition`` over a ``_branch_table``."""
    disc, spread, common, h = table
    _require_real_roots(disc, tol)
    spread_l, common_l, h_l = spread.tolist(), common.tolist(), h.tolist()
    found: list[SignPattern] = []
    for k in np.argsort(spread, kind="stable").tolist():
        if spread_l[k] > tol:
            break
        if h_l[k] < -tol or any(abs(common_l[k] - f.commonValue) <= tol for f in found):
            continue
        found.append(SignPattern(p=_PATTERNS[k], commonValue=common_l[k], H=h_l[k]))
    return found


def two_qubit_condition(b: CBehavior, tol: float = DEFAULT_TOL) -> list[SignPattern]:
    """All branch assignments consistent with some two-qubit realization.

    Walks the 16 sign patterns tightest spread first, keeping those whose
    selected branch values agree within ``tol`` and whose H product is
    >= -tol.  A pattern whose commonValue is within ``tol`` of an accepted
    one is merged into it, so each accepted commonValue appears once and
    comes from its tightest pattern: at a loose ``tol`` a pattern that is
    nearly branch-degenerate at one pair can otherwise stand in for the
    exact one, about sqrt(tol) off.
    """
    return _accepted_patterns(_branch_table(b), tol)


def d_quantities(b: CBehavior, sin2chiSq: float) -> tuple[np.ndarray, np.ndarray]:
    """Guessing-bias coordinates of a two-qubit point with the given branch value.

    Returns (dB, dA) with dB_x = cA_x^2 + sin2chiSq and dA_y = cB_y^2 +
    sin2chiSq.  Entries may exceed 1 for inputs that are not actually
    two-qubit realizable; no clipping is applied.
    """
    if not 0.0 <= sin2chiSq <= 1.0:
        raise ValueError(f"sin2chiSq={sin2chiSq} outside [0, 1]")
    return b.cA**2 + sin2chiSq, b.cB**2 + sin2chiSq


def _tlm(ct: np.ndarray, comp: np.ndarray | None = None) -> np.ndarray:
    """RHS - LHS of the boundary inequality over stacked (..., 2, 2) correlators.

    ``comp`` is 1 - ct^2 where the caller knows it more accurately than ct
    itself gives it.
    """
    rows = ct[..., 0] * ct[..., 1]  # c_x0 c_x1 for x = 0, 1
    lhs = np.abs(rows[..., 0] - rows[..., 1])
    if comp is None:
        comp = np.maximum(1.0 - ct**2, 0.0)
    rhs = np.sqrt(comp[..., 0] * comp[..., 1])
    return rhs[..., 0] + rhs[..., 1] - lhs


def tlm_gap(ctilde: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """Boundary gap RHS - LHS of the quadratic correlator inequality.

    For a 2x2 matrix of (scaled) correlators c the inequality reads
    |c00 c01 - c10 c11| <= sqrt((1-c00^2)(1-c01^2)) + sqrt((1-c10^2)(1-c11^2)).
    A nonnegative gap means satisfied; |gap| <= tol means saturated.
    """
    ct = np.asarray(ctilde, dtype=float)
    if ct.shape != (2, 2):
        raise ValueError(f"expected a 2x2 correlator matrix, got shape {ct.shape}")
    # written so that a NaN fails the check
    if not np.abs(ct).max() <= 1.0 + tol:
        raise InvalidBehaviorError(
            f"correlator magnitude {np.abs(ct).max()} exceeds 1; gap undefined"
        )
    return float(_tlm(ct))


def _over(c: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """c / denom, denom broadcasting to the shape of c; where denom vanishes,
    0 for a zero c and the always-violating sentinel 2 for any other."""
    return np.divide(c, denom, out=np.where(c == 0.0, 0.0, 2.0), where=denom > 0.0)


def _scaled(delta: np.ndarray, c: np.ndarray, side: str) -> tuple[np.ndarray, np.ndarray]:
    """Square-root biases as a (..., 2, 1) column or (..., 1, 2) row, and
    the (..., 2, 2) correlators scaled by them.

    Side B divides row x by sqrt(delta^B_x), side A column y by
    sqrt(delta^A_y).  The biases are left unbroadcast: a broadcast view
    costs more than each small array it feeds.
    """
    root = np.sqrt(np.clip(delta, 0.0, None))
    if side == "B":
        denom = root[..., :, None]
    elif side == "A":
        denom = root[..., None, :]
    else:
        raise ValueError("side must be 'A' or 'B'")
    return denom, _over(c, denom)


def scaled_correlators(d: DBehavior, side: str) -> np.ndarray:
    """Joint correlators rescaled by the guessing biases of one side.

    Where the bias vanishes the correlator must vanish too for the point
    to be quantum; a zero-over-zero slot is defined as 0 and a nonzero
    correlator over a zero bias maps to 2 (an always-violating sentinel).
    """
    return _scaled(d.deltaB if side == "B" else d.deltaA, d.c, side)[1]


def saturation_gaps(b: CBehavior, sin2chiSq: float) -> tuple[float, float]:
    """Boundary gaps (B, A) of the scaled correlators at a branch value.

    The correlators are scaled by the guessing biases of the two-qubit
    point with this branch value (``d_quantities``, clipped to [0, 1]) and
    clipped to [-1, 1] before the gap, as in ``crypt_gaps_batch``: both
    sides in one (2, 2, 2) stack, one ``_over`` and one ``_tlm`` call.
    Both gaps vanish on a behavior whose geometry the branch value
    determines.
    """
    root = np.sqrt(np.clip(d_quantities(b, sin2chiSq), 0.0, 1.0))
    # side B divides row x by sqrt(delta^B_x), side A column y by sqrt(delta^A_y)
    denom = np.array((root[(0, 0), :].T, root[(1, 1), :]))
    ct = _over(np.array((b.c, b.c)), denom)
    gB, gA = _tlm(np.clip(ct, -1.0, 1.0)).tolist()
    return gB, gA


def crypt_gaps_batch(
    deltaB: np.ndarray,
    deltaA: np.ndarray,
    c: np.ndarray,
    tol: float = DEFAULT_TOL,
    comp: tuple[np.ndarray, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Slacks of the necessary quantum conditions at stacked guessing-bias points.

    ``deltaB`` and ``deltaA`` have shape (..., 2) and ``c`` shape
    (..., 2, 2); every returned array has the leading shape.  ``capB`` and
    ``capA`` are min_x,y (sqrt(delta) - |C_xy|) for the two scalings.
    ``tlmB`` and ``tlmA`` are the boundary gaps of the scaled correlators,
    clipped to [-1, 1]; a scaled correlator beyond 1 + ``root_tol(tol)``
    reports the cap deficit min(cap, 0) instead.  Any negative entry
    certifies that the point lies outside the quantum region.  ``comp``
    optionally gives 1 - c~^2 of each side's scaled correlators, (B, A) of
    shape (..., 2, 2), from a closed form: near |c~| = 1 the complement of a
    rounded c~ keeps only half its digits, which moves a gap that is exactly
    0 by up to about 1e-8.  The inputs are not validated; ``DBehavior`` does
    that for a single point.
    """
    c = np.asarray(c, dtype=float)
    gaps = {}
    for k, (side, delta) in enumerate((("B", deltaB), ("A", deltaA))):
        denom, ct = _scaled(np.asarray(delta, dtype=float), c, side)
        cap = (denom - np.abs(c)).min(axis=(-2, -1))
        gaps["cap" + side] = cap
        gaps["tlm" + side] = np.where(
            np.abs(ct).max(axis=(-2, -1)) > 1.0 + root_tol(tol),
            np.where(cap > 0.0, 0.0, cap),
            _tlm(np.clip(ct, -1.0, 1.0), None if comp is None else comp[k]),
        )
    return gaps


def crypt_gaps(d: DBehavior, tol: float = DEFAULT_TOL) -> dict:
    """Slacks of the necessary quantum conditions in guessing-bias space.

    The one point ``d`` of ``crypt_gaps_batch``, as floats keyed ``capB``,
    ``tlmB``, ``capA``, ``tlmA``.
    """
    return {k: float(v) for k, v in crypt_gaps_batch(d.deltaB, d.deltaA, d.c, tol).items()}


def gaps_member(gaps: dict, tol: float = DEFAULT_TOL) -> bool | np.ndarray:
    """Membership verdict from computed gaps: no cap below -tol and no
    boundary gap below -root_tol(tol), since near |c~| = 1 the gap of a
    rounded c~ is off by up to about sqrt(ulp).

    On the floats of ``crypt_gaps`` it returns a bool; on the arrays of
    ``crypt_gaps_batch`` a boolean array, one verdict per point.
    """
    caps = np.minimum(gaps["capB"], gaps["capA"]) >= -tol
    member = caps & (np.minimum(gaps["tlmB"], gaps["tlmA"]) >= -root_tol(tol))
    return bool(member) if np.ndim(member) == 0 else member


def crypt_membership(d: DBehavior, tol: float = DEFAULT_TOL) -> bool:
    """Necessary conditions for quantum realizability in guessing-bias space."""
    return gaps_member(crypt_gaps(d, tol), tol)


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
    if _chsh_local(b, tol):
        raise InvalidBehaviorError("extremal criterion addresses nonlocal behaviors only")
    # one table for the S^+ test here and the reconstruction below
    table = _branch_table(b)
    _require_real_roots(table[0], tol)
    spread, common, h = (float(v[0]) for v in table[1:])
    cond_splus = spread <= tol and h >= -tol
    residuals = {"sPlusSpread": spread, "hProduct": h}
    tlm_b = tlm_a = False
    uniq_trivial = False
    if cond_splus:
        gb, ga = saturation_gaps(b, min(common, 1.0))
        residuals["tlmGapB"] = gb
        residuals["tlmGapA"] = ga
        tlm_b = abs(gb) <= root_tol(tol)
        tlm_a = abs(ga) <= root_tol(tol)
        if tlm_b and tlm_a:
            # deferred import: the reconstruction layer builds on this module
            from .geometry import ReconstructionError, _reconstruct
            from .qbell import DegenerateGeometryError, uniqueness_check

            try:
                g = _reconstruct(b, root_tol(tol), table, {min(common, 1.0): (gb, ga)})
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
