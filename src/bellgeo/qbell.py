"""Quantum Bell inequalities in guessing-bias space.

For a planar geometry this module constructs the pair of hyperplane
inequalities (one per side) that the geometry saturates simultaneously,
evaluates them on guessing-bias behaviors, verifies the two-step bound
chain they descend from, and decides whether the constructed pair pins
the geometry down uniquely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .behavior import SIGN_PATTERNS, DBehavior
from .geometry import GeometryParams, d_values
from .jsonio import Record, freeze
from .realization import simulate_cbehavior, simulate_dbehavior, two_qubit_behaviors
from .tolerances import (
    DEFAULT_TOL,
    DEGENERATE_SIN,
    ORIENTATION_SLACK,
    RANK_TOL,
    RATIO_DENOMINATOR_MIN,
    ROOT_RESIDUAL,
    ROOT_SEPARATION,
    ROUNDING_ZERO,
    root_tol,
)


class DegenerateGeometryError(ValueError):
    """The geometry does not admit the hyperplane construction."""


@dataclass(frozen=True)
class QuantumBellInequality(Record):
    """Hyperplane -sum_i Vmarg[i] delta_i + sum_ij Vcorr[i][j] C_.. <= bound.

    For side B the correlator coefficient Vcorr[x][y] multiplies C_xy;
    for side A the indexing is transposed and Vcorr[y][x] multiplies C_xy.
    """

    side: str
    Vmarg: np.ndarray
    Vcorr: np.ndarray
    q: float
    bound: float

    def __post_init__(self):
        if self.side not in ("A", "B"):
            raise ValueError("side must be 'A' or 'B'")
        object.__setattr__(self, "Vmarg", freeze(self.Vmarg, (2,), name="Vmarg"))
        object.__setattr__(self, "Vcorr", freeze(self.Vcorr, (2, 2), name="Vcorr"))
        object.__setattr__(self, "q", float(self.q))
        object.__setattr__(self, "bound", float(self.bound))


@dataclass(frozen=True)
class QBellCoefficients:
    """Intermediates of the construction for one side.

    ``u`` is unit-norm with u00*u01 = u10*u11; ``s`` are the slopes tying
    ``u`` to the hyperplane coefficients; ``alpha`` = u01/u00 and ``beta``
    = u10/u11 parameterize the uniqueness equations (may be infinite when
    a boundary coefficient vanishes).  ``dthetaRef`` is the generating
    geometry's own-side angle difference theta_0 - theta_1.
    """

    u: np.ndarray
    s: np.ndarray
    a: float
    b: float
    alpha: float
    beta: float
    dthetaRef: float


@dataclass(frozen=True)
class UniquenessReport:
    trivialOnly: bool
    solutions: tuple


def _side_u(side: str, sd: list, dtheta: float) -> tuple[np.ndarray, float, float]:
    """u, a and b of one side's hyperplane (see ``QBellCoefficients``).

    ``sd`` holds sin(phi_x - theta_y) of the side as nested lists.
    """
    sdt = math.sin(dtheta)
    if abs(sdt) < DEGENERATE_SIN:
        raise DegenerateGeometryError(f"side {side}: theta_0 - theta_1 is degenerate (sin = 0)")
    (s00, s01), (s10, s11) = sd
    pi0 = s00 * s01
    pi1 = s10 * s11
    denom = pi1 - pi0
    if abs(denom) < ROUNDING_ZERO:
        raise DegenerateGeometryError(f"side {side}: both orientation products vanish")
    ra = pi1 / denom
    rb = -pi0 / denom
    if ra < -ORIENTATION_SLACK or rb < -ORIENTATION_SLACK:
        raise DegenerateGeometryError(
            f"side {side}: orientation condition violated (a^2={ra}, b^2={rb})"
        )
    # |sin| plus an explicit orientation keeps the hyperplane saturated from
    # below regardless of which of the two own-side angles is larger
    a = math.sqrt(max(ra, 0.0)) / abs(sdt)
    b = math.sqrt(max(rb, 0.0)) / abs(sdt)
    orient = 1.0 if sdt > 0 else -1.0
    u = orient * np.array([[a * s01, -a * s00], [b * s11, b * s10]])
    return u, a, b


def _sides(g: GeometryParams):
    """(side, u, a, b, theta_0 - theta_1) of sides B and A, B first.

    One ``np.sin`` serves both sides; a degenerate side raises its
    ``DegenerateGeometryError``, side B's first.
    """
    theta = np.array([g.thetaB, g.thetaA])
    phi = np.array([g.phiB, g.phiA])
    sd = np.sin(phi[:, :, None] - theta[:, None, :]).tolist()
    out = []
    for k, side in enumerate("BA"):
        dtheta = float(theta[k, 0] - theta[k, 1])
        out.append((side, *_side_u(side, sd[k], dtheta), dtheta))
    return out


def _construct_side(side: str, u: np.ndarray, a: float, b: float, D: np.ndarray, dtheta: float):
    s = np.array([D[1] * a, D[0] * b])
    sd2 = float((s[0] * D[0]) ** 2 + (s[1] * D[1]) ** 2)
    q = 1.0 / (2.0 * math.sqrt(sd2))
    signs = np.array([[1.0, 1.0], [1.0, -1.0]])
    ineq = QuantumBellInequality(
        side=side,
        Vmarg=q * s**2,
        Vcorr=signs * s[:, None] * u,
        q=q,
        bound=1.0 / (4.0 * q),
    )
    with np.errstate(divide="ignore"):
        alpha = u[0, 1] / u[0, 0] if u[0, 0] != 0.0 else math.inf
        beta = u[1, 0] / u[1, 1] if u[1, 1] != 0.0 else math.inf
    coeff = QBellCoefficients(
        u=freeze(u), s=freeze(s), a=a, b=b, alpha=alpha, beta=beta, dthetaRef=dtheta
    )
    return ineq, coeff


def construct_pair(g: GeometryParams):
    """Both saturated hyperplanes of a geometry, with their intermediates."""
    dB, dA = d_values(g)
    (ineqB, coeffB), (ineqA, coeffA) = (
        _construct_side(side, u, a, b, np.sqrt(d), dtheta)
        for (side, u, a, b, dtheta), d in zip(_sides(g), (dB, dA))
    )
    return ineqB, ineqA, (coeffB, coeffA)


def evaluate(ineq: QuantumBellInequality, d: DBehavior) -> float:
    if ineq.side == "B":
        return float(-np.dot(ineq.Vmarg, d.deltaB) + np.sum(ineq.Vcorr * d.c))
    return float(-np.dot(ineq.Vmarg, d.deltaA) + np.sum(ineq.Vcorr * d.c.T))


def chain_slacks(
    ineq: QuantumBellInequality, coeff: QBellCoefficients, d: DBehavior
) -> dict:
    """Slacks of the two-step bound chain on a guessing-bias behavior.

    The hyperplane value is first bounded by
    -q * sum (s_i D_i)^2 + sqrt(sum (s_i D_i)^2) and that in turn by
    1/(4q); both slacks are nonnegative for quantum behaviors.
    """
    value = evaluate(ineq, d)
    delta = d.deltaB if ineq.side == "B" else d.deltaA
    sd2 = float(np.sum(coeff.s**2 * delta))
    middle = -ineq.q * sd2 + math.sqrt(sd2)
    return {
        "value": value,
        "middle": middle,
        "bound": ineq.bound,
        "slackCrypt": middle - value,
        "slackQuadratic": ineq.bound - middle,
    }


def verify_cryptographic_chain(g: GeometryParams, r, tol: float = DEFAULT_TOL) -> dict:
    """Evaluate the bound chain of g's pair on a realization's behavior.

    The realization must reproduce the geometry's behaviors; both slacks then vanish.
    """
    ineqB, ineqA, (coeffB, coeffA) = construct_pair(g)
    ref = two_qubit_behaviors(g.thetaA, g.thetaB, g.chi)
    got = simulate_cbehavior(r)
    mismatch = max(np.abs(getattr(ref, f) - getattr(got, f)).max() for f in ("cA", "cB", "c"))
    if mismatch > root_tol(tol):
        raise ValueError(f"realization behavior differs from geometry by {mismatch}")
    d = simulate_dbehavior(r)
    return {
        "B": chain_slacks(ineqB, coeffB, d),
        "A": chain_slacks(ineqA, coeffA, d),
    }


def recovered_d_squared(coeff: QBellCoefficients, q: float, t: float) -> tuple[float, float]:
    """Squared biases determined by the coefficients and an angle cosine t."""
    al, be = coeff.alpha, coeff.beta
    denom = al + 1.0 / al + be + 1.0 / be
    d0 = (al + 1.0 / al + 2.0 * t) / (4.0 * (coeff.s[0] * q) ** 2 * denom)
    d1 = (be + 1.0 / be - 2.0 * t) / (4.0 * (coeff.s[1] * q) ** 2 * denom)
    return float(d0), float(d1)


def _ratio_coefficients(u: np.ndarray, t_ref) -> tuple[np.ndarray, np.ndarray]:
    """Offsets p and slopes q of the uniqueness ratios of stacked sides.

    ``u`` has shape (..., 2, 2) and ``t_ref`` the leading shape; p and q
    have shape (..., 4).  The k-th ratio is (p_k + q_k t)^2 with
    t = cos(theta_0 - theta_1), normalized to 1 at the reference cosine
    ``t_ref``.
    """
    p = u.reshape(u.shape[:-2] + (4,))
    q = p[..., [1, 0, 3, 2]] * np.array([1.0, 1.0, -1.0, -1.0])
    ref = p + q * np.asarray(t_ref)[..., None]
    if np.abs(ref).min() < RATIO_DENOMINATOR_MIN:
        raise DegenerateGeometryError(
            "a uniqueness-equation denominator vanishes at the reference angle"
        )
    return p / ref, q / ref


def _ratio_values(coeff: QBellCoefficients, t):
    """The four squared ratios of the uniqueness system, as functions of
    t = cos(theta_0 - theta_1), normalized to 1 at the reference angle."""
    p, q = _ratio_coefficients(coeff.u, math.cos(coeff.dthetaRef))
    t = np.asarray(t, dtype=float)
    shape = (4,) + (1,) * t.ndim
    return (p.reshape(shape) + q.reshape(shape) * t) ** 2


# the bounds of the square [-1, 1]^2 that end a solution line, as rows
# (bound, coordinate) of (bound - x0) / v
_BOUNDS = np.array([[-1.0], [1.0]])
# the candidate slots (system, end) of 16 full-rank systems: one point each
_POINT_SLOTS = np.array([[True, False]] * len(SIGN_PATTERNS))


def _same_root(a, b) -> bool:
    return abs(a[0] - b[0]) <= ROOT_SEPARATION and abs(a[1] - b[1]) <= ROOT_SEPARATION


def uniqueness_check(g: GeometryParams) -> UniquenessReport:
    """Decide whether g's hyperplane pair admits only the trivial solution.

    The four equations equate side-A and side-B squared ratios,
    (pA_k + qA_k tA)^2 = (pB_k + qB_k tB)^2, in the angle cosines tA and tB.
    Each holds exactly when pA_k + qA_k tA = sigma_k (pB_k + qB_k tB) for a
    sign sigma_k, so the solutions are those of 16 linear 4x2 systems m t = r,
    one per sign pattern, solved together by one batched SVD.  A rank-2
    system gives its least-squares point, a rank-1 system the ends of its
    solution line clipped to [-1, 1]^2.  A candidate, clipped to the square,
    is a solution when its own system holds to the row-relative residual
    max_k |m_k.t - r_k| / (|m_k| |t| + |r_k|) <= ``ROOT_RESIDUAL``.  Solutions
    are listed as (tA, tB, residual), the reference cosines first; the
    geometry is unique when all lie within ``ROOT_SEPARATION`` of them.
    Only each side's u and reference angle are needed, not the hyperplanes.
    """
    (_, uB, _, _, dthetaB), (_, uA, _, _, dthetaA) = _sides(g)
    ref = np.array([math.cos(dthetaA), math.cos(dthetaB)])
    (pA, pB), (qA, qB) = _ratio_coefficients(np.array((uA, uB)), ref)

    # one row of sign patterns sigma per system, all-plus (the reference
    # root's pattern) first
    m = np.empty(SIGN_PATTERNS.shape + (2,))
    m[..., 0] = qA
    m[..., 1] = -SIGN_PATTERNS * qB
    rhs = SIGN_PATTERNS * pB - pA
    left, sv, vt = np.linalg.svd(m, full_matrices=False)
    proj = np.einsum("nki,nk->ni", left, rhs)
    full_rank = sv[:, 1] > RANK_TOL * sv[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        points = np.einsum("nij,ni->nj", vt, proj / sv)
    # slots (system, end): a full-rank system's point in end 0, a rank-1
    # system's line ends in both where its segment is not empty
    slots = np.empty(SIGN_PATTERNS.shape[:1] + (2, 2))
    slots[:, 0] = np.clip(points, -1.0, 1.0)
    filled = _POINT_SLOTS.copy()
    line = np.flatnonzero(~full_rank)
    if line.size:
        # the solution line x0 + lam v; a coordinate the line does not move
        # along gives +-inf (or nan on the border), which constrains nothing
        # or empties the segment
        with np.errstate(divide="ignore", invalid="ignore"):
            x0 = vt[line, 0] * proj[line, 0, None] / sv[line, 0, None]
            v = vt[line, 1]
            ends = (_BOUNDS - x0[:, None, :]) / v[:, None, :]
            lo = np.fmax.reduce(ends.min(axis=1), axis=-1)
            hi = np.fmin.reduce(ends.max(axis=1), axis=-1)
        slots[line] = x0[:, None, :] + np.array((lo, hi)).T[:, :, None] * v[:, None, :]
        filled[line] = (lo <= hi)[:, None]
    # candidates in system order, after the reference cosines in the
    # all-plus system
    systems = np.concatenate([[0], np.nonzero(filled)[0]])
    ts = np.concatenate([ref[None], slots[filled]])

    ms, rs = m[systems], rhs[systems]
    # |m_k| |t| + |r_k|, the norms as np.linalg.norm forms them
    scale = np.sqrt(np.add.reduce(ms * ms, axis=-1)) * np.sqrt(
        np.add.reduce(ts * ts, axis=-1)
    )[:, None] + np.abs(rs)
    miss = np.abs(np.einsum("nki,ni->nk", ms, ts) - rs)
    # a zero scale (t = 0, r_k = 0) leaves the exact miss 0
    residual = np.divide(miss, scale, out=miss, where=scale > 0.0).max(axis=-1)
    root = residual <= ROOT_RESIDUAL
    solutions: list[tuple[float, float, float]] = []
    for ta, tb, res in np.concatenate([ts[root], residual[root, None]], axis=1).tolist():
        if not any(_same_root((ta, tb), s) for s in solutions):
            solutions.append((ta, tb, res))
    trivial_only = all(_same_root(s, ref) for s in solutions)
    return UniquenessReport(trivialOnly=trivial_only, solutions=tuple(solutions))


def __getattr__(name):
    # bench/spans.py wraps qbell.least_squares when tracing; scipy is imported
    # only on that lookup.  Remove once the benchmark drops that hook.
    if name == "least_squares":
        from scipy.optimize import least_squares

        return least_squares
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
