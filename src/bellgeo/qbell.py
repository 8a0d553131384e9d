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


def _construct_side(side: str, delta: np.ndarray, D: np.ndarray, dtheta: float):
    sdt = math.sin(dtheta)
    if abs(sdt) < DEGENERATE_SIN:
        raise DegenerateGeometryError(f"side {side}: theta_0 - theta_1 is degenerate (sin = 0)")
    sd = np.sin(delta)
    pi0 = sd[0, 0] * sd[0, 1]
    pi1 = sd[1, 0] * sd[1, 1]
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
    u = orient * np.array([[a * sd[0, 1], -a * sd[0, 0]], [b * sd[1, 1], b * sd[1, 0]]])
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
    deltaB = np.asarray(g.phiB)[:, None] - np.asarray(g.thetaB)[None, :]
    deltaA = np.asarray(g.phiA)[:, None] - np.asarray(g.thetaA)[None, :]
    ineqB, coeffB = _construct_side(
        "B", deltaB, np.sqrt(dB), float(g.thetaB[0] - g.thetaB[1])
    )
    ineqA, coeffA = _construct_side(
        "A", deltaA, np.sqrt(dA), float(g.thetaA[0] - g.thetaA[1])
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


def _ratio_coefficients(coeff: QBellCoefficients) -> tuple[np.ndarray, np.ndarray]:
    """Offsets p and slopes q of the uniqueness ratios.

    The k-th ratio is (p_k + q_k t)^2 with t = cos(theta_0 - theta_1),
    normalized to 1 at the reference angle.
    """
    u = coeff.u
    p = np.array([u[0, 0], u[0, 1], u[1, 0], u[1, 1]])
    q = np.array([u[0, 1], u[0, 0], -u[1, 1], -u[1, 0]])
    ref = p + q * math.cos(coeff.dthetaRef)
    if np.abs(ref).min() < RATIO_DENOMINATOR_MIN:
        raise DegenerateGeometryError(
            "a uniqueness-equation denominator vanishes at the reference angle"
        )
    return p / ref, q / ref


def _ratio_values(coeff: QBellCoefficients, t):
    """The four squared ratios of the uniqueness system, as functions of
    t = cos(theta_0 - theta_1), normalized to 1 at the reference angle."""
    p, q = _ratio_coefficients(coeff)
    t = np.asarray(t, dtype=float)
    shape = (4,) + (1,) * t.ndim
    return (p.reshape(shape) + q.reshape(shape) * t) ** 2


def _clip_line(x0: np.ndarray, v: np.ndarray) -> list[np.ndarray]:
    """Endpoints of the part of the line x0 + lam v inside [-1, 1]^2."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ends = (np.array([[-1.0], [1.0]]) - x0) / v  # (bound, coordinate)
    # a coordinate the line does not move along gives +-inf (or nan on the
    # border), which constrains nothing or empties the segment
    lo = np.nanmax(ends.min(axis=0))
    hi = np.nanmin(ends.max(axis=0))
    if not lo <= hi:
        return []
    return [x0 + lo * v, x0 + hi * v]


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
    """
    _, _, (coeffB, coeffA) = construct_pair(g)
    pA, qA = _ratio_coefficients(coeffA)
    pB, qB = _ratio_coefficients(coeffB)
    ref = np.array([math.cos(coeffA.dthetaRef), math.cos(coeffB.dthetaRef)])

    # one row of sign patterns sigma per system, all-plus (the reference
    # root's pattern) first
    m = np.stack([np.broadcast_to(qA, SIGN_PATTERNS.shape), -SIGN_PATTERNS * qB], axis=-1)
    rhs = SIGN_PATTERNS * pB - pA
    left, sv, vt = np.linalg.svd(m, full_matrices=False)
    proj = np.einsum("nki,nk->ni", left, rhs)
    full_rank = sv[:, 1] > RANK_TOL * sv[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        points = np.einsum("nij,ni->nj", vt, proj / sv)
    systems, candidates = [0], [ref]
    for n in range(len(SIGN_PATTERNS)):
        if full_rank[n]:
            ends = [np.clip(points[n], -1.0, 1.0)]
        else:
            ends = _clip_line(vt[n, 0] * proj[n, 0] / sv[n, 0], vt[n, 1])
        systems += [n] * len(ends)
        candidates += ends

    ts = np.array(candidates)
    ms, rs = m[systems], rhs[systems]
    scale = np.linalg.norm(ms, axis=-1) * np.linalg.norm(ts, axis=-1)[:, None] + np.abs(rs)
    miss = np.abs(np.einsum("nki,ni->nk", ms, ts) - rs)
    # a zero scale (t = 0, r_k = 0) leaves the exact miss 0
    residual = np.divide(miss, scale, out=miss, where=scale > 0.0).max(axis=-1)
    solutions: list[tuple[float, float, float]] = []
    for (ta, tb), res in zip(ts, residual):
        if res <= ROOT_RESIDUAL and not any(_same_root((ta, tb), s) for s in solutions):
            solutions.append((float(ta), float(tb), float(res)))
    trivial_only = all(_same_root(s, ref) for s in solutions)
    return UniquenessReport(trivialOnly=trivial_only, solutions=tuple(solutions))


def __getattr__(name):
    # bench/spans.py wraps qbell.least_squares when tracing; scipy is imported
    # only on that lookup.  Remove once the benchmark drops that hook.
    if name == "least_squares":
        from scipy.optimize import least_squares

        return least_squares
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
