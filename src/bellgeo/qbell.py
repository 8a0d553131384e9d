"""Quantum Bell inequalities in guessing-bias space.

For a planar geometry this module constructs the pair of hyperplane
inequalities (one per side) that the geometry saturates simultaneously,
evaluates them on guessing-bias behaviors, verifies the two-step bound
chain they descend from, and decides whether the constructed pair pins
the geometry down uniquely.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .behavior import DBehavior, DEFAULT_TOL
from .geometry import GeometryParams, d_values
from .jsonio import dumps, loads
from .realization import simulate_dbehavior


class DegenerateGeometryError(ValueError):
    """The geometry does not admit the hyperplane construction."""


def _freeze(a) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class QuantumBellInequality:
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
        object.__setattr__(self, "Vmarg", _freeze(self.Vmarg))
        object.__setattr__(self, "Vcorr", _freeze(self.Vcorr))
        object.__setattr__(self, "q", float(self.q))
        object.__setattr__(self, "bound", float(self.bound))

    def to_json_dict(self) -> dict:
        return {
            "side": self.side,
            "Vmarg": self.Vmarg,
            "Vcorr": self.Vcorr,
            "q": self.q,
            "bound": self.bound,
        }

    def to_json(self, indent: int | None = None) -> str:
        return dumps(self.to_json_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "QuantumBellInequality":
        d = loads(text)
        return cls(side=d["side"], Vmarg=d["Vmarg"], Vcorr=d["Vcorr"], q=d["q"], bound=d["bound"])


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
    if abs(sdt) < 1e-12:
        raise DegenerateGeometryError(f"side {side}: theta_0 - theta_1 is degenerate (sin = 0)")
    sd = np.sin(delta)
    pi0 = sd[0, 0] * sd[0, 1]
    pi1 = sd[1, 0] * sd[1, 1]
    denom = pi1 - pi0
    if abs(denom) < 1e-15:
        raise DegenerateGeometryError(f"side {side}: both orientation products vanish")
    ra = pi1 / denom
    rb = -pi0 / denom
    if ra < -1e-12 or rb < -1e-12:
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
        u=_freeze(u), s=_freeze(s), a=a, b=b, alpha=alpha, beta=beta, dthetaRef=dtheta
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


def verify_cryptographic_chain(
    g: GeometryParams, r, tol: float = DEFAULT_TOL, require_match: bool = True
) -> dict:
    """Evaluate the bound chain of g's pair on a realization's behavior.

    With ``require_match`` the realization's behavior must reproduce the
    geometry's own behavior, in which case both slacks vanish.
    """
    from .realization import promote, simulate_cbehavior  # local to avoid cycles in callers

    ineqB, ineqA, (coeffB, coeffA) = construct_pair(g)
    d = simulate_dbehavior(r)
    if require_match:
        from .geometry import two_qubit_of

        ref = simulate_cbehavior(promote(two_qubit_of(g)))
        got = simulate_cbehavior(r)
        mismatch = max(
            np.abs(ref.cA - got.cA).max(),
            np.abs(ref.cB - got.cB).max(),
            np.abs(ref.c - got.c).max(),
        )
        if mismatch > math.sqrt(tol):
            raise ValueError(f"realization behavior differs from geometry by {mismatch}")
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




#: Two roots of the uniqueness system closer than this in both cosines are
#: one root, and a root this close to the reference cosines is the trivial one.
ROOT_SEPARATION = 1e-6

#: A sign pattern whose smaller singular value is below this fraction of the
#: larger one has a rank-1 system: its solutions, if any, form a line.
RANK_TOL = 1e-9

# the 16 sign patterns sigma of the four equations, all-plus (the reference
# root's pattern) first
_SIGNS = np.array(list(itertools.product((1.0, -1.0), repeat=4)))


def _ratio_coefficients(coeff: QBellCoefficients) -> tuple[np.ndarray, np.ndarray]:
    """Offsets p and slopes q of the uniqueness ratios.

    The k-th ratio is (p_k + q_k t)^2 with t = cos(theta_0 - theta_1),
    normalized to 1 at the reference angle.
    """
    u = coeff.u
    p = np.array([u[0, 0], u[0, 1], u[1, 0], u[1, 1]])
    q = np.array([u[0, 1], u[0, 0], -u[1, 1], -u[1, 0]])
    ref = p + q * math.cos(coeff.dthetaRef)
    if np.abs(ref).min() < 1e-10:
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


def uniqueness_check(g: GeometryParams, tol: float = 1e-8) -> UniquenessReport:
    """Decide whether g's hyperplane pair admits only the trivial solution.

    The four equations equate side-A and side-B squared ratios,
    (pA_k + qA_k tA)^2 = (pB_k + qB_k tB)^2, in the angle cosines tA and tB.
    Each holds exactly when pA_k + qA_k tA = sigma_k (pB_k + qB_k tB) for a
    sign sigma_k, so the solutions are those of 16 linear 4x2 systems, one
    per sign pattern, solved together by one batched SVD.  A rank-2 system
    contributes its least-squares point, a rank-1 system the endpoints of
    its solution line clipped to [-1, 1]^2.  The candidates, clipped to the
    square, whose squared residual is at most ``tol`` are the solutions,
    listed as (tA, tB, residual) with the reference cosines first; the
    geometry is unique when every solution lies within ``ROOT_SEPARATION``
    of them.
    """
    _, _, (coeffB, coeffA) = construct_pair(g)
    pA, qA = _ratio_coefficients(coeffA)
    pB, qB = _ratio_coefficients(coeffB)
    ref = np.array([math.cos(coeffA.dthetaRef), math.cos(coeffB.dthetaRef)])

    m = np.stack([np.broadcast_to(qA, _SIGNS.shape), -_SIGNS * qB], axis=-1)
    rhs = _SIGNS * pB - pA
    left, sv, vt = np.linalg.svd(m, full_matrices=False)
    proj = np.einsum("nki,nk->ni", left, rhs)
    full_rank = sv[:, 1] > RANK_TOL * sv[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        points = np.einsum("nij,ni->nj", vt, proj / sv)
    candidates = [ref]
    for n in range(len(_SIGNS)):
        if full_rank[n]:
            candidates.append(np.clip(points[n], -1.0, 1.0))
        else:
            candidates.extend(_clip_line(vt[n, 0] * proj[n, 0] / sv[n, 0], vt[n, 1]))

    ts = np.array(candidates)
    r2 = np.sum((_ratio_values(coeffA, ts[:, 0]) - _ratio_values(coeffB, ts[:, 1])) ** 2, axis=0)
    solutions: list[tuple[float, float, float]] = []
    for (ta, tb), res in zip(ts, r2):
        if res <= tol and not any(_same_root((ta, tb), s) for s in solutions):
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
