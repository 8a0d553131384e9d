"""Seeded inputs and closed forms for the benchmark, written apart from bellgeo.

Nothing here imports ``bellgeo`` or the repository's tests: the closed forms
below are the ones the checks compare the program's outputs against, so they
must not share code with the program.

Two-qubit family: state cos(chi)|00> + sin(chi)|11>, observables
cos(theta) sigma3 + sin(theta) sigma1 on each side.  Its closed forms are

    cA_x = cos(2chi) cos(thetaA_x),   cB_y = cos(2chi) cos(thetaB_y)
    C_xy = cos(thetaA_x) cos(thetaB_y) + sin(2chi) sin(thetaA_x) sin(thetaB_y)
    deltaB_x = (cos(2chi) cos(thetaA_x))^2 + sin(2chi)^2   (and deltaA_y alike)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: chi range of the partially entangled regime the benchmark samples; the
#: ends chi -> 0 and chi -> pi/4 are ill-conditioned for reconstruction.
CHI_MIN, CHI_MAX = 0.05, math.pi / 4 - 0.05
#: Distance kept from the edges of the branch and orientation conditions, so
#: that rounding cannot move a drawn input across them.
MARGIN = 1e-3
#: Smallest |sin| of an own-side angle difference; the pair construction is
#: degenerate at zero.
MIN_SIN_DTHETA = 0.05
#: CHSH excess over 2 that makes a drawn behavior clearly nonlocal.
MIN_CHSH_EXCESS = 1e-3
#: Smallest change of some correlator under a nontrivial flip of angle signs
#: (see ``sign_resolution``); below it self-testing rejects conforming inputs.
MIN_SIGN_RESOLUTION = 0.01
#: Smallest singular value of the uniqueness system's Jacobian at the
#: reference cosines (see ``uniqueness_conditioning``).  Below about 0.035
#: ``check`` and ``qbell`` report a spurious second solution; this keeps a
#: factor of three from the worst case seen.
MIN_UNIQUENESS_CONDITIONING = 0.1
#: Edges of 24 bands of equal probability of ``uniqueness_conditioning``
#: over conforming draws (two sets of 40 000 draws agreed within 3%).  The
#: cost of ``uniqueness_check`` grows as the conditioning falls, so drawing
#: candidates band by band fixes the cost mix of a run without changing the
#: distribution of the inputs.
CONDITIONING_BANDS = (
    MIN_UNIQUENESS_CONDITIONING, 0.247, 0.385, 0.53, 0.683, 0.854, 1.04, 1.24, 1.46, 1.71,
    2.0, 2.35, 2.74, 3.21, 3.76, 4.38, 5.13, 6.04, 7.19, 8.86, 11.4, 15.4, 23.5, 47.5, math.inf,
)


@dataclass(frozen=True)
class TwoQubit:
    thetaA: tuple
    thetaB: tuple
    chi: float

    def to_json(self) -> dict:
        return {"thetaA": list(self.thetaA), "thetaB": list(self.thetaB), "chi": self.chi}


def xz(theta: float) -> np.ndarray:
    return math.cos(theta) * SIGMA3 + math.sin(theta) * SIGMA1


def correlators(thetaA, thetaB, chi):
    """Closed-form (cA, cB, C) of a two-qubit realization.

    Broadcasts: angles of shape (..., 2) and chi of shape (...) give C of
    shape (..., 2, 2).
    """
    tA, tB = np.asarray(thetaA, dtype=float), np.asarray(thetaB, dtype=float)
    chi = np.asarray(chi, dtype=float)[..., None]
    c2, s2 = np.cos(2.0 * chi), np.sin(2.0 * chi)[..., None]
    c = np.cos(tA)[..., :, None] * np.cos(tB)[..., None, :] + s2 * (
        np.sin(tA)[..., :, None] * np.sin(tB)[..., None, :]
    )
    return c2 * np.cos(tA), c2 * np.cos(tB), c


def deltas(thetaA, thetaB, chi):
    """Closed-form squared guessing biases (deltaB, deltaA); broadcasts."""
    chi = np.asarray(chi, dtype=float)[..., None]
    c2sq, s2sq = np.cos(2.0 * chi) ** 2, np.sin(2.0 * chi) ** 2
    return (
        c2sq * np.cos(np.asarray(thetaA, dtype=float)) ** 2 + s2sq,
        c2sq * np.cos(np.asarray(thetaB, dtype=float)) ** 2 + s2sq,
    )


def chsh_max(c: np.ndarray) -> np.ndarray:
    """max |CHSH| over the eight facets, for C of shape (..., 2, 2)."""
    c = np.asarray(c, dtype=float)
    total = c[..., 0, 0] + c[..., 0, 1] + c[..., 1, 0] + c[..., 1, 1]
    flips = np.stack([total - 2.0 * c[..., i, j] for i in (0, 1) for j in (0, 1)])
    return np.abs(flips).max(axis=0)


def tlm_gap(ct: np.ndarray) -> np.ndarray:
    """RHS - LHS of |c00 c01 - c10 c11| <= sum_x sqrt((1-c_x0^2)(1-c_x1^2)).

    Works on (..., 2, 2); entries are clipped to [-1, 1] first.
    """
    ct = np.clip(np.asarray(ct, dtype=float), -1.0, 1.0)
    comp = 1.0 - ct**2
    lhs = np.abs(ct[..., 0, 0] * ct[..., 0, 1] - ct[..., 1, 0] * ct[..., 1, 1])
    rhs = np.sqrt(comp[..., 0, 0] * comp[..., 0, 1]) + np.sqrt(comp[..., 1, 0] * comp[..., 1, 1])
    return rhs - lhs


def region_gaps(deltaB, deltaA, c) -> dict:
    """Cap and scaled-correlator gaps of a guessing-bias point, both sides.

    A scaled correlator beyond 1 in magnitude leaves the region; its gap is
    then the (negative) cap deficit.
    """
    deltaB, deltaA, c = (np.asarray(v, dtype=float) for v in (deltaB, deltaA, c))
    out = {}
    for side, root in (
        ("B", np.sqrt(np.clip(deltaB, 0.0, None))[:, None] * np.ones((1, 2))),
        ("A", np.sqrt(np.clip(deltaA, 0.0, None))[None, :] * np.ones((2, 1))),
    ):
        cap = float((root - np.abs(c)).min())
        out["cap" + side] = cap
        with np.errstate(divide="ignore", invalid="ignore"):
            ct = np.where(root > 0.0, c / np.where(root > 0.0, root, 1.0), np.where(c == 0.0, 0.0, 2.0))
        if np.abs(ct).max() > 1.0 + 1e-12:
            out["tlm" + side] = min(cap, 0.0)
        else:
            out["tlm" + side] = float(tlm_gap(ct))
    return out


def branch_slack(thetaA, thetaB, chi) -> float:
    """sin(2chi) - max_xy |sin2chi cosA cosB + sinA sinB|.

    Nonnegative exactly when the S+ branch equals sin^2(2chi) at every
    setting pair.
    """
    tA, tB = np.asarray(thetaA, dtype=float), np.asarray(thetaB, dtype=float)
    s2 = math.sin(2.0 * chi)
    k = s2 * np.outer(np.cos(tA), np.cos(tB)) + np.outer(np.sin(tA), np.sin(tB))
    return float(s2 - np.abs(k).max())


def orientation_products(thetaA, thetaB, chi) -> tuple[float, float]:
    """prod_xy sin(phiB_x - thetaB_y) and prod_xy sin(phiA_y - thetaA_x).

    phiB_x = atan2(sin(thetaA_x) sin2chi, cos(thetaA_x)) is the projection of
    Alice's vector into Bob's plane.  The orientation condition asks both
    products to be nonpositive.
    """
    tA, tB = np.asarray(thetaA, dtype=float), np.asarray(thetaB, dtype=float)
    s2 = math.sin(2.0 * chi)
    phiB = np.arctan2(np.sin(tA) * s2, np.cos(tA))
    phiA = np.arctan2(np.sin(tB) * s2, np.cos(tB))
    return (
        float(np.prod(np.sin(phiB[:, None] - tB[None, :]))),
        float(np.prod(np.sin(phiA[:, None] - tA[None, :]))),
    )


def _nondegenerate(tA, tB) -> bool:
    return (
        abs(math.sin(tA[0] - tA[1])) >= MIN_SIN_DTHETA
        and abs(math.sin(tB[0] - tB[1])) >= MIN_SIN_DTHETA
    )


def sign_resolution(thetaA, thetaB, chi) -> float:
    """How far the correlators move under the closest nontrivial sign flip.

    Flipping the signs of some angles (other than all of them) changes
    C_xy by 2 sin(2chi) |sin(thetaA_x) sin(thetaB_y)| wherever exactly one
    of the pair flips.  Returns the smallest, over such flips, of the largest
    change.  The self-testing protocols reconstruct the angle signs with a
    model tolerance of a few 1e-3, and certify no realization whose value
    falls below it.
    """
    s = 2.0 * math.sin(2.0 * chi) * np.abs(np.outer(np.sin(thetaA), np.sin(thetaB)))
    worst = math.inf
    for fA in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        for fB in ((1, 1), (1, -1)):
            flipped = np.outer(fA, fB) < 0
            if flipped.any():
                worst = min(worst, float(s[flipped].max()))
    return worst


def _ratio_slopes(phi, theta) -> np.ndarray:
    """d/dt of the four squared ratios of one side at t = cos(theta_0 - theta_1).

    With s_xy = sin(phi_x - theta_y) the ratios are
    ((s01 - s00 t) / (s01 - s00 t0))^2, ((s01 t - s00) / (s01 t0 - s00))^2,
    ((s11 - s10 t) / (s11 - s10 t0))^2 and ((s10 - s11 t) / (s10 - s11 t0))^2,
    each 1 at the reference t0.
    """
    s = np.sin(np.asarray(phi)[:, None] - np.asarray(theta)[None, :])
    t0 = math.cos(theta[0] - theta[1])
    num = np.array([s[0, 1] - s[0, 0] * t0, s[0, 1] * t0 - s[0, 0],
                    s[1, 1] - s[1, 0] * t0, s[1, 0] - s[1, 1] * t0])
    slope = np.array([-s[0, 0], s[0, 1], -s[1, 0], -s[1, 1]])
    return 2.0 * slope / num


def uniqueness_conditioning(thetaA, thetaB, chi) -> float:
    """Smallest singular value of the uniqueness system's Jacobian.

    The uniqueness system equates each side-A ratio, a function of
    tA = cos(thetaA_0 - thetaA_1), with the side-B ratio in tB.  A small
    singular value means a shallow valley of near-roots through the
    reference cosines, where a root search can stop short of the reference
    and report a second solution.
    """
    tA, tB = np.asarray(thetaA, dtype=float), np.asarray(thetaB, dtype=float)
    s2 = math.sin(2.0 * chi)
    phiB = np.arctan2(np.sin(tA) * s2, np.cos(tA))
    phiA = np.arctan2(np.sin(tB) * s2, np.cos(tB))
    with np.errstate(divide="ignore", invalid="ignore"):
        jac = np.stack([_ratio_slopes(phiA, tA), -_ratio_slopes(phiB, tB)], axis=1)
    if not np.all(np.isfinite(jac)):
        return 0.0
    return float(np.linalg.svd(jac, compute_uv=False)[-1])


def in_condition(tA, tB, chi) -> bool:
    """Branch and orientation conditions with margin, resolvable signs, and a
    well-conditioned uniqueness system."""
    pB, pA = orientation_products(tA, tB, chi)
    return (
        branch_slack(tA, tB, chi) >= MARGIN
        and pB <= -MARGIN
        and pA <= -MARGIN
        and sign_resolution(tA, tB, chi) >= MIN_SIGN_RESOLUTION
        and uniqueness_conditioning(tA, tB, chi) >= MIN_UNIQUENESS_CONDITIONING
    )


def _draw_angles(rng):
    return (
        tuple(float(t) for t in rng.uniform(0.0, 2.0 * math.pi, size=2)),
        tuple(float(t) for t in rng.uniform(0.0, 2.0 * math.pi, size=2)),
        float(rng.uniform(CHI_MIN, CHI_MAX)),
    )


def _nonlocal(tA, tB, chi) -> bool:
    return float(chsh_max(correlators(tA, tB, chi)[2])) >= 2.0 + MIN_CHSH_EXCESS


def conforming(rng: np.random.Generator, band: int | None = None) -> TwoQubit:
    """A nonlocal two-qubit realization inside the paper's condition.

    With ``band``, its ``uniqueness_conditioning`` lies in that band of
    ``CONDITIONING_BANDS``.
    """
    lo, hi = (0.0, math.inf) if band is None else CONDITIONING_BANDS[band : band + 2]
    while True:
        tA, tB, chi = _draw_angles(rng)
        if (
            _nondegenerate(tA, tB)
            and in_condition(tA, tB, chi)
            and _nonlocal(tA, tB, chi)
            and lo <= uniqueness_conditioning(tA, tB, chi) < hi
        ):
            return TwoQubit(tA, tB, chi)


def misoriented(rng: np.random.Generator) -> TwoQubit:
    """Nonlocal, branch condition met, orientation condition broken on a plane."""
    while True:
        tA, tB, chi = _draw_angles(rng)
        if not (_nondegenerate(tA, tB) and _nonlocal(tA, tB, chi)):
            continue
        pB, pA = orientation_products(tA, tB, chi)
        if branch_slack(tA, tB, chi) >= MARGIN and max(pB, pA) >= MARGIN:
            return TwoQubit(tA, tB, chi)


def off_branch(rng: np.random.Generator) -> TwoQubit:
    """Nonlocal, with the S+ branch differing from sin^2(2chi) at some pair."""
    while True:
        tA, tB, chi = _draw_angles(rng)
        if _nondegenerate(tA, tB) and _nonlocal(tA, tB, chi) and branch_slack(tA, tB, chi) <= -MARGIN:
            return TwoQubit(tA, tB, chi)


def conforming_theta_b2(rng: np.random.Generator, r: TwoQubit) -> float:
    """An angle for a third Bob observable that keeps {B0, B2} conforming."""
    while True:
        t2 = float(rng.uniform(-math.pi, math.pi))
        tB = (r.thetaB[0], t2)
        if abs(math.sin(t2 - r.thetaB[0])) >= MIN_SIN_DTHETA and in_condition(r.thetaA, tB, r.chi):
            return t2


def corrupt(rng: np.random.Generator, b2: np.ndarray) -> np.ndarray:
    """Mix sigma2 into an X-Z plane observable; the result stays an observable."""
    w = float(rng.uniform(0.05, 0.8))
    return math.sqrt(1.0 - w * w) * b2 + w * SIGMA2


def behavior_json(r: TwoQubit) -> dict:
    cA, cB, c = correlators(r.thetaA, r.thetaB, r.chi)
    return {"cA": cA.tolist(), "cB": cB.tolist(), "c": c.tolist()}


def matrix_json(m: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(m).ravel()]


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian matrix, phases fixed."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


@dataclass(frozen=True)
class Embedding:
    """A two-qubit realization padded with +/-I blocks and rotated locally."""

    base: TwoQubit
    dimA: int
    dimB: int
    psi: np.ndarray
    A: tuple
    B: tuple
    sigma3B: np.ndarray

    def to_json(self) -> dict:
        return {
            "dimA": self.dimA,
            "dimB": self.dimB,
            "psi": matrix_json(self.psi),
            "A": [matrix_json(m) for m in self.A],
            "B": [matrix_json(m) for m in self.B],
        }


def _pad(m: np.ndarray, dim: int, sign: float) -> np.ndarray:
    out = sign * np.eye(dim, dtype=complex)
    out[:2, :2] = m
    return out


def embedding(rng: np.random.Generator) -> Embedding:
    """Conforming realization in dimensions 2-4 per side, Haar-rotated."""
    r = conforming(rng)
    dimA, dimB = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    uA, uB = haar_unitary(rng, dimA), haar_unitary(rng, dimB)
    m = np.zeros((dimA, dimB), dtype=complex)
    m[0, 0], m[1, 1] = math.cos(r.chi), math.sin(r.chi)
    m = uA @ m @ uB.T

    def rot(u, op, dim):
        return u @ _pad(op, dim, sign) @ u.conj().T

    return Embedding(
        base=r,
        dimA=dimA,
        dimB=dimB,
        psi=m.reshape(-1),
        A=tuple(rot(uA, xz(t), dimA) for t in r.thetaA),
        B=tuple(rot(uB, xz(t), dimB) for t in r.thetaB),
        sigma3B=rot(uB, SIGMA3, dimB),
    )
