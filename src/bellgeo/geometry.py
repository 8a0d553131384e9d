"""Planar geometry of two-qubit realizations and its reconstruction.

Each side of a two-qubit realization lives in a plane of the real-vector
picture: Bob's state vectors at angles theta^B_y, together with the
projections of Alice's vectors at angles phi^B_x, and symmetrically for
the other side.  The two planes intersect along a vector of norm
cos(2 chi).  A behavior that admits a consistent branch assignment and
saturates the boundary inequality of both scaled-correlator sets
determines this geometry uniquely up to four obvious symmetries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .behavior import SIGN_PATTERNS, CBehavior
from .criteria import _accepted_patterns, _branch_table, saturation_gaps
from .jsonio import Record, freeze
from .realization import (
    TwoQubitRealization,
    _correlators,
    two_qubit_biases,
    two_qubit_correlators,
)
from .tolerances import DEFAULT_TOL, MAX_ENTANGLED_SLACK, MODEL_FIT_FACTOR, ROUNDING_ZERO


class ReconstructionError(ValueError):
    """The behavior does not determine a consistent planar geometry."""


@dataclass(frozen=True)
class GeometryParams(Record):
    """Angles (radians) and the inter-plane vector norm of the planar picture."""

    thetaA: np.ndarray
    thetaB: np.ndarray
    phiB: np.ndarray
    phiA: np.ndarray
    chi: float
    psiPrimeNorm: float

    def __post_init__(self):
        for name in ("thetaA", "thetaB", "phiB", "phiA"):
            a = freeze(getattr(self, name), (2,), name=name)
            if not np.isfinite(a).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, a)
        for name in ("chi", "psiPrimeNorm"):
            x = float(getattr(self, name))
            if not math.isfinite(x):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, x)


def _planar(thetaA: np.ndarray, thetaB: np.ndarray, chi: float) -> GeometryParams:
    """The geometry of (thetaA, thetaB, chi): one arctan2 over all four angles."""
    s2 = math.sin(2.0 * chi)
    theta = np.concatenate([thetaA, thetaB])
    phi = np.arctan2(np.sin(theta) * s2, np.cos(theta))
    return GeometryParams(
        thetaA=thetaA,
        thetaB=thetaB,
        phiB=phi[:2],
        phiA=phi[2:],
        chi=chi,
        psiPrimeNorm=math.cos(2.0 * chi),
    )


def projection_angles(r: TwoQubitRealization) -> GeometryParams:
    """Planar angles of a two-qubit realization.

    The projection of A_x into Bob's plane sits at
    phi^B_x = atan2(sin(theta^A_x) sin(2 chi), cos(theta^A_x)), and
    symmetrically for phi^A_y.
    """
    return _planar(r.thetaA, r.thetaB, r.chi)


def two_qubit_of(g: GeometryParams) -> TwoQubitRealization:
    return TwoQubitRealization(thetaA=g.thetaA, thetaB=g.thetaB, chi=g.chi)


def d_values(g: GeometryParams) -> tuple[np.ndarray, np.ndarray]:
    """Squared guessing biases (dB, dA) of the geometry's realization."""
    _, _, dB, dA = two_qubit_biases(g.thetaA, g.thetaB, g.chi)
    return dB, dA


def sign_condition_ok(g: GeometryParams, tol: float = DEFAULT_TOL) -> bool:
    """Orientation condition the planar picture must satisfy.

    The product over settings of sin(phi^B_x - theta^B_y) must be
    nonpositive, and likewise on the other side.
    """
    prodB = float(np.prod(np.sin(g.phiB[:, None] - g.thetaB[None, :])))
    prodA = float(np.prod(np.sin(g.phiA[:, None] - g.thetaA[None, :])))
    return prodB <= tol and prodA <= tol


def _reconstruct_max_entangled(b: CBehavior, tol: float) -> TwoQubitRealization:
    # marginals carry no information at chi = pi/4; angles come from the
    # correlators alone, with theta^A_0 = 0 as gauge
    if max(np.abs(b.cA).max(), np.abs(b.cB).max()) > MODEL_FIT_FACTOR * tol:
        raise ReconstructionError(
            "branch value 1 requires vanishing marginals, got "
            f"{np.abs(np.concatenate([b.cA, b.cB])).max()}"
        )
    c = np.clip(b.c, -1.0, 1.0)
    tB0 = math.acos(c[0, 0])
    # the best-fitting of the four sign assignments (sB1, sA1), as in
    # ``reconstruct``: at a loose tol a wrong one can also pass
    signs = SIGN_PATTERNS[:4, 2:]
    thetaA = np.stack([np.zeros(4), tB0 + signs[:, 1] * math.acos(c[1, 0])], axis=-1)
    thetaB = np.stack([np.full(4, tB0), signs[:, 0] * math.acos(c[0, 1])], axis=-1)
    misfit = np.abs(two_qubit_correlators(thetaA, thetaB, 1.0) - b.c).max(axis=(1, 2))
    best = int(misfit.argmin())
    if misfit[best] > MODEL_FIT_FACTOR * tol:
        raise ReconstructionError("no angle assignment reproduces the correlators at chi=pi/4")
    return TwoQubitRealization(thetaA=thetaA[best], thetaB=thetaB[best], chi=math.pi / 4)


# the angle sign assignments (sA0, sA1, sB0, sB1) of the sign fit, in the
# order of SIGN_PATTERNS's (sA0, sB0, sA1, sB1), all-plus first
_ANGLE_SIGNS = SIGN_PATTERNS[:, [0, 2, 1, 3]]


def reconstruct(b: CBehavior, tol: float = DEFAULT_TOL) -> GeometryParams:
    """Recover the unique planar geometry of a boundary behavior.

    Requires an accepted branch assignment and saturation of the boundary
    inequality for both scaled-correlator sets.  The returned representative
    is canonical: sin(theta^A_0) >= 0, ties broken by sin(theta^B_0) >= 0.
    """
    return _reconstruct(b, tol, _branch_table(b), {})


def _reconstruct(b: CBehavior, tol: float, table: tuple, gaps: dict) -> GeometryParams:
    """``reconstruct`` from the behavior's ``_branch_table``.

    ``gaps`` maps branch values to their ``saturation_gaps`` where the
    caller has them already; the values computed here are added to it.
    """
    patterns = _accepted_patterns(table, max(tol, DEFAULT_TOL))
    if not patterns:
        raise ReconstructionError("no consistent branch assignment; behavior is not two-qubit")
    fit_tol = MODEL_FIT_FACTOR * tol
    marginals = np.concatenate([b.cA, b.cB])
    cA0, cA1, cB0, cB1 = marginals.tolist()
    mA, mB = max(abs(cA0), abs(cA1)), max(abs(cB0), abs(cB1))
    # the largest bias coordinate of each side is its largest cA_x^2 or cB_y^2
    # plus the branch value (``d_quantities``)
    sqA, sqB = max(cA0 * cA0, cA1 * cA1), max(cB0 * cB0, cB1 * cB1)
    last_error = "no branch value yields a consistent geometry"
    for pat in patterns:
        common = min(max(pat.commonValue, 0.0), 1.0)
        if sqA + common > 1.0 + fit_tol or sqB + common > 1.0 + fit_tol:
            last_error = f"bias coordinate exceeds 1 for branch value {common}"
            continue
        if common not in gaps:
            gaps[common] = saturation_gaps(b, common)
        gapB, gapA = gaps[common]
        if abs(gapB) > tol or abs(gapA) > tol:
            last_error = (
                f"scaled-correlator boundary not saturated (gaps {gapB}, {gapA}) "
                f"for branch value {common}"
            )
            continue
        sin2chi = math.sqrt(common)
        if common > 1.0 - MAX_ENTANGLED_SLACK:
            try:
                r = _reconstruct_max_entangled(b, tol)
            except ReconstructionError as exc:
                last_error = str(exc)
                continue
            return _canonicalize(r.thetaA, r.thetaB, r.chi)
        cos2chi = math.sqrt(1.0 - common)
        if mA > cos2chi + tol or mB > cos2chi + tol:
            last_error = f"marginal magnitude {max(mA, mB)} exceeds {cos2chi}; no consistent angle"
            continue
        base = np.arccos(np.clip(marginals / cos2chi, -1.0, 1.0))
        chi = 0.5 * math.asin(min(sin2chi, 1.0))
        # the best-fitting assignment: at a loose tol a wrong one can also pass;
        # rows (thetaA_0, thetaA_1, thetaB_0, thetaB_1)
        theta = _ANGLE_SIGNS * base
        cos, sin = np.cos(theta), np.sin(theta)
        model = _correlators(cos[:, :2], sin[:, :2], cos[:, 2:], sin[:, 2:], sin2chi)
        misfit = np.abs(model - b.c).reshape(16, 4).max(axis=1)
        best = int(misfit.argmin())
        if misfit[best] <= fit_tol:
            return _canonicalize(theta[best, :2], theta[best, 2:], chi)
        last_error = f"no sign assignment reproduces the correlators for branch value {common}"
    raise ReconstructionError(last_error)


def _canonicalize(thetaA: np.ndarray, thetaB: np.ndarray, chi: float) -> GeometryParams:
    sA = math.sin(thetaA[0])
    sB = math.sin(thetaB[0])
    if sA < -ROUNDING_ZERO or (abs(sA) <= ROUNDING_ZERO and sB < -ROUNDING_ZERO):
        thetaA, thetaB = -thetaA, -thetaB
    return _planar(thetaA, thetaB, chi)


def _images(r: TwoQubitRealization) -> np.ndarray:
    """Rows (thetaA, thetaB) of the four symmetry images t, -t, pi - t, pi + t."""
    t = np.concatenate([r.thetaA, r.thetaB])
    return np.array([t, -t, math.pi - t, math.pi + t])


def symmetry_transforms(g: GeometryParams) -> list[GeometryParams]:
    """The four geometries producing the same guessing-bias behavior."""
    r = two_qubit_of(g)
    return [_planar(t[:2], t[2:], r.chi) for t in _images(r)]


def _match_geometries(g: GeometryParams, g2: GeometryParams, tol: float, b_angles: int = 1):
    """The first symmetry image of g2 whose A-angles and first ``b_angles``
    B-angles lie within tol of g's, angles mod 2 pi; None if there is none.

    The four images are compared in one broadcast, and only the matching
    one is built.
    """
    r = two_qubit_of(g2)
    images = _images(r)
    ref = np.concatenate([g.thetaA, g.thetaB[:b_angles]])
    d = np.mod(images[:, : 2 + b_angles] - ref + math.pi, 2.0 * math.pi) - math.pi
    close = np.abs(d).max(axis=1) <= tol
    if not close.any():
        return None
    k = int(close.argmax())
    return _planar(images[k, :2], images[k, 2:], r.chi)


def symmetry_equivalent(g1: GeometryParams, g2: GeometryParams, tol: float = DEFAULT_TOL) -> bool:
    """True iff g2 is one of the four symmetric images of g1, angles mod 2 pi."""
    return abs(g1.chi - g2.chi) <= tol and _match_geometries(g2, g1, tol, b_angles=2) is not None
