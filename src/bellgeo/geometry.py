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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .behavior import CBehavior, DBehavior, DEFAULT_TOL
from .criteria import scaled_correlators, tlm_gap, two_qubit_condition
from .jsonio import dumps, loads
from .realization import TwoQubitRealization


class ReconstructionError(ValueError):
    """The behavior does not determine a consistent planar geometry."""


def _freeze(a) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class GeometryParams:
    """Angles (radians) and the inter-plane vector norm of the planar picture."""

    thetaA: np.ndarray
    thetaB: np.ndarray
    phiB: np.ndarray
    phiA: np.ndarray
    chi: float
    psiPrimeNorm: float

    def __post_init__(self):
        for name in ("thetaA", "thetaB", "phiB", "phiA"):
            a = _freeze(getattr(self, name))
            if a.shape != (2,):
                raise ValueError(f"{name} must hold two angles, got shape {a.shape}")
            if not np.isfinite(a).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, a)
        for name in ("chi", "psiPrimeNorm"):
            x = float(getattr(self, name))
            if not math.isfinite(x):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, x)

    def to_json_dict(self) -> dict:
        return {
            "thetaA": self.thetaA,
            "thetaB": self.thetaB,
            "phiB": self.phiB,
            "phiA": self.phiA,
            "chi": self.chi,
            "psiPrimeNorm": self.psiPrimeNorm,
        }

    def to_json(self, indent: int | None = None) -> str:
        return dumps(self.to_json_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "GeometryParams":
        d = loads(text)
        return cls(
            thetaA=d["thetaA"],
            thetaB=d["thetaB"],
            phiB=d["phiB"],
            phiA=d["phiA"],
            chi=d["chi"],
            psiPrimeNorm=d["psiPrimeNorm"],
        )


def projection_angles(r: TwoQubitRealization) -> GeometryParams:
    """Planar angles of a two-qubit realization.

    The projection of A_x into Bob's plane sits at
    phi^B_x = atan2(sin(theta^A_x) sin(2 chi), cos(theta^A_x)), and
    symmetrically for phi^A_y.
    """
    s2 = math.sin(2.0 * r.chi)
    phiB = np.arctan2(np.sin(r.thetaA) * s2, np.cos(r.thetaA))
    phiA = np.arctan2(np.sin(r.thetaB) * s2, np.cos(r.thetaB))
    return GeometryParams(
        thetaA=r.thetaA,
        thetaB=r.thetaB,
        phiB=phiB,
        phiA=phiA,
        chi=r.chi,
        psiPrimeNorm=math.cos(2.0 * r.chi),
    )


def two_qubit_of(g: GeometryParams) -> TwoQubitRealization:
    return TwoQubitRealization(thetaA=g.thetaA, thetaB=g.thetaB, chi=g.chi)


def d_values(g: GeometryParams) -> tuple[np.ndarray, np.ndarray]:
    """Squared guessing biases (dB, dA) of the geometry's realization."""
    c2 = math.cos(2.0 * g.chi)
    s2sq = math.sin(2.0 * g.chi) ** 2
    dB = (c2 * np.cos(g.thetaA)) ** 2 + s2sq
    dA = (c2 * np.cos(g.thetaB)) ** 2 + s2sq
    return dB, dA


def sign_condition_ok(g: GeometryParams, tol: float = DEFAULT_TOL) -> bool:
    """Orientation condition the planar picture must satisfy.

    The product over settings of sin(phi^B_x - theta^B_y) must be
    nonpositive, and likewise on the other side.
    """
    prodB = float(np.prod(np.sin(g.phiB[:, None] - g.thetaB[None, :])))
    prodA = float(np.prod(np.sin(g.phiA[:, None] - g.thetaA[None, :])))
    return prodB <= tol and prodA <= tol


def _model_correlators(thetaA, thetaB, sin2chi):
    return np.cos(thetaA)[:, None] * np.cos(thetaB)[None, :] + sin2chi * (
        np.sin(thetaA)[:, None] * np.sin(thetaB)[None, :]
    )


def _reconstruct_max_entangled(b: CBehavior, tol: float) -> TwoQubitRealization:
    # marginals carry no information at chi = pi/4; angles come from the
    # correlators alone, with theta^A_0 = 0 as gauge
    if max(np.abs(b.cA).max(), np.abs(b.cB).max()) > 10.0 * tol:
        raise ReconstructionError(
            "branch value 1 requires vanishing marginals, got "
            f"{np.abs(np.concatenate([b.cA, b.cB])).max()}"
        )
    c = np.clip(b.c, -1.0, 1.0)
    tB0 = math.acos(c[0, 0])
    for sB1, sA1 in itertools.product((1.0, -1.0), repeat=2):
        tB1 = sB1 * math.acos(c[0, 1])
        tA1 = tB0 + sA1 * math.acos(c[1, 0])
        model = _model_correlators(np.array([0.0, tA1]), np.array([tB0, tB1]), 1.0)
        if np.abs(model - b.c).max() <= 10.0 * tol:
            return TwoQubitRealization(thetaA=(0.0, tA1), thetaB=(tB0, tB1), chi=math.pi / 4)
    raise ReconstructionError("no angle assignment reproduces the correlators at chi=pi/4")


def reconstruct(b: CBehavior, tol: float = DEFAULT_TOL) -> GeometryParams:
    """Recover the unique planar geometry of a boundary behavior.

    Requires an accepted branch assignment and saturation of the boundary
    inequality for both scaled-correlator sets.  The returned representative
    is canonical: sin(theta^A_0) >= 0, ties broken by sin(theta^B_0) >= 0.
    """
    patterns = two_qubit_condition(b, max(tol, DEFAULT_TOL))
    if not patterns:
        raise ReconstructionError("no consistent branch assignment; behavior is not two-qubit")
    last_error = "no branch value yields a consistent geometry"
    for pat in patterns:
        common = min(max(pat.commonValue, 0.0), 1.0)
        dB = b.cA**2 + common
        dA = b.cB**2 + common
        if dB.max() > 1.0 + 10.0 * tol or dA.max() > 1.0 + 10.0 * tol:
            last_error = f"bias coordinate exceeds 1 for branch value {common}"
            continue
        d = DBehavior(deltaB=np.clip(dB, 0.0, 1.0), deltaA=np.clip(dA, 0.0, 1.0), c=b.c)
        gapB = tlm_gap(np.clip(scaled_correlators(d, "B"), -1.0, 1.0))
        gapA = tlm_gap(np.clip(scaled_correlators(d, "A"), -1.0, 1.0))
        if abs(gapB) > tol or abs(gapA) > tol:
            last_error = (
                f"scaled-correlator boundary not saturated (gaps {gapB}, {gapA}) "
                f"for branch value {common}"
            )
            continue
        sin2chi = math.sqrt(common)
        if common > 1.0 - 1e-12:
            try:
                r = _reconstruct_max_entangled(b, tol)
            except ReconstructionError as exc:
                last_error = str(exc)
                continue
            return _canonicalize(r)
        cos2chi = math.sqrt(1.0 - common)
        if np.abs(b.cA).max() > cos2chi + tol or np.abs(b.cB).max() > cos2chi + tol:
            last_error = (
                f"marginal magnitude {max(np.abs(b.cA).max(), np.abs(b.cB).max())} "
                f"exceeds {cos2chi}; no consistent angle"
            )
            continue
        baseA = np.arccos(np.clip(b.cA / cos2chi, -1.0, 1.0))
        baseB = np.arccos(np.clip(b.cB / cos2chi, -1.0, 1.0))
        chi = 0.5 * math.asin(min(sin2chi, 1.0))
        for sA0, sB0, sA1, sB1 in itertools.product((1.0, -1.0), repeat=4):
            thetaA = np.array([sA0 * baseA[0], sA1 * baseA[1]])
            thetaB = np.array([sB0 * baseB[0], sB1 * baseB[1]])
            model = _model_correlators(thetaA, thetaB, sin2chi)
            if np.abs(model - b.c).max() <= 10.0 * tol:
                return _canonicalize(
                    TwoQubitRealization(thetaA=thetaA, thetaB=thetaB, chi=chi)
                )
        last_error = f"no sign assignment reproduces the correlators for branch value {common}"
    raise ReconstructionError(last_error)


def _canonicalize(r: TwoQubitRealization) -> GeometryParams:
    sA = math.sin(r.thetaA[0])
    sB = math.sin(r.thetaB[0])
    if sA < -1e-15 or (abs(sA) <= 1e-15 and sB < -1e-15):
        r = TwoQubitRealization(thetaA=-r.thetaA, thetaB=-r.thetaB, chi=r.chi)
    return projection_angles(r)


def _angles_close(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    d = np.mod(a - b + math.pi, 2.0 * math.pi) - math.pi
    return bool(np.abs(d).max() <= tol)


def symmetry_transforms(g: GeometryParams) -> list[GeometryParams]:
    """The four geometries producing the same guessing-bias behavior."""
    out = []
    for f in (
        lambda t: t,
        lambda t: -t,
        lambda t: math.pi - t,
        lambda t: math.pi + t,
    ):
        r = TwoQubitRealization(thetaA=f(np.asarray(g.thetaA)), thetaB=f(np.asarray(g.thetaB)), chi=g.chi)
        out.append(projection_angles(r))
    return out


def symmetry_equivalent(g1: GeometryParams, g2: GeometryParams, tol: float = DEFAULT_TOL) -> bool:
    """True iff g2 is one of the four symmetric images of g1, angles mod 2 pi."""
    if abs(g1.chi - g2.chi) > tol:
        return False
    for cand in symmetry_transforms(g1):
        if _angles_close(cand.thetaA, np.asarray(g2.thetaA), tol) and _angles_close(
            cand.thetaB, np.asarray(g2.thetaB), tol
        ):
            return True
    return False
