"""Self-testing via derived Pauli-like operators and the swap isometry.

From a realization whose behavior determines a planar geometry, linear
combinations of each side's observables reproduce a sigma3/sigma1 pair on
the state's support.  The swap isometry uses those operators to pump the
shared state into an ancilla qubit pair; unit extraction fidelity
certifies the realization up to local isometries.  Two protocols extend
the scenario with a third observable on Bob's side to make the
certification work device-independently; the paired one is the first link
of a chain that adds any number of observables against one certified base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import GeometryParams, ReconstructionError, _match_geometries, reconstruct
from .jsonio import freeze
from .realization import GeneralRealization, simulate_cbehavior
from .tolerances import (
    ADDED_OBSERVABLE_TOL,
    COINCIDENT_SIN,
    DEGENERATE_SIN,
    RESIDUAL_PASS,
    ZERO_NORM_SQUARED,
    root_tol,
)


@dataclass(frozen=True)
class DerivedOperators:
    ZA: np.ndarray
    XA: np.ndarray
    ZB: np.ndarray
    XB: np.ndarray


@dataclass(frozen=True)
class IsometryResult:
    fidelity: float
    extractedState: np.ndarray
    junkNorm: float


@dataclass(frozen=True)
class ExtendedRealization:
    """A realization plus one extra binary observable on Bob's side."""

    base: GeneralRealization
    B2: np.ndarray

    def __post_init__(self):
        b2 = freeze(self.B2, dtype=complex)
        dim = self.base.dimB
        if b2.shape != (dim, dim):
            raise ValueError(f"B2 must be {dim}x{dim}")
        if np.abs(b2 - b2.conj().T).max() > ADDED_OBSERVABLE_TOL:
            raise ValueError("B2 is not Hermitian")
        if np.abs(b2 @ b2 - np.eye(dim)).max() > ADDED_OBSERVABLE_TOL:
            raise ValueError("B2 does not square to the identity")
        object.__setattr__(self, "B2", b2)


def _pair(ops, theta, mode: str) -> np.ndarray:
    sdt = math.sin(theta[0] - theta[1])
    if abs(sdt) < DEGENERATE_SIN:
        raise ValueError("degenerate angles: the two observables coincide")
    if mode == "Z":
        return (math.sin(theta[0]) * ops[1] - math.sin(theta[1]) * ops[0]) / sdt
    # sign chosen so the promoted realization yields +sigma1
    return (math.cos(theta[1]) * ops[0] - math.cos(theta[0]) * ops[1]) / sdt


def derive_operators(r: GeneralRealization, g: GeometryParams) -> DerivedOperators:
    """Z/X operator pair per side from the geometry's angles.

    On a promoted two-qubit realization with its own projection angles the
    result is exactly (sigma3, sigma1) on both sides; in general the
    identities hold only when applied to the shared state.
    """
    return DerivedOperators(
        ZA=_pair(r.A, g.thetaA, "Z"),
        XA=_pair(r.A, g.thetaA, "X"),
        ZB=_pair(r.B, g.thetaB, "Z"),
        XB=_pair(r.B, g.thetaB, "X"),
    )


def _apply(m: np.ndarray, alice=None, bob=None) -> np.ndarray:
    if alice is not None:
        m = alice @ m
    if bob is not None:
        m = m @ bob.T
    return m


def anticommutator_residual(r: GeneralRealization, ops: DerivedOperators, g: GeometryParams) -> dict:
    """Norm residuals of the operator identities used in the certification.

    All identities are statements about action on the shared state, not
    operator equations; each entry is the norm of the corresponding
    defect vector.
    """
    m = r.state_matrix
    cB = math.cos(g.thetaB[0] - g.thetaB[1])
    cA = math.cos(g.thetaA[0] - g.thetaA[1])
    eyeA = np.eye(r.dimA)
    eyeB = np.eye(r.dimB)
    return {
        "anticommB": float(
            np.linalg.norm(_apply(m, bob=r.B[0] @ r.B[1] + r.B[1] @ r.B[0] - 2.0 * cB * eyeB))
        ),
        "anticommA": float(
            np.linalg.norm(_apply(m, alice=r.A[0] @ r.A[1] + r.A[1] @ r.A[0] - 2.0 * cA * eyeA))
        ),
        "zSquareB": float(np.linalg.norm(_apply(m, bob=ops.ZB @ ops.ZB) - m)),
        "zSquareA": float(np.linalg.norm(_apply(m, alice=ops.ZA @ ops.ZA) - m)),
        "xSquareB": float(np.linalg.norm(_apply(m, bob=ops.XB @ ops.XB) - m)),
        "xSquareA": float(np.linalg.norm(_apply(m, alice=ops.XA @ ops.XA) - m)),
        "xzB": float(np.linalg.norm(_apply(m, bob=ops.XB @ ops.ZB + ops.ZB @ ops.XB))),
        "xzA": float(np.linalg.norm(_apply(m, alice=ops.XA @ ops.ZA + ops.ZA @ ops.XA))),
    }


def swap_isometry(
    r: GeneralRealization,
    ops: DerivedOperators,
    chi: float,
    state: np.ndarray | None = None,
    target: np.ndarray | None = None,
) -> IsometryResult:
    """Run the two-ancilla swap circuit and score the extracted qubit pair.

    ``state`` defaults to the shared state (as a dimA x dimB matrix);
    ``target`` is the ancilla-pair state to compare against, by default
    (cos chi, 0, 0, sin chi).  The fidelity maximizes the overlap over the
    junk register, which is the squared norm of the target-weighted
    combination of the four branch vectors.
    """
    m = r.state_matrix if state is None else np.asarray(state, dtype=complex)
    eyeA = np.eye(r.dimA)
    eyeB = np.eye(r.dimB)
    pZA = {1: eyeA + ops.ZA, -1: eyeA - ops.ZA}
    pZB = {1: eyeB + ops.ZB, -1: eyeB - ops.ZB}
    branches = {
        (0, 0): 0.25 * _apply(m, alice=pZA[1], bob=pZB[1]),
        (0, 1): 0.25 * _apply(m, alice=pZA[1], bob=ops.XB @ pZB[-1]),
        (1, 0): 0.25 * _apply(m, alice=ops.XA @ pZA[-1], bob=pZB[1]),
        (1, 1): 0.25 * _apply(m, alice=ops.XA @ pZA[-1], bob=ops.XB @ pZB[-1]),
    }
    if target is None:
        target = np.array([math.cos(chi), 0.0, 0.0, math.sin(chi)], dtype=complex)
    else:
        target = np.asarray(target, dtype=complex)
        target = target / np.linalg.norm(target)
    out = np.stack([branches[(a, b)].reshape(-1) for a in (0, 1) for b in (0, 1)], axis=1)
    out_norm2 = float(np.sum(np.abs(out) ** 2))
    if out_norm2 < ZERO_NORM_SQUARED:
        raise ValueError("swap isometry produced a zero output state")
    w = out @ target.conj()
    fidelity = float(np.sum(np.abs(w) ** 2) / out_norm2)
    # extracted ancilla state: dominant Schmidt vector across the junk cut
    _, _, vh = np.linalg.svd(out, full_matrices=False)
    extracted = vh[0].conj()
    k = int(np.argmax(np.abs(extracted)))
    phase = extracted[k] / abs(extracted[k])
    extracted = extracted / phase
    return IsometryResult(fidelity=fidelity, extractedState=extracted, junkNorm=math.sqrt(out_norm2))


def _expectation(m: np.ndarray, alice=None, bob=None) -> float:
    return float(np.vdot(m, _apply(m, alice=alice, bob=bob)).real)


def _base_geometry(r: GeneralRealization, tol: float):
    """The base's geometry at root_tol(tol) and None, or None and the error."""
    try:
        return reconstruct(simulate_cbehavior(r), tol=root_tol(tol)), None
    except ReconstructionError as exc:
        return None, f"base behavior fails reconstruction: {exc}"


def _self_tested(residuals: dict, fidelity: float, tol: float) -> bool:
    return bool(max(residuals.values()) <= tol and abs(fidelity - 1.0) <= root_tol(tol))


def protocol_zb(ext: ExtendedRealization, tol: float = RESIDUAL_PASS) -> dict:
    """Certification with an added observable aligned with the Z direction.

    The base behavior must determine the geometry; the added correlators
    then have to match <A_x B_2> = cos(theta^A_x) and <B_2> = cos(2 chi).
    When they do, B_2 stands in for Z_B in the operator identities and the
    swap circuit.
    """
    r = ext.base
    report: dict = {"protocol": "addedZ", "selfTested": False}
    g, error = _base_geometry(r, tol)
    if error:
        report["error"] = error
        return report
    report["geometry"] = g.to_json_dict()
    m = r.state_matrix
    c2 = math.cos(2.0 * g.chi)
    conditions = {
        "b2Mean": abs(_expectation(m, bob=ext.B2) - c2),
        "a0b2": abs(_expectation(m, alice=r.A[0], bob=ext.B2) - math.cos(g.thetaA[0])),
        "a1b2": abs(_expectation(m, alice=r.A[1], bob=ext.B2) - math.cos(g.thetaA[1])),
        "a0Marginal": abs(_expectation(m, alice=r.A[0]) - c2 * math.cos(g.thetaA[0])),
        "a1Marginal": abs(_expectation(m, alice=r.A[1]) - c2 * math.cos(g.thetaA[1])),
    }
    report["conditions"] = conditions
    if max(conditions.values()) > tol:
        report["error"] = "added-measurement correlators do not match the geometry"
        return report
    derived = derive_operators(r, g)
    ops = DerivedOperators(ZA=derived.ZA, XA=derived.XA, ZB=ext.B2, XB=derived.XB)
    residuals = anticommutator_residual(r, ops, g)
    report["residuals"] = residuals
    report["fidelity"] = swap_isometry(r, ops, g.chi).fidelity
    report["selfTested"] = _self_tested(residuals, report["fidelity"], tol)
    return report


def _added_angle(r: GeneralRealization, g: GeometryParams, b2: np.ndarray, ang_tol: float):
    """theta^B_2 of {A_0, A_1, B_0, B_2} in g's plane and None, or None and the error.

    The geometry of the extended behavior must agree with g on chi, the
    A-angles and theta^B_0, up to a symmetry image, and B_2 must not repeat
    B_0.
    """
    alt = GeneralRealization(dimA=r.dimA, dimB=r.dimB, psi=r.psi, A=r.A, B=(r.B[0], b2))
    try:
        g2 = reconstruct(simulate_cbehavior(alt), tol=ang_tol)
    except ReconstructionError as exc:
        return None, f"extended behavior fails reconstruction: {exc}"
    if abs(g.chi - g2.chi) > ang_tol:
        return None, f"entanglement mismatch between reconstructions: {g.chi} vs {g2.chi}"
    matched = _match_geometries(g, g2, ang_tol)
    if matched is None:
        return None, "reconstructions do not share the measurement plane"
    theta2 = float(matched.thetaB[1])
    if abs(math.sin(theta2 - g.thetaB[0])) < COINCIDENT_SIN:
        return None, "added observable coincides with B_0 (degenerate pair)"
    return theta2, None


def protocol_lemma6_pair(ext: ExtendedRealization, tol: float = RESIDUAL_PASS) -> dict:
    """Certification with a second in-plane observable replacing B_1.

    Both measurement sets {A_0,A_1,B_0,B_1} and {A_0,A_1,B_0,B_2} must
    determine geometries agreeing on chi, the A-angles and theta^B_0; the
    second geometry then certifies B_2 as a third in-plane observable and
    reports its angle.  This is the chain of length one.
    """
    return next(protocol_chain(ext.base, [ext.B2], tol=tol))


def protocol_chain(base: GeneralRealization, added: list, tol: float = RESIDUAL_PASS):
    """Certify extra Bob-side observables one at a time against the base pair.

    Yields one paired-reconstruction report per added observable.  The base
    is reconstructed, its operators derived, its residuals computed and its
    swap isometry run at most once, each when an observable first needs it;
    each observable then costs one reconstruction of its extended behavior
    and one in-plane residual.
    """
    ang_tol = root_tol(tol)
    g = error = ops = residuals = fidelity = None
    for b2 in added:
        b2 = ExtendedRealization(base=base, B2=b2).B2
        report: dict = {"protocol": "pairedReconstruction", "selfTested": False}
        if g is None and error is None:
            g, error = _base_geometry(base, tol)
        theta2, rejected = (None, error) if error else _added_angle(base, g, b2, ang_tol)
        if rejected:
            report["error"] = rejected
            yield report
            continue
        if ops is None:
            ops = derive_operators(base, g)
            residuals = anticommutator_residual(base, ops, g)
        # in-plane certification of the added observable itself; the marginal
        # only fixes cos(theta2), so both signs are candidate angles and the
        # state-level residual resolves the ambiguity
        res_pm = {}
        for t in (theta2, -theta2):
            model = math.sin(t) * ops.XB + math.cos(t) * ops.ZB
            res_pm[t] = float(np.linalg.norm(_apply(base.state_matrix, bob=b2 - model)))
        report["thetaB2"] = min(res_pm, key=res_pm.get)
        report["residuals"] = {**residuals, "b2InPlane": res_pm[report["thetaB2"]]}
        report["geometry"] = g.to_json_dict()
        if fidelity is None:
            fidelity = swap_isometry(base, ops, g.chi).fidelity
        report["fidelity"] = fidelity
        report["selfTested"] = _self_tested(report["residuals"], fidelity, tol)
        yield report
