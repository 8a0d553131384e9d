"""Quantum realizations (state plus binary observables) and their behaviors.

The central special case is the two-qubit family: a partially entangled
state cos(chi)|00> + sin(chi)|11> with both parties' observables in the
X-Z plane of the Bloch sphere.  General finite-dimensional realizations
are supported for the self-testing machinery, where behaviors must be
reproduced up to local isometries.

Guessing biases are computed twice, by independent routes: a closed form
in the eigenbasis of the reduced state, and a linear solve for the
maximization over the guessing party's Hermitian operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .behavior import CBehavior, DBehavior
from .jsonio import COMPLEX_MATRIX, COMPLEX_VECTOR, Record, freeze
from .tolerances import CHI_RANGE_SLACK, SUPPORT_CUTOFF, VALIDATE_TOL

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA2 = np.array([[0.0, -1.0j], [0.0 + 1.0j, 0.0]])
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]])


@dataclass(frozen=True)
class TwoQubitRealization(Record):
    """X-Z plane observables on cos(chi)|00> + sin(chi)|11>."""

    thetaA: np.ndarray
    thetaB: np.ndarray
    chi: float

    def __post_init__(self):
        object.__setattr__(self, "thetaA", freeze(self.thetaA, (2,), name="thetaA"))
        object.__setattr__(self, "thetaB", freeze(self.thetaB, (2,), name="thetaB"))
        object.__setattr__(self, "chi", float(self.chi))
        if not -CHI_RANGE_SLACK <= self.chi <= math.pi / 4 + CHI_RANGE_SLACK:
            raise ValueError(f"chi={self.chi} outside the convention [0, pi/4]")


def _check_observable(m: np.ndarray, dim: int, name: str):
    if m.shape != (dim, dim):
        raise ValueError(f"{name} must be {dim}x{dim}, got {m.shape}")
    if np.abs(m - m.conj().T).max() > VALIDATE_TOL:
        raise ValueError(f"{name} is not Hermitian")
    if np.abs(m @ m - np.eye(dim)).max() > VALIDATE_TOL:
        raise ValueError(f"{name} does not square to the identity")


@dataclass(frozen=True)
class GeneralRealization(Record):
    """Shared pure state with two binary observables per side."""

    dimA: int
    dimB: int
    psi: np.ndarray = field(metadata=COMPLEX_VECTOR)
    A: tuple = field(metadata=COMPLEX_MATRIX)
    B: tuple = field(metadata=COMPLEX_MATRIX)

    def __post_init__(self):
        object.__setattr__(self, "dimA", int(self.dimA))
        object.__setattr__(self, "dimB", int(self.dimB))
        psi = freeze(self.psi, dtype=complex).reshape(-1)
        if psi.shape != (self.dimA * self.dimB,):
            raise ValueError("psi length must be dimA*dimB")
        if abs(np.linalg.norm(psi) - 1.0) > VALIDATE_TOL:
            raise ValueError("psi must be normalized")
        A = tuple(freeze(m, dtype=complex) for m in self.A)
        B = tuple(freeze(m, dtype=complex) for m in self.B)
        if len(A) != 2 or len(B) != 2:
            raise ValueError("need exactly two observables per side")
        for i, m in enumerate(A):
            _check_observable(m, self.dimA, f"A[{i}]")
        for i, m in enumerate(B):
            _check_observable(m, self.dimB, f"B[{i}]")
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def state_matrix(self) -> np.ndarray:
        """psi reshaped to (dimA, dimB); row index is Alice's."""
        return self.psi.reshape(self.dimA, self.dimB)


@dataclass(frozen=True)
class ConditionalStates:
    """Subnormalized conditional states of the guessing party.

    ``eigenvalues`` and ``overlaps`` are taken in the eigenbasis of
    ``rhoSum``; they feed the closed-form bias formula.
    """

    rhoPlus: np.ndarray
    rhoMinus: np.ndarray
    rhoSum: np.ndarray
    eigenvalues: np.ndarray
    overlaps: np.ndarray


def xz_observable(theta: float) -> np.ndarray:
    """sin(theta)*sigma1 + cos(theta)*sigma3 as a complex matrix."""
    return (math.sin(theta) * SIGMA1 + math.cos(theta) * SIGMA3).astype(complex)


def promote(r: TwoQubitRealization) -> GeneralRealization:
    """Embed a two-qubit parameter set as an explicit realization."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = math.cos(r.chi)
    psi[3] = math.sin(r.chi)
    return GeneralRealization(
        dimA=2,
        dimB=2,
        psi=psi,
        A=tuple(xz_observable(t) for t in r.thetaA),
        B=tuple(xz_observable(t) for t in r.thetaB),
    )


def _correlators(cosA, sinA, cosB, sinB, sin2chi) -> np.ndarray:
    s2 = np.asarray(sin2chi, dtype=float)[..., None, None]
    return cosA[..., :, None] * cosB[..., None, :] + s2 * (sinA[..., :, None] * sinB[..., None, :])


def two_qubit_correlators(thetaA, thetaB, sin2chi) -> np.ndarray:
    """C_xy = cos(thetaA_x) cos(thetaB_y) + sin2chi sin(thetaA_x) sin(thetaB_y).

    The angle arrays have shape (..., 2) and ``sin2chi`` is a scalar or has
    their leading shape; the result has shape (..., 2, 2).
    """
    return _correlators(np.cos(thetaA), np.sin(thetaA), np.cos(thetaB), np.sin(thetaB), sin2chi)


class TwoQubitBehaviors(NamedTuple):
    """Closed-form behaviors of stacked two-qubit realizations; see
    ``two_qubit_behaviors``."""

    cA: np.ndarray
    cB: np.ndarray
    c: np.ndarray
    deltaB: np.ndarray
    deltaA: np.ndarray
    compB: np.ndarray
    compA: np.ndarray


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    den = np.broadcast_to(den, num.shape)
    return np.divide(num, den, out=np.ones_like(num), where=den > 0.0)


def two_qubit_biases(thetaA, thetaB, chi) -> tuple[np.ndarray, ...]:
    """Marginals and squared guessing biases of stacked two-qubit realizations.

    Returns (cA, cB, deltaB, deltaA) with cA_x = cos(2 chi) cos(thetaA_x),
    cB_y likewise, deltaB_x = cA_x^2 + sin^2(2 chi) and deltaA_y = cB_y^2 +
    sin^2(2 chi); shapes as in ``two_qubit_behaviors``.
    """
    chi = np.asarray(chi, dtype=float)
    c2 = np.cos(2.0 * chi)[..., None]
    s2sq = (np.sin(2.0 * chi) ** 2)[..., None]
    cA = c2 * np.cos(thetaA)
    cB = c2 * np.cos(thetaB)
    return cA, cB, cA**2 + s2sq, cB**2 + s2sq


def two_qubit_behaviors(thetaA, thetaB, chi) -> TwoQubitBehaviors:
    """Both behaviors of stacked two-qubit realizations, in closed form.

    ``thetaA`` and ``thetaB`` have shape (..., 2) and ``chi`` the leading
    shape (...); every field has those leading axes.
    - cA, cB, deltaB and deltaA as in ``two_qubit_biases``;
    - C_xy as in ``two_qubit_correlators`` at sin(2 chi);
    - compB and compA, 1 - c~^2 of the correlators scaled by sqrt(deltaB_x)
      and by sqrt(deltaA_y), with 1 where the bias vanishes.
    These are the values of ``simulate_cbehavior`` and ``simulate_dbehavior``
    up to rounding, without the state, the matrices or the
    eigendecompositions.  The complements come from the squares
    deltaB_x - C_xy^2 = (cos thetaA_x sin thetaB_y - sin 2chi sin thetaA_x cos thetaB_y)^2
    and deltaA_y - C_xy^2 = (sin thetaA_x cos thetaB_y - sin 2chi cos thetaA_x sin thetaB_y)^2.
    Formed from a rounded c~ instead, 1 - c~^2 keeps only half its digits
    near |c~| = 1, and the boundary gap it feeds moves by up to about 1e-8.
    """
    cA, cB, deltaB, deltaA = two_qubit_biases(thetaA, thetaB, chi)
    s2 = np.sin(2.0 * np.asarray(chi, dtype=float))
    cosA, sinA, cosB, sinB = np.cos(thetaA), np.sin(thetaA), np.cos(thetaB), np.sin(thetaB)
    s2m = s2[..., None, None]
    orthB = cosA[..., :, None] * sinB[..., None, :] - s2m * (sinA[..., :, None] * cosB[..., None, :])
    orthA = sinA[..., :, None] * cosB[..., None, :] - s2m * (cosA[..., :, None] * sinB[..., None, :])
    return TwoQubitBehaviors(
        cA=cA,
        cB=cB,
        c=_correlators(cosA, sinA, cosB, sinB, s2),
        deltaB=deltaB,
        deltaA=deltaA,
        compB=_ratio(orthB**2, deltaB[..., :, None]),
        compA=_ratio(orthA**2, deltaA[..., None, :]),
    )


def _as_general(r) -> GeneralRealization:
    if isinstance(r, TwoQubitRealization):
        return promote(r)
    return r


def simulate_cbehavior(r) -> CBehavior:
    """Correlators <A_x>, <B_y>, <A_x B_y> of a realization."""
    r = _as_general(r)
    m = r.state_matrix
    cA = [float(np.vdot(m, a @ m).real) for a in r.A]
    cB = [float(np.vdot(m, m @ b.T).real) for b in r.B]
    c = [[float(np.vdot(m, a @ m @ b.T).real) for b in r.B] for a in r.A]
    return CBehavior(cA=cA, cB=cB, c=c)


def conditional_states(r, side: str, setting: int) -> ConditionalStates:
    """States held by one party conditioned on the other party's outcome.

    ``side='B'`` gives Bob's states conditioned on Alice measuring setting
    ``setting``; ``side='A'`` the mirror image.
    """
    r = _as_general(r)
    m = r.state_matrix
    if side == "B":
        obs = r.A[setting]
        eye = np.eye(r.dimA)
        amp_p = ((eye + obs) / 2.0) @ m
        amp_m = ((eye - obs) / 2.0) @ m
        rho_p = amp_p.T @ amp_p.conj()
        rho_m = amp_m.T @ amp_m.conj()
    elif side == "A":
        obs = r.B[setting]
        eye = np.eye(r.dimB)
        amp_p = m @ (((eye + obs) / 2.0).T)
        amp_m = m @ (((eye - obs) / 2.0).T)
        rho_p = amp_p @ amp_p.conj().T
        rho_m = amp_m @ amp_m.conj().T
    else:
        raise ValueError("side must be 'A' or 'B'")
    rho = rho_p + rho_m
    evals, evecs = np.linalg.eigh(rho)
    overlaps = evecs.conj().T @ (rho_p - rho_m) @ evecs
    return ConditionalStates(
        rhoPlus=freeze(rho_p, dtype=complex),
        rhoMinus=freeze(rho_m, dtype=complex),
        rhoSum=freeze(rho, dtype=complex),
        eigenvalues=freeze(evals),
        overlaps=freeze(overlaps, dtype=complex),
    )


def guessing_bias(r, side: str, setting: int, cutoff: float = SUPPORT_CUTOFF) -> float:
    """Optimal bias of guessing the remote outcome, closed form.

    Evaluates D^2 = sum_{kk'} 2|a_kk'|^2 / (m_k + m_k') over the pairs of
    reduced-state eigenvalues with m_k + m_k' > ``cutoff``, which makes the
    formula division-safe.  A pair with one null eigenvalue stays: its term
    is harmless, since |a_kk'|^2 <= m_k m_k'.
    """
    cs = conditional_states(r, side, setting)
    m = cs.eigenvalues
    denom = m[:, None] + m[None, :]
    terms = np.divide(
        2.0 * np.abs(cs.overlaps) ** 2, denom, out=np.zeros_like(denom), where=denom > cutoff
    )
    return math.sqrt(max(float(np.sum(terms)), 0.0))


def _hermitian_basis(k: int) -> list[np.ndarray]:
    basis = []
    for i in range(k):
        e = np.zeros((k, k), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for i in range(k):
        for j in range(i + 1, k):
            e = np.zeros((k, k), dtype=complex)
            e[i, j] = inv_sqrt2
            e[j, i] = inv_sqrt2
            basis.append(e)
            e = np.zeros((k, k), dtype=complex)
            e[i, j] = -1.0j * inv_sqrt2
            e[j, i] = 1.0j * inv_sqrt2
            basis.append(e)
    return basis


def guessing_bias_oracle(r, side: str, setting: int) -> float:
    """Guessing bias by direct maximization over the guesser's operators.

    Maximizes tr(Delta X) over Hermitian X subject to tr(rho X^2) = 1,
    restricted to the support of the reduced state (operators outside it
    cannot help).  In a Hermitian basis {E_i} this is max c.v subject to
    v^T Q v = 1 with c_i = tr(Delta E_i) and Q_ij = Re tr(rho E_i E_j),
    positive definite on the support, whose value is sqrt(c^T Q^-1 c): one
    linear solve.  Independent of :func:`guessing_bias`, which works in the
    eigenbasis of the reduced state.
    """
    cs = conditional_states(r, side, setting)
    keep = cs.eigenvalues > SUPPORT_CUTOFF
    evecs = np.linalg.eigh(np.asarray(cs.rhoSum))[1][:, keep]
    rho = evecs.conj().T @ cs.rhoSum @ evecs
    delta = evecs.conj().T @ (cs.rhoPlus - cs.rhoMinus) @ evecs
    basis = np.array(_hermitian_basis(rho.shape[0]))
    cvec = np.einsum("ab,iba->i", delta, basis).real
    q = np.einsum("ca,iab,jbc->ij", rho, basis, basis).real
    return math.sqrt(max(float(cvec @ np.linalg.solve(q, cvec)), 0.0))


def simulate_dbehavior(r) -> DBehavior:
    """D-space behavior: squared guessing biases plus the joint correlators."""
    r = _as_general(r)
    cb = simulate_cbehavior(r)
    deltaB = [guessing_bias(r, "B", x) ** 2 for x in range(2)]
    deltaA = [guessing_bias(r, "A", y) ** 2 for y in range(2)]
    return DBehavior(deltaB=deltaB, deltaA=deltaA, c=cb.c)


def _pad_observable(m: np.ndarray, pad: int, sign: float) -> np.ndarray:
    if pad == 0:
        return m
    dim = m.shape[0] + pad
    out = np.zeros((dim, dim), dtype=complex)
    out[: m.shape[0], : m.shape[0]] = m
    out[m.shape[0]:, m.shape[0]:] = sign * np.eye(pad)
    return out


def embed(
    r: GeneralRealization,
    unitaryA: np.ndarray | None = None,
    unitaryB: np.ndarray | None = None,
    padA: int = 0,
    padB: int = 0,
    pad_sign: float = 1.0,
) -> GeneralRealization:
    """Behavior-preserving transformation: pad with +/-I blocks, then rotate.

    The unitaries must match the padded dimensions.  The padded blocks never
    overlap the state's support, so all behaviors are unchanged.
    """
    r = _as_general(r)
    dimA, dimB = r.dimA + padA, r.dimB + padB
    m = np.zeros((dimA, dimB), dtype=complex)
    m[: r.dimA, : r.dimB] = r.state_matrix
    A = [_pad_observable(a, padA, pad_sign) for a in r.A]
    B = [_pad_observable(b, padB, pad_sign) for b in r.B]
    if unitaryA is None:
        unitaryA = np.eye(dimA)
    if unitaryB is None:
        unitaryB = np.eye(dimB)
    unitaryA = np.asarray(unitaryA, dtype=complex)
    unitaryB = np.asarray(unitaryB, dtype=complex)
    if unitaryA.shape != (dimA, dimA) or unitaryB.shape != (dimB, dimB):
        raise ValueError("unitary dimensions must match the padded realization")
    m = unitaryA @ m @ unitaryB.T
    A = [unitaryA @ a @ unitaryA.conj().T for a in A]
    B = [unitaryB @ b @ unitaryB.conj().T for b in B]
    return GeneralRealization(dimA=dimA, dimB=dimB, psi=m.reshape(-1), A=tuple(A), B=tuple(B))


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random unitary via the QR decomposition with phase fixing."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    qmat, rmat = np.linalg.qr(z)
    phases = np.diag(rmat).copy()
    phases /= np.abs(phases)
    return qmat * phases


def random_two_qubit_params(
    rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``n`` draws of (thetaA, thetaB, chi): angles uniform on [0, 2pi), chi
    uniform on [0, pi/4], as arrays of shape (n, 2), (n, 2) and (n,).

    One ``rng.random((n, 5))`` call scaled by 2pi and pi/4; row k is the
    draw of the k-th of n successive ``random_two_qubit`` calls.
    """
    u = rng.random((n, 5))
    return u[:, 0:2] * (2.0 * math.pi), u[:, 2:4] * (2.0 * math.pi), u[:, 4] * (math.pi / 4.0)


def random_two_qubit(rng: np.random.Generator) -> TwoQubitRealization:
    """Angles uniform on [0, 2pi), chi uniform on [0, pi/4]: one row of
    ``random_two_qubit_params``."""
    thetaA, thetaB, chi = random_two_qubit_params(rng, 1)
    return TwoQubitRealization(thetaA=thetaA[0], thetaB=thetaB[0], chi=chi[0])


def random_general(rng: np.random.Generator, dimA: int = 2, dimB: int = 2) -> GeneralRealization:
    """Haar-rotated, padded variant of a random two-qubit realization."""
    if dimA < 2 or dimB < 2:
        raise ValueError("dimensions must be at least 2")
    base = promote(random_two_qubit(rng))
    return embed(
        base,
        unitaryA=haar_unitary(rng, dimA),
        unitaryB=haar_unitary(rng, dimB),
        padA=dimA - 2,
        padB=dimB - 2,
        pad_sign=1.0 if rng.uniform() < 0.5 else -1.0,
    )
