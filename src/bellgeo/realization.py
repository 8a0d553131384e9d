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

import functools
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
        _check_planar(self)


def _check_planar(record):
    """Freeze the thetaA, thetaB and chi of a planar record in place: finite
    angle pairs and a finite chi in the convention [0, pi/4]; the first bad
    field raises ``ValueError`` naming it."""
    for name in ("thetaA", "thetaB"):
        a = freeze(getattr(record, name), (2,), name=name)
        if not np.isfinite(a).all():
            raise ValueError(f"{name} must be finite")
        object.__setattr__(record, name, a)
    chi = float(record.chi)
    if not math.isfinite(chi):
        raise ValueError("chi must be finite")
    if not -CHI_RANGE_SLACK <= chi <= math.pi / 4 + CHI_RANGE_SLACK:
        raise ValueError(f"chi={chi} outside the convention [0, pi/4]")
    object.__setattr__(record, "chi", chi)


@functools.cache
def _identity(dim: int) -> np.ndarray:
    """The read-only dim x dim identity, built once per dimension."""
    return freeze(np.eye(dim))


def _observable_residuals(ops: np.ndarray) -> list:
    """The lists max |O - O^dagger| and max |O O - I| over each matrix O of
    the stack ``ops``, from one broadcast."""
    dev = np.array([ops - ops.conj().swapaxes(-1, -2), ops @ ops - _identity(ops.shape[-1])])
    return np.abs(dev).reshape(2, len(ops), -1).max(axis=-1).tolist()


def _check_observables(ops: tuple, dim: int, side: str):
    """Each observable's shape, Hermiticity and square, in that order and
    observable by observable; the residuals of all that have the right shape
    come from one broadcast."""
    shaped = next((i for i, m in enumerate(ops) if m.shape != (dim, dim)), len(ops))
    if shaped:
        herm, square = _observable_residuals(np.array(ops[:shaped]))
    for i in range(shaped):
        if not herm[i] <= VALIDATE_TOL:
            raise ValueError(f"{side}[{i}] is not Hermitian")
        if not square[i] <= VALIDATE_TOL:
            raise ValueError(f"{side}[{i}] does not square to the identity")
    if shaped < len(ops):
        raise ValueError(f"{side}[{shaped}] must be {dim}x{dim}, got {ops[shaped].shape}")


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
        # each check is written so that a NaN fails it
        if not abs(np.linalg.norm(psi) - 1.0) <= VALIDATE_TOL:
            raise ValueError("psi must be normalized")
        A = tuple(freeze(m, dtype=complex) for m in self.A)
        B = tuple(freeze(m, dtype=complex) for m in self.B)
        if len(A) != 2 or len(B) != 2:
            raise ValueError("need exactly two observables per side")
        _check_observables(A, self.dimA, "A")
        _check_observables(B, self.dimB, "B")
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def state_matrix(self) -> np.ndarray:
        """psi reshaped to (dimA, dimB); row index is Alice's."""
        return self.psi.reshape(self.dimA, self.dimB)


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
    - C_xy = cos(thetaA_x) cos(thetaB_y) + sin(2 chi) sin(thetaA_x) sin(thetaB_y);
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


def _conditional(m: np.ndarray, obs) -> tuple[np.ndarray, np.ndarray]:
    """rho = m^T m* of the column party of state matrix ``m``, and the stacked
    Delta_k = rho_+ - rho_- = m^T O_k^T m* of its states conditioned on the
    outcome of each row-party observable O_k.  The row party's side is the
    same call on m^T."""
    mc = m.conj()
    return m.T @ mc, m.T @ np.swapaxes(obs, -1, -2) @ mc


def _side(r, side: str) -> tuple[np.ndarray, np.ndarray]:
    """``_conditional`` for the guessing party ``side`` of a realization."""
    r = _as_general(r)
    if side == "B":
        return _conditional(r.state_matrix, r.A)
    if side == "A":
        return _conditional(r.state_matrix.T, r.B)
    raise ValueError("side must be 'A' or 'B'")


def _squared_biases(rho: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Squared optimal biases of guessing the remote outcome, one per Delta_k.

    One eigendecomposition rho = sum_k m_k |k><k| serves the whole stack:
    D^2 = sum_{kk'} 2|a_kk'|^2 / (m_k + m_k') with a = <k|Delta|k'>, over the
    pairs with m_k + m_k' > ``SUPPORT_CUTOFF``, which makes the formula
    division-safe.  A pair with one null eigenvalue stays: its term is
    harmless, since |a_kk'|^2 <= m_k m_k'.
    """
    evals, evecs = np.linalg.eigh(rho)
    a = evecs.conj().T @ delta @ evecs
    denom = evals[:, None] + evals[None, :]
    terms = np.divide(
        2.0 * np.abs(a) ** 2, denom, out=np.zeros(a.shape), where=denom > SUPPORT_CUTOFF
    )
    return terms.sum(axis=(-2, -1))


def _correlator_table(m: np.ndarray, A, B) -> tuple[np.ndarray, ...]:
    """<A_x>, <B_y> and <A_x B_y> = <psi|A_x (x) B_y|psi>, one row per A_x and
    one column per B_y, each one ``np.vdot``.  They equal tr Delta_x,
    tr(rho B_y) and tr(Delta_x B_y), but summed in that order they move by
    an ulp, which flips boundary behaviors whose reconstruction sits within
    an ulp of its tolerance (an angle at 0 or pi, a discriminant near 0)."""
    am = [a @ m for a in A]
    return (
        np.array([np.vdot(m, x).real for x in am]),
        np.array([np.vdot(m, m @ b.T).real for b in B]),
        np.array([[np.vdot(m, x @ b.T).real for b in B] for x in am]),
    )


def simulate_cbehavior(r) -> CBehavior:
    """Correlators <A_x>, <B_y>, <A_x B_y> of a realization."""
    r = _as_general(r)
    cA, cB, c = _correlator_table(r.state_matrix, r.A, r.B)
    return CBehavior(cA=cA, cB=cB, c=c)


def _simulate(r) -> tuple[CBehavior, DBehavior]:
    """Both behaviors: the correlators once, and one reduced state and one
    eigendecomposition per side for both of its squared biases."""
    r = _as_general(r)
    cA, cB, c = _correlator_table(r.state_matrix, r.A, r.B)
    return CBehavior(cA=cA, cB=cB, c=c), DBehavior(
        deltaB=_squared_biases(*_side(r, "B")),
        deltaA=_squared_biases(*_side(r, "A")),
        c=c,
    )


def guessing_bias(r, side: str, setting: int) -> float:
    """Optimal bias of guessing the remote outcome, closed form.

    The square root of ``_squared_biases`` for the guessing party ``side``
    and the remote setting ``setting``.
    """
    return math.sqrt(_squared_biases(*_side(r, side))[setting])


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
    rho, delta = _side(r, side)
    evals, evecs = np.linalg.eigh(rho)
    evecs = evecs[:, evals > SUPPORT_CUTOFF]
    rho = evecs.conj().T @ rho @ evecs
    delta = evecs.conj().T @ delta[setting] @ evecs
    basis = np.array(_hermitian_basis(rho.shape[0]))
    cvec = np.einsum("ab,iba->i", delta, basis).real
    q = np.einsum("ca,iab,jbc->ij", rho, basis, basis).real
    return math.sqrt(max(float(cvec @ np.linalg.solve(q, cvec)), 0.0))


def simulate_dbehavior(r) -> DBehavior:
    """D-space behavior: squared guessing biases plus the joint correlators."""
    return _simulate(r)[1]


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
