"""Behaviors of the two-party, two-setting, two-outcome Bell scenario.

A point in correlator space ("C-space") is the tuple of two marginal biases
per side plus the four joint correlators.  A point in guessing-bias space
("D-space") replaces the marginals by the squared optimal biases of guessing
the remote outcome.  The two descriptions are deliberately kept as separate
types: they are not in one-to-one correspondence and the library never
attempts to convert a D-space point back to C-space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .jsonio import Record, freeze
from .tolerances import DEFAULT_TOL, VALIDATE_TOL

#: The 16 sign patterns of {+1, -1}^4 as integer rows, all-plus first, in
#: ``itertools.product`` order.  The one table behind the branch patterns of
#: ``criteria``, the angle signs of ``geometry``, the equation signs of
#: ``qbell`` and the CHSH facets below.
SIGN_PATTERNS = np.array(list(itertools.product((1, -1), repeat=4)))

#: Sign patterns (s00, s01, s10, s11) with an odd number of minus signs.
#: These are the eight CHSH facets of the local polytope in the 2x2x2
#: scenario; together with positivity they characterize locality exactly.
CHSH_SIGNS = SIGN_PATTERNS[SIGN_PATTERNS.prod(axis=1) < 0].astype(float)


class InvalidBehaviorError(ValueError):
    """The operation requires a behavior with a valid probability table."""


@dataclass(frozen=True)
class CBehavior(Record):
    """Correlator-space behavior {C^A_x, C^B_y, C_xy}."""

    cA: np.ndarray
    cB: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "cA", freeze(self.cA, (2,), name="cA"))
        object.__setattr__(self, "cB", freeze(self.cB, (2,), name="cB"))
        object.__setattr__(self, "c", freeze(self.c, (2, 2), name="c"))
        worst = max(np.abs(self.cA).max(), np.abs(self.cB).max(), np.abs(self.c).max())
        if worst > 1.0 + VALIDATE_TOL:
            raise ValueError(f"correlator magnitude {worst} exceeds 1")

    def flat(self) -> np.ndarray:
        return np.concatenate([self.cA, self.cB, self.c.ravel()])


@dataclass(frozen=True)
class DBehavior(Record):
    """Guessing-bias-space behavior {delta^B_x, delta^A_y, C_xy}."""

    deltaB: np.ndarray
    deltaA: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "deltaB", freeze(self.deltaB, (2,), name="deltaB"))
        object.__setattr__(self, "deltaA", freeze(self.deltaA, (2,), name="deltaA"))
        object.__setattr__(self, "c", freeze(self.c, (2, 2), name="c"))
        for name in ("deltaB", "deltaA"):
            d = getattr(self, name)
            if d.min() < -VALIDATE_TOL or d.max() > 1.0 + VALIDATE_TOL:
                raise ValueError(f"{name} entries must lie in [0, 1], got {d}")
        if np.abs(self.c).max() > 1.0 + VALIDATE_TOL:
            raise ValueError("correlator magnitude exceeds 1")

    def flat(self) -> np.ndarray:
        return np.concatenate([self.deltaB, self.deltaA, self.c.ravel()])


@dataclass(frozen=True)
class ProbabilityTable:
    """Conditional probabilities p(ab|xy), indexed [a, b, x, y].

    Outcome index 0 stands for +1 and index 1 for -1.
    """

    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", freeze(self.p, (2, 2, 2, 2), name="p"))

    def correlators(self) -> CBehavior:
        """Extract the behavior back from the table (round-trip check)."""
        sign = np.array([1.0, -1.0])
        # marginals are y-independent for no-signaling tables; average for robustness
        cA = np.einsum("a,abxy->xy", sign, self.p).mean(axis=1)
        cB = np.einsum("b,abxy->yx", sign, self.p).mean(axis=1)
        c = np.einsum("a,b,abxy->xy", sign, sign, self.p)
        return CBehavior(cA=cA, cB=cB, c=c)

    def no_signaling_residual(self) -> float:
        """Largest deviation from normalization or no-signaling."""
        norm = np.abs(self.p.sum(axis=(0, 1)) - 1.0).max()
        margA = self.p.sum(axis=1)  # (a, x, y)
        margB = self.p.sum(axis=0)  # (b, x, y)
        ns = max(
            np.abs(margA[:, :, 0] - margA[:, :, 1]).max(),
            np.abs(margB[:, 0, :] - margB[:, 1, :]).max(),
        )
        return float(max(norm, ns))


def to_probabilities(b: CBehavior) -> ProbabilityTable:
    """Expand a behavior into the probability table of the no-signaling form.

    May produce negative entries for non-physical behaviors; callers check
    validity separately.
    """
    sign = np.array([1.0, -1.0])
    a = sign[:, None, None, None]
    bb = sign[None, :, None, None]
    cA = b.cA[None, None, :, None]
    cB = b.cB[None, None, None, :]
    c = b.c[None, None, :, :]
    p = 0.25 * (1.0 + a * cA + bb * cB + a * bb * c)
    return ProbabilityTable(p=p)


def is_valid(b: CBehavior, tol: float = DEFAULT_TOL) -> bool:
    """True iff every probability of the expanded table is >= -tol."""
    return bool(to_probabilities(b).p.min() >= -tol)


def chsh_values_batch(c: np.ndarray) -> np.ndarray:
    """CHSH facet values of stacked (..., 2, 2) correlators, shape (..., 8)."""
    c = np.asarray(c, dtype=float)
    return c.reshape(c.shape[:-2] + (4,)) @ CHSH_SIGNS.T


def chsh_values(b: CBehavior) -> np.ndarray:
    """The eight CHSH facet values s.C over the odd-minus sign patterns."""
    return chsh_values_batch(b.c)


def _chsh_local(b: CBehavior, tol: float) -> bool:
    """The CHSH half of ``is_local``, for a behavior already known to be valid."""
    return bool(np.abs(chsh_values(b)).max() <= 2.0 + tol)


def is_local(b: CBehavior, tol: float = DEFAULT_TOL) -> bool:
    """Membership in the local polytope via positivity plus the CHSH facets."""
    if not is_valid(b, tol):
        raise InvalidBehaviorError("is_local requires a valid behavior")
    return _chsh_local(b, tol)


def mix(behaviors, weights, tol: float = DEFAULT_TOL):
    """Componentwise affine combination of behaviors of one type.

    Negative weights are allowed; extrapolation is a legitimate use.  The
    weights must sum to one within ``tol``.
    """
    if len(behaviors) != len(weights) or not behaviors:
        raise ValueError("need equally many behaviors and weights, at least one")
    w = np.asarray(weights, dtype=float)
    if abs(w.sum() - 1.0) > tol:
        raise ValueError(f"weights sum to {w.sum()}, expected 1")
    kind = type(behaviors[0])
    if any(type(b) is not kind for b in behaviors):
        raise TypeError("cannot mix behaviors of different types")
    if kind is CBehavior:
        return CBehavior(
            cA=sum(wi * b.cA for wi, b in zip(w, behaviors)),
            cB=sum(wi * b.cB for wi, b in zip(w, behaviors)),
            c=sum(wi * b.c for wi, b in zip(w, behaviors)),
        )
    if kind is DBehavior:
        return DBehavior(
            deltaB=sum(wi * b.deltaB for wi, b in zip(w, behaviors)),
            deltaA=sum(wi * b.deltaA for wi, b in zip(w, behaviors)),
            c=sum(wi * b.c for wi, b in zip(w, behaviors)),
        )
    raise TypeError(f"unsupported behavior type {kind!r}")
