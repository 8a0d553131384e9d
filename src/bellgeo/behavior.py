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

from .jsonio import Record, freeze, record_fields
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


#: Where each of the three fields starts in ``flat()`` order: two marginal
#: entries per side, then the four correlators.
_FIELD_STARTS = (0, 2, 4)


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
        # the largest magnitude, NaN-propagating, tested so that a NaN fails
        worst = float(np.abs(self.flat()).max())
        if not worst <= 1.0 + VALIDATE_TOL:
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
        # each field's extremes, NaN-propagating, from one reduction apiece;
        # each check below is written so that a NaN fails it
        v = np.concatenate([self.deltaB, self.deltaA, np.abs(self.c).ravel()])
        lo = np.minimum.reduceat(v, _FIELD_STARTS).tolist()
        hi = np.maximum.reduceat(v, _FIELD_STARTS).tolist()
        for k, name in enumerate(("deltaB", "deltaA")):
            if not (lo[k] >= -VALIDATE_TOL and hi[k] <= 1.0 + VALIDATE_TOL):
                raise ValueError(f"{name} entries must lie in [0, 1], got {getattr(self, name)}")
        if not hi[2] <= 1.0 + VALIDATE_TOL:
            raise ValueError("correlator magnitude exceeds 1")

    def flat(self) -> np.ndarray:
        return np.concatenate([self.deltaB, self.deltaA, self.c.ravel()])


#: Outcome signs a and b of the entries p(ab|xy), broadcast to the [a, b, x, y]
#: index order.
_SIGN_A = np.array([1.0, -1.0]).reshape(2, 1, 1, 1)
_SIGN_B = _SIGN_A.reshape(1, 2, 1, 1)


def is_valid(b: CBehavior, tol: float = DEFAULT_TOL) -> bool:
    """True iff every probability p(ab|xy) = (1 + a cA_x + b cB_y + ab C_xy) / 4
    of the no-signaling table is >= -tol."""
    p = 0.25 * (1.0 + _SIGN_A * b.cA[:, None] + _SIGN_B * b.cB + _SIGN_A * _SIGN_B * b.c)
    return bool(p.min() >= -tol)


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
    if kind not in (CBehavior, DBehavior):
        raise TypeError(f"unsupported behavior type {kind!r}")
    return kind(
        **{
            f.name: sum(wi * getattr(b, f.name) for wi, b in zip(w, behaviors))
            for f in record_fields(kind)
        }
    )
