"""Kernels and record checks against frozen copies of the code they
replaced, where the CLI does not print the result: ``test_golden.py``
checks what it prints (reconstruction, extremal criterion, uniqueness,
simulation, the JSON of every report).

On seeded draws, every result must be bit for bit that of the frozen copy,
and every error the same type with the same message: the branch patterns of
``two_qubit_condition``, the saturation gaps at any branch value, the gap
kernel with a given complement, the ``QBellCoefficients`` of
``construct_pair``, the symmetry match (its angle row rebuilt into the
frozen geometry), the (Z, X) operators and the swap isometry at a given
state and target, the JSON emitter on values the CLI never writes, and the
record constructors on malformed fields, where a NaN, which the frozen
checks let through, must be a ``ValueError``.  The copies are verbatim
apart from names and call only each other and the record types; the frozen
geometry code builds its six-field record under the live record's name.
"""

import collections
import dataclasses
import itertools
import json
import math
import re
from types import SimpleNamespace

import numpy as np

from bellgeo import jsonio
from bellgeo.behavior import SIGN_PATTERNS, CBehavior, DBehavior, InvalidBehaviorError
from bellgeo.criteria import SignPattern, crypt_gaps_batch, saturation_gaps, two_qubit_condition
from bellgeo.geometry import (
    GeometryParams,
    ReconstructionError,
    _match_geometries,
    projection_angles,
    reconstruct,
)
from bellgeo.qbell import (
    DegenerateGeometryError,
    QBellCoefficients,
    QuantumBellInequality,
    construct_pair,
)
from bellgeo.jsonio import freeze
from bellgeo.realization import (
    SIGMA3,
    GeneralRealization,
    TwoQubitRealization,
    _observable_residuals,
    promote,
    random_two_qubit,
    simulate_cbehavior,
    simulate_dbehavior,
    xz_observable,
)
from bellgeo.selftest import (
    DerivedOperators,
    ExtendedRealization,
    derive_operators,
    protocol_chain,
    protocol_zb,
    swap_isometry,
)
from bellgeo.tolerances import (
    ADDED_OBSERVABLE_TOL,
    DEFAULT_TOL,
    DEGENERATE_SIN,
    ORIENTATION_SLACK,
    ROUNDING_ZERO,
    VALIDATE_TOL,
    ZERO_NORM_SQUARED,
    root_tol,
)
from realizations import (
    PUSH_SIZES,
    draws,
    embedded_pair,
    general_draws,
    pushed_draws,
    random_conforming,
    selftest_draws,
)

# -- frozen copies: criteria ---------------------------------------------------

_PATTERNS = SIGN_PATTERNS.reshape(16, 2, 2)


def _ref_d_quantities(b, sin2chiSq):
    if not 0.0 <= sin2chiSq <= 1.0:
        raise ValueError(f"sin2chiSq={sin2chiSq} outside [0, 1]")
    return b.cA**2 + sin2chiSq, b.cB**2 + sin2chiSq


def _ref_s_branches(b, tol):
    J = b.c**2 - b.cA[:, None] ** 2 - b.cB[None, :] ** 2 + 1.0
    K = b.c - b.cA[:, None] * b.cB[None, :]
    disc = J**2 - 4.0 * K**2
    if disc.min() < -tol:
        bad = tuple(map(int, np.unravel_index(disc.argmin(), disc.shape)))
        raise InvalidBehaviorError(
            f"branch equation has no real roots at setting pair {bad} "
            f"(discriminant {disc.min()})"
        )
    root = np.sqrt(np.clip(disc, 0.0, None))
    return 0.5 * (J + root), 0.5 * (J - root)


def _ref_branch_table(b, tol):
    s_plus, s_minus = _ref_s_branches(b, tol)
    vals = np.where(_PATTERNS > 0, s_plus, s_minus)
    spread = vals.max(axis=(1, 2)) - vals.min(axis=(1, 2))
    common = vals.mean(axis=(1, 2))
    h = np.prod((1.0 - common)[:, None, None] * b.c - b.cA[:, None] * b.cB[None, :], axis=(1, 2))
    return spread, common, h


def _ref_two_qubit_condition(b, tol=DEFAULT_TOL):
    spread, common, h = _ref_branch_table(b, tol)
    found = []
    for k in np.argsort(spread, kind="stable"):
        if spread[k] > tol:
            break
        if h[k] < -tol or any(abs(common[k] - f.commonValue) <= tol for f in found):
            continue
        found.append(SignPattern(p=_PATTERNS[k], commonValue=float(common[k]), H=float(h[k])))
    return found


def _ref_tlm(ct, comp=None):
    lhs = np.abs(ct[..., 0, 0] * ct[..., 0, 1] - ct[..., 1, 0] * ct[..., 1, 1])
    if comp is None:
        comp = np.clip(1.0 - ct**2, 0.0, None)
    rhs = np.sqrt(comp[..., 0, 0] * comp[..., 0, 1]) + np.sqrt(comp[..., 1, 0] * comp[..., 1, 1])
    return rhs - lhs


def _ref_scaled(delta, c, side):
    root = np.sqrt(np.clip(delta, 0.0, None))
    if side == "B":
        denom = np.broadcast_to(root[..., :, None], c.shape)
    else:
        denom = np.broadcast_to(root[..., None, :], c.shape)
    ct = np.divide(c, denom, out=np.where(c == 0.0, 0.0, 2.0), where=denom > 0.0)
    return denom, ct


def _ref_saturation_gaps(b, sin2chiSq):
    dB, dA = _ref_d_quantities(b, sin2chiSq)
    gB, gA = (
        float(_ref_tlm(np.clip(_ref_scaled(np.clip(delta, 0.0, 1.0), b.c, side)[1], -1.0, 1.0)))
        for side, delta in (("B", dB), ("A", dA))
    )
    return gB, gA


def _ref_crypt_gaps_batch(deltaB, deltaA, c, tol=DEFAULT_TOL, comp=None):
    c = np.asarray(c, dtype=float)
    gaps = {}
    for k, (side, delta) in enumerate((("B", deltaB), ("A", deltaA))):
        denom, ct = _ref_scaled(np.asarray(delta, dtype=float), c, side)
        cap = (denom - np.abs(c)).min(axis=(-2, -1))
        gaps["cap" + side] = cap
        gaps["tlm" + side] = np.where(
            np.abs(ct).max(axis=(-2, -1)) > 1.0 + root_tol(tol),
            np.where(cap > 0.0, 0.0, cap),
            _ref_tlm(np.clip(ct, -1.0, 1.0), None if comp is None else comp[k]),
        )
    return gaps


# -- frozen copies: geometry ---------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _RefGeometryParams:
    """The six-field geometry record whose derived fields were inputs, under
    the live record's name so that ``_exact`` compares the two."""

    thetaA: np.ndarray
    thetaB: np.ndarray
    phiB: np.ndarray
    phiA: np.ndarray
    chi: float
    psiPrimeNorm: float

    def __post_init__(self):
        for name in ("thetaA", "thetaB", "phiB", "phiA"):
            object.__setattr__(self, name, freeze(getattr(self, name), (2,), name=name))
        for name in ("chi", "psiPrimeNorm"):
            object.__setattr__(self, name, float(getattr(self, name)))


_RefGeometryParams.__name__ = _RefGeometryParams.__qualname__ = "GeometryParams"


def _ref_projection_angles(r):
    s2 = math.sin(2.0 * r.chi)
    phiB = np.arctan2(np.sin(r.thetaA) * s2, np.cos(r.thetaA))
    phiA = np.arctan2(np.sin(r.thetaB) * s2, np.cos(r.thetaB))
    return _RefGeometryParams(
        thetaA=r.thetaA, thetaB=r.thetaB, phiB=phiB, phiA=phiA, chi=r.chi,
        psiPrimeNorm=math.cos(2.0 * r.chi),
    )


def _ref_symmetry_transforms(g):
    out = []
    for f in (lambda t: t, lambda t: -t, lambda t: math.pi - t, lambda t: math.pi + t):
        r = TwoQubitRealization(
            thetaA=f(np.asarray(g.thetaA)), thetaB=f(np.asarray(g.thetaB)), chi=g.chi
        )
        out.append(_ref_projection_angles(r))
    return out


def _ref_angles_close(a, b, tol):
    d = np.mod(a - b + math.pi, 2.0 * math.pi) - math.pi
    return bool(np.abs(d).max() <= tol)


def _ref_match_geometries(g, g2, tol, b_angles=1):
    for cand in _ref_symmetry_transforms(g2):
        if _ref_angles_close(cand.thetaA, g.thetaA, tol) and _ref_angles_close(
            cand.thetaB[:b_angles], g.thetaB[:b_angles], tol
        ):
            return cand
    return None


# -- frozen copies: qbell ------------------------------------------------------


def _ref_construct_side(side, delta, D, dtheta):
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
    a = math.sqrt(max(ra, 0.0)) / abs(sdt)
    b = math.sqrt(max(rb, 0.0)) / abs(sdt)
    orient = 1.0 if sdt > 0 else -1.0
    u = orient * np.array([[a * sd[0, 1], -a * sd[0, 0]], [b * sd[1, 1], b * sd[1, 0]]])
    s = np.array([D[1] * a, D[0] * b])
    sd2 = float((s[0] * D[0]) ** 2 + (s[1] * D[1]) ** 2)
    q = 1.0 / (2.0 * math.sqrt(sd2))
    signs = np.array([[1.0, 1.0], [1.0, -1.0]])
    ineq = QuantumBellInequality(
        side=side, Vmarg=q * s**2, Vcorr=signs * s[:, None] * u, q=q, bound=1.0 / (4.0 * q)
    )
    return ineq, QBellCoefficients(u=freeze(u), s=freeze(s), dthetaRef=dtheta)


def _ref_two_qubit_biases(thetaA, thetaB, chi):
    chi = np.asarray(chi, dtype=float)
    c2 = np.cos(2.0 * chi)[..., None]
    s2sq = (np.sin(2.0 * chi) ** 2)[..., None]
    cA = c2 * np.cos(thetaA)
    cB = c2 * np.cos(thetaB)
    return cA, cB, cA**2 + s2sq, cB**2 + s2sq


def _ref_d_values(g):
    _, _, dB, dA = _ref_two_qubit_biases(g.thetaA, g.thetaB, g.chi)
    return dB, dA


def _ref_construct_pair(g):
    dB, dA = _ref_d_values(g)
    deltaB = np.asarray(g.phiB)[:, None] - np.asarray(g.thetaB)[None, :]
    deltaA = np.asarray(g.phiA)[:, None] - np.asarray(g.thetaA)[None, :]
    ineqB, coeffB = _ref_construct_side("B", deltaB, np.sqrt(dB), float(g.thetaB[0] - g.thetaB[1]))
    ineqA, coeffA = _ref_construct_side("A", deltaA, np.sqrt(dA), float(g.thetaA[0] - g.thetaA[1]))
    return ineqB, ineqA, (coeffB, coeffA)


# -- frozen copies: selftest ----------------------------------------------------


def _ref_pair(ops, theta, mode):
    sdt = math.sin(theta[0] - theta[1])
    if abs(sdt) < DEGENERATE_SIN:
        raise ValueError("degenerate angles: the two observables coincide")
    if mode == "Z":
        return (math.sin(theta[0]) * ops[1] - math.sin(theta[1]) * ops[0]) / sdt
    return (math.cos(theta[1]) * ops[0] - math.cos(theta[0]) * ops[1]) / sdt


def _ref_derive_operators(r, g):
    return DerivedOperators(
        ZA=_ref_pair(r.A, g.thetaA, "Z"),
        XA=_ref_pair(r.A, g.thetaA, "X"),
        ZB=_ref_pair(r.B, g.thetaB, "Z"),
        XB=_ref_pair(r.B, g.thetaB, "X"),
    )


def _ref_apply(m, alice=None, bob=None):
    if alice is not None:
        m = alice @ m
    if bob is not None:
        m = m @ bob.T
    return m


def _ref_swap_isometry(r, ops, chi, state=None, target=None):
    m = r.state_matrix if state is None else np.asarray(state, dtype=complex)
    eyeA = np.eye(r.dimA)
    eyeB = np.eye(r.dimB)
    pZA = {1: eyeA + ops.ZA, -1: eyeA - ops.ZA}
    pZB = {1: eyeB + ops.ZB, -1: eyeB - ops.ZB}
    branches = {
        (0, 0): 0.25 * _ref_apply(m, alice=pZA[1], bob=pZB[1]),
        (0, 1): 0.25 * _ref_apply(m, alice=pZA[1], bob=ops.XB @ pZB[-1]),
        (1, 0): 0.25 * _ref_apply(m, alice=ops.XA @ pZA[-1], bob=pZB[1]),
        (1, 1): 0.25 * _ref_apply(m, alice=ops.XA @ pZA[-1], bob=ops.XB @ pZB[-1]),
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
    return float(np.sum(np.abs(w) ** 2) / out_norm2)


# -- frozen copies: JSON emitter and record checks -----------------------------


def _ref_format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite number {x!r}")
    s = format(x, ".17g")
    return s


def _ref_emit(obj, indent, level):
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, (np.integer,)):
        obj = int(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _ref_format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = [(json.dumps(str(k)), _ref_emit(v, indent, level + 1)) for k, v in obj.items()]
        if indent is None:
            return "{" + ", ".join(f"{k}: {v}" for k, v in items) + "}"
        pad = " " * (indent * (level + 1))
        closing = " " * (indent * level)
        if not items:
            return "{}"
        body = (",\n").join(f"{pad}{k}: {v}" for k, v in items)
        return "{\n" + body + "\n" + closing + "}"
    if isinstance(obj, (list, tuple)):
        parts = [_ref_emit(v, indent, level + 1) for v in obj]
        if indent is None:
            return "[" + ", ".join(parts) + "]"
        pad = " " * (indent * (level + 1))
        closing = " " * (indent * level)
        if not parts:
            return "[]"
        return "[\n" + (",\n").join(pad + p for p in parts) + "\n" + closing + "]"
    raise TypeError(f"cannot serialize object of type {type(obj)!r}")


def _ref_cbehavior(cA, cB, c):
    cA, cB, c = freeze(cA, (2,), name="cA"), freeze(cB, (2,), name="cB"), freeze(c, (2, 2), name="c")
    worst = max(np.abs(cA).max(), np.abs(cB).max(), np.abs(c).max())
    if worst > 1.0 + VALIDATE_TOL:
        raise ValueError(f"correlator magnitude {worst} exceeds 1")
    return {"cA": cA, "cB": cB, "c": c}


def _ref_dbehavior(deltaB, deltaA, c):
    fields = {
        "deltaB": freeze(deltaB, (2,), name="deltaB"),
        "deltaA": freeze(deltaA, (2,), name="deltaA"),
        "c": freeze(c, (2, 2), name="c"),
    }
    for name in ("deltaB", "deltaA"):
        d = fields[name]
        if d.min() < -VALIDATE_TOL or d.max() > 1.0 + VALIDATE_TOL:
            raise ValueError(f"{name} entries must lie in [0, 1], got {d}")
    if np.abs(fields["c"]).max() > 1.0 + VALIDATE_TOL:
        raise ValueError("correlator magnitude exceeds 1")
    return fields


def _ref_geometry_params(**values):
    fields = {}
    for name in ("thetaA", "thetaB"):
        a = freeze(values[name], (2,), name=name)
        if not np.isfinite(a).all():
            raise ValueError(f"{name} must be finite")
        fields[name] = a
    x = float(values["chi"])
    if not math.isfinite(x):
        raise ValueError("chi must be finite")
    fields["chi"] = x
    return _fields(_ref_projection_angles(SimpleNamespace(**fields)))


def _ref_check_observable(m, dim, name):
    if m.shape != (dim, dim):
        raise ValueError(f"{name} must be {dim}x{dim}, got {m.shape}")
    if np.abs(m - m.conj().T).max() > VALIDATE_TOL:
        raise ValueError(f"{name} is not Hermitian")
    if np.abs(m @ m - np.eye(dim)).max() > VALIDATE_TOL:
        raise ValueError(f"{name} does not square to the identity")


def _ref_general_realization(dimA, dimB, psi, A, B):
    dimA, dimB = int(dimA), int(dimB)
    psi = freeze(psi, dtype=complex).reshape(-1)
    if psi.shape != (dimA * dimB,):
        raise ValueError("psi length must be dimA*dimB")
    if abs(np.linalg.norm(psi) - 1.0) > VALIDATE_TOL:
        raise ValueError("psi must be normalized")
    A = tuple(freeze(m, dtype=complex) for m in A)
    B = tuple(freeze(m, dtype=complex) for m in B)
    if len(A) != 2 or len(B) != 2:
        raise ValueError("need exactly two observables per side")
    for i, m in enumerate(A):
        _ref_check_observable(m, dimA, f"A[{i}]")
    for i, m in enumerate(B):
        _ref_check_observable(m, dimB, f"B[{i}]")
    return {"dimA": dimA, "dimB": dimB, "psi": psi, "A": A, "B": B}


def _ref_extended_realization(base, B2):
    b2 = freeze(B2, dtype=complex)
    dim = base.dimB
    if b2.shape != (dim, dim):
        raise ValueError(f"B2 must be {dim}x{dim}")
    if np.abs(b2 - b2.conj().T).max() > ADDED_OBSERVABLE_TOL:
        raise ValueError("B2 is not Hermitian")
    if np.abs(b2 @ b2 - np.eye(dim)).max() > ADDED_OBSERVABLE_TOL:
        raise ValueError("B2 does not square to the identity")
    return {"base": base, "B2": b2}


# -- comparison ----------------------------------------------------------------


def _exact(v):
    """A value reduced to bytes and bit patterns, so == means bit for bit."""
    if hasattr(v, "__dataclass_fields__"):
        return type(v).__name__, tuple((k, _exact(getattr(v, k))) for k in v.__dataclass_fields__)
    if isinstance(v, np.ndarray):
        return v.dtype.str, v.shape, v.tobytes()
    if isinstance(v, dict):
        return tuple((k, _exact(x)) for k, x in v.items())
    if isinstance(v, (list, tuple)):
        return tuple(_exact(x) for x in v)
    if isinstance(v, (float, np.floating)):
        return type(v).__name__, float(v).hex()
    return v


def _outcome(fn, *args):
    try:
        return "ok", _exact(fn(*args))
    except (ValueError, ArithmeticError) as exc:
        return "error", type(exc), str(exc)


def _same(tally, label, new, ref, *args):
    got, want = _outcome(new, *args), _outcome(ref, *args)
    assert got == want, (label, args, got, want)
    tally.add((label, got[0] if got[0] == "ok" else got[1].__name__))
    return got[0] == "ok"


def _matched_geometry(g, g2, tol, b_angles):
    """``_match_geometries`` rebuilt into the geometry the frozen copy
    returns: the matching angle row at the chi of g2."""
    row = _match_geometries(g, g2, tol, b_angles)
    if row is None:
        return None
    return projection_angles(TwoQubitRealization(thetaA=row[:2], thetaB=row[2:], chi=g2.chi))


def test_kernels_match_frozen_reference():
    rng = np.random.default_rng(19)
    tally = set()
    for label, r, b in draws(rng):
        for tol in (DEFAULT_TOL, root_tol(DEFAULT_TOL)):
            _same(tally, label, two_qubit_condition, _ref_two_qubit_condition, b, tol)
        values = {float(rng.uniform())}
        try:
            values |= {min(max(p.commonValue, 0.0), 1.0) for p in two_qubit_condition(b, 1e-5)}
        except InvalidBehaviorError:
            pass
        for v in values:
            _same(tally, label, saturation_gaps, _ref_saturation_gaps, b, v)
        geometries = [] if r is None else [projection_angles(r)]
        try:
            geometries.append(reconstruct(b, root_tol(DEFAULT_TOL)))
        except (ReconstructionError, InvalidBehaviorError):
            pass
        for g in geometries:
            _same(tally, label, construct_pair, _ref_construct_pair, g)
            # a symmetry image with its angles moved by about 1e-6: a match at
            # 1e-5, mostly none at 1e-7
            shift, sign = [(0.0, 1.0), (0.0, -1.0), (math.pi, -1.0), (math.pi, 1.0)][
                int(rng.integers(4))
            ]
            moved = GeometryParams(
                thetaA=shift + sign * g.thetaA + rng.normal(0.0, 1e-6, 2),
                thetaB=shift + sign * g.thetaB + rng.normal(0.0, 1e-6, 2),
                chi=g.chi,
            )
            for tol, b_angles in ((1e-5, 1), (1e-7, 2)):
                _same(tally, label, _matched_geometry, _ref_match_geometries, g, moved, tol,
                      b_angles)
    # every class of draw reaches the outcomes it is drawn for
    assert {
        ("conforming", "ok"), ("random", "ok"), ("random", "DegenerateGeometryError"),
        ("maxEntangled", "ok"), ("maxEntangled", "DegenerateGeometryError"),
        ("degenerateSin", "ok"), ("degenerateSin", "DegenerateGeometryError"),
        ("anyCorrelators", "ok"), ("anyCorrelators", "InvalidBehaviorError"),
    } <= tally, tally


def test_negative_discriminant_errors_match_at_each_tolerance():
    # the discriminant test is the only part of the branch table that reads
    # tol; behaviors pushed out of the valid set by up to 1e-4 meet it on
    # both sides of each tolerance
    tally = set()
    for _, b in pushed_draws(np.random.default_rng(20)):
        for tol in PUSH_SIZES:
            _same(tally, "pushed", two_qubit_condition, _ref_two_qubit_condition, b, tol)
    assert ("pushed", "InvalidBehaviorError") in tally and ("pushed", "ok") in tally


def test_gap_kernel_matches_frozen_reference():
    # the stacked gap kernel shares the rewritten boundary-gap core; stacked
    # points with biases at and beyond the correlators, zero biases, and a
    # closed-form complement
    rng = np.random.default_rng(21)
    c = rng.uniform(-1.0, 1.0, (400, 2, 2))
    deltaB = rng.uniform(0.0, 1.0, (400, 2)) * rng.choice([0.0, 1.0], (400, 2), p=[0.05, 0.95])
    deltaA = np.maximum(c.max(axis=-2) ** 2, rng.uniform(0.0, 1.0, (400, 2)))
    c[:10] = 0.0
    comp = (rng.uniform(0.0, 1.0, (400, 2, 2)), rng.uniform(0.0, 1.0, (400, 2, 2)))
    for tol in (0.0, DEFAULT_TOL, 1e-4):
        for extra in (None, comp):
            got = crypt_gaps_batch(deltaB, deltaA, c, tol, extra)
            want = _ref_crypt_gaps_batch(deltaB, deltaA, c, tol, extra)
            assert list(got) == list(want)
            for key in got:
                assert got[key].tobytes() == want[key].tobytes(), key


def _count_calls(monkeypatch, owner, name):
    calls = []
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_simulation_and_protocols_do_the_work_once(monkeypatch):
    rng = np.random.default_rng(23)
    r = next(general_draws(rng))
    base = promote(random_conforming(rng))
    eigh = _count_calls(monkeypatch, np.linalg, "eigh")
    simulate_cbehavior(r)
    assert len(eigh) == 0
    simulate_dbehavior(r)
    assert len(eigh) == 2
    built = _count_calls(monkeypatch, GeneralRealization, "__post_init__")
    added = [xz_observable(t) for t in rng.uniform(0.0, 2.0 * math.pi, 3)]
    ext = ExtendedRealization(base=base, B2=SIGMA3)
    assert protocol_zb(ext)["selfTested"]
    reports = list(protocol_chain(base, added))
    # the chain reached the extended reconstructions
    assert all("base behavior" not in report.get("error", "") for report in reports)
    assert built == []


def test_selftest_operators_match_frozen_reference():
    # one (Z, X) kernel per side and the swap circuit over the two outcome
    # operators of each side: the same operators and fidelity, bit for bit,
    # at the default and at a given state and target
    rng = np.random.default_rng(2301)
    tally = set()
    for label, r, g in selftest_draws(rng):
        if not _same(tally, label, derive_operators, _ref_derive_operators, r, g):
            continue
        ops = derive_operators(r, g)
        shape = (r.dimA, r.dimB)
        state = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        target = rng.normal(size=4) + 1j * rng.normal(size=4)
        zero = np.zeros(shape, dtype=complex)
        for args in ((None, None), (state, None), (None, target), (state, target), (zero, None)):
            _same(tally, label + " swap", swap_isometry, _ref_swap_isometry, r, ops, g.chi, *args)
    assert {
        (label + swap, outcome)
        for label in ("twoQubit", "embedded")
        for swap, outcome in (("", "ok"), ("", "ValueError"), (" swap", "ok"), (" swap", "ValueError"))
    } <= tally, tally


# -- the JSON emitter and the record checks --------------------------------------


class _Name(str):
    pass


class _Count(int):
    pass


_Point = collections.namedtuple("_Point", "x y")


def _leaf(rng):
    k = int(rng.integers(22))
    x = math.ldexp(float(rng.uniform(-1.0, 1.0)), int(rng.integers(-1074, 1025)))
    return [
        x,
        float(rng.normal()),
        -0.0,
        int(rng.integers(-(2**62), 2**62)) * 2**int(rng.integers(0, 40)),
        bool(rng.integers(2)),
        None,
        "".join(chr(int(c)) for c in rng.integers(0, 0x11000, size=int(rng.integers(0, 6)))),
        'quote " backslash \\ tab \t θ é \u2028 \x00 \U0001f600',
        np.float64(x),
        np.float32(rng.normal()),
        np.int64(rng.integers(-100, 100)),
        np.int32(7),
        np.array(float(rng.normal())),
        rng.normal(size=(2, 3)),
        rng.integers(-5, 5, size=3),
        rng.normal(size=(0,)),
        np.zeros((2, 0)),
        rng.normal(size=2) > 0.0,
        _Name("subclassed"),
        _Count(int(rng.integers(100))),
        _Point(1.5, [2.5]),
        collections.OrderedDict(b=1.0, a=[]),
    ][k]


#: Values neither emitter can write.
_FAULTS = [math.nan, -math.inf, np.float64(math.inf), np.array([1.0, math.nan]),
           1 + 2j, np.array([1j]), {1, 2}, b"bytes", object(), np.bool_(True)]


def _value(rng, depth=0):
    """A seeded nested value, now and then holding one of ``_FAULTS``."""
    k = int(rng.integers(10))
    if depth > 3 or k < 4:
        return _leaf(rng)
    n = int(rng.integers(0, 4))
    if k < 6:
        return [_value(rng, depth + 1) for _ in range(n)]
    if k < 7:
        return tuple(_value(rng, depth + 1) for _ in range(n))
    keys = ["cA", "θ", "", 'q"', 3, 2.5, True, None, np.float64(0.5), np.int64(3), _Name("k")]
    if k < 9:
        return {keys[int(rng.integers(len(keys)))]: _value(rng, depth + 1) for _ in range(n)}
    if rng.uniform() < 0.1:
        return [_value(rng, depth + 1), _FAULTS[int(rng.integers(len(_FAULTS)))]]
    return {}


def _written(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:
        return "error", type(exc), str(exc)


def _same_text(obj):
    for indent in (2, None, 0):
        got = _written(jsonio.dumps, obj, indent)
        want = _written(_ref_emit, obj, indent, 0)
        assert got == want, (obj, indent, got, want)
    return got[0]


def test_dumps_matches_frozen_emitter_on_seeded_values():
    rng = np.random.default_rng(2202)
    outcomes = collections.Counter()
    for _ in range(3000):
        outcomes[_same_text(_value(rng))] += 1
    for fault in _FAULTS:
        assert _same_text({"x": [fault]}) == "error"
    assert outcomes["ok"] > 1000 and outcomes["error"] > 50, outcomes


def _fields(record):
    return {name: getattr(record, name) for name in record.__dataclass_fields__}


def _holds_nan(v):
    """True iff ``v`` is, or holds at any depth, a NaN number."""
    if isinstance(v, (list, tuple)):
        return any(_holds_nan(x) for x in v)
    try:
        return bool(np.isnan(np.asarray(v, dtype=complex)).any())
    except (TypeError, ValueError):
        return False


def _same_record(tally, cls, ref, **values):
    got = _written(lambda: _exact(_fields(cls(**values))))
    want = _written(lambda: _exact(ref(**values)))
    if _holds_nan(list(values.values())):
        # a NaN fails the check it sits in, where the frozen checks let some
        # through; a field that is no array of numbers fails first in both
        assert got[0] == "error" and (got[1] is ValueError or got == want), (
            cls.__name__, values, got, want)
    else:
        assert got == want, (cls.__name__, values, got, want)
    tally[cls.__name__, "ok" if got[0] == "ok" else re.split(r",? got |magnitude ", got[2])[0]] += 1


def _derived_input(tally, g, name, value):
    """``GeometryParams.from_dict`` of g's fields with the derived field
    ``name`` set to ``value``: g itself where value is g's own, else a
    ``ValueError`` naming the field."""
    got = _written(lambda: _exact(GeometryParams.from_dict(dict(_fields(g), **{name: value}))))
    if _exact(value) == _exact(getattr(g, name)):
        assert got == ("ok", _exact(g)), (name, value, got)
    else:
        assert got[0] == "error" and got[1] is ValueError and name in got[2], (name, value, got)
    tally["GeometryParams", "ok" if got[0] == "ok" else re.split(r",? got | by ", got[2])[0]] += 1


def _bad_vector(rng, v, hi=1.0):
    """``v`` unchanged, or with a wrong shape, a NaN, an infinity, an entry
    beyond [-hi, hi] or a value that is not an array of numbers."""
    v = np.array(v, dtype=float)
    k = int(rng.integers(14))
    if k == 0:
        return np.append(v, 0.5)
    if k in (1, 2):
        v.flat[int(rng.integers(v.size))] = [math.nan, math.inf][k - 1]
        return v
    if k == 3:
        v.flat[int(rng.integers(v.size))] = -hi - 1e-6
        return v
    if k == 4:
        v.flat[int(rng.integers(v.size))] = hi + 1e-6
        return v
    if k == 5:
        return [["x"], "abc", None][int(rng.integers(3))]
    return v


#: What ``_faulty`` can do to an observable.
_OBSERVABLE_FAULTS = ("none", "shape", "hermitian", "square", "nan", "row")


def _faulty(m, fault, size):
    """Observable ``m`` made misshapen, non-Hermitian or not squaring to the
    identity by ``size``, given a NaN or cut to its first row."""
    m = np.array(m, dtype=complex)
    dim = m.shape[0]
    if fault == "shape":
        return np.eye(dim + 1, dtype=complex)
    if fault == "hermitian":
        m[0, dim - 1] += size
    elif fault == "square":
        m = m * (1.0 + size)
    elif fault == "nan":
        m[dim - 1, 0] = math.nan
    elif fault == "row":
        m = m[:1]
    return m


def _bad_observables(rng, ops):
    """The pair ``ops`` with each observable left alone or given a fault,
    and now and then a third observable or only one."""
    out = tuple(
        _faulty(m, _OBSERVABLE_FAULTS[max(int(rng.integers(-6, 6)), 0)],
                float(rng.choice([1e-6, 5e-10, 2e-12])))
        for m in ops
    )
    k = int(rng.integers(20))
    if k == 0:
        return out + (out[0],)
    if k == 1:
        return out[:1]
    return out


def test_record_checks_match_frozen_reference():
    rng = np.random.default_rng(2203)
    tally = collections.Counter()
    for _ in range(400):
        r = random_two_qubit(rng)
        b, d = simulate_cbehavior(r), simulate_dbehavior(r)
        _same_record(tally, CBehavior, _ref_cbehavior,
                     cA=_bad_vector(rng, b.cA), cB=_bad_vector(rng, b.cB), c=_bad_vector(rng, b.c))
        deltas = [_bad_vector(rng, d.deltaB), _bad_vector(rng, d.deltaA)]
        for v in deltas:
            if isinstance(v, np.ndarray) and rng.uniform() < 0.3:
                v[int(rng.integers(v.size))] = float(rng.choice([-1e-6, math.nan]))
        _same_record(tally, DBehavior, _ref_dbehavior,
                     deltaB=deltas[0], deltaA=deltas[1], c=_bad_vector(rng, d.c))
        g = projection_angles(r)
        values = {name: _bad_vector(rng, getattr(g, name), hi=10.0)
                  for name in ("thetaA", "thetaB", "phiB", "phiA")}
        for name in ("chi", "psiPrimeNorm"):
            values[name] = [getattr(g, name), math.nan, -math.inf, "x", None, [1.0]][
                int(rng.choice(6, p=[0.5, 0.1, 0.1, 0.1, 0.1, 0.1]))
            ]
        _same_record(tally, GeometryParams, _ref_geometry_params,
                     **{name: values[name] for name in ("thetaA", "thetaB", "chi")})
        for name in ("phiB", "phiA", "psiPrimeNorm"):
            _derived_input(tally, g, name, values[name])
        dims = [int(x) for x in rng.integers(2, 5, size=2)]
        base, z = embedded_pair(rng, *dims, r)
        psi = base.psi * [1.0, 1.0 + 1e-6, 1.0 + 1e-10][int(rng.choice(3, p=[0.8, 0.1, 0.1]))]
        if rng.uniform() < 0.1:
            psi = psi[:-1]
        _same_record(tally, GeneralRealization, _ref_general_realization,
                     dimA=base.dimA, dimB=base.dimB, psi=psi,
                     A=_bad_observables(rng, base.A), B=_bad_observables(rng, base.B))
        b2 = _bad_observables(rng, (z,))[0]
        if rng.uniform() < 0.2:
            b2 = b2 + 1e-11j * (np.triu(np.ones(b2.shape), 1))
        _same_record(tally, ExtendedRealization, _ref_extended_realization, base=base, B2=b2)
    # each pair of faults on each side, in both orders
    for dims in ((2, 2), (3, 4)):
        base, z = embedded_pair(rng, *dims, random_two_qubit(rng))
        for side, faults in itertools.product("AB", itertools.product(_OBSERVABLE_FAULTS, repeat=2)):
            ops = {"A": base.A, "B": base.B}
            ops[side] = tuple(_faulty(m, f, 1e-6) for m, f in zip(ops[side], faults))
            _same_record(tally, GeneralRealization, _ref_general_realization,
                         dimA=base.dimA, dimB=base.dimB, psi=base.psi, **ops)
        for fault in _OBSERVABLE_FAULTS:
            _same_record(tally, ExtendedRealization, _ref_extended_realization,
                         base=base, B2=_faulty(z, fault, 1e-6))
    # every record was built, and every check of every field was reached
    reached = [
        *(("GeneralRealization", f"{o} {check}") for o in ("A[0]", "A[1]", "B[0]", "B[1]")
          for check in ("is not Hermitian", "does not square to the identity", "must be 3x3")),
        *(("GeometryParams", f"{name} must be finite")
          for name in ("thetaA", "thetaB", "phiB", "phiA", "chi", "psiPrimeNorm")),
        *(("GeometryParams", f"{name} disagrees with thetaA, thetaB and chi")
          for name in ("phiB", "phiA")),
        *(("DBehavior", f"{name} entries must lie in [0, 1]") for name in ("deltaB", "deltaA")),
        ("GeneralRealization", "need exactly two observables per side"),
        ("GeneralRealization", "psi must be normalized"),
        ("CBehavior", "correlator "),
        ("DBehavior", "correlator "),
        *(("ExtendedRealization", f"B2 {check}")
          for check in ("is not Hermitian", "does not square to the identity", "must be 3x3")),
        *((cls.__name__, "ok") for cls in (CBehavior, DBehavior, GeometryParams,
                                           GeneralRealization, ExtendedRealization)),
    ]
    assert [key for key in reached if not tally[key]] == []


def test_stacked_observable_residuals_match_per_matrix():
    rng = np.random.default_rng(2204)
    for k, r in enumerate(general_draws(rng)):
        for ops in (r.A, r.B):
            ops = np.array(ops) + 1e-9 * rng.normal(size=(2,) + ops[0].shape) * (k % 2)
            herm, square = _observable_residuals(ops)
            dim = ops.shape[-1]
            for i, m in enumerate(ops):
                assert herm[i] == np.abs(m - m.conj().T).max()
                assert square[i] == np.abs(m @ m - np.eye(dim)).max()
