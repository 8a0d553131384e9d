"""The loop-free kernels against frozen copies of the per-call code.

The branch table, the saturation gaps, the reconstruction, the symmetry
match, the hyperplane pair and the uniqueness check were each rebuilt from
fewer, batched numpy calls, sharing one branch table per ``check``.  The
copies below are the implementations they replaced, kept verbatim apart
from names.  On seeded draws that reach every branch, every result must be
bit for bit the same, and every error the same type with the same message.

The simulation of general realizations was rebuilt on one reduced state
and one eigendecomposition per side.  Its correlators must equal the
frozen ones bit for bit and its guessing biases must agree to 1e-14.
"""

import math

import numpy as np

from bellgeo.behavior import SIGN_PATTERNS, CBehavior, InvalidBehaviorError, is_local, is_valid
from bellgeo.criteria import (
    ExtremalVerdict,
    SignPattern,
    crypt_gaps_batch,
    d_quantities,
    extremal_criterion,
    saturation_gaps,
    two_qubit_condition,
)
from bellgeo.geometry import (
    GeometryParams,
    ReconstructionError,
    _match_geometries,
    _reconstruct_max_entangled,
    d_values,
    projection_angles,
    reconstruct,
    symmetry_transforms,
)
from bellgeo.qbell import (
    DegenerateGeometryError,
    QBellCoefficients,
    QuantumBellInequality,
    UniquenessReport,
    construct_pair,
    uniqueness_check,
)
from bellgeo.jsonio import freeze
from bellgeo.realization import (
    SIGMA3,
    GeneralRealization,
    TwoQubitRealization,
    embed,
    guessing_bias,
    haar_unitary,
    promote,
    random_two_qubit,
    simulate_cbehavior,
    simulate_dbehavior,
    two_qubit_correlators,
    xz_observable,
)
from bellgeo.selftest import ExtendedRealization, protocol_chain, protocol_zb
from bellgeo.tolerances import (
    DEFAULT_TOL,
    DEGENERATE_SIN,
    MAX_ENTANGLED_SLACK,
    MODEL_FIT_FACTOR,
    ORIENTATION_SLACK,
    RANK_TOL,
    RATIO_DENOMINATOR_MIN,
    ROOT_RESIDUAL,
    ROOT_SEPARATION,
    ROUNDING_ZERO,
    SUPPORT_CUTOFF,
    root_tol,
)
from realizations import random_conforming

# -- frozen copies: criteria ---------------------------------------------------

_PATTERNS = SIGN_PATTERNS.reshape(16, 2, 2)


def _ref_s_branches(b, tol):
    J = b.c**2 - b.cA[:, None] ** 2 - b.cB[None, :] ** 2 + 1.0
    K = b.c - b.cA[:, None] * b.cB[None, :]
    disc = J**2 - 4.0 * K**2
    if disc.min() < -tol:
        bad = np.unravel_index(disc.argmin(), disc.shape)
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
    dB, dA = d_quantities(b, sin2chiSq)
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


def _ref_extremal_criterion(b, tol=DEFAULT_TOL):
    if not is_valid(b, tol):
        raise InvalidBehaviorError("extremal criterion requires a valid behavior")
    if is_local(b, tol):
        raise InvalidBehaviorError("extremal criterion addresses nonlocal behaviors only")
    spread, common, h = (float(v[0]) for v in _ref_branch_table(b, tol))
    cond_splus = spread <= tol and h >= -tol
    residuals = {"sPlusSpread": spread, "hProduct": h}
    tlm_b = tlm_a = False
    uniq_trivial = False
    if cond_splus:
        gb, ga = _ref_saturation_gaps(b, min(common, 1.0))
        residuals["tlmGapB"] = gb
        residuals["tlmGapA"] = ga
        tlm_b = abs(gb) <= root_tol(tol)
        tlm_a = abs(ga) <= root_tol(tol)
        if tlm_b and tlm_a:
            try:
                g = _ref_reconstruct(b, tol=root_tol(tol))
                uniq = _ref_uniqueness_check(g)
                uniq_trivial = uniq.trivialOnly
                residuals["uniquenessSolutions"] = len(uniq.solutions)
            except (ReconstructionError, DegenerateGeometryError) as exc:
                residuals["uniquenessError"] = str(exc)
    return ExtremalVerdict(
        conditionSPlus=bool(cond_splus),
        tlmBSaturated=bool(tlm_b),
        tlmASaturated=bool(tlm_a),
        uniquenessTrivial=bool(uniq_trivial),
        conjecture1Candidate=bool(cond_splus and tlm_b and tlm_a),
        sin2chiSquared=common if cond_splus else None,
        residuals=residuals,
    )


# -- frozen copies: geometry ---------------------------------------------------


def _ref_projection_angles(r):
    s2 = math.sin(2.0 * r.chi)
    phiB = np.arctan2(np.sin(r.thetaA) * s2, np.cos(r.thetaA))
    phiA = np.arctan2(np.sin(r.thetaB) * s2, np.cos(r.thetaB))
    return GeometryParams(
        thetaA=r.thetaA, thetaB=r.thetaB, phiB=phiB, phiA=phiA, chi=r.chi,
        psiPrimeNorm=math.cos(2.0 * r.chi),
    )


def _ref_canonicalize(r):
    sA = math.sin(r.thetaA[0])
    sB = math.sin(r.thetaB[0])
    if sA < -ROUNDING_ZERO or (abs(sA) <= ROUNDING_ZERO and sB < -ROUNDING_ZERO):
        r = TwoQubitRealization(thetaA=-r.thetaA, thetaB=-r.thetaB, chi=r.chi)
    return _ref_projection_angles(r)


def _ref_reconstruct(b, tol=DEFAULT_TOL):
    patterns = _ref_two_qubit_condition(b, max(tol, DEFAULT_TOL))
    if not patterns:
        raise ReconstructionError("no consistent branch assignment; behavior is not two-qubit")
    last_error = "no branch value yields a consistent geometry"
    for pat in patterns:
        common = min(max(pat.commonValue, 0.0), 1.0)
        dB, dA = d_quantities(b, common)
        if dB.max() > 1.0 + MODEL_FIT_FACTOR * tol or dA.max() > 1.0 + MODEL_FIT_FACTOR * tol:
            last_error = f"bias coordinate exceeds 1 for branch value {common}"
            continue
        gapB, gapA = _ref_saturation_gaps(b, common)
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
            return _ref_canonicalize(r)
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
        thetaA = SIGN_PATTERNS[:, [0, 2]] * baseA
        thetaB = SIGN_PATTERNS[:, [1, 3]] * baseB
        misfit = np.abs(two_qubit_correlators(thetaA, thetaB, sin2chi) - b.c).max(axis=(1, 2))
        best = int(misfit.argmin())
        if misfit[best] <= MODEL_FIT_FACTOR * tol:
            return _ref_canonicalize(
                TwoQubitRealization(thetaA=thetaA[best], thetaB=thetaB[best], chi=chi)
            )
        last_error = f"no sign assignment reproduces the correlators for branch value {common}"
    raise ReconstructionError(last_error)


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
    with np.errstate(divide="ignore"):
        alpha = u[0, 1] / u[0, 0] if u[0, 0] != 0.0 else math.inf
        beta = u[1, 0] / u[1, 1] if u[1, 1] != 0.0 else math.inf
    coeff = QBellCoefficients(
        u=freeze(u), s=freeze(s), a=a, b=b, alpha=alpha, beta=beta, dthetaRef=dtheta
    )
    return ineq, coeff


def _ref_construct_pair(g):
    dB, dA = d_values(g)
    deltaB = np.asarray(g.phiB)[:, None] - np.asarray(g.thetaB)[None, :]
    deltaA = np.asarray(g.phiA)[:, None] - np.asarray(g.thetaA)[None, :]
    ineqB, coeffB = _ref_construct_side("B", deltaB, np.sqrt(dB), float(g.thetaB[0] - g.thetaB[1]))
    ineqA, coeffA = _ref_construct_side("A", deltaA, np.sqrt(dA), float(g.thetaA[0] - g.thetaA[1]))
    return ineqB, ineqA, (coeffB, coeffA)


def _ref_ratio_coefficients(coeff):
    u = coeff.u
    p = np.array([u[0, 0], u[0, 1], u[1, 0], u[1, 1]])
    q = np.array([u[0, 1], u[0, 0], -u[1, 1], -u[1, 0]])
    ref = p + q * math.cos(coeff.dthetaRef)
    if np.abs(ref).min() < RATIO_DENOMINATOR_MIN:
        raise DegenerateGeometryError(
            "a uniqueness-equation denominator vanishes at the reference angle"
        )
    return p / ref, q / ref


def _ref_clip_line(x0, v):
    with np.errstate(divide="ignore", invalid="ignore"):
        ends = (np.array([[-1.0], [1.0]]) - x0) / v
    lo = np.nanmax(ends.min(axis=0))
    hi = np.nanmin(ends.max(axis=0))
    if not lo <= hi:
        return []
    return [x0 + lo * v, x0 + hi * v]


def _ref_same_root(a, b):
    return abs(a[0] - b[0]) <= ROOT_SEPARATION and abs(a[1] - b[1]) <= ROOT_SEPARATION


def _ref_uniqueness_check(g):
    _, _, (coeffB, coeffA) = _ref_construct_pair(g)
    pA, qA = _ref_ratio_coefficients(coeffA)
    pB, qB = _ref_ratio_coefficients(coeffB)
    ref = np.array([math.cos(coeffA.dthetaRef), math.cos(coeffB.dthetaRef)])
    m = np.stack([np.broadcast_to(qA, SIGN_PATTERNS.shape), -SIGN_PATTERNS * qB], axis=-1)
    rhs = SIGN_PATTERNS * pB - pA
    left, sv, vt = np.linalg.svd(m, full_matrices=False)
    proj = np.einsum("nki,nk->ni", left, rhs)
    full_rank = sv[:, 1] > RANK_TOL * sv[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        points = np.einsum("nij,ni->nj", vt, proj / sv)
    systems, candidates = [0], [ref]
    for n in range(len(SIGN_PATTERNS)):
        if full_rank[n]:
            ends = [np.clip(points[n], -1.0, 1.0)]
        else:
            ends = _ref_clip_line(vt[n, 0] * proj[n, 0] / sv[n, 0], vt[n, 1])
        systems += [n] * len(ends)
        candidates += ends
    ts = np.array(candidates)
    ms, rs = m[systems], rhs[systems]
    scale = np.linalg.norm(ms, axis=-1) * np.linalg.norm(ts, axis=-1)[:, None] + np.abs(rs)
    miss = np.abs(np.einsum("nki,ni->nk", ms, ts) - rs)
    residual = np.divide(miss, scale, out=miss, where=scale > 0.0).max(axis=-1)
    solutions = []
    for (ta, tb), res in zip(ts, residual):
        if res <= ROOT_RESIDUAL and not any(_ref_same_root((ta, tb), s) for s in solutions):
            solutions.append((float(ta), float(tb), float(res)))
    trivial_only = all(_ref_same_root(s, ref) for s in solutions)
    return UniquenessReport(trivialOnly=trivial_only, solutions=tuple(solutions))


# -- frozen copies: realization -----------------------------------------------


def _ref_simulate_cbehavior(r):
    m = r.state_matrix
    cA = [float(np.vdot(m, a @ m).real) for a in r.A]
    cB = [float(np.vdot(m, m @ b.T).real) for b in r.B]
    c = [[float(np.vdot(m, a @ m @ b.T).real) for b in r.B] for a in r.A]
    return CBehavior(cA=cA, cB=cB, c=c)


def _ref_conditional_states(r, side, setting):
    m = r.state_matrix
    if side == "B":
        obs = r.A[setting]
        eye = np.eye(r.dimA)
        amp_p = ((eye + obs) / 2.0) @ m
        amp_m = ((eye - obs) / 2.0) @ m
        rho_p = amp_p.T @ amp_p.conj()
        rho_m = amp_m.T @ amp_m.conj()
    else:
        obs = r.B[setting]
        eye = np.eye(r.dimB)
        amp_p = m @ (((eye + obs) / 2.0).T)
        amp_m = m @ (((eye - obs) / 2.0).T)
        rho_p = amp_p @ amp_p.conj().T
        rho_m = amp_m @ amp_m.conj().T
    rho = rho_p + rho_m
    evals, evecs = np.linalg.eigh(rho)
    overlaps = evecs.conj().T @ (rho_p - rho_m) @ evecs
    return evals, overlaps


def _ref_guessing_bias(r, side, setting, cutoff=SUPPORT_CUTOFF):
    m, overlaps = _ref_conditional_states(r, side, setting)
    denom = m[:, None] + m[None, :]
    terms = np.divide(
        2.0 * np.abs(overlaps) ** 2, denom, out=np.zeros_like(denom), where=denom > cutoff
    )
    return math.sqrt(max(float(np.sum(terms)), 0.0))


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


def _draws(rng):
    """(label, realization or None, behavior): 2000 seeded draws."""
    for k in range(2000):
        kind = k % 5
        if kind == 0:
            # conforming: a boundary behavior of a partially entangled realization
            r = random_conforming(rng)
            yield "conforming", r, simulate_cbehavior(r)
        elif kind == 1:
            r = random_two_qubit(rng)
            yield "random", r, simulate_cbehavior(r)
        elif kind == 2:
            # maximally entangled: the Tsirelson angles turned by a common
            # angle, whose uniqueness systems include rank-1 ones with a line
            # of roots; generic angles; angles at or near 0 and pi
            near = [0.0, math.pi, 1e-9, -1e-9, math.pi + 1e-9, math.pi - 1e-9]
            tA, tB = rng.uniform(0.0, 2.0 * math.pi, size=(2, 2))
            if k % 3 == 0:
                tA = np.array([math.pi / 4, -math.pi / 4]) + tB[0]
                tB = np.array([0.0, math.pi / 2]) + tB[0]
            elif k % 3 == 1:
                tA, tB = rng.choice(near + [tA[0]], size=(2, 2))
            chi = math.pi / 4 - float(rng.choice([0.0, 1e-13, 1e-9, 1e-6]))
            r = TwoQubitRealization(thetaA=tA, thetaB=tB, chi=chi)
            yield "maxEntangled", r, simulate_cbehavior(r)
        elif kind == 3:
            # one side's two angles nearly coincide: sin(theta_0 - theta_1) -> 0
            g = projection_angles(random_conforming(rng))
            theta = np.array([g.thetaA, g.thetaB])
            side = int(rng.integers(2))
            theta[side, 1] = theta[side, 0] + float(rng.choice([1e-13, -1e-12, 1e-10, 1e-7]))
            r = TwoQubitRealization(thetaA=theta[0], thetaB=theta[1], chi=g.chi)
            yield "degenerateSin", r, simulate_cbehavior(r)
        else:
            # any correlators: most have a negative discriminant somewhere
            x = rng.uniform(-1.0, 1.0, 8)
            yield "anyCorrelators", None, CBehavior(cA=x[:2], cB=x[2:4], c=x[4:].reshape(2, 2))


def test_kernels_match_frozen_reference():
    rng = np.random.default_rng(19)
    tally = set()
    for k, (label, r, b) in enumerate(_draws(rng)):
        for tol in (DEFAULT_TOL, root_tol(DEFAULT_TOL)):
            _same(tally, label, two_qubit_condition, _ref_two_qubit_condition, b, tol)
            _same(tally, label, reconstruct, _ref_reconstruct, b, tol)
        values = {float(rng.uniform())}
        try:
            values |= {min(max(p.commonValue, 0.0), 1.0) for p in two_qubit_condition(b, 1e-5)}
        except InvalidBehaviorError:
            pass
        for v in values:
            _same(tally, label, saturation_gaps, _ref_saturation_gaps, b, v)
        _same(tally, label, extremal_criterion, _ref_extremal_criterion, b, DEFAULT_TOL)
        geometries = [] if r is None else [projection_angles(r)]
        try:
            geometries.append(reconstruct(b, root_tol(DEFAULT_TOL)))
        except (ReconstructionError, InvalidBehaviorError):
            pass
        for g in geometries:
            _same(tally, label, uniqueness_check, _ref_uniqueness_check, g)
            _same(tally, label, construct_pair, _ref_construct_pair, g)
            # a symmetry image with its angles moved by about 1e-6: a match at
            # 1e-5, mostly none at 1e-7
            shift, sign = [(0.0, 1.0), (0.0, -1.0), (math.pi, -1.0), (math.pi, 1.0)][
                int(rng.integers(4))
            ]
            moved = GeometryParams(
                thetaA=shift + sign * g.thetaA + rng.normal(0.0, 1e-6, 2),
                thetaB=shift + sign * g.thetaB + rng.normal(0.0, 1e-6, 2),
                phiB=g.phiB, phiA=g.phiA, chi=g.chi, psiPrimeNorm=g.psiPrimeNorm,
            )
            for tol, b_angles in ((1e-5, 1), (1e-7, 2)):
                _same(tally, label, _match_geometries, _ref_match_geometries, g, moved, tol,
                      b_angles)
            if k % 4 == 0:
                _same(tally, label, symmetry_transforms, _ref_symmetry_transforms, moved)
    # every class of draw reaches the outcomes it is drawn for
    assert {
        ("conforming", "ok"),
        ("random", "ok"),
        ("random", "ReconstructionError"),
        ("maxEntangled", "ok"),
        ("maxEntangled", "ReconstructionError"),
        ("maxEntangled", "DegenerateGeometryError"),
        ("degenerateSin", "ReconstructionError"),
        ("degenerateSin", "DegenerateGeometryError"),
        ("anyCorrelators", "InvalidBehaviorError"),
        ("anyCorrelators", "ReconstructionError"),
    } <= tally, tally


def test_negative_discriminant_errors_match_at_each_tolerance():
    # the discriminant test is the only part of the branch table that reads
    # tol; behaviors pushed out of the valid set by up to 1e-4 meet it on
    # both sides of each tolerance
    rng = np.random.default_rng(20)
    tally = set()
    for _ in range(300):
        r = random_conforming(rng)
        b0 = simulate_cbehavior(r)
        s = float(rng.choice([1e-9, 1e-7, 1e-5, 1e-4]))
        # one side's marginals scaled up, so either side's range test can bind
        grow = np.array([1.0 + s, 1.0]) if rng.integers(2) else np.array([1.0, 1.0 + s])
        b = CBehavior(
            cA=np.clip(b0.cA * grow[0], -1.0, 1.0), cB=np.clip(b0.cB * grow[1], -1.0, 1.0),
            c=np.clip(b0.c * (1.0 + s) + s * rng.normal(size=(2, 2)), -1.0, 1.0),
        )
        for tol in (1e-9, 1e-7, 1e-5, 1e-4):
            _same(tally, "pushed", two_qubit_condition, _ref_two_qubit_condition, b, tol)
            _same(tally, "pushed", reconstruct, _ref_reconstruct, b, tol)
            _same(tally, "pushed", extremal_criterion, _ref_extremal_criterion, b, tol)
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


def _general_draws(rng):
    """Two-qubit realizations at chi in {0, 1e-12, 1e-6, 1e-5} and at random
    chi, padded with +/-I to dimensions 2-4 and Haar-rotated on both sides."""
    for k in range(600):
        chi = [0.0, 1e-12, 1e-6, 1e-5, float(rng.uniform(0.0, math.pi / 4))][k % 5]
        tA, tB = rng.uniform(0.0, 2.0 * math.pi, size=(2, 2))
        dimA, dimB = (int(d) for d in rng.integers(2, 5, size=2))
        yield embed(
            promote(TwoQubitRealization(thetaA=tA, thetaB=tB, chi=chi)),
            unitaryA=haar_unitary(rng, dimA),
            unitaryB=haar_unitary(rng, dimB),
            padA=dimA - 2,
            padB=dimB - 2,
            pad_sign=float(rng.choice([1.0, -1.0])),
        )


def test_simulation_matches_frozen_reference():
    worst = 0.0
    for r in _general_draws(np.random.default_rng(22)):
        ref = _ref_simulate_cbehavior(r)
        b, d = simulate_cbehavior(r), simulate_dbehavior(r)
        for got in (b.c, d.c):
            assert got.tobytes() == ref.c.tobytes()
        assert b.cA.tobytes() == ref.cA.tobytes() and b.cB.tobytes() == ref.cB.tobytes()
        for side, deltas in (("B", d.deltaB), ("A", d.deltaA)):
            for setting in range(2):
                want = _ref_guessing_bias(r, side, setting)
                worst = max(
                    worst,
                    abs(guessing_bias(r, side, setting) - want),
                    abs(deltas[setting] - want**2),
                )
    assert worst <= 1e-14, worst


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
    r = next(_general_draws(rng))
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
