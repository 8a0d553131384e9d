"""Realizations and seeded draws shared by the test modules and the CLI
output corpus in ``golden/``."""

import math

import numpy as np

from bellgeo.behavior import CBehavior
from bellgeo.geometry import projection_angles, sign_condition_ok
from bellgeo.qbell import DegenerateGeometryError, construct_pair
from bellgeo.realization import (
    SIGMA3,
    GeneralRealization,
    TwoQubitRealization,
    embed,
    haar_unitary,
    promote,
    random_two_qubit,
    simulate_cbehavior,
)


def reference_realization(eps=1e-9):
    """The paper's reference point P, with Bob's first angle at eps."""
    return TwoQubitRealization(
        thetaA=[0.0, math.pi / 2], thetaB=[eps, -math.pi / 4], chi=math.pi / 12
    )


def tsirelson_realization():
    return TwoQubitRealization(
        thetaA=[math.pi / 4, -math.pi / 4], thetaB=[0.0, math.pi / 2], chi=math.pi / 4
    )


def random_conforming(rng, chi_margin=0.05, pair=True):
    """A random partially entangled realization, chi in [chi_margin,
    pi/4 - chi_margin], whose planar picture is orientable and, with
    ``pair``, whose geometry admits the hyperplane pair."""
    while True:
        r = random_two_qubit(rng)
        if not chi_margin <= r.chi <= math.pi / 4 - chi_margin:
            continue
        g = projection_angles(r)
        if not sign_condition_ok(g):
            continue
        if pair:
            try:
                construct_pair(g)
            except DegenerateGeometryError:
                continue
        return r


#: how far the pushed draws leave the valid set, and the tolerances they meet
PUSH_SIZES = (1e-9, 1e-7, 1e-5, 1e-4)


def draws(rng, n=2000):
    """(label, realization or None, behavior): n seeded draws, the five
    families in turn."""
    for k in range(n):
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


def pushed_draws(rng, n=300):
    """(push, behavior): conforming behaviors pushed out of the valid set by
    up to 1e-4, so that the discriminant test meets them on both sides of
    each tolerance in ``PUSH_SIZES``."""
    for _ in range(n):
        b0 = simulate_cbehavior(random_conforming(rng))
        s = float(rng.choice(PUSH_SIZES))
        # one side's marginals scaled up, so either side's range test can bind
        grow = np.array([1.0 + s, 1.0]) if rng.integers(2) else np.array([1.0, 1.0 + s])
        yield s, CBehavior(
            cA=np.clip(b0.cA * grow[0], -1.0, 1.0), cB=np.clip(b0.cB * grow[1], -1.0, 1.0),
            c=np.clip(b0.c * (1.0 + s) + s * rng.normal(size=(2, 2)), -1.0, 1.0),
        )


def general_draws(rng, n=600):
    """Two-qubit realizations at chi in {0, 1e-12, 1e-6, 1e-5} and at random
    chi, padded with +/-I to dimensions 2-4 and Haar-rotated on both sides."""
    for k in range(n):
        chi = [0.0, 1e-12, 1e-6, 1e-5, float(rng.uniform(0.0, math.pi / 4))][k % 5]
        tA, tB = rng.uniform(0.0, 2.0 * math.pi, size=(2, 2))
        dimA, dimB = (int(d) for d in rng.integers(2, 5, size=2))
        r = promote(TwoQubitRealization(thetaA=tA, thetaB=tB, chi=chi))
        yield embed(r, unitaryA=haar_unitary(rng, dimA), unitaryB=haar_unitary(rng, dimB),
                    padA=dimA - 2, padB=dimB - 2, pad_sign=float(rng.choice([1.0, -1.0])))


def embedded_pair(rng, dimA, dimB, r):
    """``r`` and the Pauli Z on Bob's side, padded to the given dimensions and
    Haar-rotated alike."""
    kwargs = dict(unitaryA=haar_unitary(rng, dimA), unitaryB=haar_unitary(rng, dimB),
                  padA=dimA - 2, padB=dimB - 2, pad_sign=float(rng.choice([1.0, -1.0])))
    base = promote(r)
    z = GeneralRealization(dimA=2, dimB=2, psi=base.psi, A=base.A, B=(SIGMA3, SIGMA3))
    return embed(base, **kwargs), embed(z, **kwargs).B[0]


def selftest_draws(rng, n=600):
    """(label, realization, geometry): n seeded draws, promoted two-qubit
    or padded and Haar-rotated to dimensions 2-4, with the realization's own
    angles, unrelated angles, or one side's two angles nearly coincident."""
    for k in range(n):
        r = [random_conforming, random_two_qubit][k % 2](rng)
        g = projection_angles(r)
        if k % 3 == 1:
            g = projection_angles(random_two_qubit(rng))
        elif k % 3 == 2:
            theta = np.array([g.thetaA, g.thetaB])
            side = int(rng.integers(2))
            theta[side, 1] = theta[side, 0] + float(rng.choice([0.0, 1e-13, -5e-13, 2e-12, -1e-10, 1e-7]))
            g = projection_angles(TwoQubitRealization(thetaA=theta[0], thetaB=theta[1], chi=g.chi))
        if k % 4 < 2:
            yield "twoQubit", promote(r), g
        else:
            dims = [int(d) for d in rng.integers(2, 5, size=2)]
            yield "embedded", embedded_pair(rng, *dims, r)[0], g
