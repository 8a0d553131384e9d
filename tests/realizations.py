"""Realizations and seeded draws shared by the test modules."""

import math

from bellgeo.geometry import projection_angles, sign_condition_ok
from bellgeo.qbell import DegenerateGeometryError, construct_pair
from bellgeo.realization import TwoQubitRealization, random_two_qubit


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
