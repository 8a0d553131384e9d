import math

import numpy as np
import pytest

from bellgeo.behavior import CBehavior
from bellgeo.geometry import (
    GeometryParams,
    ReconstructionError,
    d_values,
    projection_angles,
    reconstruct,
    sign_condition_ok,
    symmetry_equivalent,
    symmetry_transforms,
    two_qubit_of,
)
from bellgeo.realization import (
    TwoQubitRealization,
    guessing_bias,
    random_two_qubit,
    simulate_cbehavior,
    xz_observable,
)

RNG = np.random.default_rng(20240814)


def random_conforming(rng, chi_min=0.03, chi_max=math.pi / 4 - 0.03):
    """Rejection-sample a realization whose planar picture is orientable."""
    while True:
        r = random_two_qubit(rng)
        if not chi_min <= r.chi <= chi_max:
            continue
        if sign_condition_ok(projection_angles(r)):
            return r


def test_projection_angle_named_cases():
    chi = math.pi / 12  # sin(2 chi) = 0.5
    r = TwoQubitRealization(thetaA=[0.0, math.pi / 2], thetaB=[0.3, 0.9], chi=chi)
    g = projection_angles(r)
    assert g.phiB[0] == pytest.approx(0.0, abs=1e-15)
    assert g.phiB[1] == pytest.approx(math.pi / 2, abs=1e-15)
    dB, _ = d_values(g)
    assert math.sqrt(dB[1]) == pytest.approx(0.5, abs=1e-12)
    # maximal entanglement: the projection is the angle itself
    gm = projection_angles(TwoQubitRealization(thetaA=[0.4, -1.2], thetaB=[0.1, 2.0], chi=math.pi / 4))
    assert np.abs(gm.phiB - gm.thetaA).max() < 1e-12
    assert gm.psiPrimeNorm == pytest.approx(0.0, abs=1e-12)


def test_projected_vector_reproduces_correlators():
    """C_xy must equal |projection| * cos(angle difference), on both sides."""
    for _ in range(100):
        r = random_two_qubit(RNG)
        g = projection_angles(r)
        b = simulate_cbehavior(r)
        dB, dA = d_values(g)
        modelB = np.sqrt(dB)[:, None] * np.cos(g.phiB[:, None] - g.thetaB[None, :])
        modelA = np.sqrt(dA)[None, :] * np.cos(g.phiA[None, :] - g.thetaA[:, None])
        assert np.abs(modelB - b.c).max() < 1e-9
        assert np.abs(modelA - b.c).max() < 1e-9


def test_d_values_match_guessing_bias():
    for _ in range(50):
        r = random_two_qubit(RNG)
        dB, dA = d_values(projection_angles(r))
        for x in range(2):
            assert math.sqrt(dB[x]) == pytest.approx(guessing_bias(r, "B", x), abs=1e-12)
        for y in range(2):
            assert math.sqrt(dA[y]) == pytest.approx(guessing_bias(r, "A", y), abs=1e-12)


def test_observable_overlap_matches_angle_difference():
    """<B_0 B_1> on the plane is cos of the angle difference.

    Checked through an interleaved real-vector representation of the
    observables, independent of any complex-matrix identities.
    """
    for _ in range(20):
        t0, t1 = RNG.uniform(-math.pi, math.pi, 2)
        m0, m1 = xz_observable(t0), xz_observable(t1)
        prod = m0 @ m1
        as_real = np.array([prod[0, 0].real, prod[0, 1].real, prod[1, 0].real, prod[1, 1].real])
        overlap = 0.5 * (as_real[0] + as_real[3])
        assert overlap == pytest.approx(math.cos(t0 - t1), abs=1e-12)


def test_reconstruction_round_trip():
    rng = np.random.default_rng(271828)
    for _ in range(50):
        r = random_conforming(rng)
        g = reconstruct(simulate_cbehavior(r), tol=1e-7)
        assert symmetry_equivalent(g, projection_angles(r), tol=1e-7)


def test_reconstruction_reference_point():
    r = TwoQubitRealization(thetaA=[0.0, math.pi / 2], thetaB=[1e-9, -math.pi / 4], chi=math.pi / 12)
    g = reconstruct(simulate_cbehavior(r), tol=1e-7)
    assert g.chi == pytest.approx(math.pi / 12, abs=1e-7)
    assert np.asarray(g.thetaA) == pytest.approx([0.0, math.pi / 2], abs=1e-6)
    assert np.asarray(g.thetaB) == pytest.approx([0.0, -math.pi / 4], abs=1e-6)
    assert sign_condition_ok(g, 1e-6)


def test_reconstruction_canonical_representative():
    rng = np.random.default_rng(5)
    for _ in range(20):
        r = random_conforming(rng)
        g = reconstruct(simulate_cbehavior(r), tol=1e-7)
        assert math.sin(g.thetaA[0]) >= -1e-7


def test_reconstruction_max_entangled_branch():
    r = TwoQubitRealization(thetaA=[math.pi / 4, -math.pi / 4], thetaB=[0.0, math.pi / 2], chi=math.pi / 4)
    b = simulate_cbehavior(r)
    g = reconstruct(b, tol=1e-9)
    assert g.chi == pytest.approx(math.pi / 4, abs=1e-9)
    # gauge freedom is larger here: compare behaviors, not angles
    b2 = simulate_cbehavior(two_qubit_of(g))
    assert np.abs(b.flat() - b2.flat()).max() < 1e-7


def test_reconstruction_rejects_generic_behavior():
    b = CBehavior(cA=[0.3, -0.2], cB=[0.1, 0.4], c=[[0.5, 0.1], [-0.3, 0.2]])
    with pytest.raises(ReconstructionError):
        reconstruct(b, tol=1e-9)


def test_reconstruction_rejects_interior_point():
    # a planar realization mixed toward the uniform point leaves the boundary
    r = random_conforming(np.random.default_rng(17))
    b = simulate_cbehavior(r)
    shrunk = CBehavior(cA=0.9 * np.asarray(b.cA), cB=0.9 * np.asarray(b.cB), c=0.9 * np.asarray(b.c))
    with pytest.raises(ReconstructionError):
        reconstruct(shrunk, tol=1e-9)


def test_symmetry_transforms_preserve_behavior_and_biases():
    r = random_conforming(np.random.default_rng(23))
    g = projection_angles(r)
    b = simulate_cbehavior(r)
    dB, dA = d_values(g)
    assert len(symmetry_transforms(g)) == 4
    for img in symmetry_transforms(g):
        b2 = simulate_cbehavior(two_qubit_of(img))
        assert np.abs(b.c - b2.c).max() < 1e-12
        dB2, dA2 = d_values(img)
        assert np.abs(dB - dB2).max() < 1e-12
        assert np.abs(dA - dA2).max() < 1e-12


def test_symmetry_equivalent_cases():
    r = random_two_qubit(RNG)
    g = projection_angles(r)
    assert symmetry_equivalent(g, g)
    flipped = projection_angles(
        TwoQubitRealization(thetaA=-np.asarray(r.thetaA), thetaB=-np.asarray(r.thetaB), chi=r.chi)
    )
    assert symmetry_equivalent(g, flipped)
    shifted = projection_angles(
        TwoQubitRealization(
            thetaA=np.asarray(r.thetaA) + 0.1, thetaB=np.asarray(r.thetaB) + 0.1, chi=r.chi
        )
    )
    assert not symmetry_equivalent(g, shifted, tol=1e-6)
    if r.chi < math.pi / 4 - 0.05:
        other_chi = TwoQubitRealization(thetaA=r.thetaA, thetaB=r.thetaB, chi=r.chi + 0.03)
        assert not symmetry_equivalent(g, projection_angles(other_chi), tol=1e-6)


def test_sign_condition_examples():
    good = TwoQubitRealization(thetaA=[0.3, 1.9], thetaB=[0.7, -0.9], chi=0.3)
    assert sign_condition_ok(projection_angles(good))
    accept = sum(
        sign_condition_ok(projection_angles(random_two_qubit(RNG))) for _ in range(400)
    )
    assert 0 < accept < 400  # the condition genuinely partitions angle space


def test_geometry_json_round_trip():
    g = projection_angles(random_two_qubit(RNG))
    g2 = GeometryParams.from_json(g.to_json())
    assert np.array_equal(np.asarray(g2.thetaA), np.asarray(g.thetaA))
    assert np.array_equal(np.asarray(g2.phiB), np.asarray(g.phiB))
    assert g2.chi == g.chi and g2.psiPrimeNorm == g.psiPrimeNorm


@pytest.mark.parametrize(
    "field, value",
    [("thetaB", [0.3]), ("phiA", [[0.1, 0.2]]), ("phiB", [0.1, math.nan]),
     ("chi", math.inf), ("psiPrimeNorm", math.nan)],
)
def test_geometry_params_reject_bad_shapes_and_nonfinite(field, value):
    fields = dict(thetaA=[0.1, 1.0], thetaB=[0.3, 0.4], phiB=[0.1, 0.2], phiA=[0.2, 0.3],
                  chi=0.3, psiPrimeNorm=0.5)
    fields[field] = value
    with pytest.raises(ValueError, match=field):
        GeometryParams(**fields)
