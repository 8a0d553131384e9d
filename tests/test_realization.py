import math

import numpy as np
import pytest

from bellgeo.realization import (
    GeneralRealization,
    TwoQubitRealization,
    conditional_states,
    embed,
    guessing_bias,
    guessing_bias_oracle,
    haar_unitary,
    promote,
    random_general,
    random_two_qubit,
    random_two_qubit_params,
    simulate_cbehavior,
    simulate_dbehavior,
    two_qubit_behaviors,
    xz_observable,
)

RNG = np.random.default_rng(20240812)


def closed_form_correlators(r: TwoQubitRealization):
    """Direct trigonometric evaluation, independent of the matrix path."""
    tA, tB, chi = np.asarray(r.thetaA), np.asarray(r.thetaB), r.chi
    cA = math.cos(2 * chi) * np.cos(tA)
    cB = math.cos(2 * chi) * np.cos(tB)
    c = np.cos(tA)[:, None] * np.cos(tB)[None, :] + math.sin(2 * chi) * np.sin(tA)[:, None] * np.sin(tB)[None, :]
    return cA, cB, c


def test_two_qubit_correlator_identities():
    for _ in range(200):
        r = random_two_qubit(RNG)
        b = simulate_cbehavior(r)
        cA, cB, c = closed_form_correlators(r)
        assert np.abs(b.cA - cA).max() < 1e-12
        assert np.abs(b.cB - cB).max() < 1e-12
        assert np.abs(b.c - c).max() < 1e-12


def test_partially_entangled_reference_point():
    eps = 1e-9
    r = TwoQubitRealization(thetaA=[0.0, math.pi / 2], thetaB=[eps, -math.pi / 4], chi=math.pi / 12)
    b = simulate_cbehavior(r)
    assert b.cA == pytest.approx([0.8660254, 0.0], abs=1e-6)
    assert b.cB == pytest.approx([0.8660254, 0.6123724], abs=1e-6)
    assert np.asarray(b.c) == pytest.approx(
        np.array([[1.0, 0.7071068], [0.0, -0.3535534]]), abs=1e-6
    )


def test_tsirelson_point_correlators():
    r = TwoQubitRealization(thetaA=[math.pi / 4, -math.pi / 4], thetaB=[0.0, math.pi / 2], chi=math.pi / 4)
    b = simulate_cbehavior(r)
    root = 1.0 / math.sqrt(2.0)
    assert np.abs(np.asarray(b.cA)).max() < 1e-12
    assert np.abs(np.asarray(b.cB)).max() < 1e-12
    assert np.asarray(b.c) == pytest.approx(np.array([[root, root], [root, -root]]), abs=1e-12)


def test_chi_range_validation():
    with pytest.raises(ValueError):
        TwoQubitRealization(thetaA=[0, 1], thetaB=[0, 1], chi=1.0)
    with pytest.raises(ValueError):
        TwoQubitRealization(thetaA=[0, 1], thetaB=[0, 1], chi=-0.1)


def test_general_realization_validation():
    sigma1 = np.array([[0, 1], [1, 0]], dtype=complex)
    with pytest.raises(ValueError):
        GeneralRealization(dimA=2, dimB=2, psi=[1, 1, 0, 0], A=(sigma1, sigma1), B=(sigma1, sigma1))
    not_involution = np.array([[0, 2], [2, 0]], dtype=complex)
    with pytest.raises(ValueError):
        GeneralRealization(
            dimA=2, dimB=2, psi=[1, 0, 0, 0], A=(not_involution, sigma1), B=(sigma1, sigma1)
        )


def test_xz_observable_is_involution():
    for theta in RNG.uniform(-math.pi, math.pi, 20):
        m = xz_observable(theta)
        assert np.abs(m @ m - np.eye(2)).max() < 1e-15
        assert np.abs(m - m.conj().T).max() == 0.0


def test_bias_named_values():
    chi = 0.4
    # aligned measurement: outcome perfectly predictable from the remote side
    r = TwoQubitRealization(thetaA=[0.0, 1.1], thetaB=[0.3, 0.9], chi=chi)
    assert guessing_bias(r, "B", 0) == pytest.approx(1.0, abs=1e-12)
    # orthogonal measurement: bias collapses to the entanglement factor
    r2 = TwoQubitRealization(thetaA=[math.pi / 2, 1.1], thetaB=[0.3, 0.9], chi=chi)
    assert guessing_bias(r2, "B", 0) == pytest.approx(math.sin(2 * chi), abs=1e-12)
    # product state: bias equals the local mean
    r3 = TwoQubitRealization(thetaA=[0.7, 1.1], thetaB=[0.3, 0.9], chi=0.0)
    assert guessing_bias(r3, "B", 0) == pytest.approx(abs(math.cos(0.7)), abs=1e-12)


def test_bias_closed_form_for_planar_realizations():
    for _ in range(100):
        r = random_two_qubit(RNG)
        s2 = math.sin(2 * r.chi) ** 2
        cB0 = math.cos(2 * r.chi) * math.cos(r.thetaA[0])
        expected = math.sqrt(cB0 * cB0 + s2)
        assert guessing_bias(r, "B", 0) == pytest.approx(expected, abs=1e-12)


def test_bias_dominates_marginal():
    for _ in range(50):
        r = random_general(RNG, 2, 3)
        b = simulate_cbehavior(r)
        for x in range(2):
            assert guessing_bias(r, "B", x) >= abs(b.cA[x]) - 1e-12
        for y in range(2):
            assert guessing_bias(r, "A", y) >= abs(b.cB[y]) - 1e-12


def test_bias_oracle_agrees_with_closed_form():
    rng = np.random.default_rng(99)
    for _ in range(12):
        dimA = int(rng.integers(2, 4))
        dimB = int(rng.integers(2, 4))
        r = random_general(rng, dimA, dimB)
        side = "B" if rng.uniform() < 0.5 else "A"
        setting = int(rng.integers(0, 2))
        closed = guessing_bias(r, side, setting)
        direct = guessing_bias_oracle(r, side, setting)
        assert direct == pytest.approx(closed, abs=1e-9)


def test_conditional_states_are_physical():
    for _ in range(30):
        r = random_general(RNG, 3, 2)
        cs = conditional_states(r, "A", 1)
        for rho in (cs.rhoPlus, cs.rhoMinus):
            evals = np.linalg.eigvalsh(rho)
            assert evals.min() > -1e-12
        assert np.trace(cs.rhoSum).real == pytest.approx(1.0, abs=1e-12)
        assert np.abs(cs.rhoSum - cs.rhoSum.conj().T).max() < 1e-14


def test_embed_preserves_both_behaviors():
    rng = np.random.default_rng(41)
    for _ in range(10):
        r = promote(random_two_qubit(rng))
        e = embed(
            r,
            unitaryA=haar_unitary(rng, 3),
            unitaryB=haar_unitary(rng, 4),
            padA=1,
            padB=2,
            pad_sign=-1.0,
        )
        b0, b1 = simulate_cbehavior(r), simulate_cbehavior(e)
        assert np.abs(b0.flat() - b1.flat()).max() < 1e-12
        d0, d1 = simulate_dbehavior(r), simulate_dbehavior(e)
        assert np.abs(d0.flat() - d1.flat()).max() < 1e-10


def test_promoted_bias_matches_planar_value():
    for _ in range(30):
        r = random_two_qubit(RNG)
        g = promote(r)
        for x in range(2):
            assert guessing_bias(g, "B", x) == pytest.approx(guessing_bias(r, "B", x), abs=1e-12)


def test_haar_unitary_is_unitary():
    for n in (2, 3, 5):
        u = haar_unitary(RNG, n)
        assert np.abs(u @ u.conj().T - np.eye(n)).max() < 1e-12


def test_json_round_trips():
    r = random_two_qubit(RNG)
    again = TwoQubitRealization.from_json(r.to_json())
    assert np.array_equal(again.thetaA, r.thetaA)
    assert np.array_equal(again.thetaB, r.thetaB)
    assert again.chi == r.chi
    g = random_general(RNG, 2, 3)
    g2 = GeneralRealization.from_json(g.to_json())
    assert np.array_equal(g2.psi, g.psi)
    for m1, m2 in zip(g.A + g.B, g2.A + g2.B):
        assert np.array_equal(m1, m2)


def _kernel_cases():
    """2000 random draws, then the degenerate edges: chi at and near 0 and
    pi/4, angles at 0 and pi.  chi = 1e-6 and 1e-5 put sin^2(chi) at and
    just above SUPPORT_CUTOFF, where the matrix path keeps the cross terms
    of the small eigenvalue.  chi near 1e-7 is left out: there eigh's
    absolute precision on an eigenvalue of 1e-14 costs the matrix path up
    to about 1e-14 in the biases."""
    rng = np.random.default_rng(7)
    cases = [random_two_qubit(rng) for _ in range(2000)]
    for chi in (0.0, 1e-12, 1e-9, 1e-6, 1e-5, 1e-4, math.pi / 4 - 1e-7, math.pi / 4 - 1e-12,
                math.pi / 4):
        for _ in range(20):
            tA, tB = rng.choice([0.0, math.pi, rng.uniform(0.0, 2.0 * math.pi)], size=(2, 2))
            cases.append(TwoQubitRealization(thetaA=tA, thetaB=tB, chi=chi))
    return cases


def test_two_qubit_kernel_matches_matrix_path():
    cases = _kernel_cases()
    thetaA = np.array([r.thetaA for r in cases])
    thetaB = np.array([r.thetaB for r in cases])
    chi = np.array([r.chi for r in cases])
    k = two_qubit_behaviors(thetaA, thetaB, chi)
    assert k.c.shape == k.compA.shape == (len(cases), 2, 2) and k.deltaA.shape == (len(cases), 2)
    for i, r in enumerate(cases):
        b, d = simulate_cbehavior(r), simulate_dbehavior(r)
        assert np.abs(k.cA[i] - b.cA).max() <= 1e-14
        assert np.abs(k.cB[i] - b.cB).max() <= 1e-14
        assert np.abs(k.c[i] - b.c).max() <= 1e-14
        assert np.abs(k.deltaB[i] - d.deltaB).max() <= 1e-14
        assert np.abs(k.deltaA[i] - d.deltaA).max() <= 1e-14
    # the complements are 1 - c~^2 of both sides' scaled correlators
    assert np.abs(k.compB - (1.0 - k.c**2 / k.deltaB[:, :, None])).max() <= 1e-14
    assert np.abs(k.compA - (1.0 - k.c**2 / k.deltaA[:, None, :])).max() <= 1e-14
    assert k.compB.min() >= 0.0 and k.compA.min() >= 0.0
    # any leading shape, and one realization is the scalar view
    stacked = two_qubit_behaviors(thetaA[:60].reshape(6, 10, 2), thetaB[:60].reshape(6, 10, 2),
                                  chi[:60].reshape(6, 10))
    one = two_qubit_behaviors(cases[7].thetaA, cases[7].thetaB, cases[7].chi)
    for full, st, single in zip(k, stacked, one):
        assert np.array_equal(st.reshape(full[:60].shape), full[:60])
        assert np.array_equal(single, full[7])


def test_batched_draw_is_successive_single_draws():
    # the stream of rng.uniform(0, h) = h * U, two angles per side then chi
    for seed in range(20):
        thetaA, thetaB, chi = random_two_qubit_params(np.random.default_rng(seed), 30)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for k in range(30):
            r = random_two_qubit(rng)
            assert np.array_equal(r.thetaA, thetaA[k]) and np.array_equal(r.thetaB, thetaB[k])
            assert r.chi == chi[k]
            assert np.array_equal(r.thetaA, ref.uniform(0.0, 2.0 * math.pi, size=2))
            assert np.array_equal(r.thetaB, ref.uniform(0.0, 2.0 * math.pi, size=2))
            assert r.chi == ref.uniform(0.0, math.pi / 4.0)
    assert chi.min() >= 0.0 and chi.max() <= math.pi / 4
    assert thetaA.min() >= 0.0 and thetaB.max() < 2.0 * math.pi

