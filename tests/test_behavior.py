import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from bellgeo.behavior import (
    CBehavior,
    DBehavior,
    InvalidBehaviorError,
    chsh_values,
    is_local,
    is_valid,
    mix,
)
from bellgeo.realization import random_two_qubit, simulate_cbehavior

RNG = np.random.default_rng(20240811)


def tsirelson_behavior():
    c = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    return CBehavior(cA=[0.0, 0.0], cB=[0.0, 0.0], c=c)


def random_cbehavior(rng):
    """Uniform draw in the correlator cube; frequently invalid on purpose."""
    return CBehavior(cA=rng.uniform(-1, 1, 2), cB=rng.uniform(-1, 1, 2), c=rng.uniform(-1, 1, (2, 2)))


def local_vertices():
    """The 16 deterministic behaviors of the scenario."""
    verts = []
    for a0, a1, b0, b1 in itertools.product((1.0, -1.0), repeat=4):
        a = np.array([a0, a1])
        b = np.array([b0, b1])
        verts.append(np.concatenate([a, b, np.outer(a, b).ravel()]))
    return np.array(verts)


def is_local_lp(b: CBehavior) -> bool:
    """Independent locality oracle: feasibility of a vertex decomposition."""
    verts = local_vertices()
    a_eq = np.vstack([verts.T, np.ones(len(verts))])
    b_eq = np.concatenate([b.flat(), [1.0]])
    res = linprog(
        c=np.zeros(len(verts)), A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * len(verts)
    )
    return res.status == 0


def probability_table(b: CBehavior) -> np.ndarray:
    """Reference expansion p[a, b, x, y] = (1 + a cA_x + b cB_y + ab C_xy) / 4,
    outcome index 0 for +1 and 1 for -1, written entry by entry."""
    p = np.empty((2, 2, 2, 2))
    for (i, a), (j, bb) in itertools.product(enumerate((1.0, -1.0)), repeat=2):
        for x, y in itertools.product(range(2), repeat=2):
            p[i, j, x, y] = 0.25 * (1.0 + a * b.cA[x] + bb * b.cB[y] + a * bb * b.c[x, y])
    return p


def assert_is_valid_reads_min(b: CBehavior, m: float, eps: float = 1e-12):
    """is_valid(b, tol) is p.min() >= -tol, so a negative tol probes the
    smallest probability: it must lie within eps of m."""
    assert is_valid(b, tol=-(m - eps))
    assert not is_valid(b, tol=-(m + eps))


def test_probability_expansion_round_trip():
    sign = np.array([1.0, -1.0])
    for _ in range(100):
        b = random_cbehavior(RNG)
        p = probability_table(b)
        cA = np.einsum("a,abxy->xy", sign, p).mean(axis=1)
        cB = np.einsum("b,abxy->yx", sign, p).mean(axis=1)
        c = np.einsum("a,b,abxy->xy", sign, sign, p)
        back = CBehavior(cA=cA, cB=cB, c=c)
        assert np.abs(back.flat() - b.flat()).max() < 1e-12
        assert_is_valid_reads_min(b, p.min())


def test_probability_table_no_signaling_exact():
    for _ in range(50):
        p = probability_table(random_cbehavior(RNG))
        assert np.abs(p.sum(axis=(0, 1)) - 1.0).max() < 1e-12
        margA, margB = p.sum(axis=1), p.sum(axis=0)
        assert np.abs(margA[:, :, 0] - margA[:, :, 1]).max() < 1e-12
        assert np.abs(margB[:, 0, :] - margB[:, 1, :]).max() < 1e-12
    for _ in range(50):
        b = simulate_cbehavior(random_two_qubit(RNG))
        assert is_valid(b)
        assert_is_valid_reads_min(b, probability_table(b).min())


def test_uniform_behavior_probabilities():
    # the smallest of the four probabilities of each setting pair is exactly
    # 1/4, so all sixteen are
    b = CBehavior(cA=[0, 0], cB=[0, 0], c=np.zeros((2, 2)))
    assert is_valid(b, tol=-0.25)
    assert not is_valid(b, tol=-np.nextafter(0.25, 1.0))


def test_deterministic_marginal_probabilities():
    b = CBehavior(cA=[1.0, 0.0], cB=[0.0, 0.0], c=np.zeros((2, 2)))
    assert is_valid(b, tol=0.0)
    assert not is_valid(b, tol=-np.nextafter(0.0, 1.0))
    # a deterministic A_0 = +1 forces C_0y = cB_y: p(-1, b|0, y) = b (cB_y - C_0y) / 4
    cB = np.array([0.3, -0.2])
    b = CBehavior(cA=[1.0, 0.0], cB=cB, c=np.array([cB, [0.0, 0.0]]))
    assert is_valid(b, tol=0.0)
    for y, dc in itertools.product(range(2), (1e-6, -1e-6)):
        c = np.array([cB, [0.0, 0.0]])
        c[0, y] += dc
        assert not is_valid(CBehavior(cA=[1.0, 0.0], cB=cB, c=c))


def test_tsirelson_probability_value():
    # unequal outcomes where C_xy = 1/sqrt2, equal ones at (1, 1): (1 - 1/sqrt2) / 4
    assert_is_valid_reads_min(tsirelson_behavior(), 0.25 * (1.0 - 1.0 / math.sqrt(2.0)))


def test_is_valid_pins_the_probability_formula():
    """Validity is min_abxy (1 + a cA_x + b cB_y + ab C_xy) / 4 >= -tol.

    Each deterministic vertex has every probability 0 or 1, so it is valid at
    tol = 0, and moving any one coordinate off it by 1e-6 (toward 0, the only
    way the constructor allows) drives one probability to -2.5e-7.  The
    scaled Tsirelson behavior t * C_T, whose smallest probability is
    (1 - t / sqrt(2)) / 4, switches at t = sqrt(2).
    """
    for v in local_vertices():
        assert is_valid(CBehavior(cA=v[:2], cB=v[2:4], c=v[4:].reshape(2, 2)), tol=0.0)
        for k in range(8):
            w = v.copy()
            w[k] -= 1e-6 * w[k]
            assert not is_valid(CBehavior(cA=w[:2], cB=w[2:4], c=w[4:].reshape(2, 2)))
    c_t = tsirelson_behavior().c
    for t, valid in ((0.0, True), (1.0, True), (math.sqrt(2.0) * (1.0 - 1e-12), True),
                     (math.sqrt(2.0) * (1.0 + 1e-10), False)):
        b = CBehavior(cA=[0.0, 0.0], cB=[0.0, 0.0], c=t * c_t)
        assert is_valid(b, tol=0.0) is valid


def test_validity_examples():
    assert is_valid(tsirelson_behavior())
    bad = CBehavior(cA=[1.0, 0], cB=[-1.0, 0], c=[[1.0, 0], [0, 0]])
    assert not is_valid(bad)


def test_correlator_magnitude_rejected():
    with pytest.raises(ValueError):
        CBehavior(cA=[1.2, 0], cB=[0, 0], c=np.zeros((2, 2)))


def test_locality_examples():
    assert not is_local(tsirelson_behavior())
    assert is_local(CBehavior(cA=[0, 0], cB=[0, 0], c=np.zeros((2, 2))))


def test_is_local_requires_validity():
    bad = CBehavior(cA=[1.0, 0], cB=[-1.0, 0], c=[[1.0, 0], [0, 0]])
    with pytest.raises(InvalidBehaviorError):
        is_local(bad)


def test_locality_against_lp_oracle():
    rng = np.random.default_rng(5150)
    ts = tsirelson_behavior()
    checked = locals_seen = nonlocals_seen = 0
    while checked < 120:
        b = random_cbehavior(rng)
        # mix toward the nonlocal extreme so both verdicts are exercised
        if rng.uniform() < 0.5:
            b = mix([b, ts], [0.35, 0.65])
        if not is_valid(b):
            continue
        verdict = is_local(b, 1e-7)
        assert verdict == is_local_lp(b)
        locals_seen += verdict
        nonlocals_seen += not verdict
        checked += 1
    assert locals_seen > 10 and nonlocals_seen > 10


def test_chsh_values_count_and_symmetry():
    vals = chsh_values(tsirelson_behavior())
    assert vals.shape == (8,)
    assert np.abs(vals).max() == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)


def test_random_two_qubit_behaviors_are_valid():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        assert is_valid(simulate_cbehavior(random_two_qubit(rng)), 1e-9)


def test_mix_identity_and_linearity():
    b1 = random_cbehavior(RNG)
    b2 = random_cbehavior(RNG)
    same = mix([b1], [1.0])
    assert np.abs(same.flat() - b1.flat()).max() == 0.0
    lam = 0.3
    m = mix([b1, b2], [lam, 1 - lam])
    assert np.abs(m.flat() - (lam * b1.flat() + (1 - lam) * b2.flat())).max() < 1e-12


def test_mix_weight_validation():
    b = random_cbehavior(RNG)
    with pytest.raises(ValueError):
        mix([b, b], [0.7, 0.7])
    with pytest.raises(TypeError):
        mix([b, DBehavior(deltaB=[1, 1], deltaA=[1, 1], c=np.zeros((2, 2)))], [0.5, 0.5])


def test_mix_convex_combination_stays_valid():
    rng = np.random.default_rng(12)
    found = 0
    while found < 20:
        b1, b2 = random_cbehavior(rng), random_cbehavior(rng)
        if not (is_valid(b1) and is_valid(b2)):
            continue
        assert is_valid(mix([b1, b2], [0.5, 0.5]))
        found += 1


def test_dbehavior_range_validation():
    with pytest.raises(ValueError):
        DBehavior(deltaB=[1.5, 0], deltaA=[0, 0], c=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        DBehavior(deltaB=[-0.1, 0], deltaA=[0, 0], c=np.zeros((2, 2)))


def test_json_round_trip_and_digits():
    b = CBehavior(cA=[1 / 3, -2 / 7], cB=[0.1, 0.2], c=[[0.5, -0.25], [1 / 9, 0]])
    text = b.to_json()
    again = CBehavior.from_json(text)
    assert np.array_equal(again.flat(), b.flat())
    assert "0.33333333333333331" in text  # 17 significant digits
    d = DBehavior(deltaB=[0.5, 1.0], deltaA=[0.25, 0.75], c=[[0.1, 0.2], [0.3, 0.4]])
    assert np.array_equal(DBehavior.from_json(d.to_json()).flat(), d.flat())
    assert list(b.to_json_dict()) == ["cA", "cB", "c"]
    assert list(d.to_json_dict()) == ["deltaB", "deltaA", "c"]
