import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memattn.metrics import fractional_ranks, mse, spearman_rho


def brute_force_ranks(values):
    """Independent tie-averaging oracle: rank = #less + (#equal + 1) / 2."""
    out = []
    for v in values:
        less = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        out.append(less + (equal + 1) / 2.0)
    return np.array(out)


def classic_rho(gt, pred):
    """Tie-free closed form 1 - 6*sum(d^2) / (N(N^2-1))."""
    ra = fractional_ranks(gt)
    rb = fractional_ranks(pred)
    n = len(gt)
    d = ra - rb
    return 1.0 - 6.0 * np.sum(d * d) / (n * (n * n - 1))


def test_ranks_strictly_increasing():
    np.testing.assert_array_equal(fractional_ranks([10, 20, 30]), [1, 2, 3])


def test_ranks_two_way_tie():
    np.testing.assert_array_equal(fractional_ranks([5, 5]), [1.5, 1.5])


def test_ranks_hand_case():
    np.testing.assert_array_equal(fractional_ranks([3, 1, 3, 2]), [3.5, 1, 3.5, 2])


def test_ranks_zero_and_negative_zero_tie():
    np.testing.assert_array_equal(fractional_ranks([0.0, 1.0, -0.0, -1.0]), [2.5, 4, 2.5, 1])


@settings(deadline=None)
@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=30))
def test_ranks_match_brute_force_oracle(values):
    np.testing.assert_array_equal(fractional_ranks(values), brute_force_ranks(values))


# a few distinct floats, 0.0 and -0.0 among the candidates, each drawn many times
TIED_FLOATS = st.lists(
    st.one_of(st.just(0.0), st.just(-0.0),
              st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)),
    min_size=1, max_size=6,
).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=60))


@settings(deadline=None)
@given(TIED_FLOATS)
def test_float_ranks_with_ties_match_brute_force_oracle_bit_for_bit(values):
    assert fractional_ranks(values).tobytes() == brute_force_ranks(values).tobytes()


def test_rho_perfect_agreement():
    gt = [0.1, 0.4, 0.2, 0.9]
    assert spearman_rho(gt, [1.0, 4.0, 2.0, 9.0]) == pytest.approx(1.0)


def test_rho_perfect_reversal():
    gt = [0.1, 0.4, 0.2, 0.9]
    assert spearman_rho(gt, [-1.0, -4.0, -2.0, -9.0]) == pytest.approx(-1.0)


def test_rho_matches_classic_formula_when_tie_free():
    rng = np.random.default_rng(0)
    gt = rng.random(5)
    pred = rng.random(5)
    assert abs(spearman_rho(gt, pred) - classic_rho(gt, pred)) < 1e-12


def test_rho_constant_side_rejected():
    assert spearman_rho([0.1, 0.2, 0.3], [0.5, 0.5, 0.5]) is None


def test_rho_single_pair_is_undefined():
    # one pair has one rank on each side, so it is the constant case
    assert spearman_rho([0.1], [0.9]) is None


def test_rho_in_range():
    rng = np.random.default_rng(1)
    for _ in range(20):
        r = spearman_rho(rng.random(10), rng.random(10))
        assert -1.0 <= r <= 1.0


@settings(deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=1000), min_size=3,
                max_size=25, unique=True),
       st.lists(st.integers(min_value=1, max_value=1000), min_size=3,
                max_size=25, unique=True))
def test_rho_monotone_transform_invariance(a, b):
    n = min(len(a), len(b))
    a, b = np.array(a[:n], dtype=float), np.array(b[:n], dtype=float)
    base = spearman_rho(a, b)
    assert abs(spearman_rho(a, 2.0 * b + 7.0) - base) < 1e-12
    assert abs(spearman_rho(a, b ** 3) - base) < 1e-12


@settings(deadline=None)
@given(st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False),
                min_size=3, max_size=25, unique=True),
       st.integers(min_value=0, max_value=2 ** 31))
def test_rho_symmetry(values, seed):
    rng = np.random.default_rng(seed)
    other = rng.random(len(values))
    assert abs(spearman_rho(values, other) - spearman_rho(other, values)) < 1e-12


def test_mse_zero_for_equal_pairs():
    assert mse([0.1, 0.7], [0.1, 0.7]) == 0.0


def test_mse_single_pair():
    assert mse([0.5], [0.6]) == pytest.approx(0.01)


def test_mse_naive_loop_oracle():
    rng = np.random.default_rng(2)
    gt = rng.random(100)
    pred = rng.random(100)
    naive = 0.0
    for a, b in zip(gt, pred):
        naive += (b - a) ** 2
    naive /= 100
    assert abs(mse(gt, pred) - naive) < 1e-14


@settings(deadline=None)
@given(st.lists(st.floats(min_value=-3, max_value=3, allow_nan=False),
                min_size=1, max_size=20),
       st.floats(min_value=0.1, max_value=10, allow_nan=False))
def test_mse_quadratic_scaling(residuals, c):
    gt = np.zeros(len(residuals))
    r = np.array(residuals)
    assert mse(gt, c * r) == pytest.approx((c ** 2) * mse(gt, r), rel=1e-9)


def test_mse_empty_rejected():
    with pytest.raises(ValueError):
        mse([], [])
