import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtopt.floorscan import FloorStats, halton_points, sample_threshold_floor
from dtopt.objectives import DecisionSpace, schwefel226


def _ramp(points):
    return np.asarray(points, dtype=float)[..., 0]


UNIT_1D = DecisionSpace.cube(1, 0.0, 1.0)


def _radical_inverse(indices: np.ndarray, base: int) -> np.ndarray:
    """Digit-by-digit radical inverse over every index: the oracle."""
    remaining = np.array(indices, dtype=np.int64, copy=True)
    out = np.zeros(remaining.shape, dtype=float)
    scale = 1.0 / base
    while np.any(remaining > 0):
        remaining, digit = np.divmod(remaining, base)
        out += digit * scale
        scale /= base
    return out


PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
          53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113]


def _oracle_points(n_points, n_dims, start):
    indices = np.arange(start, start + n_points)
    return np.column_stack([_radical_inverse(indices, b) for b in PRIMES[:n_dims]])


def test_halton_base2_values():
    assert halton_points(1, 1, start=1)[0, 0] == 0.5
    assert halton_points(1, 1, start=3)[0, 0] == 0.75
    assert halton_points(1, 1, start=0)[0, 0] == 0.0


def test_halton_2d_uses_bases_2_and_3():
    point = halton_points(1, 2, start=1)[0]
    assert point[0] == 0.5
    assert point[1] == pytest.approx(1 / 3, abs=1e-15)


def test_halton_points_match_single_indices():
    block = halton_points(20, 3)
    for idx in range(20):
        assert np.array_equal(block[idx], halton_points(1, 3, start=idx)[0])
    assert np.all(block >= 0.0) and np.all(block < 1.0)


def test_halton_rejects_negative_index():
    with pytest.raises(ValueError):
        halton_points(1, 1, start=-1)
    with pytest.raises(ValueError):
        halton_points(-1, 1)


@settings(max_examples=150, deadline=None)
@given(start=st.integers(0, 2_000_000), n_points=st.integers(0, 4096),
       n_dims=st.integers(1, 30))
@example(start=0, n_points=4096, n_dims=1)        # stop = 2**12
@example(start=0, n_points=4097, n_dims=1)        # stop = 2**12 + 1
@example(start=1_048_576 - 4096, n_points=4096, n_dims=2)   # stop = 2**20
@example(start=1_048_576 - 4095, n_points=4096, n_dims=2)   # stop = 2**20 + 1
@example(start=1_594_323 - 100, n_points=100, n_dims=2)     # stop = 3**13
@example(start=1_594_323 - 99, n_points=100, n_dims=2)      # stop = 3**13 + 1
@example(start=1_442_897 - 3000, n_points=3000, n_dims=30)  # stop = 113**3
@example(start=1_442_897 - 2999, n_points=3000, n_dims=30)  # stop = 113**3 + 1
@example(start=12_769 - 4096, n_points=4096, n_dims=30)     # stop = 113**2
@example(start=2_000_000, n_points=0, n_dims=5)
def test_halton_points_bit_identical_to_digit_loop(start, n_points, n_dims):
    points = halton_points(n_points, n_dims, start=start)
    expected = _oracle_points(n_points, n_dims, start)
    assert points.shape == expected.shape == (n_points, n_dims)
    assert np.array_equal(points.view(np.int64), expected.view(np.int64))


def test_halton_points_returns_fresh_writable_array():
    first = halton_points(10, 2)
    assert first.flags.writeable and first.flags.owndata
    first[:] = -1.0
    assert np.all(halton_points(10, 2) >= 0.0)


def test_sample_points_are_affine_image_of_halton():
    space = DecisionSpace(np.array([-500.0, -5.12, 0.1]), np.array([500.0, 5.12, 0.7]))
    seen = []

    def record(points):
        seen.append(points.copy())
        return np.zeros(len(points))

    sample_threshold_floor(record, space, threshold=0.0, n_samples=3000)
    expected = space.lower + halton_points(3000, 3) * (space.upper - space.lower)
    assert np.array_equal(seen[0].view(np.int64), expected.view(np.int64))


def test_ramp_midpoint_estimate():
    stats = sample_threshold_floor(_ramp, UNIT_1D, threshold=0.5,
                                   n_samples=10_000, margin=1e-12)
    assert abs(stats.p_above - 0.5) <= 0.01


def test_threshold_below_minimum_gives_one():
    stats = sample_threshold_floor(_ramp, UNIT_1D, threshold=-1.0, n_samples=1000)
    assert stats.p_above == 1.0
    assert stats.n_on_floor == 0


def test_threshold_at_maximum_gives_near_zero():
    stats = sample_threshold_floor(_ramp, UNIT_1D, threshold=1.0, n_samples=1000)
    assert stats.p_above <= 0.01


def test_p_above_formula_exact():
    stats = sample_threshold_floor(_ramp, UNIT_1D, threshold=0.3, n_samples=777)
    assert stats.p_above == 1.0 - stats.n_on_floor / stats.n_samples
    assert 0.0 <= stats.p_above <= 1.0


def test_monotone_over_threshold_ladder():
    space = DecisionSpace.cube(2, -500.0, 500.0)
    ladder = np.linspace(-800.0, 838.0, 20)
    fractions = [
        sample_threshold_floor(schwefel226, space, t, n_samples=4096).p_above
        for t in ladder
    ]
    assert all(b <= a for a, b in zip(fractions, fractions[1:]))


def test_deterministic_stats():
    a = sample_threshold_floor(schwefel226, DecisionSpace.cube(2, -500.0, 500.0),
                               threshold=100.0, n_samples=2000)
    b = sample_threshold_floor(schwefel226, DecisionSpace.cube(2, -500.0, 500.0),
                               threshold=100.0, n_samples=2000)
    assert a == b == FloorStats(n_samples=2000, n_on_floor=a.n_on_floor,
                                p_above=a.p_above, threshold_used=100.0,
                                on_floor_margin=0.005)


def test_convergence_on_known_measure():
    # indicator landscape: fitness 1 on x < 0.3 (measure 0.3), else 0
    def indicator(points):
        return np.where(np.asarray(points)[..., 0] < 0.3, 1.0, 0.0)

    space = DecisionSpace.cube(2, 0.0, 1.0)
    stats = sample_threshold_floor(indicator, space, threshold=0.5, n_samples=10_000)
    assert abs(stats.p_above - 0.3) <= 2 / np.sqrt(10_000)


def test_rejects_empty_sample():
    with pytest.raises(ValueError):
        sample_threshold_floor(_ramp, UNIT_1D, threshold=0.5, n_samples=0)
