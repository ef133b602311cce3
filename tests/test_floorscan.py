import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dtopt.floorscan as floorscan
from dtopt.floorscan import (FLOOR_MARGIN, FloorStats, _on_floor, halton_points,
                             sample_threshold_floor)
from dtopt.objectives import BENCHMARKS, DecisionSpace, schwefel226


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


def _sieve(limit):
    """The primes up to limit, by a plain sieve of Eratosthenes."""
    composite = [False] * (limit + 1)
    for p in range(2, int(limit**0.5) + 1):
        if not composite[p]:
            composite[p * p::p] = [True] * len(composite[p * p::p])
    return [p for p in range(2, limit + 1) if not composite[p]]


PRIMES = _sieve(110_000)


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


@pytest.mark.parametrize("args, field", [
    ((-1, 1), "n_points"),
    (("5", 2), "n_points"),
    ((5.0, 2), "n_points"),
    ((True, 2), "n_points"),
    ((5, 2.0), "n_dims"),
    ((5, 0), "n_dims"),
    ((5, None), "n_dims"),
    ((5, 2, 1.5), "start"),
    ((5, 2, -1), "start"),
])
def test_halton_rejects_counts_that_are_not_integers_in_range(args, field):
    # before, "5" and 2.0 ended in a bare TypeError and n_dims = 0 gave a (5, 0) array
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= "):
        halton_points(*args)


def test_first_primes_match_a_sieve():
    for count in (0, 1, 2, 5, 6, 7, 30, 1000, 10_000):
        assert floorscan._first_primes(count) == tuple(PRIMES[:count])
    assert floorscan._first_primes(10_000)[-1] == 104_729


@settings(max_examples=150, deadline=None)
@given(start=st.integers(0, 2_000_000), n_points=st.integers(0, 4096),
       n_dims=st.integers(1, 30))
# Each column copies a table of b**k radical inverses, b**k the largest power
# of its base within max(4096, 2**17 // n_dims) values (2**17 at D = 1; 2**16
# and 3**10 at D = 2; 2**12 and 113 at D = 30), then adds the digits of each
# row q = index // b**k: a partial head row, whole rows, a partial tail row.
# From D = 19 the bases above 64 have tables of b values, and from D = 565
# those above 4096 tables of one value.
@example(start=3 * 2**16 + 100, n_points=1000, n_dims=2)  # head and tail in one row
@example(start=2**16 - 1, n_points=4096, n_dims=2)        # a head of one point
@example(start=2**16 + 1, n_points=4096, n_dims=2)
@example(start=5 * 2**16 - 1, n_points=4096, n_dims=2)
@example(start=5 * 2**16 + 1, n_points=4096, n_dims=2)
@example(start=2 * 3**10 - 1, n_points=4096, n_dims=2)
@example(start=2 * 3**10 + 1, n_points=4096, n_dims=2)
@example(start=2 * 3**10 - 4095, n_points=4096, n_dims=2)  # a tail of one point
@example(start=2**17 - 1, n_points=4096, n_dims=1)
@example(start=2**17 + 1, n_points=4096, n_dims=1)
@example(start=3 * 2**17 - 1, n_points=4096, n_dims=1)
@example(start=0, n_points=2**17 + 1, n_dims=1)           # a whole row and a tail
@example(start=2**40 - 2000, n_points=4096, n_dims=3)     # rows with 24 and more digits
@example(start=0, n_points=4096, n_dims=1)
@example(start=0, n_points=4097, n_dims=1)
@example(start=5_000, n_points=729, n_dims=2)
@example(start=5_000, n_points=730, n_dims=2)
@example(start=1_999_999, n_points=1, n_dims=30)
@example(start=1_048_576 - 4096, n_points=4096, n_dims=2)   # stop = 2**20
@example(start=1_048_576 - 4095, n_points=4096, n_dims=2)   # stop = 2**20 + 1
@example(start=1_594_323 - 100, n_points=100, n_dims=2)     # stop = 3**13
@example(start=1_594_323 - 99, n_points=100, n_dims=2)      # stop = 3**13 + 1
@example(start=1_442_897 - 3000, n_points=3000, n_dims=30)  # stop = 113**3
@example(start=1_442_897 - 2999, n_points=3000, n_dims=30)  # stop = 113**3 + 1
@example(start=12_769 - 4096, n_points=4096, n_dims=30)     # stop = 113**2
@example(start=1_000_003, n_points=100, n_dims=600)     # heads and tails in one row
@example(start=1_000_003, n_points=3000, n_dims=600)    # with whole rows of width b
@example(start=2_000_000, n_points=0, n_dims=5)
@example(start=2**16, n_points=0, n_dims=2)
def test_halton_points_bit_identical_to_digit_loop(start, n_points, n_dims):
    points = halton_points(n_points, n_dims, start=start)
    expected = _oracle_points(n_points, n_dims, start)
    assert points.shape == expected.shape == (n_points, n_dims)
    assert np.array_equal(points.view(np.int64), expected.view(np.int64))


def test_halton_points_returns_fresh_writable_array():
    first = halton_points(10, 2)
    assert first.flags.writeable and first.flags.owndata
    assert first.flags.f_contiguous and not first.flags.c_contiguous
    first[:] = -1.0
    assert np.all(halton_points(10, 2) >= 0.0)


def test_halton_tables_are_read_only_and_results_do_not_share_them():
    bases, tables = floorscan._radical_inverse_tables(2)
    assert bases == (2, 3) and len(tables) == 2
    for table, _ in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0
    expected = halton_points(2**17, 2, start=2**16)  # whole rows of both tables
    mutated = halton_points(2**17, 2, start=2**16)
    mutated[:] = -1.0
    again = halton_points(2**17, 2, start=2**16)
    assert np.array_equal(again.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("n_dims", [1, 2, 30, 200, 1000])
def test_halton_cache_stays_within_its_table_budget(n_dims):
    # at 1000 dimensions the tables of the bases 67 .. 7919 alone hold about
    # 1M values; the cache keeps a leading run of bases within 2**17 values,
    # which includes every table of two or more digits (bases up to 61) and,
    # up to 30 dimensions, every table. The budget is not the chunk's 2**14
    # values, within which only 8 of the 30 tables fit at D = 30.
    assert floorscan._TABLE_VALUES == 2**17
    bases, tables = floorscan._radical_inverse_tables(n_dims)
    assert bases == tuple(PRIMES[:n_dims])
    assert sum(table.size for table, _ in tables) <= floorscan._TABLE_VALUES
    rows = floorscan._table_rows(n_dims)
    assert len(tables) >= sum(1 for b in bases if b * b <= rows)
    assert (len(tables) == n_dims) == (n_dims <= 30)


def _one_shot_stats(func, space, threshold, n_samples, margin=FLOOR_MARGIN):
    """Every sample in one batch: the oracle for the streamed estimate."""
    points = space.lower + halton_points(n_samples, space.n_dims) * (space.upper - space.lower)
    g = np.maximum(func(points), threshold)
    n_on_floor = int(np.count_nonzero(g - threshold <= margin))
    return FloorStats(n_samples, n_on_floor, 1.0 - n_on_floor / n_samples, threshold, margin)


def test_sample_points_are_affine_image_of_halton():
    space = DecisionSpace(np.array([-500.0, -5.12, 0.1]), np.array([500.0, 5.12, 0.7]))
    n_samples = 2 * floorscan._chunk_rows(3) + 5
    seen = []

    def record(points):
        assert points.dtype == np.float64 and points.ndim == 2 and points.shape[1] == 3
        assert points.flags.f_contiguous
        seen.append(points.copy())
        return np.zeros(len(points))

    sample_threshold_floor(record, space, threshold=0.0, n_samples=n_samples)
    assert len(seen) > 1
    expected = space.lower + halton_points(n_samples, 3) * (space.upper - space.lower)
    assert np.array_equal(np.concatenate(seen).view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("n_dims", [1, 2, 8])
@pytest.mark.parametrize("chunk_rows", [1, 7, 4096, 65536])
def test_stats_and_points_do_not_depend_on_the_chunk(monkeypatch, n_dims, chunk_rows):
    # chunks of 1 and 7 rows cut each Halton table row into many pieces, and
    # one of 65,536 rows takes every sample in one batch
    space = DecisionSpace.cube(n_dims, -500.0, 500.0)
    n_samples = 2 * 4096 + 7
    threshold = 0.0 if n_dims > 1 else 200.0
    expected_stats = sample_threshold_floor(schwefel226, space, threshold, n_samples)
    expected_points = space.lower + halton_points(n_samples, n_dims) * (space.upper - space.lower)
    seen = []

    def record(points):
        seen.append(points.copy())
        return schwefel226(points)

    monkeypatch.setattr(floorscan, "_chunk_rows", lambda _n_dims: chunk_rows)
    stats = sample_threshold_floor(record, space, threshold, n_samples)
    assert stats == expected_stats
    assert {len(points) for points in seen[:-1]} <= {chunk_rows}
    points = np.concatenate(seen)
    assert np.array_equal(points.view(np.int64), expected_points.view(np.int64))


@pytest.mark.parametrize("n_dims", [1, 2, 3])
def test_batches_hold_at_most_2_14_values_below_4_dims(n_dims):
    # 1 MB batches were faulted in afresh by every chunk; see _CHUNK_VALUES
    sizes = []

    def record(points):
        sizes.append(points.size)
        return np.zeros(len(points))

    sample_threshold_floor(record, DecisionSpace.cube(n_dims, 0.0, 1.0), 0.0, 50_000)
    assert len(sizes) > 1 and max(sizes) <= 2**14
    assert sum(sizes) == 50_000 * n_dims


# Each shipped function on every dimension from 1 to 7 that it allows
_BELOW_8_DIMS = [(name, n) for name, bench in BENCHMARKS.items()
                 for n in ([bench.n_dims] if bench.n_dims else range(1, 8))]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name, n_dims", _BELOW_8_DIMS)
def test_objective_values_do_not_depend_on_layout_below_8_dims(name, n_dims, data):
    # sample_threshold_floor hands func column-major batches; numpy sums a
    # row of fewer than 8 values left to right in either layout
    bench = BENCHMARKS[name]
    coord = st.one_of(st.sampled_from([-0.0, 0.0, bench.lower, bench.upper]),
                      st.floats(bench.lower, bench.upper))
    rows = data.draw(st.lists(st.lists(coord, min_size=n_dims, max_size=n_dims),
                              min_size=1, max_size=20))
    c_order = np.array(rows, dtype=float, order="C")
    f_order = np.asfortranarray(c_order)
    assert f_order.flags.f_contiguous
    expected = bench.func(c_order)
    assert np.array_equal(bench.func(f_order).view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("n_dims", [8, 30])
def test_schwefel_layout_changes_only_rounding_from_8_dims(n_dims):
    # From 8 values numpy sums a C-order row pairwise and an F-order row left
    # to right. Each term lies in [-500, 500], so the two sums differ by at
    # most (n - 1) * eps * 500 * n: 9.7e-11 at 30 dimensions
    space = DecisionSpace.cube(n_dims, -500.0, 500.0)
    points = space.lower + halton_points(50_000, n_dims) * (space.upper - space.lower)
    assert points.flags.f_contiguous
    tolerance = (n_dims - 1) * np.finfo(float).eps * 500.0 * n_dims
    np.testing.assert_allclose(schwefel226(points), schwefel226(np.ascontiguousarray(points)),
                               rtol=0.0, atol=tolerance)


@pytest.mark.parametrize("n_dims", [1, 2, 30, 64])
@pytest.mark.parametrize("extra", ["-1", "0", "+1", "*3+7"])
def test_streamed_stats_match_one_shot_at_chunk_boundaries(n_dims, extra):
    chunk = floorscan._chunk_rows(n_dims)
    n_samples = {"-1": chunk - 1, "0": chunk, "+1": chunk + 1, "*3+7": 3 * chunk + 7}[extra]
    space = DecisionSpace.cube(n_dims, -500.0, 500.0)
    threshold = 0.0 if n_dims > 1 else 200.0
    stats = sample_threshold_floor(schwefel226, space, threshold, n_samples)
    assert stats == _one_shot_stats(schwefel226, space, threshold, n_samples)
    assert 0 < stats.n_on_floor < n_samples


def test_streamed_memory_is_bounded():
    # The 200,000 x 30 points alone would take 48 MB in one batch.
    space = DecisionSpace.cube(30, -500.0, 500.0)
    tracemalloc.start()
    try:
        stats = sample_threshold_floor(schwefel226, space, 0.0, 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert stats.n_samples == 200_000


@pytest.mark.parametrize("n_dims, n_samples", [(2000, 1100), (8000, 200)])
def test_streamed_memory_is_bounded_at_any_dimension(n_dims, n_samples):
    # A chunk holds at most 2**20 values (8 MiB): 524 rows at D = 2000 and
    # 131 at D = 8000, so each scan spans two or three chunks. With 4096-row
    # chunks both scans ran in one, and peaked at 34.7 and 25.8 MiB; 8,192
    # samples at D = 2000 peaked at 125 MiB.
    assert floorscan._chunk_rows(n_dims) == 2**20 // n_dims
    space = DecisionSpace.cube(n_dims, -500.0, 500.0)
    tracemalloc.start()
    try:
        stats = sample_threshold_floor(schwefel226, space, 0.0, n_samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    assert stats.n_samples == n_samples


@pytest.mark.parametrize("n_dims, rows", [(1, 16384), (4, 4096), (256, 4096), (257, 4080),
                                          (10**7, 1)])
def test_chunk_rows_stay_up_to_256_dims_and_hold_2_20_values_above(n_dims, rows):
    assert floorscan._chunk_rows(n_dims) == rows


def test_infinite_values_count_by_sign():
    def signed_inf(points):
        return np.where(points[:, 0] < 0.5, -np.inf, np.inf)

    stats = sample_threshold_floor(signed_inf, UNIT_1D, threshold=0.25, n_samples=1000)
    assert stats.n_on_floor == int(np.count_nonzero(halton_points(1000, 1)[:, 0] < 0.5)) == 500
    assert sample_threshold_floor(lambda p: np.full(len(p), np.inf), UNIT_1D,
                                  0.25, 1000).n_on_floor == 0
    assert sample_threshold_floor(lambda p: np.full(len(p), -np.inf), UNIT_1D,
                                  0.25, 1000).n_on_floor == 1000


def test_nan_value_is_an_error_naming_the_count():
    def nan_above_09(points):
        return np.where(points[:, 0] > 0.9, np.nan, points[:, 0])

    expected_bad = int(np.count_nonzero(halton_points(1000, 1)[:, 0] > 0.9))
    with pytest.raises(ValueError, match=f"NaN for {expected_bad} of the 1000 samples"):
        sample_threshold_floor(nan_above_09, UNIT_1D, threshold=0.5, n_samples=1000)


@pytest.mark.parametrize("bad_result", [
    lambda p: p,                       # shape (m, 1)
    lambda p: p[:-1, 0],               # one value short
    lambda p: 0.5,                     # a scalar
    lambda p: np.zeros((len(p), 2)),   # two values per sample
])
def test_result_not_one_value_per_sample_is_an_error(bad_result):
    with pytest.raises(ValueError, match=r"func must return shape \(1000,\)"):
        sample_threshold_floor(bad_result, UNIT_1D, threshold=0.5, n_samples=1000)


def test_margin_boundary_is_on_the_floor():
    stats = sample_threshold_floor(lambda p: np.full(len(p), FLOOR_MARGIN), UNIT_1D,
                                   threshold=0.0, n_samples=10)
    assert stats.n_on_floor == 10


def test_no_sample_is_on_a_minus_inf_floor():
    def signed_inf(points):
        return np.where(points[:, 0] < 0.5, -np.inf, np.inf)

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no -inf - (-inf) is computed
        for func in (signed_inf, _ramp):
            stats = sample_threshold_floor(func, UNIT_1D, threshold=-np.inf, n_samples=1000)
            assert (stats.n_on_floor, stats.p_above) == (0, 1.0)


@pytest.mark.parametrize("threshold, message", [
    (np.nan, "threshold must not be NaN or \\+inf"),
    (np.inf, "threshold must not be NaN or \\+inf"),
    (None, "threshold must be a number"),
    ("x", "threshold must be a number"),
])
def test_nan_or_plus_inf_threshold_is_an_error(threshold, message):
    with pytest.raises(ValueError, match=message):
        sample_threshold_floor(_ramp, UNIT_1D, threshold=threshold, n_samples=10)


@pytest.mark.parametrize("func", [None, "x"])
def test_a_func_that_is_not_callable_is_an_error(func):
    # before, each ended in TypeError: not callable, once the scan was under way
    with pytest.raises(ValueError, match=rf"^func must be a Callable, got {func!r}$"):
        sample_threshold_floor(func, UNIT_1D, threshold=0.5, n_samples=10)


# before, 10**400 ended in numpy's bare TypeError from isfinite
@pytest.mark.parametrize("margin", [-1.0, np.nan, np.inf, "0.1", None, 10**400])
def test_margin_not_finite_and_nonnegative_is_an_error(margin):
    with pytest.raises(ValueError, match="margin must be finite and >= 0"):
        sample_threshold_floor(_ramp, UNIT_1D, threshold=0.5, n_samples=10, margin=margin)


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


@pytest.mark.parametrize("n_samples", [0, True, 1000.0, "1000"])
def test_rejects_a_sample_count_that_is_not_a_positive_integer(n_samples):
    with pytest.raises(ValueError, match=f"^n_samples must be an integer >= 1, got {n_samples!r}$"):
        sample_threshold_floor(_ramp, UNIT_1D, threshold=0.5, n_samples=n_samples)


@pytest.mark.parametrize("space", [None, (0.0, 1.0), 1], ids=["none", "tuple", "int"])
def test_rejects_a_space_that_is_not_a_decision_space(space):
    # before, each ended in AttributeError inside the sampler
    with pytest.raises(ValueError, match=r"^space must be a DecisionSpace, got "):
        sample_threshold_floor(_ramp, space, threshold=0.5, n_samples=10)


# ----- the on-floor rule, max(f, T) - T <= margin, unchecked -----

def test_on_floor_includes_the_margin_boundary():
    assert _on_floor(FLOOR_MARGIN, 0.0, FLOOR_MARGIN)
    assert _on_floor(0.0, 0.0, FLOOR_MARGIN)
    assert _on_floor(-7.0, 0.0, FLOOR_MARGIN)  # below T is floored up to T
    assert not _on_floor(np.nextafter(FLOOR_MARGIN, 1.0), 0.0, FLOOR_MARGIN)
    assert _on_floor(3.5, 3.0, 0.5)
    assert not _on_floor(3.5, 3.0, 0.25)


def test_on_floor_of_arrays_is_elementwise_max_minus_threshold():
    rng = np.random.default_rng(8)
    f_vals = rng.uniform(-10.0, 10.0, size=10_000)
    for t in (-3.0, 0.0, 4.5):
        expected = np.maximum(f_vals, t) - t <= FLOOR_MARGIN
        assert np.array_equal(_on_floor(f_vals, t, FLOOR_MARGIN), expected)
    assert np.array_equal(_on_floor(np.array([-np.inf, np.inf]), 0.0, FLOOR_MARGIN), [True, False])


def test_nothing_is_on_a_minus_inf_floor():
    f_vals = np.array([-np.inf, -1e308, 0.0, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no -inf - (-inf) is computed
        assert np.array_equal(_on_floor(f_vals, -np.inf, FLOOR_MARGIN), [False] * 4)
        assert not _on_floor(-np.inf, -np.inf, FLOOR_MARGIN)
        assert not _on_floor(np.float64(-5.0), -np.inf, 1e308)
