import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtopt.objectives import (
    BENCHMARKS,
    DecisionSpace,
    ObjectiveSpec,
    make_objective,
    rastrigin_offset,
    schwefel226,
    sgo,
)


def test_schwefel_2d_known_max():
    assert schwefel226([420.9687, 420.9687]) == pytest.approx(837.9658, abs=1e-3)


def test_schwefel_origin_is_zero():
    assert schwefel226(np.zeros(30)) == 0.0


def test_schwefel_1d_known_max():
    assert schwefel226([420.9687]) == pytest.approx(418.9829, abs=1e-3)


@pytest.mark.parametrize("n_dims", [1, 2, 30])
def test_schwefel_max_scales_with_dimension(n_dims):
    value = schwefel226(np.full(n_dims, 420.9687))
    assert abs(value - 418.9829 * n_dims) <= 1e-3 * n_dims


def test_schwefel_batch_matches_single():
    rng = np.random.default_rng(7)
    batch = rng.uniform(-500, 500, size=(17, 5))
    batched = schwefel226(batch)
    singles = np.array([schwefel226(row) for row in batch])
    assert np.array_equal(batched, singles)


def _schwefel_oracle(x):
    # the one-line form, which allocates a temporary per step
    return (x * np.sin(np.sqrt(np.abs(x)))).sum(axis=-1)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(7,), (1, 30), (33, 5), (2048, 2), (1000, 30)]),
       st.sampled_from([1.0, 500.0, 1e12]), st.integers(0, 2**32 - 1))
@example((250_000, 2), 500.0, 0)
def test_schwefel_in_place_bit_identical_to_oracle(shape, scale, seed):
    x = np.random.default_rng(seed).uniform(-scale, scale, size=shape)
    x.flat[0] = -0.0
    before = x.copy()
    got = np.asarray(schwefel226(x))
    expected = np.asarray(_schwefel_oracle(before))
    assert np.array_equal(x.view(np.int64), before.view(np.int64))  # x untouched
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_schwefel_permutation_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.uniform(-500, 500, size=10)
        shuffled = rng.permutation(x)
        assert schwefel226(x) == pytest.approx(schwefel226(shuffled), rel=1e-12, abs=1e-12)


def test_rastrigin_offset_max_exact():
    assert rastrigin_offset([-1.25, 3.25]) == 10.123


def test_rastrigin_offset_unit_shift():
    # x1' = 1 gives (1 - 10*cos(2*pi) + 10)^2 = 1, x2' = 0 contributes nothing
    assert rastrigin_offset([-0.25, 3.25]) == pytest.approx(10.123 - 1.0, abs=1e-12)


def _rastrigin_transcribed(coords):
    # Independent line-by-line oracle: per-coordinate offset, squared term sum,
    # shifted maximum. Deliberately scalar/loop-based.
    two_pi = 8.0 * math.atan(1.0)
    x1offset = -1.25
    x2offset = 3.25
    z = 0.0
    for i, xi in enumerate(coords):
        if len(coords) == 2:
            if i == 0:
                xi = xi - x1offset
            elif i == 1:
                xi = xi - x2offset
        z += (xi**2 - 10.0 * math.cos(two_pi * xi) + 10.0) ** 2
    return -z + 10.123


def test_rastrigin_offset_matches_transcription_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        point = rng.uniform(-5.12, 5.12, size=2)
        assert rastrigin_offset(point) == pytest.approx(
            _rastrigin_transcribed(list(point)), rel=1e-12, abs=1e-12
        )
    # the half-unit shift case, for the record
    assert rastrigin_offset([-0.75, 3.25]) == pytest.approx(
        _rastrigin_transcribed([-0.75, 3.25]), abs=1e-12
    )


def test_rastrigin_offset_rejects_other_dims():
    with pytest.raises(ValueError):
        rastrigin_offset([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        make_objective("rastrigin_offset", 3)


def test_sgo_known_max():
    assert sgo([-2.8362075, -2.8362075]) == pytest.approx(130.8323, abs=1e-3)


def test_sgo_origin_is_zero():
    assert sgo([0.0, 0.0]) == 0.0


def test_sgo_hand_value():
    # -(1 - 16 + 0.5) with the second coordinate contributing nothing
    assert sgo([1.0, 0.0]) == pytest.approx(14.5, abs=1e-12)


def test_sgo_rejects_other_dims():
    with pytest.raises(ValueError):
        sgo([1.0])


def test_eval_count_tracks_every_evaluation():
    obj = make_objective("schwefel226", 3)
    assert obj.eval_count == 0
    rng = np.random.default_rng(0)
    n_single = 13
    for _ in range(n_single):
        obj.evaluate_batch(rng.uniform(-500, 500, size=(1, 3)))
    assert obj.eval_count == n_single
    obj.evaluate_batch(rng.uniform(-500, 500, size=(29, 3)))
    assert obj.eval_count == n_single + 29


def test_user_objective_counts_every_point():
    obj = ObjectiveSpec(lambda x: -(x**2).sum(axis=1), DecisionSpace.cube(3, -1.0, 1.0))
    assert obj.known_max_value is None and obj.known_max_location is None
    rng = np.random.default_rng(1)
    for m in (1, 5, 0, 17):
        values = obj.evaluate_batch(rng.uniform(-1.0, 1.0, size=(m, 3)))
        assert values.shape == (m,)
    assert obj.eval_count == 23


@pytest.mark.parametrize("func, space, field", [
    (lambda x: x, None, "space"),
    (lambda x: x, (np.zeros(2), np.ones(2)), "space"),
    (None, DecisionSpace.cube(2, -1.0, 1.0), "func"),
    ("schwefel226", DecisionSpace.cube(2, -1.0, 1.0), "func"),
], ids=["space_none", "space_tuple", "func_none", "func_name"])
def test_objective_spec_rejects_a_func_or_space_of_the_wrong_kind(func, space, field):
    # before, each built, and a search over it ended in AttributeError or TypeError
    with pytest.raises(ValueError, match=f"^{field} must be "):
        ObjectiveSpec(func, space)


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_known_optimum_beats_uniform_samples(name):
    obj = make_objective(name, 30 if BENCHMARKS[name].n_dims is None else None)
    n_dims = obj.space.n_dims
    rng = np.random.default_rng(42)
    samples = rng.uniform(obj.space.lower, obj.space.upper, size=(1000, n_dims))
    best_at_known = obj.evaluate_batch(obj.known_max_location[None, :])[0]
    assert best_at_known == pytest.approx(obj.known_max_value, abs=1e-3 * n_dims)
    assert np.all(best_at_known >= obj.evaluate_batch(samples))
    assert obj.eval_count == 1001


def _dims(name, *n_dims):
    return make_objective(name, *n_dims).space.n_dims


def test_make_objective_dimension_rule():
    assert _dims("schwefel226") == 2
    assert _dims("schwefel226", 30) == 30
    assert _dims("sgo") == _dims("sgo", 2) == 2
    assert _dims("ramp") == 1
    for name, n_dims in (("sgo", 3), ("rastrigin_offset", 1), ("ramp", 2)):
        with pytest.raises(ValueError, match=name):
            make_objective(name, n_dims)


def test_decision_space_diag_length():
    space = DecisionSpace.cube(30, -500.0, 500.0)
    expected = math.sqrt(30 * 1000.0**2)
    assert abs(space.diag_length - expected) <= 1e-12 * expected


@pytest.mark.parametrize("lower, upper, expected", [
    ([-8.9e307, 0.0], [8.9e307, 1.0], 1.78e308),  # a squared width overflows
    ([0.0, 0.0], [3e-200, 4e-200], 5e-200),  # every squared width underflows to 0
], ids=["overflow", "underflow"])
def test_decision_space_diag_length_survives_squaring_the_widths(lower, upper, expected):
    length = DecisionSpace(lower, upper).diag_length
    assert abs(length - expected) <= 1e-15 * expected


def test_decision_space_diag_length_keeps_its_bits_where_squares_are_finite():
    space = DecisionSpace([-500.0, -5.12, 0.0], [500.0, 5.12, 1e-3])
    widths = space.upper - space.lower
    assert space.diag_length == float(np.sqrt(np.sum(widths**2)))


def test_decision_space_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        DecisionSpace(np.array([0.0, 1.0]), np.array([1.0, 1.0]))


@pytest.mark.parametrize("lower, upper", [
    ([0.0, 0.0], [1.0]),
    ([[0.0, 0.0]], [[1.0, 1.0]]),
    (0.0, 1.0),
], ids=["unequal lengths", "2-D", "scalars"])
def test_decision_space_rejects_bounds_that_are_not_1d_of_equal_length(lower, upper):
    with pytest.raises(ValueError, match="^lower and upper must be 1-D arrays of equal length$"):
        DecisionSpace(lower, upper)


@pytest.mark.parametrize("lower, upper", [
    ([-np.inf, -500.0], [500.0, 500.0]),
    ([-500.0, -500.0], [500.0, np.inf]),
    ([-500.0, np.nan], [500.0, 500.0]),
], ids=["infinite lower", "infinite upper", "nan"])
def test_decision_space_rejects_non_finite_bounds(lower, upper):
    with pytest.raises(ValueError, match="every bound must be finite"):
        DecisionSpace(np.array(lower), np.array(upper))


@pytest.mark.parametrize("lower, upper, axis", [
    ([-1e308], [1e308], 0),
    ([0.0, -1e308], [1.0, 1e308], 1),
])
def test_decision_space_rejects_a_width_that_overflows(lower, upper, axis):
    # both bounds are finite, but upper - lower is +inf
    with pytest.raises(ValueError, match=f"width upper - lower of axis {axis} overflows"):
        DecisionSpace(lower, upper)


def test_decision_space_keeps_read_only_copies_of_its_bounds():
    # before, the space held the caller's arrays: an edit to them moved its
    # bounds past the checks it was built with
    lower, upper = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    space = DecisionSpace(lower, upper)
    lower[0], upper[1] = 5.0, -3.0
    assert space.lower.tolist() == [-1.0, -1.0] and space.upper.tolist() == [1.0, 1.0]
    assert space._cube == (-1.0, 1.0)
    with pytest.raises(ValueError, match="read-only"):
        space.lower[0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        space.upper += 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        space.lower = np.array([0.0, 0.0])


@pytest.mark.parametrize("lower, upper, cube", [
    ([-500.0] * 3, [500.0] * 3, (-500.0, 500.0)),
    ([2.0], [3.0], (2.0, 3.0)),
    ([-1.0, -1.0, -1.0], [1.0, 2.0, 3.0], None),
    ([-1.0, 0.0], [1.0, 1.0], None),
])
def test_decision_space_finds_a_cube_once(lower, upper, cube):
    # retrieve_errant takes a cube's bounds as these two floats
    assert DecisionSpace(lower, upper)._cube == cube


def test_decision_space_rejects_zero_dimensions():
    with pytest.raises(ValueError, match="at least one dimension"):
        DecisionSpace([], [])


@pytest.mark.parametrize("n_dims, lower, upper, message", [
    (None, -1.0, 1.0, "n_dims must be an integer >= 1, got None"),
    (2, None, 1.0, "lower and upper must be numbers, got None and 1.0"),
    (2, -1.0, None, "lower and upper must be numbers, got -1.0 and None"),
    (2, "-1", 1.0, "lower and upper must be numbers, got '-1' and 1.0"),
    (2, True, 2.0, "lower and upper must be numbers, got True and 2.0"),
], ids=["n_dims_none", "lower_none", "upper_none", "lower_str", "lower_bool"])
def test_cube_rejects_an_n_dims_or_bounds_that_are_not_numbers(n_dims, lower, upper, message):
    # before, the None cases ended in a bare TypeError, and "-1" and True built a cube
    with pytest.raises(ValueError, match=f"^{message}$"):
        DecisionSpace.cube(n_dims, lower, upper)


@pytest.mark.parametrize("n_dims", [0, -1])
def test_make_objective_rejects_fewer_than_one_dimension(n_dims):
    with pytest.raises(ValueError, match=f"n_dims must be an integer >= 1, got {n_dims}"):
        make_objective("schwefel226", n_dims)
    with pytest.raises(ValueError, match=f"n_dims must be an integer >= 1, got {n_dims}"):
        DecisionSpace.cube(n_dims, -1.0, 1.0)


@pytest.mark.parametrize("n_dims", ["2", 2.0, True], ids=["str", "float", "bool"])
def test_make_objective_rejects_an_n_dims_that_is_not_an_integer(n_dims):
    # before, "2" and 2.0 ended in a bare TypeError and True ran in one dimension
    message = rf"^n_dims must be an integer >= 1, got {n_dims!r}$"
    with pytest.raises(ValueError, match=message):
        make_objective("schwefel226", n_dims)
    with pytest.raises(ValueError, match=message):
        DecisionSpace.cube(n_dims, -1.0, 1.0)


@pytest.mark.parametrize("name", ["rosenbrock", [1], None], ids=["str", "list", "none"])
def test_an_unknown_benchmark_is_named(name):
    # before, [1] ended in TypeError: unhashable type
    message = rf"^unknown benchmark {re.escape(repr(name))}; expected one of "
    with pytest.raises(ValueError, match=message):
        make_objective(name)
    with pytest.raises(ValueError, match=message):
        make_objective(name, 2)


def test_make_objective_none_is_the_default_dimension():
    assert _dims("schwefel226", None) == _dims("schwefel226") == 2
    assert _dims("ramp", None) == 1
    assert _dims("schwefel226", np.int64(30)) == 30
