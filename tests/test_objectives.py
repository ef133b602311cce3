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
    _LastBatch,
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
    assert obj.known_max_value is None and obj.eval_count == 0
    rng = np.random.default_rng(1)
    for m in (1, 5, 0, 17):
        values = obj.evaluate_batch(rng.uniform(-1.0, 1.0, size=(m, 3)))
        assert values.shape == (m,)
    assert obj.eval_count == 23


_BATCH = r"^points must be an \(m, 2\) batch, got shape "


@pytest.mark.parametrize("points, message", [
    (np.zeros(2), _BATCH + r"\(2,\)$"),
    (np.zeros((3, 5)), _BATCH + r"\(3, 5\)$"),
    (np.zeros((4, 2, 1)), _BATCH + r"\(4, 2, 1\)$"),
    (np.zeros(()), _BATCH + r"\(\)$"),
    (np.zeros(0), _BATCH + r"\(0,\)$"),
    (np.array([["0.1", "0.2"]]), "^points must hold real numbers, got dtype <U3$"),
    (np.array([[True, False]]), "^points must hold real numbers, got dtype bool$"),
    (np.array([[0.5 + 1j, 0.0]]), "^points must hold real numbers, got dtype complex128$"),
], ids=["one_point", "five_columns", "three_axes", "scalar", "empty", "str", "bool",
        "complex"])
def test_evaluate_batch_refuses_a_batch_that_is_not_m_points_before_counting(points,
                                                                             message):
    # before, a 1-D point [0.1, 0.2] counted as 2 calls, a (3, 5) batch on a
    # 2-D space as 3, and string and bool points ran as numbers
    seen = []
    obj = ObjectiveSpec(lambda x: seen.append(x) or np.zeros(len(x)),
                        DecisionSpace.cube(2, -1.0, 1.0))
    with pytest.raises(ValueError, match=message):
        obj.evaluate_batch(points)
    assert obj.eval_count == 0 and not seen


@pytest.mark.parametrize("result", [
    [1, 2, 3], np.arange(3, dtype=np.int8), np.arange(3, dtype=np.uint64),
    np.arange(3, dtype=np.float32), np.arange(6.0)[::2],
], ids=["list_of_int", "int8", "uint64", "float32", "strided"])
def test_evaluate_batch_returns_real_results_as_float64(result):
    obj = ObjectiveSpec(lambda x: result, DecisionSpace.cube(2, -1.0, 1.0))
    values = obj.evaluate_batch(np.zeros((3, 2)))
    assert type(values) is np.ndarray and values.dtype == np.float64
    assert values.tolist() == np.asarray(result, dtype=float).tolist()
    assert obj.eval_count == 3


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


def test_objective_spec_takes_only_a_function_and_a_space():
    # before, eval_count = 1.5 seeded the counter a run reports (a 2-pass run's
    # summary.txt read "using 48.0 function calls"), and known_max_location,
    # which nothing read, took [1, 2, 3] on a 2-D space
    space = DecisionSpace.cube(2, -500.0, 500.0)
    init = [f.name for f in dataclasses.fields(ObjectiveSpec) if f.init]
    assert init == ["func", "space"]
    for name, value in (("eval_count", 1.5), ("known_max_value", 0.0),
                        ("known_max_location", [1, 2, 3])):
        with pytest.raises(TypeError, match=name):
            ObjectiveSpec(schwefel226, space, **{name: value})
    obj = ObjectiveSpec(schwefel226, space)
    assert not hasattr(obj, "known_max_location")
    assert (obj.eval_count, obj.known_max_value) == (0, None)


def test_eval_count_moves_only_through_evaluate_batch():
    # before, an assignment seeded the count a run reports: eval_count = 1.5
    # on schwefel30d's objective wrote "using 44352.0 function calls"
    obj = make_objective("schwefel226", 2)
    obj.evaluate_batch(np.zeros((3, 2)))
    for change in (lambda: setattr(obj, "eval_count", 1.5),
                   lambda: delattr(obj, "eval_count")):
        with pytest.raises(AttributeError):
            change()
    assert obj.eval_count == 3


@pytest.mark.parametrize("name, n_dims, expected", [
    ("schwefel226", None, 418.9829 * 2), ("schwefel226", 2, 418.9829 * 2),
    ("schwefel226", 30, 418.9829 * 30), ("rastrigin_offset", None, 10.123),
    ("sgo", None, 130.8323226), ("ramp", None, 1.0),
])
def test_make_objective_fills_in_the_known_maximum(name, n_dims, expected):
    assert make_objective(name, n_dims).known_max_value == expected


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_known_optimum_beats_uniform_samples(name):
    bench = BENCHMARKS[name]
    obj = make_objective(name, 30 if bench.n_dims is None else None)
    n_dims = obj.space.n_dims
    rng = np.random.default_rng(42)
    samples = rng.uniform(obj.space.lower, obj.space.upper, size=(1000, n_dims))
    argmax = np.array(bench.argmax * (n_dims // len(bench.argmax)))
    best_at_known = obj.evaluate_batch(argmax[None, :])[0]
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


@pytest.mark.parametrize("lower, upper, field, dtype", [
    ([False, False], [True, True], "lower", "bool"),
    (["-1", "0"], ["1", "2"], "lower", "<U2"),
    ([0.0], [0j], "upper", "complex128"),
    ([object()], [1.0], "lower", "object"),
    ([-1.0, 0.0], [None, 1.0], "upper", "object"),
], ids=["bool", "str", "complex", "object", "none"])
def test_decision_space_bounds_must_be_real_numbers(lower, upper, field, dtype):
    # before, bools and strings built a space (strings parsed as floats), and
    # complex and object bounds ended in a bare TypeError
    with pytest.raises(ValueError, match=f"^{field} must hold real numbers, got dtype {dtype}$"):
        DecisionSpace(lower, upper)


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


@pytest.mark.parametrize("other, equal", [
    (DecisionSpace.cube(2, 0, 1), True),
    (DecisionSpace([0.0, 0.0], [1.0, 1.0]), True),
    (DecisionSpace([-0.0, 0.0], [1.0, 1.0]), True),
    (DecisionSpace.cube(2, 0, 2), False),
    (DecisionSpace([0.0, 0.5], [1.0, 1.0]), False),
    (DecisionSpace.cube(3, 0, 1), False),
    ("not a space", False),
], ids=["cube", "arrays", "negative_zero", "upper", "one_axis", "n_dims", "str"])
def test_decision_space_compares_and_hashes_its_bounds_by_value(other, equal):
    space = DecisionSpace.cube(2, 0, 1)
    assert (space == other) is equal and (space != other) is not equal
    if equal:
        assert hash(space) == hash(other)
        assert len({space, other}) == 1


def test_objective_spec_equals_only_itself():
    # it carries a mutable call counter, so two specs of one function are two
    first, second = make_objective("schwefel226", 2), make_objective("schwefel226", 2)
    assert first == first and first != second
    assert len({first, second}) == 2


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
    message = rf"^name must be one of \('schwefel226', .*\), got {re.escape(repr(name))}$"
    with pytest.raises(ValueError, match=message):
        make_objective(name)
    with pytest.raises(ValueError, match=message):
        make_objective(name, 2)


def test_make_objective_none_is_the_default_dimension():
    assert _dims("schwefel226", None) == _dims("schwefel226") == 2
    assert _dims("ramp", None) == 1
    assert _dims("schwefel226", np.int64(30)) == 30


# ----- _LastBatch: a batch equal to the previous one is answered, not computed -----

def _counted_cache(func=schwefel226):
    """A _LastBatch over func, and the list of batches func actually got."""
    computed = []

    def counted(x):
        computed.append(x.copy())
        return func(x)

    return _LastBatch(counted), computed


def _bits(values):
    return np.asarray(values).view(np.int64).tolist()


def test_a_repeated_batch_gets_identical_bits_in_a_new_array():
    cache, computed = _counted_cache()
    x = np.random.default_rng(3).uniform(-500.0, 500.0, size=(8, 30))
    first, second = cache(x), cache(x.copy())
    assert len(computed) == 1
    assert _bits(second) == _bits(first) == _bits(schwefel226(x))
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(second, cache(x))


@pytest.mark.parametrize("change", [
    lambda x: np.where(x == 0.0, -0.0, x),  # one sign bit: -0.0 for 0.0
    lambda x: x.reshape(4, 4),  # the same values in another shape
    lambda x: x.reshape(2, 8),
    lambda x: np.asfortranarray(x),  # the same values and shape in F order
])
def test_a_batch_that_differs_in_bits_shape_or_layout_is_computed(change):
    cache, computed = _counted_cache()
    x = np.random.default_rng(4).uniform(-500.0, 500.0, size=(8, 2))
    x[3] = 0.0  # fitness 0.0, and -0.0 at (-0.0, -0.0)
    cache(x)
    y = change(x)
    assert _bits(cache(y)) == _bits(schwefel226(y))
    assert len(computed) == 2


def test_the_same_30d_values_in_f_order_get_their_own_row_sums():
    x = np.random.default_rng(5).uniform(-500.0, 500.0, size=(64, 30))
    f_order = np.asfortranarray(x)
    assert _bits(schwefel226(f_order)) != _bits(schwefel226(x))  # else the test shows nothing
    cache, computed = _counted_cache()
    assert _bits(cache(x)) == _bits(schwefel226(x))
    assert _bits(cache(f_order)) == _bits(schwefel226(f_order))
    assert _bits(cache(x)) == _bits(schwefel226(x))
    assert len(computed) == 3


def test_editing_an_answer_or_the_input_never_changes_a_later_answer():
    cache, computed = _counted_cache()
    x = np.random.default_rng(6).uniform(-500.0, 500.0, size=(5, 3))
    expected = _bits(schwefel226(x))
    cache(x)[:] = 1.0  # a computed answer
    hit = cache(x)
    assert _bits(hit) == expected
    hit[:] = 2.0  # an answer from the entry
    assert _bits(cache(x)) == expected
    assert len(computed) == 1
    x[2, 1] = 7.0  # the caller's input, after the call
    assert _bits(cache(x)) == _bits(schwefel226(x))
    assert len(computed) == 2


@pytest.mark.parametrize("cached", [False, True], ids=["plain", "cached"])
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_editing_the_batch_after_the_call_leaves_the_answer(name, cached):
    # before, ramp answered with a view of the caller's batch
    obj = make_objective(name)
    if cached:
        obj.func = _LastBatch(obj.func)
    draw = np.random.default_rng(8).uniform(obj.space.lower, obj.space.upper,
                                            size=(4, obj.space.n_dims))
    expected = _bits(BENCHMARKS[name].func(draw.copy()))
    for _ in range(2):  # computed, then answered from the entry
        points = draw.copy()
        values = obj.evaluate_batch(points)
        points[:] = obj.space.upper
        assert _bits(values) == expected


@pytest.mark.parametrize("result", [np.array([True, False, True]), np.array(["1", "2", "3"])],
                         ids=["bool", "str"])
def test_a_stored_answer_meets_the_same_dtype_rule(result):
    # before, the cache cast a shipped function's result to float, so a bool
    # or str result ran as fitness values, computed or stored
    obj = ObjectiveSpec(_LastBatch(lambda x: result), DecisionSpace.cube(2, -1.0, 1.0))
    for _ in range(2):  # computed, then answered from the entry
        with pytest.raises(ValueError, match="^func's result must hold real numbers"):
            obj.evaluate_batch(np.zeros((3, 2)))


def test_an_exception_leaves_the_entry_as_it_was():
    def picky(x):
        if (x < 0.0).any():
            raise ValueError("negative")
        return schwefel226(x)

    cache, computed = _counted_cache(picky)
    good, bad = np.full((4, 2), 3.0), np.full((4, 2), -3.0)
    expected = _bits(cache(good))
    for _ in range(2):
        with pytest.raises(ValueError, match="^negative$"):
            cache(bad)
    assert _bits(cache(good)) == expected
    assert len(computed) == 3  # good, bad, bad: the last good was a hit
