"""Quasirandom floor sampling: how much of the landscape a threshold flattened.

A deterministic Halton sequence samples the decision space; the fraction of
samples landing on the floor, max(f, T) - T <= margin, turns into the
estimate p_above = 1 - n_on_floor / n_samples of the probability that a
sample falls inside the projections of the surviving peaks. As the threshold
rises toward the global maximum this estimate drops to zero.

The Halton columns are copied from cached per-base tables plus the digits
of each row, bit-identical to summing every index's digits one by one (see
``halton_points``). ``sample_threshold_floor`` streams: it maps, evaluates
and counts one chunk of Halton indices at a time and keeps only the running
count, so its memory grows with the dimension (see ``_chunk_rows``) but not
with the number of samples. A point depends only on its index and the count
is an integer sum, so the result does not depend on the chunking.

A chunk is column-major (Fortran order): each coordinate's values are
contiguous, so the Halton columns are written in one pass each and the
objective's elementwise work and its sum over each row run over whole
columns. For 2-D Schwefel that halves the time per point against row-major
chunks, where numpy sums each two-value row on its own.

Sampling here is standalone and never touches the call counter of a running
experiment: pass the plain objective function, not a counting wrapper.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .objectives import (DecisionSpace, _check_calls, _check_count, _check_dims, _check_type,
                         _is_number, _one_value_per_point)
from .threshold import _check_floor

__all__ = ["FLOOR_MARGIN", "FloorStats", "halton_points", "sample_threshold_floor"]

# A fitness f sits on the floor at threshold T when max(f, T) - T <= FLOOR_MARGIN.
FLOOR_MARGIN = 0.005

# The chunk rule (_chunk_rows): a chunk holds _CHUNK_VALUES coordinates
# (128 KB), but at least _MIN_CHUNK_ROWS points, at most _MAX_CHUNK_VALUES
# coordinates (8 MB) and at least one point: 2**14 // D points up to D = 4,
# 4096 up to D = 256, 2**20 // D up to D = 2**20 and one point of 8 D bytes
# above. At 128 KB a chunk's arrays and the objective's temporaries stay in
# malloc's heap; at 1 MB malloc returned them to the OS on free, and every
# chunk faulted them in again. Each column has a fixed cost of some 6 us,
# 25 us where its table is rebuilt per call, which fewer than 4096 rows would
# not amortise (131-row chunks ran 3x slower at D = 1000); at D = 1000 the
# 8 MB cap costs about 40 % more than 4096-row chunks. _first_primes adds a
# sieve of D (ln D + ln ln D) bytes, and the cached bases are 8 D bytes.
_CHUNK_VALUES = 1 << 14
_MIN_CHUNK_ROWS = 1 << 12
_MAX_CHUNK_VALUES = 1 << 20
# A Halton table holds at most max(4096, _TABLE_VALUES // D) values, and the
# cached tables at most _TABLE_VALUES (1 MB) in all: every table up to
# D = 30 (see _radical_inverse_tables). Tables sized by a chunk instead would
# make each column of a chunk span many table rows, each with its own
# digits, which made an 8-D scan twice as slow.
_TABLE_VALUES = 1 << 17


def _chunk_rows(n_dims: int) -> int:
    return min(max(_MIN_CHUNK_ROWS, _CHUNK_VALUES // n_dims), max(1, _MAX_CHUNK_VALUES // n_dims))


def _table_rows(n_dims: int) -> int:
    """The most values of one base's Halton table (see halton_points)."""
    return max(_MIN_CHUNK_ROWS, _TABLE_VALUES // n_dims)


def _first_primes(count: int) -> np.ndarray:
    """The first count primes as int64, from a sieve up to Rosser's bound:
    the n-th prime is below n (ln n + ln ln n) from n = 6 on, and 13 covers five."""
    limit = 13 if count < 6 else int(count * (math.log(count) + math.log(math.log(count)))) + 1
    sieve = np.zeros(limit + 1, dtype=bool)
    sieve[:2] = True
    for p in range(2, math.isqrt(limit) + 1):
        if not sieve[p]:
            sieve[p * p::p] = True
    np.logical_not(sieve, out=sieve)  # in place: the sieve is the one bool array
    return np.flatnonzero(sieve)[:count]


def _add_digits(sums: np.ndarray, indices: np.ndarray, base: int, scale: float) -> float:
    """Add each index's digits to sums, lowest first, times scale, scale/base, ...

    The indices must be >= 0; the loop runs until the largest is used up.
    Returns the scale that the next digit would get.
    """
    largest = int(indices.max(initial=0))
    while largest > 0:
        indices, digit = np.divmod(indices, base)
        sums += digit * scale
        scale /= base
        largest //= base
    return scale


def _write_rows(out: np.ndarray, table: np.ndarray, first_row: int, base: int,
                scale: float) -> float:
    """Fill out (rows, w) with the w table values plus the digits of rows
    first_row, first_row + 1, ..., from scale on. Returns the next scale.

    A single row's digits are taken one by one in Python, and its zero
    digits, which would add +0.0, are skipped: through _add_digits a head or
    tail row (two per column per chunk) costs three numpy calls per digit.
    """
    out[:] = table
    if len(out) > 1:
        return _add_digits(out, np.arange(first_row, first_row + len(out))[:, None], base, scale)
    row = first_row
    while row > 0:
        row, digit = divmod(row, base)
        if digit:
            out += digit * scale
        scale /= base
    return scale


def _radical_inverse_table(base: int, rows: int) -> tuple[np.ndarray, float]:
    """The radical inverses of 0 .. b**k - 1 in the base and the scale of
    digit k, where b**k is the largest power of the base within rows.

    The table is built as rows of its low k // 2 digits' table, each row
    plus its high digits, so it needs no b**k-sized integer temporary.
    """
    k = 0
    while base ** (k + 1) <= rows:
        k += 1
    low = np.zeros(base ** (k // 2))
    scale = _add_digits(low, np.arange(low.size), base, 1.0 / base)
    table = np.empty(base ** k)
    return table, _write_rows(table.reshape(-1, low.size), low, 0, base, scale)


@functools.lru_cache(maxsize=1)
def _radical_inverse_tables(n_dims: int) -> tuple[np.ndarray, tuple]:
    """The bases of halton_points(..., n_dims) as a read-only int64 array,
    and the read-only _radical_inverse_table of each leading base while
    these tables total at most _TABLE_VALUES values.

    That takes in every table of two or more digits. A later base's table
    has at most base values and is rebuilt per call, since at 1000
    dimensions they hold about 8 MB. One scan uses one dimension count, so
    one is cached.
    """
    rows = _table_rows(n_dims)
    bases = _first_primes(n_dims)
    bases.flags.writeable = False
    tables, n_values = [], 0
    for base in map(int, bases):
        table, scale = _radical_inverse_table(base, rows)
        n_values += table.size
        if n_values > _TABLE_VALUES:
            break
        table.flags.writeable = False
        tables.append((table, scale))
    return bases, tuple(tables)


def _write_radical_inverses(column: np.ndarray, base: int, table: np.ndarray, scale: float,
                            start: int) -> None:
    """Write the radical inverses of start .. start + len(column) - 1 into the
    contiguous column: a partial head row, whole rows, a partial tail row."""
    size, n_points = table.size, column.size
    row, offset = divmod(start, size)
    done = 0
    if offset:
        done = min(size - offset, n_points)
        _write_rows(column[None, :done], table[offset:offset + done], row, base, scale)
        row += 1
    whole = (n_points - done) // size
    if whole:
        _write_rows(column[done:done + whole * size].reshape(whole, size), table, row, base, scale)
        done += whole * size
    if done < n_points:
        _write_rows(column[None, done:], table[:n_points - done], row + whole, base, scale)


def halton_points(n_points: int, n_dims: int, start: int = 0) -> np.ndarray:
    """Halton points for indices start..start+n_points-1, shape (n_points, n_dims).

    The result is a fresh, writable, column-major (Fortran-ordered) array,
    so each column is contiguous.

    Column j is the radical inverse of each index in the j-th prime base b:
    the index's base-b digits d_0, d_1, ... summed as d_0/b + d_1/b**2 + ...,
    in that order, with the scale 1/b divided by b once per digit. With b**k
    the largest power of b within max(4096, _TABLE_VALUES // n_dims), the
    sum of the first k terms depends only on index mod b**k, so it comes from
    a table of r = 0 .. b**k - 1 (cached, see _radical_inverse_tables). Each
    index is a row q = index // b**k and a column r: the table is copied into
    the output column row by row, and the digits of q are added to whole
    rows in the same order, with the same products and scales, as a
    digit-by-digit loop over every index would add them. The sums are
    therefore bit-identical to that loop's, for any k: where the loop goes on
    past an index's last digit it adds +0.0, which changes nothing. Integer
    division runs only over the rows.

    ``n_points`` and ``start`` must be integers >= 0 and ``n_dims`` one from 1
    to the most float64 values one numpy array holds; anything else raises
    ValueError naming it.
    """
    _check_count("n_points", n_points, 0)
    _check_dims(n_dims)
    _check_count("start", start, 0)
    points = np.empty((n_points, n_dims), order="F")
    if n_points:
        rows = _table_rows(n_dims)
        bases, tables = _radical_inverse_tables(n_dims)
        for j, base in enumerate(map(int, bases)):
            table, scale = tables[j] if j < len(tables) else _radical_inverse_table(base, rows)
            _write_radical_inverses(points[:, j], base, table, scale, start)
    return points


def _check_margin(name: str, margin) -> None:
    # exact comparisons: an integer beyond the float range is no margin either
    if not (_is_number(margin) and 0.0 <= margin <= sys.float_info.max):
        raise ValueError(f"{name} must be finite and >= 0, got {margin!r}")


def _on_floor(f_val, t: float, margin: float):
    """Whether a fitness (scalar or array) is on the floor at threshold t:
    max(f, t) - t <= margin, computed as f - t <= margin. Below t, f - t is
    negative or -inf, as true as t - t = 0 (margin >= 0); above t the two
    are the same. At t = -inf, f - t is +inf or NaN: nothing is on a -inf
    floor. t and margin are not checked; sample_threshold_floor checks them
    once per scan."""
    with np.errstate(over="ignore", invalid="ignore"):
        return f_val - t <= margin


@dataclass
class FloorStats:
    n_samples: int
    n_on_floor: int
    p_above: float  # 1 - n_on_floor / n_samples
    threshold_used: float
    on_floor_margin: float


def sample_threshold_floor(
    func: Callable[[np.ndarray], np.ndarray],
    space: DecisionSpace,
    threshold: float,
    n_samples: int,
    margin: float = FLOOR_MARGIN,
) -> FloorStats:
    """Estimate the above-floor fraction of a thresholded landscape.

    Maps the Halton points of indices 0 .. n_samples-1 affinely into the
    decision space, evaluates f at each, and counts the samples on the floor:
    those with max(f, T) - T <= margin. ``func`` is called once per chunk
    (see _chunk_rows for its memory, which grows with n but not n_samples)
    with a fresh ``(m, n)`` float64 batch and must return m fitnesses. The
    batch is column-major: a ``func`` that needs C-contiguous input calls
    ``np.ascontiguousarray`` itself. From 8 dimensions numpy sums
    a column-major row left to right, not pairwise as a row-major one, so a
    30-D Schwefel value can differ from a row-major batch's by about 1e-12;
    below 8 the bits are the same. The counts are those of one batch.

    T = -inf is no floor, and no sample is on it. Under a finite T an
    objective value of +inf counts as above the floor and -inf as on it.
    A ``func`` that is not callable, a ``space`` that is not a DecisionSpace,
    an ``n_samples`` that is not an integer from 1 to objectives._MAX_VALUES
    (see objectives._check_calls), a T that is not a number or is NaN or
    +inf, a margin that is not finite and >= 0, a NaN value, or a result
    that is not one real number per sample raises ValueError.
    """
    _check_type("func", func, Callable)
    _check_type("space", space, DecisionSpace)
    _check_count("n_samples", n_samples, 1)
    _check_calls(n_samples, "n_samples")
    _check_floor(threshold)
    _check_margin("margin", margin)
    width = space.upper - space.lower
    chunk_rows = _chunk_rows(space.n_dims)
    n_on_floor = 0
    for start in range(0, n_samples, chunk_rows):
        m = min(chunk_rows, n_samples - start)
        # Through the public name, checks and all (about 4 us a chunk):
        # bench/layers.py times the Halton layer by wrapping it.
        points = halton_points(m, space.n_dims, start=start)
        points *= width
        points += space.lower
        f = _one_value_per_point(func(points), m)
        n_nan = int(np.count_nonzero(np.isnan(f)))
        if n_nan:
            raise ValueError(f"func returned NaN for {n_nan} of the {m} samples "
                             f"at Halton indices {start}..{start + m - 1}")
        n_on_floor += int(np.count_nonzero(_on_floor(f, threshold, margin)))
    return FloorStats(
        n_samples=n_samples,
        n_on_floor=n_on_floor,
        p_above=1.0 - n_on_floor / n_samples,
        threshold_used=threshold,
        on_floor_margin=margin,
    )
