"""Quasirandom floor sampling: how much of the landscape a threshold flattened.

A deterministic Halton sequence samples the decision space; the fraction of
samples landing on the floor (within a small margin of the threshold) turns
into the estimate p_above = 1 - n_on_floor / n_samples of the probability
that a sample falls inside the projections of the surviving peaks. As the
threshold rises toward the global maximum this estimate drops to zero.

The Halton columns come from a small per-base digit table broadcast over
blocks of indices (see ``halton_points``). They are bit-identical to summing
every index's digits one by one, at a fraction of the cost: no integer
division by the base runs over all indices.

``sample_threshold_floor`` streams: it walks the Halton indices in chunks,
maps, evaluates and counts one chunk at a time, and keeps only the running
count. A chunk holds max(4096, 2**17 // n_dims) points, so 1 MB of points
up to 32 dimensions and 32 KB per dimension above; memory does not grow
with the number of samples. A point depends only on its index, and the
count is an integer sum, so the result does not depend on the chunking.

A chunk is column-major (Fortran order) from the moment it is built: each
coordinate's values are contiguous. The Halton columns are written in one
pass each, and the objective's elementwise work and its sum over each row
run over whole columns. For 2-D Schwefel that halves the time per point
against row-major chunks, where every row of two values is summed on its
own. A ``func`` that needs C-contiguous input calls ``np.ascontiguousarray``.

Sampling here is standalone and never touches the call counter of a running
experiment: pass the plain objective function, not a counting wrapper.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .objectives import DecisionSpace, _check_count, _one_value_per_point
from .threshold import FLOOR_MARGIN, _check_floor, on_floor

__all__ = ["FloorStats", "halton_points", "sample_threshold_floor"]

# A chunk of sample_threshold_floor holds _CHUNK_VALUES coordinates (1 MB),
# but at least _MIN_CHUNK_ROWS points: each column of a chunk has a fixed
# cost of some 30 us (its digit table and a dozen numpy calls), which fewer
# rows would not amortise; at 1000 dimensions 131-row chunks ran 5x slower.
_CHUNK_VALUES = 1 << 17
_MIN_CHUNK_ROWS = 1 << 12


@functools.lru_cache(maxsize=8)
def _first_primes(count: int) -> tuple[int, ...]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return tuple(primes)


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


def _radical_inverse_column(base: int, start: int, n_points: int) -> np.ndarray:
    """Radical inverses of start..start+n_points-1 in one base, via a block table."""
    stop = start + n_points
    block = 1
    while block * block < n_points:  # smallest k with base**(2k) >= n_points
        block *= base
    table = np.zeros(block)
    scale = _add_digits(table, np.arange(block), base, 1.0 / base)
    first_row, end_row = start // block, -(-stop // block)
    rows = np.empty((end_row - first_row, block))
    rows[:] = table
    _add_digits(rows, np.arange(first_row, end_row)[:, None], base, scale)
    offset = start - first_row * block
    return rows.reshape(-1)[offset:offset + n_points]


def halton_points(n_points: int, n_dims: int, start: int = 0) -> np.ndarray:
    """Halton points for indices start..start+n_points-1, shape (n_points, n_dims).

    The result is a fresh, writable, column-major (Fortran-ordered) array,
    so each column is contiguous.

    Column j is the radical inverse of each index in the j-th prime base: the
    index's base-b digits d_0, d_1, ... summed as d_0/b + d_1/b**2 + ..., in
    that order, with the scale 1/b divided by b once per digit. The columns
    come from a block table: with the smallest k such that b**(2k) covers
    n_points, the sum of the first k terms depends only on index mod b**k,
    so it is computed once for r = 0 .. b**k - 1 and broadcast over the rows
    q = index // b**k. The remaining digits are those of q, and each is added
    to its row in the same order, with the same product and the same scale,
    as a digit-by-digit loop over every index would add it. The sums are
    therefore bit-identical to that loop's, for any k: where the loop goes on
    past an index's last digit it adds +0.0, which changes nothing. Per base,
    integer division runs only over the b**k table entries and the rows, and
    the table's size follows n_points, not start; each point costs one copy
    from the table and one broadcast addition per digit of its row q.
    """
    if start < 0 or n_points < 0:
        raise ValueError("start and n_points must be >= 0")
    points = np.empty((n_points, n_dims), order="F")
    for j, base in enumerate(_first_primes(n_dims)):
        points[:, j] = _radical_inverse_column(base, start, n_points)
    return points


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
    decision space, evaluates f at each, and counts the samples on the floor
    by ``threshold.on_floor``: max(f, T) - T <= margin. The indices are walked
    in consecutive chunks of max(4096, 2**17 // n) points, so ``func`` is
    called once per chunk with a fresh ``(m, n)`` float64 batch, and must
    return m fitnesses. The batch is column-major (Fortran-ordered): a
    ``func`` that needs C-contiguous input must call ``np.ascontiguousarray``
    itself. Peak memory is a few times the chunk (1 MB of points up to
    32 dimensions) whatever ``n_samples`` is. The counts are the same as
    those of one batch over all samples.

    The layout can change a value in its last bits. numpy sums a row of
    fewer than 8 values left to right in either layout, so the shipped
    functions give the same bits below 8 dimensions. From 8 dimensions it
    sums a row-major row pairwise but a column-major row left to right, so
    a 30-D Schwefel value can move by about 1e-12. A count can change only
    for a sample within that distance of the threshold plus the margin.

    T = -inf is no floor, and no sample is on it. Under a finite T an
    objective value of +inf counts as above the floor and -inf as on it.
    An ``n_samples`` that is not an integer >= 1, a NaN or +inf T, a margin
    that is not finite and >= 0, a NaN value, or a result that is not one
    value per sample raises ValueError.
    """
    _check_count("n_samples", n_samples, 1)
    _check_floor(threshold, margin)
    width = space.upper - space.lower
    chunk_rows = max(_MIN_CHUNK_ROWS, _CHUNK_VALUES // space.n_dims)
    n_on_floor = 0
    for start in range(0, n_samples, chunk_rows):
        m = min(chunk_rows, n_samples - start)
        points = halton_points(m, space.n_dims, start=start)
        points *= width
        points += space.lower
        f = _one_value_per_point(func(points), m)
        n_nan = int(np.count_nonzero(np.isnan(f)))
        if n_nan:
            raise ValueError(f"func returned NaN for {n_nan} of the {m} samples "
                             f"at Halton indices {start}..{start + m - 1}")
        n_on_floor += int(np.count_nonzero(on_floor(f, threshold, margin)))
    return FloorStats(
        n_samples=n_samples,
        n_on_floor=n_on_floor,
        p_above=1.0 - n_on_floor / n_samples,
        threshold_used=threshold,
        on_floor_margin=margin,
    )
