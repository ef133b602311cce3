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

Sampling here is standalone and never touches the call counter of a running
experiment: pass the plain objective function, not a counting wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .objectives import DecisionSpace

__all__ = ["FloorStats", "halton_points", "sample_threshold_floor"]

DEFAULT_FLOOR_MARGIN = 0.005


def _first_primes(count: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def _add_digits(sums: np.ndarray, indices: np.ndarray, base: int, scale: float) -> float:
    """Add each index's digits to sums, lowest first, times scale, scale/base, ...

    Returns the scale that the next digit would get.
    """
    while np.any(indices > 0):
        indices, digit = np.divmod(indices, base)
        sums += digit * scale
        scale /= base
    return scale


def _radical_inverse_column(base: int, start: int, n_points: int) -> np.ndarray:
    """Radical inverses of start..start+n_points-1 in one base, via a block table."""
    stop = start + n_points
    block = 1
    while block * block < stop:  # smallest k with base**(2k) >= stop
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

    Column j is the radical inverse of each index in the j-th prime base: the
    index's base-b digits d_0, d_1, ... summed as d_0/b + d_1/b**2 + ..., in
    that order, with the scale 1/b divided by b once per digit. The columns
    come from a block table: with the smallest k such that b**(2k) covers
    start + n_points, the sum of the first k terms depends only on
    index mod b**k, so it is computed once for r = 0 .. b**k - 1 and
    broadcast over the rows q = index // b**k. The remaining digits are those
    of q, and each is added to its row in the same order, with the same
    product and the same scale, as a digit-by-digit loop over every index
    would add it. The sums are therefore bit-identical to that loop's: where
    the loop goes on past an index's last digit it adds +0.0, which changes
    nothing. Per base, integer division runs only over the b**k table
    entries and the rows; each point costs one copy from the table and at
    most k broadcast additions, k being about half the largest index's digit
    count.
    """
    if start < 0 or n_points < 0:
        raise ValueError("start and n_points must be >= 0")
    points = np.empty((n_points, n_dims))
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
    margin: float = DEFAULT_FLOOR_MARGIN,
) -> FloorStats:
    """Estimate the above-floor fraction of a thresholded landscape.

    Maps ``n_samples`` Halton points affinely into the decision space,
    evaluates the floored fitness g = max(f, T) at each, and counts a sample
    as on-floor when g - T <= margin. ``func`` must accept an (m, n) batch
    and return m fitnesses.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    points = halton_points(n_samples, space.n_dims)
    points *= space.upper - space.lower
    points += space.lower
    g = np.maximum(np.asarray(func(points), dtype=float), threshold)
    n_on_floor = int(np.count_nonzero(g - threshold <= margin))
    return FloorStats(
        n_samples=n_samples,
        n_on_floor=n_on_floor,
        p_above=1.0 - n_on_floor / n_samples,
        threshold_used=threshold,
        on_floor_margin=margin,
    )
