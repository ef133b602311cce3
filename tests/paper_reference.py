"""The paper's equations, one probe and one pair at a time: the tests' one
reference for a run.

DTO (dynamic threshold optimization) is a rising fitness floor around a
search. The search is parameter-free CFO (central force optimization;
Formato, "Central force optimization: a new metaheuristic with applications
in applied electromagnetics", PIER 77, 2007), with G = 2, dt = 1 and
alpha = beta = 2. Each function here is plain Python on floats, lists and
Fractions. It imports no dtopt module, and the pass loop takes the search it
runs as an argument, so a test can run the library against it. Only
``dense_accelerations`` uses numpy: it stands in for ``kernel`` where
Fractions are too slow, and the tests check it against ``kernel``. A random
start draws from the numpy generator the caller passes.

Positions are lists of per-probe coordinate lists, and fitnesses lists of
one float per probe.
"""

from fractions import Fraction
from math import isfinite

import numpy as np

G = 2  # parameter-free CFO's gravitational constant


# ----- one search -----

def start(n_probes, lower, upper, begin):
    """Step-0 positions from ``begin``: a gamma in [0, 1], or a generator.

    A generator draws each coordinate uniformly between its bounds, probe by
    probe. A gamma puts every probe on the diagonal point lower + gamma *
    (upper - lower), clamped at upper. With per_axis = n_probes // n_dims of
    at least 2, probe s + per_axis * a then has coordinate a at lower[a] +
    s * (upper[a] - lower[a]) / (per_axis - 1), clamped at upper[a].
    """
    if hasattr(begin, "uniform"):
        return [[float(begin.uniform(lo, hi)) for lo, hi in zip(lower, upper)]
                for _ in range(n_probes)]
    diagonal = [min(lo + begin * (hi - lo), hi) for lo, hi in zip(lower, upper)]
    positions = [list(diagonal) for _ in range(n_probes)]
    per_axis = n_probes // len(lower)
    if per_axis >= 2:
        for a, (lo, hi) in enumerate(zip(lower, upper)):
            step = (hi - lo) / (per_axis - 1)
            for s in range(per_axis):
                positions[s + per_axis * a][a] = min(lo + s * step, hi)
    return positions


def kernel(positions, fitness):
    """Every probe's acceleration and the size of the terms it sums.

    Probe p's acceleration is G times the sum over probes k of
    max(M_k - M_p, 0)^2 / |R_k - R_p|^2 * (R_k - R_p); a probe at zero
    distance pulls nothing. Each sum runs pair by pair in Fractions and is
    rounded once. The size is, per coordinate d, the sum over k of w_pk *
    (|R_kd| + |R_pd|), with w_pk the pair's weight G * gap^2 / distance^2:
    a sum of the pulls over absolute positions, as the library's kernel
    takes it, cancels terms of that size. Returns (accelerations, sizes).
    """
    points = [[Fraction(x) for x in row] for row in positions]
    masses = [Fraction(m) for m in fitness]
    accels, sizes = [], []
    for row, mass in zip(points, masses):
        total = [Fraction(0)] * len(row)
        size = [Fraction(0)] * len(row)
        for other, other_mass in zip(points, masses):
            if other_mass <= mass:
                continue
            diff = [b - a for a, b in zip(row, other)]
            d2 = sum(x * x for x in diff)
            if d2:
                weight = G * (other_mass - mass) ** 2 / d2
                total = [t + weight * x for t, x in zip(total, diff)]
                size = [s + weight * (abs(a) + abs(b)) for s, a, b in zip(size, row, other)]
        accels.append([float(t) for t in total])
        sizes.append([float(s) for s in size])
    return accels, sizes


def move(position, acceleration):
    """The ballistic move with dt = 1 from rest: R + 0.5 * A, per coordinate."""
    return [r + 0.5 * a for r, a in zip(position, acceleration)]


def retrieval_factor(j):
    """The factor step j >= 1 retrieves with: 0.5 at step 1, then 0.05 more
    per step up to 1.0, and on from 0.05 again, a cycle of 20 values."""
    return ((j + 9) % 20 or 20) / 20


def retrieve(x, prev, lower, upper, frep):
    """Coordinate x, moved from prev, pulled back inside [lower, upper].

    Below lower it goes to lower + frep * (prev - lower), above upper to
    upper - frep * (upper - prev); each is clamped at the far bound, which
    only a rounding can cross. Inside the bounds x stays.
    """
    if x < lower:
        return min(lower + frep * (prev - lower), upper)
    if x > upper:
        return max(upper - frep * (upper - prev), lower)
    return x


def floor(f, t):
    """The fitness f floored at threshold t, max(f, t): at or below t it
    reads t. A tie takes t's bits, which differ from f's only in the sign
    of a zero."""
    return f if f > t else t


def rests(previous_accelerations):
    """Whether a step rests: one after all-zero accelerations, as step 1 is,
    since step 0 does not accelerate. Its move, R + 0.5 * 0, leaves every
    coordinate where it was, as a number, and inside the bounds, so
    retrieval changes nothing."""
    return not any(a for row in previous_accelerations for a in row)


def _scan(fitness_by_step, better):
    found = None
    for j, row in enumerate(fitness_by_step):
        for p, f in enumerate(row):
            if found is None or better(f, found[0]):
                found = (f, p, j)
    return found


def scan_best(fitness_by_step):
    """(value, probe, step) of the best fitness, scanned step by step and
    probe by probe: a later tie wins."""
    return _scan(fitness_by_step, lambda f, best: f >= best)


def scan_worst(fitness_by_step):
    """(value, probe, step) of the worst fitness; a later tie wins."""
    return _scan(fitness_by_step, lambda f, worst: f <= worst)


# ----- the pass loop -----

def ramp(c_th, k, num_passes, f_star, f_min):
    """The threshold after completed pass k of num_passes:
    F_min + c_th * k / P * (F* - F_min). Where F* - F_min overflows, the
    same point of the range as F_min * (1 - c) + F* * c, c = c_th * k / P."""
    fraction = c_th * k / num_passes
    span = f_star - f_min
    if isfinite(span):
        return f_min + fraction * span
    return f_min * (1.0 - fraction) + f_star * fraction


def run_passes(search, starts, num_passes, n_probes, c_th=None, next_threshold=None,
               doubling=True):
    """The DTO pass loop around ``search``.

    Pass 1 runs under a -inf threshold, which floors nothing. Each pass runs
    one search per entry of ``starts`` (gammas, or one generator shared by
    every pass) as ``search(n_probes, start, threshold)``, which returns
    (best, best_coords, worst, evals). F* keeps the best value and its
    coordinates, F_min the worst, each replaced by an equal value from a
    later search. After pass k the threshold becomes the ramp's at c_th, or
    ``next_threshold(k, num_passes, f_star, f_min, pass_best)``, and with
    ``doubling`` the probe count doubles.

    Returns (best, best_coords, total_evals, passes), one (pass, threshold,
    pass_best, cumulative_evals) per pass, with floats as Python floats.
    """
    threshold, f_star, f_min = -float("inf"), -float("inf"), float("inf")
    best_coords, total, passes = None, 0, []
    for k in range(1, num_passes + 1):
        pass_best = -float("inf")
        for begin in starts:
            best, coords, worst, evals = search(n_probes, begin, threshold)
            total += evals
            if worst <= f_min:
                f_min = worst
            if best >= f_star:
                f_star, best_coords = best, [float(x) for x in coords]
            pass_best = max(pass_best, best)
        passes.append((k, float(threshold), float(pass_best), total))
        threshold = (ramp(c_th, k, num_passes, f_star, f_min) if next_threshold is None
                     else next_threshold(k, num_passes, f_star, f_min, pass_best))
        if doubling:
            n_probes *= 2
    return float(f_star), best_coords, total, passes


def as_run(report):
    """A RunReport-like object in run_passes' form, for a comparison bit for
    bit: floats compare by repr, which keeps the sign of a zero."""
    return (float(report.best_value), [float(x) for x in report.best_coords],
            report.total_evals,
            [(rec.pass_index, float(rec.threshold), float(rec.best_fitness),
              rec.cumulative_evals) for rec in report.passes])


# ----- a fast stand-in -----

def dense_accelerations(pos, fit):
    """``kernel``'s accelerations from all N x N pairs at once in numpy, for
    swarms too large for Fractions; rounded at every operation, so within a
    bound of ``kernel``'s. ``pos`` is an (N, D) and ``fit`` an (N,) array.
    Returns the (N, D) accelerations and the (p, k) pair weights
    G * max(M_k - M_p, 0)^2 / distance^2 (zero at zero distance).
    """
    n_probes = pos.shape[0]
    d2 = np.zeros((n_probes, n_probes))
    buf = np.empty((n_probes, n_probes))
    for axis in range(pos.shape[1]):
        c = pos[:, axis]
        np.subtract(c[None, :], c[:, None], out=buf)
        np.multiply(buf, buf, out=buf)
        d2 += buf
    zero_pairs = d2 == 0.0
    np.subtract(fit[None, :], fit[:, None], out=buf)  # buf[p, k] = M_k - M_p
    np.maximum(buf, 0.0, out=buf)
    np.multiply(buf, buf, out=buf)
    d2[zero_pairs] = 1.0
    np.divide(buf, d2, out=buf)
    buf *= G
    buf[zero_pairs] = 0.0
    return buf @ pos - buf.sum(axis=1, keepdims=True) * pos, buf
