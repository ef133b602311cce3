"""Host-speed reference for the end-to-end time metrics.

The machine this benchmark was written on is shared, and its speed steps by
as much as 40 % from one minute to the next: the same ``sweep2d`` repetition
took 4.4 s for four minutes and then 2.6 s, with CPU time following wall
time and almost no steal time. A wall time alone then measures the
neighbours as much as the program.

Each workload therefore has a fixed reference computation, written here with
numpy alone so that no change to dtopt moves it, and shaped like the
workload's own work: the all-pairs force step at the workload's swarm sizes
and dimension, or one Halton rung. run.py times the reference before the
first repetition and after each one, and scales every repetition's wall time
by NOMINAL_S over the mean of the two reference times around it. The
reference runs in a child process of its own, so its arrays never count in
the benchmark's peak RSS:

    python3 bench/reference.py <workload>

runs it once for every line read from standard input and prints the wall
time of each run, in seconds, one per line. Over the
four-minute step above, the raw repetition time moved by 40 % and the scaled
time by about 10 %.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# A typical reference time per workload on the machine the constants were
# set on (2-vCPU "Intel(R) Xeon(R) Processor", one BLAS thread); its speed
# moved each of them by up to 40 % either way. Scaled times are seconds on a
# host that runs the reference in exactly this time.
NOMINAL_S = {"sweep2d": 0.30, "probe30d": 0.080, "floor_ladder": 0.100}


def pair_step(pos: np.ndarray, fit: np.ndarray) -> np.ndarray:
    """One all-pairs step: squared distances, positive fitness gaps squared,
    divided, and reduced against the positions."""
    n = fit.shape[0]
    d2 = np.zeros((n, n))
    buf = np.empty((n, n))
    for axis in range(pos.shape[1]):
        c = pos[:, axis]
        np.subtract(c[None, :], c[:, None], out=buf)
        np.multiply(buf, buf, out=buf)
        d2 += buf
    zero = d2 == 0.0
    np.subtract(fit[None, :], fit[:, None], out=buf)
    np.maximum(buf, 0.0, out=buf)
    np.multiply(buf, buf, out=buf)
    d2[zero] = 1.0
    np.divide(buf, d2, out=buf)
    buf[zero] = 0.0
    return buf @ pos - buf.sum(axis=1, keepdims=True) * pos


def _schwefel(points: np.ndarray) -> np.ndarray:
    return -np.sum(points * np.sin(np.sqrt(np.abs(points))), axis=1)


class _PairSteps:
    """``calls`` pair steps plus a fitness evaluation at each swarm size."""

    def __init__(self, sizes, n_dims: int, calls: int):
        rng = np.random.default_rng(0)
        self.swarms = [rng.uniform(-500.0, 500.0, size=(n, n_dims)) for n in sizes]
        self.calls = calls

    def __call__(self) -> None:
        for pos in self.swarms:
            for _ in range(self.calls):
                pair_step(pos, _schwefel(pos))


def _digit_reverse(indices: np.ndarray, base: int) -> np.ndarray:
    remaining = indices.copy()
    out = np.zeros(indices.shape)
    scale = 1.0 / base
    while np.any(remaining > 0):
        remaining, digit = np.divmod(remaining, base)
        out += digit * scale
        scale /= base
    return out


class _HaltonRung:
    """One floor-ladder rung: 2-D Halton points, Schwefel values, a floor count."""

    def __init__(self, n_samples: int):
        self.indices = np.arange(n_samples)

    def __call__(self) -> None:
        unit = np.column_stack([_digit_reverse(self.indices, b) for b in (2, 3)])
        g = np.maximum(_schwefel(-500.0 + 1000.0 * unit), 0.0)
        np.count_nonzero(g <= 1e-9)


def make_reference(workload: str):
    """The reference computation of a workload, as a callable taking no arguments."""
    if workload == "sweep2d":
        return _PairSteps([4 * 2**k for k in range(10)], n_dims=2, calls=2)
    if workload == "probe30d":
        return _PairSteps([4 * 2**k for k in range(6)], n_dims=30, calls=30)
    return _HaltonRung(250_000)


class ReferenceProcess:
    """A workload's reference in a child process. Calling it runs the
    reference once and returns the child's wall time for that run."""

    def __init__(self, workload: str):
        self.child = subprocess.Popen([sys.executable, __file__, workload], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def __call__(self) -> float:
        self.child.stdin.write("\n")
        self.child.stdin.flush()
        line = self.child.stdout.readline()
        if not line:
            raise RuntimeError(f"reference process ended with code {self.child.wait()}")
        return float(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.child.stdin.close()
        try:
            self.child.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.child.kill()
            self.child.wait()
        self.child.stdout.close()


def main(workload: str) -> None:
    reference = make_reference(workload)
    while sys.stdin.readline():
        start = time.perf_counter()
        reference()
        print(repr(time.perf_counter() - start), flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
