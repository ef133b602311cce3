"""Reproduce the 30-D Schwefel experiment, fully deterministic.

Probe-line starts keep the whole run free of randomness: each of the six
passes sweeps eleven diagonal fractions (gamma = 0.0 .. 1.0), and every
invocation of the inner search costs (15 + 1) * n_probes calls. With probe
doubling from 4 to 128 that is 11 * 16 * 252 = 44,352 calls total.

Early passes are degenerate on purpose: 4 probes cannot spread over 30 axes,
so they sit together on the diagonal point and only sample the sweep's eleven
diagonal locations. Once the probe count clears two per axis (pass 5) the
swarm fans out and the search homes in on the global basin near
x_i = 420.9687.
"""

from math import inf

from dtopt import run_dto
from dtopt.report import PROFILES, to_dto_config

report = run_dto(to_dto_config(PROFILES["schwefel30d"]))

print(f"best fitness {report.best_value:.5f} (known maximum 12569.487)")
print(f"total function calls: {report.total_evals}")
print(f"coordinate spread: [{report.best_coords.min():.4f}, {report.best_coords.max():.4f}]")
print()
print("Pass#      Threshold      Best Fitness")
for rec in report.passes:
    threshold = "none" if rec.threshold == -inf else f"{rec.threshold:.3f}"
    print(f"{rec.pass_index:>4d}  {threshold:>15}  {rec.best_fitness:>16.5f}")
