"""Reproduce the 2-D Schwefel experiment.

Ten passes over a rising fitness floor, one random-start CFO search per pass
with the probe count doubling every pass: 26 evaluation sites per probe and
4 + 8 + ... + 2048 probes makes exactly 106,392 function calls regardless of
seed. The landscape has hundreds of similar local maxima; watch the floor
climb to within 2% of the peak while the best fitness closes in on the known
maximum 837.9658 at (420.9687, 420.9687).
"""

import sys
from math import inf

from dtopt import run_dto
from dtopt.report import PROFILES, to_dto_config

seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
report = run_dto(to_dto_config(PROFILES["schwefel2d"], seed=seed))

print(f"seed {seed}: best fitness {report.best_value:.6f} "
      f"at ({report.best_coords[0]:.6f}, {report.best_coords[1]:.6f})")
print(f"total function calls: {report.total_evals}")
print()
print("Pass#      Threshold      Best Fitness")
for rec in report.passes:
    threshold = "none" if rec.threshold == -inf else f"{rec.threshold:.3f}"
    print(f"{rec.pass_index:>4d}  {threshold:>15}  {rec.best_fitness:>16.5f}")
