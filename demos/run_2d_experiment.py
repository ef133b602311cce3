"""Reproduce the 2-D Schwefel experiment.

Ten passes over a rising fitness floor, one random-start CFO search per pass
with the probe count doubling every pass: 26 evaluation sites per probe and
4 + 8 + ... + 2048 probes makes exactly 106,392 function calls regardless of
seed. The landscape has hundreds of similar local maxima; watch the floor
climb to within 2% of the peak while the best fitness closes in on the known
maximum 837.9658 at (420.9687, 420.9687).
"""

import sys

from dtopt import run_dto
from dtopt.report import PROFILES, render_summary, to_dto_config

seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
report = run_dto(to_dto_config(PROFILES["schwefel2d"], seed=seed))

print(f"seed {seed} (known maximum 837.9658)\n")
print(render_summary(report), end="")
