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

from dtopt import run_dto
from dtopt.report import PROFILES, render_summary, to_dto_config

report = run_dto(to_dto_config(PROFILES["schwefel30d"]))

print("known maximum 12569.487\n")
print(render_summary(report), end="")
