"""Track a single swarm collapsing toward its best probe.

One deterministic CFO search on 2-D Schwefel, then the per-step average
probe distance to the current best probe, normalized by the decision-space
diagonal. The spread mostly shrinks as the gravity-like pull concentrates
the swarm, with occasional kicks when probes overshoot the bounds and get
pulled back in. The emitted file, davg.dat, holds one ``step distance`` row
per time step.
"""

import os

from dtopt.cfo import CfoParams, run_cfo
from dtopt.objectives import make_objective
from dtopt.report import average_distance_to_best, render_davg, write_text

out_dir = "demo_output"
os.makedirs(out_dir, exist_ok=True)

objective = make_objective("schwefel226", 2)
params = CfoParams(n_probes=16, n_steps=25)
result, history = run_cfo(params, objective, 0.5)  # probe-line start at gamma = 0.5

print(f"best fitness {result.best_value:.5f} from probe {result.best_probe}"
      f" at step {result.best_step} ({result.evals_used} calls)")

davg = average_distance_to_best(history, objective.space)
path = os.path.join(out_dir, "davg.dat")
write_text(path, render_davg(history, objective.space))
print(f"wrote {path}\n")

print("step    <distance>/diagonal")
for j in (0, 1, 2, 5, 10, 15, 20, 25):
    print(f"{j:>4d}    {davg[j]:.5f}")
