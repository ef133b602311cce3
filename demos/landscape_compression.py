"""Watch the floor flatten the 2-D Schwefel landscape.

Emits a 100x100 surface grid at a handful of rising thresholds, plus a
gnuplot command file per grid. With no floor the landscape is a thicket of
near-equal local maxima; as the threshold climbs, fewer and fewer peaks
survive until only the global maximum pokes through. Render any of the
emitted files with ``gnuplot -p <name>.gp``.
"""

import os

import numpy as np

from dtopt.objectives import DecisionSpace, schwefel226
from dtopt.report import render_surface, render_surface_command, write_text

out_dir = "demo_output"
os.makedirs(out_dir, exist_ok=True)
space = DecisionSpace.cube(2, -500.0, 500.0)

floors = [-np.inf, -347.955, 181.693, 686.126]
for floor in floors:
    tag = "none" if floor == -np.inf else str(floor).replace("-", "m").replace(".", "p")
    data = os.path.join(out_dir, f"surface_{tag}.dat")
    command = os.path.join(out_dir, f"surface_{tag}.gp")
    write_text(data, render_surface(schwefel226, space, floor))
    write_text(command, render_surface_command(os.path.basename(data)))
    label = "no floor" if floor == -np.inf else f"floor at {floor}"
    print(f"wrote {data} ({label})")

print(f"\nrender with: gnuplot -p {out_dir}/surface_none.gp")
