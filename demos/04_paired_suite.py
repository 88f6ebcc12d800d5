"""The headline experiment: eight leg orientations, both controllers.

Runs every orientation relative to the current axis under the baseline
PID waypoint navigator and under the feed-forward augmented navigator
(using the ground-truth oracle effect model), then prints the paired
comparison table with the perpendicular traversals averaged.

Pass an output directory to also write the full run artifacts:

    python demos/04_paired_suite.py [out_dir]
"""

import sys

from asvnav.harness import run_suite, standard_suite
from asvnav.metrics import SUITE_ORIENTATIONS

out_dir = sys.argv[1] if len(sys.argv) > 1 else None
suite = standard_suite()
print(f"current: {suite.template.current.speed} m/s toward "
      f"{suite.template.current.direction} deg; "
      f"wind: {suite.template.wind.speed} m/s toward "
      f"{suite.template.wind.direction} deg")
print(f"legs: {suite.leg_length_m:.0f} m at {suite.leg_speed_mps} m/s, "
      f"16 runs (8 orientations x 2 controllers)\n")

result = run_suite(suite, out_dir=out_dir)
print(result.table.to_text())

print("\nper-orientation detail (orientation = leg bearing minus current axis):")
print(f"{'orient':>7s} {'baseline max':>13s} {'baseline pct':>13s} "
      f"{'augmented max':>14s} {'augmented pct':>14s}")
for o in SUITE_ORIENTATIONS:
    b, a = result.baseline[o], result.augmented[o]
    print(f"{o:7d} {b.max_error:10.2f} m {b.pct_over_1m:11.1f} % "
          f"{a.max_error:11.2f} m {a.pct_over_1m:12.1f} %")

if result.incomplete:
    print(f"\nincomplete runs: {', '.join(result.incomplete)}")
if out_dir:
    print(f"\nfull artifacts written under {out_dir}/")
