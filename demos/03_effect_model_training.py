"""Training the disturbance effect model from simulated deployments.

Generates a grid of steady-condition runs, fits the ordinary-least-squares
effect model from the logged sensing, and compares the recovered
coefficients against the simulator's ground truth: drift is the current
plus the wind-drag fraction of the wind.
"""

from dataclasses import replace

from asvnav.effects import FEATURE_NAMES, TARGET_NAMES, fit
from asvnav.env import ForceVector
from asvnav.geo import GeoPoint
from asvnav.harness import SweepSpec, generate_training_logs
from asvnav.vehicle import NoiseSpec, VehicleParams

params = VehicleParams()
sweep = SweepSpec(
    origin=GeoPoint(34.0, -81.0),
    currents=tuple(ForceVector(s, d) for s, d in
                   ((0.2, 0.0), (0.45, 72.0), (0.7, 144.0), (0.95, 216.0), (1.2, 288.0))),
    winds=tuple(ForceVector(s, d) for s, d in
                ((0.5, 30.0), (2.5, 140.0), (5.0, 260.0), (7.5, 10.0))),
    headings=(0.0, 45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0),
    speeds=(1.2, 2.0, 3.0),
    duration_s=8.0,
    vehicle=params,
)

for noise, label in ((NoiseSpec(), "noise-free sensors"),
                     (NoiseSpec(sigma_speed=0.05), "sigma_speed = 0.05 m/s")):
    corpus = generate_training_logs(replace(sweep, noise=noise, seed=3))
    model = fit(corpus)
    print(f"=== fit on {len(corpus)} samples, {label} ===")
    print(f"  recipe: {model.recipe}")
    header = " ".join(f"{n[:9]:>10s}" for n in FEATURE_NAMES)
    print(f"  {'target':>12s} {header}")
    for row, target in zip(model.coef, TARGET_NAMES):
        cells = " ".join(f"{v:10.4f}" for v in row)
        print(f"  {target:>12s} {cells}")
    print(f"  residual RMSE per target: "
          + ", ".join(f"{n}={v:.4f}" for n, v in zip(TARGET_NAMES, model.residual_rmse)))
    print(f"  ground truth: current coefficients 1.0, wind coefficients "
          f"{params.wind_drag_factor} (the simulator's wind-drag factor)")
    print()

print("note: the deficit row regresses an along-heading projection onto")
print("east/north features, so across mixed headings its residual stays")
print("large by construction; the drift rows are the load-bearing outputs,")
print("and paired comparisons use the ground-truth oracle model instead.")
