"""Planar ASV guidance simulator and controller library.

PID waypoint navigation, a regression-based disturbance effect model, and
the feed-forward intermediate-waypoint augmentation of the same navigator,
plus the simulation harness and metrics to compare the two.
"""

from .augment import (
    FRESH_NAV,
    AugmentConfig,
    Navigator,
    adjusted_speed,
    calc_intermediate_wp,
    navigator_step,
)
from .control import (
    DEFAULT_ACCEPT_RADIUS,
    DEFAULT_GAINS,
    FRESH_PID,
    NavGains,
    PidGains,
    Waypoint,
    pid_step,
    waypoint_reached,
)
from .effects import (
    EffectModel,
    OracleEffectModel,
    TrainingSample,
    fit,
    load_model,
    save_model,
)
from .env import (
    Environment,
    FieldSpec,
    ForceVector,
    GridField,
    GustSpec,
    LeftDomainError,
    RiverProfileField,
    UniformField,
)
from .geo import (
    GeoPoint,
    distance_bearing,
    wrap_angle,
    wrap_signed,
)
from .harness import (
    ControllerSpec,
    RunResult,
    Scenario,
    SuiteResult,
    SuiteSpec,
    SweepSpec,
    calm_water_scenario,
    downstream_failure_scenario,
    generate_training_logs,
    load_scenario,
    load_suite,
    run_scenario,
    run_suite,
    standard_suite,
)
from .metrics import (
    ComparisonTable,
    ErrorReport,
    LegNotAcquiredError,
    LogRecord,
    TrajectoryLog,
    cross_track_series,
    score,
    score_run,
    sign_changes_over_threshold,
    table_report,
)
from .vehicle import (
    NoiseSpec,
    VehicleParams,
    relative_to_absolute,
    sense,
    step,
    track_velocity,
)

__version__ = "0.1.0"
