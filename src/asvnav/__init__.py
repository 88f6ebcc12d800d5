"""Planar ASV guidance simulator and controller library.

Baseline PID waypoint navigation, a regression-based disturbance effect
model, and the feed-forward intermediate-waypoint augmentation that wraps
the baseline, plus the simulation harness and metrics to compare them.
"""

from .augment import (
    AugmentConfig,
    AugmentState,
    adjusted_speed,
    augmented_navigator_step,
    calc_intermediate_wp,
)
from .control import (
    DEFAULT_ACCEPT_RADIUS,
    DEFAULT_GAINS,
    NavGains,
    NavigatorState,
    PidGains,
    PidState,
    Waypoint,
    mission_complete,
    navigator_step,
    pid_step,
    waypoint_reached,
)
from .effects import (
    EffectModel,
    EffectPrediction,
    ForceSample,
    OracleEffectModel,
    TrainingSample,
    convert_to_coordinate_vectors,
    fit,
    load_model,
    save_model,
)
from .env import (
    Environment,
    FieldSpec,
    ForceVector,
    GustSpec,
    LeftDomainError,
    sample_field,
)
from .geo import (
    EnuVector,
    GeoPoint,
    distance_bearing,
    offset_point,
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
    score_log,
    sign_changes_over_threshold,
    table_report,
)
from .vehicle import (
    ActuatorCommand,
    AsvState,
    NoiseSpec,
    SensorFrame,
    VehicleParams,
    relative_to_absolute,
    sense,
    step,
)

__version__ = "0.1.0"
