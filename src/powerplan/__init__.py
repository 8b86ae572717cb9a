"""powerplan: joint batch-size / GPU-frequency planning under a power cap.

Given measured device profiles (time and peak power per grid point) and
per-batch-size convergence ratios, pick the operating point that minimizes
time-to-accuracy while keeping peak power strictly below the device cap.
"""

from .baselines import (
    SafeFrequencyTable,
    baseline1_select,
    baseline2_select,
    compute_safe_table,
    fastest_configuration,
    format_safe_table,
    parse_safe_table,
)
from .core import (
    DataError,
    DeviceProfile,
    InfeasibleError,
    PowerCap,
    RelationVector,
    SelectionResult,
    feasible_combinations,
    relation_vector,
    select_configuration_fast,
)
from .ingest import (
    AggregatedPoint,
    ParseError,
    PowerTrace,
    TimingTrace,
    aggregate_point,
    format_relation_file,
    load_profile,
    parse_counts_file,
    parse_power_log,
    parse_relation_file,
    parse_timing_log,
    profiling_schedule,
    save_profile,
)
from .report import (
    ComparisonReport,
    ComparisonRow,
    SensitivityMatrix,
    SweepRow,
    build_comparison,
    build_sensitivity,
    build_sweep,
    cap_range,
)
from .synth import SynthDeviceParams, generate_profile

__all__ = [
    "AggregatedPoint",
    "ComparisonReport",
    "ComparisonRow",
    "DataError",
    "DeviceProfile",
    "InfeasibleError",
    "ParseError",
    "PowerCap",
    "PowerTrace",
    "RelationVector",
    "SafeFrequencyTable",
    "SelectionResult",
    "SensitivityMatrix",
    "SweepRow",
    "SynthDeviceParams",
    "TimingTrace",
    "aggregate_point",
    "baseline1_select",
    "baseline2_select",
    "build_comparison",
    "build_sensitivity",
    "build_sweep",
    "cap_range",
    "compute_safe_table",
    "fastest_configuration",
    "feasible_combinations",
    "format_relation_file",
    "format_safe_table",
    "generate_profile",
    "load_profile",
    "parse_counts_file",
    "parse_power_log",
    "parse_relation_file",
    "parse_safe_table",
    "parse_timing_log",
    "profiling_schedule",
    "relation_vector",
    "save_profile",
    "select_configuration_fast",
]

__version__ = "0.1.0"
