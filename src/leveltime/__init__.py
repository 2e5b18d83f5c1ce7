"""Pathwise local times for sampled cadlag paths.

The package builds three local-time estimators (occupation density, partition
level crossing, Skorokhod interval crossing) on an exactly marked step-path
skeleton, verifies the discrete Tanaka identities that hold at any finite
resolution, and ships a seeded Monte Carlo harness for their convergence.
"""

from ._kernels import ACTIVE_BACKEND, warmup
from .crossing import (
    FIELD_KINDS,
    LocalTimeField,
    discrete_tanaka_residual,
    j_pi,
    k_pi,
    occupation_local_time,
    split_Kc_Kd,
)
from .dcfuncs import (
    DCFunction,
    SecondDerivativeMeasure,
    builtin_suite,
    dc_function_from_descriptor,
    make_abs,
    make_bump,
    make_mix,
    make_relu,
    make_square,
)
from .errors import ConfigError, InvariantViolation
from .follmer import QuadraticVariation, quadratic_variation
from .lab import (
    ExperimentConfig,
    ExperimentReport,
    GeneratorSpec,
    classical_local_time,
    experiment_config_from_json,
    generate,
    generate_many,
    generator_spec_from_json,
    lp_distance,
    q_statistic,
    run_convergence_experiment,
)
from .paths import (
    LevelGrid,
    PartitionScheme,
    SampledCadlagPath,
    path_to_csv_text,
    read_path_csv,
    total_variation,
    write_path_csv,
)
from .skorokhod import (
    SkorokhodSolution,
    banach_indicatrix,
    banach_indicatrix_integral,
    crossing_count_field,
    exceptional_levels,
    interval_crossing_local_time,
    monotone_segments,
    skorokhod_map,
    stieltjes_integral_band,
    stieltjes_integral_fprime,
    stieltjes_integral_ibp,
)

__version__ = "0.1.0"

__all__ = [
    "ACTIVE_BACKEND",
    "warmup",
    "FIELD_KINDS",
    "LocalTimeField",
    "discrete_tanaka_residual",
    "j_pi",
    "k_pi",
    "occupation_local_time",
    "split_Kc_Kd",
    "DCFunction",
    "SecondDerivativeMeasure",
    "builtin_suite",
    "dc_function_from_descriptor",
    "make_abs",
    "make_bump",
    "make_mix",
    "make_relu",
    "make_square",
    "ConfigError",
    "InvariantViolation",
    "QuadraticVariation",
    "quadratic_variation",
    "ExperimentConfig",
    "ExperimentReport",
    "GeneratorSpec",
    "classical_local_time",
    "experiment_config_from_json",
    "generate",
    "generate_many",
    "generator_spec_from_json",
    "lp_distance",
    "q_statistic",
    "run_convergence_experiment",
    "LevelGrid",
    "PartitionScheme",
    "SampledCadlagPath",
    "path_to_csv_text",
    "read_path_csv",
    "total_variation",
    "write_path_csv",
    "SkorokhodSolution",
    "banach_indicatrix",
    "banach_indicatrix_integral",
    "crossing_count_field",
    "exceptional_levels",
    "interval_crossing_local_time",
    "monotone_segments",
    "skorokhod_map",
    "stieltjes_integral_band",
    "stieltjes_integral_fprime",
    "stieltjes_integral_ibp",
]
