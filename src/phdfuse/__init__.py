"""Distributed multi-target tracking with consensus-fused GM-PHD filters.

The package covers the full pipeline: Gaussian-mixture intensity algebra
(:mod:`phdfuse.gaussian`), the local PHD filter (:mod:`phdfuse.phd`),
consensus fusion over a sensor network (:mod:`phdfuse.consensus`),
bandwidth-limited transmission policies (:mod:`phdfuse.policies`), scenario
and measurement simulation (:mod:`phdfuse.scenario`), OSPA-based evaluation
(:mod:`phdfuse.metrics`), and a reproducible Monte Carlo experiment harness
(:mod:`phdfuse.experiment`) with a CLI (``phdfuse``).
"""

__version__ = "0.1.0"

from .gaussian import (
    GaussianMixture,
    NumericalFailure,
    cap,
    coalesce_duplicates,
    cs_divergence,
    l2_distance,
    l2_inner_product,
    l2_norm,
    merge,
    mixture_sum,
    prune,
    scale,
)
from .phd import (
    BirthModel,
    MotionModel,
    PhdConfig,
    SensorModel,
    SpawnModel,
    SpawnTerm,
    extract_targets,
    predict,
    reduce_mixture,
    update,
)
from .consensus import (
    ConsensusWeights,
    SensorNetwork,
    consensus_round,
    metropolis_weights,
    partial_fusion,
    validate_weights,
    waa,
)
from .policies import (
    PolicyTag,
    SamplingConfig,
    Transmission,
    TransmissionEntry,
    decode_transmission,
    encode_transmission,
    reconstruct,
    sample_with_replacement,
    sample_without_replacement,
    select_full,
    select_rank,
    select_threshold,
    transmission_cost,
)
from .scenario import (
    GroundTruth,
    MeasurementFrame,
    Region,
    Scenario,
    ScenarioConfig,
    TargetSchedule,
    build_scenario,
    generate_measurements,
    simulate_truth,
)
from .metrics import OspaConfig, OspaResult, ospa
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    compare_algorithms,
    load_experiment_config,
    run_experiment,
)

__all__ = [
    "__version__",
    # gaussian
    "GaussianMixture",
    "NumericalFailure",
    "mixture_sum",
    "scale",
    "prune",
    "merge",
    "cap",
    "coalesce_duplicates",
    "l2_inner_product",
    "l2_norm",
    "l2_distance",
    "cs_divergence",
    # phd
    "MotionModel",
    "BirthModel",
    "SpawnTerm",
    "SpawnModel",
    "SensorModel",
    "PhdConfig",
    "predict",
    "update",
    "extract_targets",
    "reduce_mixture",
    # consensus
    "SensorNetwork",
    "ConsensusWeights",
    "validate_weights",
    "metropolis_weights",
    "waa",
    "consensus_round",
    "partial_fusion",
    # policies
    "PolicyTag",
    "Transmission",
    "TransmissionEntry",
    "SamplingConfig",
    "select_full",
    "select_rank",
    "select_threshold",
    "sample_with_replacement",
    "sample_without_replacement",
    "reconstruct",
    "transmission_cost",
    "encode_transmission",
    "decode_transmission",
    # scenario
    "Region",
    "TargetSchedule",
    "ScenarioConfig",
    "GroundTruth",
    "MeasurementFrame",
    "Scenario",
    "build_scenario",
    "simulate_truth",
    "generate_measurements",
    # metrics
    "OspaConfig",
    "OspaResult",
    "ospa",
    # experiment
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "compare_algorithms",
    "load_experiment_config",
]
