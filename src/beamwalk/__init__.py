"""Discrete-time quantum walks on a beam-splitter mesh.

State-vector evolution of a one-dimensional walk whose coin is a beam
splitter with tunable reflectivity and per-mesh-point phase plates,
plus disorder ensembles, measurement statistics, a brute-force path-sum
cross-check, and the geometry of the folded two-interferometer setup.
"""

__version__ = "0.1.0"

from .apparatus import ModeLocus, displacer_passages, mode_locus, reachable_sites
from .coins import CoinParams, build_coin, is_unitary
from .errors import CapacityError, ConfigError, NumericalInvariantError, ScheduleError
from .evolution import apply_coin_layer, apply_shift, coin_field, evolve, step
from .measure import (
    Distribution,
    DistributionSeries,
    bhattacharyya_partials,
    ensemble_mean_series,
    position_distribution,
    series_from_trajectory,
    similarity,
    variance,
    variance_series,
)
from .oracle import PathRecord, enumerate_paths, oracle_state
from .schedules import (
    BINARY_0_PI,
    UNIFORM_0_2PI,
    DisorderSpec,
    PhaseSchedule,
    disordered_schedule,
    ensemble_schedules,
    ordered_schedule,
)
from .state import WalkerState, delta_state, initial_state

__all__ = [
    "__version__",
    "BINARY_0_PI",
    "UNIFORM_0_2PI",
    "CapacityError",
    "CoinParams",
    "ConfigError",
    "DisorderSpec",
    "Distribution",
    "DistributionSeries",
    "ModeLocus",
    "NumericalInvariantError",
    "PathRecord",
    "PhaseSchedule",
    "ScheduleError",
    "WalkerState",
    "apply_coin_layer",
    "apply_shift",
    "bhattacharyya_partials",
    "build_coin",
    "coin_field",
    "delta_state",
    "disordered_schedule",
    "displacer_passages",
    "ensemble_mean_series",
    "ensemble_schedules",
    "enumerate_paths",
    "evolve",
    "initial_state",
    "is_unitary",
    "mode_locus",
    "oracle_state",
    "ordered_schedule",
    "position_distribution",
    "reachable_sites",
    "series_from_trajectory",
    "similarity",
    "step",
    "variance",
    "variance_series",
]
