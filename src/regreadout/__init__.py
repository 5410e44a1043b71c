"""Continuous collective readout of a qubit register.

Simulates diffusive z-basis measurement records for an n-qubit register,
with open-loop permutation controls that speed up the collapse onto a
basis state, and provides the analytic rates, bounds, and ensemble
statistics needed to quantify that speed-up.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .registers import (
    DiagonalState,
    Permutation,
    leading_rotation,
    z_table,
)
from .sde import (
    IntegrationError,
    SimulationParams,
    trajectory_control_rng,
    trajectory_noise_rng,
)
from .policies import (
    POLICY_KINDS,
    ControlPolicy,
    fixed_cycle_policy,
    h_order_targets,
    h_ordering_policy,
    no_control,
    random_permutation_policy,
    read_cycle_file,
)
from .theory import (
    IdentityReport,
    RateEstimate,
    SpeedupBounds,
    all_permutation_images,
    flat_tail_state,
    h_ordering_speedup_bounds,
    linear_trajectory_state,
    log_infidelity_rate,
    nofb_mean_first_passage,
    nofb_mean_log_infidelity,
    permutation_averaged_rate,
    permutation_sum_identities,
    random_permutation_speedup_bounds,
    two_level_state,
    zsum_bounds,
)
from .ensemble import (
    EnsembleStats,
    MeanTimeFit,
    ScalingFit,
    SpeedupEstimate,
    SweepPoint,
    asymptotic_speedup,
    auto_slope_window,
    default_epsilon_grid,
    fit_ln_delta_slope,
    fit_speedup_scaling,
    mc_permuted_step_rate,
    regression_mean_time,
    run_ensemble,
    speedup_bounds_for_policy,
    speedup_scaling_sweep,
)

__all__ = [
    "__version__",
    "DiagonalState",
    "Permutation",
    "leading_rotation",
    "z_table",
    "IntegrationError",
    "SimulationParams",
    "trajectory_control_rng",
    "trajectory_noise_rng",
    "POLICY_KINDS",
    "ControlPolicy",
    "fixed_cycle_policy",
    "h_order_targets",
    "h_ordering_policy",
    "no_control",
    "random_permutation_policy",
    "read_cycle_file",
    "IdentityReport",
    "RateEstimate",
    "SpeedupBounds",
    "all_permutation_images",
    "flat_tail_state",
    "h_ordering_speedup_bounds",
    "linear_trajectory_state",
    "log_infidelity_rate",
    "nofb_mean_first_passage",
    "nofb_mean_log_infidelity",
    "permutation_averaged_rate",
    "permutation_sum_identities",
    "random_permutation_speedup_bounds",
    "two_level_state",
    "zsum_bounds",
    "EnsembleStats",
    "MeanTimeFit",
    "ScalingFit",
    "SpeedupEstimate",
    "SweepPoint",
    "asymptotic_speedup",
    "auto_slope_window",
    "default_epsilon_grid",
    "fit_ln_delta_slope",
    "fit_speedup_scaling",
    "mc_permuted_step_rate",
    "regression_mean_time",
    "run_ensemble",
    "speedup_bounds_for_policy",
    "speedup_scaling_sweep",
]
