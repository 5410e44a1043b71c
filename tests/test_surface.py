"""The public surface, pinned: a new export or a new run option shows up
here as a one-line diff, so every addition is a visible decision."""

import inspect

import regreadout
from regreadout.sde import epsilon_targets

PUBLIC_NAMES = [
    "__version__",
    "DiagonalState", "Permutation", "leading_rotation", "z_table",
    "IntegrationError", "SimulationParams", "trajectory_control_rng",
    "trajectory_noise_rng",
    "POLICY_KINDS", "ControlPolicy", "fixed_cycle_policy", "h_order_targets",
    "h_ordering_policy", "no_control", "random_permutation_policy",
    "read_cycle_file",
    "IdentityReport", "RateEstimate", "SpeedupBounds", "all_permutation_images",
    "flat_tail_state", "h_ordering_speedup_bounds", "linear_trajectory_state",
    "log_infidelity_rate", "nofb_mean_first_passage", "nofb_mean_log_infidelity",
    "permutation_averaged_rate", "permutation_sum_identities",
    "random_permutation_speedup_bounds", "two_level_state", "zsum_bounds",
    "EnsembleStats", "MeanTimeFit", "ScalingFit", "SpeedupEstimate",
    "SweepPoint", "asymptotic_speedup", "auto_slope_window",
    "default_epsilon_grid", "fit_ln_delta_slope", "fit_speedup_scaling",
    "mc_permuted_step_rate", "regression_mean_time", "run_ensemble",
    "speedup_bounds_for_policy", "speedup_scaling_sweep",
]

# The scalar reference simulator lives in tests/oracle.py, not the library.
ORACLE_NAMES = [
    "simulate_trajectory", "TrajectoryResult", "generate_increments",
    "exact_step", "euler_step", "policy_step", "h_order", "retrodict",
    "compose", "invert", "apply_permutation", "sample_uniform_permutation",
]

# permutation_averaged_rate's closed form covers every n and both
# envelope states, so its enumeration cap and envelope functions are gone.
REMOVED_THEORY_NAMES = [
    "ENUMERATION_MAX_QUBITS", "two_level_permuted_rate", "flat_tail_permuted_rate",
]

SIGNATURES = {
    regreadout.run_ensemble: [
        "params", "policy", "epsilons", "count", "master_seed",
        "record_every", "initial_state", "collect_retrodiction",
        "collect_first_passage",
    ],
    epsilon_targets: ["epsilons", "stop_epsilon"],
    regreadout.speedup_scaling_sweep: [
        "n_values", "policies", "params_template", "count", "master_seed",
        "epsilons", "eps_lo", "eps_hi",
    ],
}


def test_public_names():
    assert regreadout.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(regreadout, name), name
    for module in (regreadout.sde, regreadout.policies, regreadout.registers):
        for name in ORACLE_NAMES:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    for name in REMOVED_THEORY_NAMES:
        assert not hasattr(regreadout.theory, name), name


def test_run_signatures():
    for func, names in SIGNATURES.items():
        assert list(inspect.signature(func).parameters) == names, func.__name__
