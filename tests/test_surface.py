"""The public surface and the source size, pinned: a new export, a new
run option or a larger src shows up here as a one-line diff, so every
addition is a visible decision."""

import ast
import inspect
import io
import tokenize
from pathlib import Path

import regreadout
import regreadout.cli
from regreadout.sde import epsilon_targets

PUBLIC_NAMES = [
    "__version__",
    "DiagonalState", "Permutation", "leading_rotation", "z_table",
    "IntegrationError", "SimulationParams", "trajectory_control_rng",
    "trajectory_noise_rng",
    "POLICY_KINDS", "ControlPolicy", "fixed_cycle_policy", "h_order_targets",
    "h_ordering_policy", "no_control", "random_permutation_policy",
    "IdentityReport", "RateEstimate", "SpeedupBounds", "flat_tail_state",
    "log_infidelity_rate", "nofb_mean_first_passage",
    "nofb_mean_log_infidelity", "permutation_averaged_rate",
    "permutation_sum_identities", "speedup_bounds_for_policy",
    "two_level_state",
    "EnsembleStats", "MeanTimeFit", "ScalingFit", "SpeedupEstimate",
    "SweepPoint", "asymptotic_speedup", "default_epsilon_grid",
    "fit_ln_delta_slope", "fit_speedup_scaling",
    "mc_permuted_step_rate", "regression_mean_time", "run_ensemble",
    "speedup_scaling_sweep",
]

# The scalar reference simulator lives in tests/oracle.py, not the library.
ORACLE_NAMES = [
    "simulate_trajectory", "TrajectoryResult", "generate_increments",
    "exact_step", "euler_step", "policy_step", "h_order", "retrodict",
    "compose", "invert", "apply_permutation", "sample_uniform_permutation",
]

# permutation_averaged_rate's closed form covers every n and both
# envelope states, so its enumeration cap and envelope functions are gone.
# The record-replay state serves only the tests, from tests/oracle.py.
# speedup_bounds_for_policy holds every policy kind's band, and 4*Delta^2
# times H-ordering's band is the zsum sandwich.  The
# permutation enumeration serves only the sum identities and the oracle.
REMOVED_THEORY_NAMES = [
    "ENUMERATION_MAX_QUBITS", "two_level_permuted_rate", "flat_tail_permuted_rate",
    "linear_trajectory_state", "h_ordering_speedup_bounds",
    "random_permutation_speedup_bounds", "all_permutation_images",
    "zsum_bounds",
]

# Every line fit is numpy's least squares; run's slope window is the
# CLI's, its one user.
REMOVED_ENSEMBLE_NAMES = ["_ols", "auto_slope_window", "SLOPE_ACTIVE_FRACTION"]

# The parser's typed list flags replace the CLI's own list parsers, and
# one writer takes each command's {file name: payload} dict.
REMOVED_CLI_NAMES = [
    "_parse_epsilons", "_parse_int_list", "_out_dir", "_write_rows",
    "_write_json", "_write_manifest", "LOG_CSV", "PASSAGE_CSV", "SWEEP_CSV",
    "BOUNDS_CSV", "SUMMARY_JSON", "MANIFEST_JSON", "_read_input",
]
# looked up on the module at call time: the benchmark's tracer and the
# tests rebind them
CLI_REBOUND_NAMES = ["main", "speedup_scaling_sweep", "fit_speedup_scaling"]

SIGNATURES = {
    regreadout.run_ensemble: [
        "params", "policy", "epsilons", "count", "master_seed",
        "record_every", "initial_state", "collect_retrodiction",
        "collect_first_passage",
    ],
    epsilon_targets: ["epsilons", "stop_epsilon"],
    # the mean-time fit window is ensemble.FIT_RANGE, not an argument
    regreadout.speedup_scaling_sweep: [
        "n_values", "policies", "params_template", "count", "master_seed",
        "epsilons",
    ],
    regreadout.regression_mean_time: ["stats"],
    regreadout.fit_ln_delta_slope: ["stats", "t_min", "t_max"],
    regreadout.fit_speedup_scaling: ["points"],
    regreadout.asymptotic_speedup: ["stats_nc", "stats_ctrl"],
    regreadout.speedup_bounds_for_policy: ["kind", "n"],
    regreadout.two_level_state: ["n", "delta"],
    # a cycle's fit to the register is run_ensemble's check
    regreadout.cli.read_cycle_file: ["path"],
    regreadout.z_table: ["n"],
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
    for name in REMOVED_ENSEMBLE_NAMES:
        assert not hasattr(regreadout.ensemble, name), name
    for name in REMOVED_CLI_NAMES:
        assert not hasattr(regreadout.cli, name), name
    for name in CLI_REBOUND_NAMES:
        assert hasattr(regreadout.cli, name), name
    # the identity is Permutation(np.arange(d))
    assert not hasattr(regreadout.Permutation, "identity")
    # every trajectory draws its permutations from its own control stream
    assert not hasattr(regreadout.ensemble, "BATCH_CONTROL_KEY")
    # run --check compares its max censored fraction with cli.EXCESS_CENSORING
    assert not hasattr(regreadout.EnsembleStats, "has_excessive_censoring")
    assert not hasattr(regreadout.ensemble, "EXCESS_CENSORING")
    # the CLI reads both of its text formats; no library module opens a file
    assert not hasattr(regreadout.policies, "read_cycle_file")


def test_run_signatures():
    for func, names in SIGNATURES.items():
        assert list(inspect.signature(func).parameters) == names, func.__name__


# `wc -l src/regreadout/*.py`, and the lines of those files that hold code
# (no docstring, comment or blank).  A change that grows src raises these
# in its own diff.
SRC_LINES = 2452
SRC_CODE_LINES = 1481


def _code_lines(text: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node):
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
              tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in layout:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def test_src_size():
    texts = [p.read_text() for p in Path(regreadout.__file__).parent.glob("*.py")]
    lines = sum(text.count("\n") for text in texts)
    code_lines = sum(_code_lines(text) for text in texts)
    assert lines <= SRC_LINES, lines
    assert code_lines <= SRC_CODE_LINES, code_lines
