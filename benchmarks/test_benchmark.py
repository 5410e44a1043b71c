"""Tests of the benchmark's own arithmetic: the exact reference, span self
times, the useful-step counter and the contract of run.py."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads
from reference import nofb_slope
from regreadout import (
    SimulationParams,
    no_control,
    random_permutation_policy,
    regression_mean_time,
    run_ensemble,
)

BENCH_DIR = Path(__file__).resolve().parent


@pytest.mark.parametrize(
    "n, window, expected",
    [(1, (0.6, 1.2), -15.916), (2, (8.0, 12.0), -15.497)],
)
def test_quadrature_reproduces_exact_slopes(n, window, expected):
    # acceptance 1's windows, sampled every 16 steps of dt = 6.25e-4
    times = np.arange(round(window[0] / 0.01), round(window[1] / 0.01) + 1) * 0.01
    assert nofb_slope(times, n) == pytest.approx(expected, abs=1.5e-3)


def test_self_time_on_synthetic_span_tree():
    tree = [
        ["cli.main", 0.0, 10.0, -1, "r", None],
        ["ensemble.speedup_scaling_sweep", 1.0, 3.0, 0, "r", None],
        ["ensemble.run_ensemble", 1.5, 2.5, 1, "r",
         {"key": "none.n2", "steps": 4000, "args": "a"}],
        ["ensemble.fit_speedup_scaling", 2.0, 5.0, 0, "r", None],
        ["ensemble.fit_speedup_scaling", 8.0, 12.0, 0, "r", None],
    ]
    # children of the root cover [1, 5] and [8, 10]; the grandchild only
    # counts against its own parent
    assert spans.self_times(tree) == pytest.approx([4.0, 1.0, 1.0, 3.0, 4.0])
    layers = spans.layer_metrics(tree, output_bytes=7)
    assert layers["cli.main.self_s"] == pytest.approx(4.0)
    assert layers["cli.output_bytes"] == 7
    assert layers["ensemble.run_ensemble.ns_per_traj_step.none.n2"] == pytest.approx(2.5e5)
    assert layers["ensemble.run_ensemble.ns_per_traj_step.none.n3"] == 0.0
    assert layers["ensemble.fit_speedup_scaling.s"] == pytest.approx(7.0)


def test_tracer_records_parents_and_restores():
    class Module:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Module.inner(x) * 2

    tracer = spans.Tracer("t")
    original_inner = Module.inner
    tracer.wrap(Module, "outer", "outer")
    tracer.wrap(Module, "inner", "inner", lambda a, kw, result: {"result": result})
    assert Module.outer(1) == 4
    tracer.restore()
    assert Module.inner is original_inner
    names = [(s[0], s[3], s[5]) for s in tracer.spans]
    assert names == [("outer", -1, None), ("inner", 0, {"result": 2})]
    assert all(s[1] <= s[2] for s in tracer.spans)


def _brute_useful_steps(stats):
    """With record_every=1, a trajectory stopped at step s is active after
    steps 1..s-1 and then frozen; a censored one is active after every
    step."""
    active = stats.active_fraction * stats.trajectory_count
    return int(round(active[1:].sum() + active[0] - active[-1]))


@pytest.mark.parametrize("policy", [no_control(), random_permutation_policy()])
def test_useful_steps_match_brute_count(policy):
    grid = np.logspace(-1.0, -3.0, 7)
    params = SimulationParams(n=2, max_time=0.45, stop_epsilon=float(grid[-1]))
    stats = run_ensemble(
        params, policy, grid, 40, 11, record_every=1, collect_first_passage=True
    )
    frozen = stats.active_fraction[-1]
    assert 0.0 < frozen < 1.0, "want both stopped and censored trajectories"
    assert workloads.useful_traj_steps(stats) == _brute_useful_steps(stats)


def test_useful_steps_without_early_stop():
    params = SimulationParams(n=1, max_time=0.05, stop_epsilon=1e-250)
    stats = run_ensemble(params, no_control(), [], 5, 3, record_every=4)
    assert workloads.useful_traj_steps(stats) == 5 * params.total_steps


def test_per_trajectory_slope_matches_regression():
    grid = workloads.epsilon_grid()
    params = SimulationParams(n=1, max_time=3.0, stop_epsilon=float(grid[-1]))
    stats = run_ensemble(
        params, no_control(), grid, 200, 5, record_every=64,
        collect_first_passage=True,
    )
    slope, variance = workloads.slope_and_variance(stats)
    assert slope == pytest.approx(regression_mean_time(stats).slope, rel=1e-12)
    assert variance > 0.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.LAYER_UNITS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "collapse",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
