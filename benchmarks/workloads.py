"""The three benchmark workloads: inputs made from a seed, the timed
section, and the untimed evaluation of its outputs.

collapse  no-control run_ensemble at n=3 (the acceptance-1 shape): only
          the noise draw, the Bayes update and the infidelity do work.
sweep     `regreadout sweep --policies random_permutation,h_ordering
          --check` through cli.main at n=2..5: control permutations,
          first-passage bookkeeping, compaction, jackknife, file output.
mc_rate   mc_permuted_step_rate on the two-level and flat-tail states at
          n=2,3 plus the group-averaged rates and the sum identities (the
          acceptance-3/4 shape): one exact step over very wide chunks.

The timed bodies look every library function up as a module attribute at
call time, so the traced run can rebind those attributes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from reference import nofb_slope

WORKLOADS = ("collapse", "sweep", "mc_rate")

COLLAPSE_N = 3
COLLAPSE_COUNT = 10_000
COLLAPSE_HORIZON = 2.0
# far below anything a trajectory reaches by the horizon, so no
# trajectory stops early and every one runs the full horizon
COLLAPSE_STOP_EPSILON = 1e-250
COLLAPSE_RECORD_EVERY = 16
# acceptance 1's tolerance on the slope, and its active-fraction floor
SLOPE_TOLERANCE = 0.8
MIN_ACTIVE_FRACTION = 0.99

SWEEP_N_VALUES = (2, 3, 4, 5)
SWEEP_POLICIES = ("random_permutation", "h_ordering")
SWEEP_COUNT = 1000
# acceptance 5, ci profile: reference slope and tolerance of the fit
RP_SLOPE_REFERENCE = 0.397
RP_SLOPE_TOLERANCE = 0.15
# speed-up fit range, as in ensemble.asymptotic_speedup
FIT_EPS_LO, FIT_EPS_HI = 1e-6, 1e-4
CENSOR_LIMIT = 1e-3

MC_N_VALUES = (2, 3)
MC_DELTA = 1e-3
MC_GAMMA = 1.0
MC_DT = 2e-4
MC_SAMPLES = 1_000_000
IDENTITY_DIMENSIONS = {4: (48, 16), 8: (80640, 34560)}
# Acceptance 4 uses |z| < 3 at one fixed seed.  Here the seed changes on
# every run and each run makes four z-tests, so at 3 a correct program
# would fail about one run in 90; at 4 about one in 4000.  A 10% error in
# the measurement strength of the update still moves z past 4.
Z_LIMIT = 4.0

# accuracy targets of each workload's headline estimate, for
# time_to_accuracy_s = wall_s * (stderr / target)^2
TARGET_STDERR = {
    "collapse": 0.01,   # mean ln Delta at the horizon, in nats
    "sweep": 0.01,      # the least precise speed-up
    "mc_rate": 1e-3,    # the least precise rate, relative to the rate
}


def derive_seed(seed: int, workload: str) -> int:
    """Master seed handed to the program, independent per workload."""
    sequence = np.random.SeedSequence([seed, WORKLOADS.index(workload)])
    return int(sequence.generate_state(1)[0])


def epsilon_grid() -> np.ndarray:
    """The 66-point target grid, 1e-1 down to 1e-6, given to the CLI."""
    return np.logspace(-1.0, -6.0, 66)


def make_inputs(workload: str, seed: int, rr, out_dir: Path) -> dict:
    """Everything the workload passes to the program, made from `seed`."""
    master = derive_seed(seed, workload)
    if workload == "collapse":
        params = rr.SimulationParams(
            n=COLLAPSE_N,
            max_time=COLLAPSE_HORIZON,
            stop_epsilon=COLLAPSE_STOP_EPSILON,
        )
        return {
            "params": params,
            "policy": rr.no_control(),
            "epsilons": [],
            "count": COLLAPSE_COUNT,
            "master_seed": master,
        }
    if workload == "sweep":
        argv = [
            "sweep",
            "--n-values", ",".join(str(n) for n in SWEEP_N_VALUES),
            "--policies", ",".join(SWEEP_POLICIES),
            "--count", str(SWEEP_COUNT),
            "--seed", str(master),
            "--epsilons", ",".join(repr(float(e)) for e in epsilon_grid()),
            "--out", str(out_dir),
            "--check",
        ]
        return {"argv": argv, "out": out_dir}
    if workload == "mc_rate":
        states = []
        for n in MC_N_VALUES:
            states.append((f"two_level.n{n}", rr.two_level_state(n, MC_DELTA)))
            states.append((f"flat_tail.n{n}", rr.flat_tail_state(n, MC_DELTA)))
        return {"states": states, "master_seed": master}
    raise ValueError(f"unknown workload {workload!r}")


def run(workload: str, inputs: dict, ensemble, theory, cli) -> dict:
    """The timed section: calls into the program and nothing else."""
    if workload == "collapse":
        stats = ensemble.run_ensemble(
            inputs["params"], inputs["policy"], inputs["epsilons"],
            inputs["count"], inputs["master_seed"],
            record_every=COLLAPSE_RECORD_EVERY,
        )
        window = (0.5 * COLLAPSE_HORIZON, COLLAPSE_HORIZON)
        slope, _ = ensemble.fit_ln_delta_slope(stats, *window)
        return {"stats": stats, "slope": slope, "window": window}
    if workload == "sweep":
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(inputs["argv"])
        return {"exit_code": code}
    rates = []
    for label, state in inputs["states"]:
        mc = ensemble.mc_permuted_step_rate(
            state, MC_GAMMA, MC_DT, MC_SAMPLES, inputs["master_seed"]
        )
        exact = theory.permutation_averaged_rate(state, MC_GAMMA)
        rates.append((label, mc, exact))
    reports = {d: theory.permutation_sum_identities(d) for d in IDENTITY_DIMENSIONS}
    return {"rates": rates, "identities": reports}


def useful_traj_steps(stats) -> int:
    """Trajectory-steps that did work: each trajectory up to its stop
    step, or to the horizon when it never stopped.  Read from the outputs,
    so it does not depend on how the runner compacts its arrays."""
    params = stats.params
    total = params.total_steps
    if stats.active_fraction[-1] == 1.0:
        return stats.trajectory_count * total
    fp = stats.first_passage_times
    if (
        fp is None
        or stats.epsilons.size == 0
        or not math.isclose(stats.epsilons[-1], params.stop_epsilon, rel_tol=1e-12)
    ):
        raise ValueError(
            "stop steps are not in the outputs: trajectories stopped early "
            "but no first-passage time to the stop target was collected"
        )
    # a passage time lies in ((step - 1) dt, step dt] of its stop step
    deepest = fp[:, -1]
    stop = np.where(np.isnan(deepest), total, np.ceil(deepest / params.dt - 1e-9))
    return int(stop.sum())


def slope_and_variance(stats) -> tuple[float, float]:
    """Mean-time slope against ln(1/epsilon) over the fit range and its
    variance from the per-trajectory slopes (the slope is linear in the
    passage times, so this is the delete-one jackknife variance)."""
    sel = (
        (stats.epsilons >= FIT_EPS_LO)
        & (stats.epsilons <= FIT_EPS_HI)
        & (stats.censored_fraction <= CENSOR_LIMIT)
    )
    x = np.log(1.0 / stats.epsilons[sel])
    dx = x - x.mean()
    fp = stats.first_passage_times[:, sel]
    filled = np.where(np.isnan(fp), stats.params.max_time, fp)
    per_trajectory = filled @ (dx / (dx @ dx))
    return float(per_trajectory.mean()), float(per_trajectory.var(ddof=1) / per_trajectory.size)


def largest_speedup_stderr(distinct: dict) -> float:
    """Largest stderr among the controlled ensembles' speed-ups, combined
    unpaired like ensemble.asymptotic_speedup."""
    baselines = {
        repr(stats.params): slope_and_variance(stats)
        for stats in distinct.values()
        if stats.policy_kind == "none"
    }
    worst = 0.0
    for stats in distinct.values():
        if stats.policy_kind == "none":
            continue
        s_nc, v_nc = baselines[repr(stats.params)]
        s_ct, v_ct = slope_and_variance(stats)
        value = s_nc / s_ct
        worst = max(worst, abs(value) * math.sqrt(v_nc / s_nc**2 + v_ct / s_ct**2))
    return worst


def evaluate(workload: str, inputs: dict, outputs: dict, captured: list) -> dict:
    """Counts and checks on the outputs of one timed section.

    `captured` holds (call key, EnsembleStats) for every run_ensemble
    call.  Returns work counts, the headline stderr and a list of
    (check, passed, detail).
    """
    checks = []
    if workload == "collapse":
        stats = outputs["stats"]
        t = stats.sample_times
        lo, hi = outputs["window"]
        in_window = (t >= lo) & (t <= hi)
        exact = nofb_slope(t[in_window], COLLAPSE_N, stats.params.gamma)
        slope = outputs["slope"]
        checks.append((
            "slope",
            abs(slope - exact) <= SLOPE_TOLERANCE,
            f"{slope:.3f} vs exact {exact:.3f} over [{lo:g}, {hi:g}], tolerance {SLOPE_TOLERANCE}",
        ))
        active = float(stats.active_fraction[in_window].min())
        checks.append((
            "active_fraction",
            active > MIN_ACTIVE_FRACTION,
            f"{active:.4f} in the window, needs > {MIN_ACTIVE_FRACTION}",
        ))
        return {
            "traj_steps": useful_traj_steps(stats),
            "samples": stats.trajectory_count,
            "stderr": float(stats.stderr_ln_delta[-1]),
            "output_bytes": 0,
            "checks": checks,
        }

    if workload == "sweep":
        out = Path(inputs["out"])
        checks.append((
            "cli_check",
            outputs["exit_code"] == 0,
            f"cli.main --check returned {outputs['exit_code']}",
        ))
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        fit = summary["fits"].get("random_permutation")
        slope = fit["slope"] if fit else float("nan")
        checks.append((
            "rp_scaling_slope",
            abs(slope - RP_SLOPE_REFERENCE) <= RP_SLOPE_TOLERANCE,
            f"{slope:.3f} vs {RP_SLOPE_REFERENCE} +- {RP_SLOPE_TOLERANCE}",
        ))
        distinct = dict(captured)
        return {
            "traj_steps": sum(useful_traj_steps(s) for s in distinct.values()),
            "samples": sum(s.trajectory_count for s in distinct.values()),
            "stderr": largest_speedup_stderr(distinct),
            "output_bytes": sum(p.stat().st_size for p in out.iterdir() if p.is_file()),
            "checks": checks,
        }

    worst = 0.0
    for label, mc, exact in outputs["rates"]:
        z = (mc.value - exact.value) / mc.stderr
        checks.append((
            f"rate.{label}",
            abs(z) < Z_LIMIT,
            f"z = {z:+.2f} (MC {mc.value:.4f} vs enumeration {exact.value:.4f}), limit {Z_LIMIT}",
        ))
        worst = max(worst, mc.stderr / abs(mc.value))
    for d, report in outputs["identities"].items():
        got = (report.square_sum, report.cross_sum)
        checks.append((
            f"identities.D{d}",
            report.passed and got == IDENTITY_DIMENSIONS[d],
            f"{got[0]}/{got[1]} vs {IDENTITY_DIMENSIONS[d][0]}/{IDENTITY_DIMENSIONS[d][1]}",
        ))
    samples = MC_SAMPLES * len(outputs["rates"])
    return {
        "traj_steps": samples,   # each sample is one exact step
        "samples": samples,
        "stderr": worst,
        "output_bytes": 0,
        "checks": checks,
    }
