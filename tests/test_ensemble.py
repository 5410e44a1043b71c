"""Batched ensembles, fits, speed-up estimates, and their statistics."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from regreadout import (
    DiagonalState,
    EnsembleStats,
    Permutation,
    SimulationParams,
    SweepPoint,
    SpeedupEstimate,
    asymptotic_speedup,
    auto_slope_window,
    default_epsilon_grid,
    fit_ln_delta_slope,
    fit_speedup_scaling,
    fixed_cycle_policy,
    flat_tail_state,
    h_ordering_policy,
    leading_rotation,
    mc_permuted_step_rate,
    no_control,
    nofb_mean_log_infidelity,
    permutation_averaged_rate,
    random_permutation_policy,
    regression_mean_time,
    run_ensemble,
    speedup_bounds_for_policy,
    speedup_scaling_sweep,
    two_level_state,
)
from regreadout.ensemble import NOISE_BLOCK_STEPS
from regreadout.sde import infidelity_columns, update_columns
from oracle import retrodict, simulate_trajectory


EPS3 = [1e-1, 1e-2, 1e-3]


def small_params(**kw):
    kw.setdefault("n", 1)
    kw.setdefault("max_time", 1.0)
    kw.setdefault("stop_epsilon", 1e-3)
    return SimulationParams(**kw)


def test_default_epsilon_grid():
    grid = default_epsilon_grid()
    assert grid.size == 66
    assert grid[0] == pytest.approx(1e-1)
    assert grid[-1] == pytest.approx(1e-6)
    assert np.all(np.diff(grid) < 0.0)


def test_run_ensemble_validation():
    params = small_params()
    with pytest.raises(ValueError):
        run_ensemble(params, no_control(), EPS3, 1, 0)
    with pytest.raises(ValueError):
        run_ensemble(params, no_control(), [1e-2, 1e-1], 4, 0)
    with pytest.raises(ValueError):
        run_ensemble(params, no_control(), [1e-1, 1e-8], 4, 0)
    # with stop_epsilon = 0 nothing freezes, so every depth is reachable
    never = replace(params, stop_epsilon=0.0)
    run_ensemble(never, no_control(), [1e-1, 1e-8, 1e-300], 4, 0)
    with pytest.raises(ValueError):
        run_ensemble(params, no_control(), [2.0], 4, 0)
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        run_ensemble(params, no_control(), [1e-2, math.nan], 4, 0)
    with pytest.raises(ValueError):
        run_ensemble(params, no_control(), EPS3, 4, 0, record_every=0)


def test_run_ensemble_is_deterministic():
    params = small_params(n=2, max_time=0.5)
    a = run_ensemble(params, random_permutation_policy(), EPS3, 8, 3)
    b = run_ensemble(params, random_permutation_policy(), EPS3, 8, 3)
    assert np.array_equal(a.mean_ln_delta, b.mean_ln_delta)
    assert np.array_equal(a.mean_first_passage, b.mean_first_passage)
    assert np.array_equal(a.final_indices, b.final_indices)


BATCH_POLICIES = {
    "none": no_control(),
    "h_ordering": h_ordering_policy(),
    "fixed_cycle": fixed_cycle_policy([leading_rotation(4)]),
}


DENSE = np.logspace(-1.0, -4.0, 301)


@pytest.mark.parametrize(
    "policy, n, epsilons, retro",
    [
        pytest.param(policy, 2, EPS3, True, id=name)
        for name, policy in BATCH_POLICIES.items()
    ]
    + [pytest.param(h_ordering_policy(), 2, EPS3, False, id="h_ordering-noretro")]
    + [pytest.param(h_ordering_policy(), 5, EPS3, True, id="h_ordering-n5")]
    + [pytest.param(no_control(), n, EPS3, True, id=f"none-n{n}") for n in (3, 5)]
    + [
        pytest.param(BATCH_POLICIES[name], 3, DENSE, True, id=f"{name}-n3-dense")
        for name in ("none", "h_ordering")
    ],
)
def test_batch_matches_single_trajectories(policy, n, epsilons, retro):
    """The vectorized runner reproduces the reference single-trajectory
    integrator trajectory for trajectory (same noise streams, same
    arithmetic), retrodiction included.  On the dense grid many steps
    cross several targets at once, and passages fall in the final,
    partial noise block (under h_ordering also on a block's last step):
    the runner writes them at block ends."""
    params = SimulationParams(n=n, max_time=0.6, stop_epsilon=1e-4)
    seed = 99
    stats = run_ensemble(
        params,
        policy,
        epsilons,
        5,
        seed,
        record_every=4,
        collect_first_passage=True,
        collect_retrodiction=retro,
    )
    same_step_pairs = 0
    for i in range(5):
        ref = simulate_trajectory(params, policy, epsilons, seed, i, record_every=4)
        assert np.allclose(stats.final_states[i], ref.final_state.probs, atol=1e-12)
        assert stats.final_indices[i] == ref.final_index
        if retro:
            assert stats.retrodicted_indices[i] == retrodict(
                ref.final_index, ref.cumulative_control
            )
        else:
            assert stats.retrodicted_indices is None
        for j, eps in enumerate(epsilons):
            want = ref.first_passage[eps]
            got = stats.first_passage_times[i, j]
            if want is None:
                assert np.isnan(got)
            else:
                assert got == pytest.approx(want, abs=1e-12)
        steps = np.floor(stats.first_passage_times[i] / params.dt)
        same_step_pairs += int(np.sum((steps[1:] == steps[:-1]) & (steps[1:] > 0)))
    if len(epsilons) > len(EPS3):
        assert same_step_pairs > 0
        # a passage at time t lies on step ceil(t / dt)
        fp = stats.first_passage_times
        passage_steps = np.ceil(fp[np.isfinite(fp) & (fp > 0)] / params.dt - 1e-9)
        last_block = (params.total_steps - 1) // NOISE_BLOCK_STEPS * NOISE_BLOCK_STEPS
        assert params.total_steps % NOISE_BLOCK_STEPS  # a partial last block
        assert np.any(passage_steps > last_block)
        if policy.kind == "h_ordering":  # no control passes too few targets
            assert np.any(passage_steps % NOISE_BLOCK_STEPS == 0)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_h_ordering_retrodiction_leaves_trajectories_unchanged(n):
    """Collecting retrodiction changes only retrodicted_indices, also from
    starts whose populations tie: the uniform start (all tie on the first
    ordering), a pure start (its zeros tie; with stop_epsilon = 0, since it
    starts below any positive stop) and a two-level start.  The retrodicted indices
    match the reference trajectories'."""
    stop = SimulationParams(n=n, max_time=0.5, stop_epsilon=1e-5)
    starts = (
        (DiagonalState.maximally_mixed(n), stop),
        (DiagonalState.pure(n, 1), replace(stop, stop_epsilon=0.0)),
        (two_level_state(n, 0.2), stop),
    )
    for state, params in starts:
        kw = dict(initial_state=state)
        runs = [
            run_ensemble(
                params, h_ordering_policy(), EPS3, 40, 17,
                collect_first_passage=True, collect_retrodiction=retro, **kw,
            )
            for retro in (False, True)
        ]
        for f in fields(EnsembleStats):
            a, b = (getattr(r, f.name) for r in runs)
            if f.name == "retrodicted_indices":
                assert a is None and b.shape == (40,)
            elif isinstance(a, np.ndarray):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b, equal_nan=True), f.name
        for i in range(2):
            ref = simulate_trajectory(params, h_ordering_policy(), EPS3, 17, i, **kw)
            assert runs[1].retrodicted_indices[i] == retrodict(
                ref.final_index, ref.cumulative_control
            )


# Fields that carry per-trajectory values or the spread of ln(Delta).  The
# record's drift feeds back on the state (a perturbation of qubit r's
# log-odds grows like exp(8 gamma * int sech^2)), so each path's own
# rounding reaches 1e-12 to 5e-10 relative per trajectory; against a
# long-double integration of the same noise both paths are off by as much.
PER_TRAJECTORY_FIELDS = ("stderr_ln_delta", "final_states", "first_passage_times")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_no_control_matches_identity_cycle(n):
    """The factorised no-control runner (per-qubit log-odds) agrees with
    the (2^n, trajectories) column path, reached through a cycle of
    identity permutations; also for an ensemble shorter than one step,
    whose log-odds all tie at 0."""
    identity = fixed_cycle_policy([Permutation.identity(2**n)])
    collect = dict(collect_retrodiction=True, collect_first_passage=True)
    for params in (SimulationParams(n=n), SimulationParams(n=n, max_time=1e-4)):
        grid = default_epsilon_grid()
        a = run_ensemble(params, no_control(), grid, 300, 5, **collect)
        b = run_ensemble(params, identity, grid, 300, 5, **collect)
        for field in fields(EnsembleStats):
            x, y = getattr(a, field.name), getattr(b, field.name)
            if field.name == "policy_kind":
                continue
            if isinstance(x, np.ndarray) and x.dtype.kind == "f":
                rtol = 1e-9 if field.name in PER_TRAJECTORY_FIELDS else 1e-12
                # NaN patterns must match too
                np.testing.assert_allclose(x, y, rtol=rtol, atol=0, err_msg=field.name)
            else:
                assert np.array_equal(x, y), field.name


def test_mean_ln_delta_matches_the_exact_nofb_curve():
    """The no-control mean log-infidelity lies within 4 standard errors of
    the exact finite-time curve at every grid point after t = 0."""
    for n in (1, 2, 3):
        params = SimulationParams(n=n, max_time=1.0, stop_epsilon=0.0)
        stats = run_ensemble(params, no_control(), [], 4000, 7, record_every=160)
        exact = [nofb_mean_log_infidelity(t, n) for t in stats.sample_times]
        assert stats.mean_ln_delta[0] == pytest.approx(exact[0], rel=1e-15)
        z = (stats.mean_ln_delta[1:] - exact[1:]) / stats.stderr_ln_delta[1:]
        assert np.max(np.abs(z)) < 4.0, n


def test_ensemble_curves_shape_and_monotonicity():
    params = small_params(n=2, max_time=0.5, stop_epsilon=1e-4)
    stats = run_ensemble(params, no_control(), EPS3, 30, 1, record_every=10)
    steps = params.total_steps
    grid = np.arange(0, steps + 1, 10)
    assert stats.sample_times.size == grid.size or stats.sample_times.size == grid.size + 1
    assert stats.sample_times[0] == 0.0
    assert stats.sample_times[-1] == pytest.approx(0.5)
    assert stats.mean_ln_delta[0] == pytest.approx(math.log(0.75))
    assert stats.active_fraction[0] == 1.0
    assert np.all(np.diff(stats.active_fraction) <= 1e-12)
    assert np.all(stats.stderr_ln_delta >= 0.0)
    assert stats.trajectory_count == 30
    assert stats.policy_kind == "none"


def test_stderr_ln_delta_is_two_pass():
    """The curve's stderr is the two-pass sample spread of ln(Delta):
    exactly 0 at t = 0, where every trajectory has the same state, and
    at the last grid point the spread of the final states' ln(Delta)."""
    params = small_params(n=2, max_time=0.5, stop_epsilon=1e-4)
    stats = run_ensemble(params, no_control(), [], 300, 4)
    assert stats.stderr_ln_delta[0] == 0.0
    tail = stats.final_states.copy()
    tail[np.arange(300), tail.argmax(axis=1)] = 0.0
    ln_delta = np.log(tail.sum(axis=1))
    expected = ln_delta.std(ddof=1) / math.sqrt(300)
    assert stats.stderr_ln_delta[-1] == pytest.approx(expected, rel=1e-12)


def test_mean_ln_delta_decays_at_the_nofb_rate():
    # crude slope check; the acceptance suite pins this tightly
    params = SimulationParams(n=1, max_time=0.5, stop_epsilon=1e-30)
    stats = run_ensemble(params, no_control(), [], 400, 12, record_every=8)
    slope, err = fit_ln_delta_slope(stats, 0.25, 0.5)
    assert slope == pytest.approx(-16.0, rel=0.15)
    assert err > 0.0
    with pytest.raises(ValueError):
        fit_ln_delta_slope(stats, 0.4999, 0.5)


def test_auto_slope_window():
    params = small_params(n=1, max_time=0.4, stop_epsilon=1e-30)
    stats = run_ensemble(params, no_control(), [], 20, 5)
    lo, hi = auto_slope_window(stats)
    assert hi == pytest.approx(0.4)
    assert lo == pytest.approx(0.2)
    # with an aggressive stop the window ends where freezing begins
    frozen = run_ensemble(small_params(n=1, max_time=1.0), no_control(), [], 40, 5)
    lo2, hi2 = auto_slope_window(frozen)
    assert hi2 < 1.0
    assert lo2 == pytest.approx(hi2 / 2.0)


def test_first_passage_agrees_with_theory_scaling():
    params = SimulationParams(n=1, max_time=2.5, stop_epsilon=1e-4)
    eps = [1e-1, 1e-2, 1e-3, 1e-4]
    stats = run_ensemble(params, no_control(), eps, 400, 21)
    assert not stats.has_excessive_censoring
    # mean times grow by ln(10)/16 per decade
    gaps = np.diff(stats.mean_first_passage)
    assert np.all(gaps > 0.0)
    assert gaps[-1] == pytest.approx(math.log(10.0) / 16.0, rel=0.25)


def test_censoring_is_reported():
    params = SimulationParams(n=1, max_time=0.05, stop_epsilon=1e-6)
    stats = run_ensemble(params, no_control(), [1e-1, 1e-5], 30, 7)
    j = 1
    assert stats.censored_fraction[j] > 0.5
    assert stats.has_excessive_censoring
    # censored rows contribute max_time, so the mean is a lower bound
    assert stats.mean_first_passage[j] <= 0.05 + 1e-12


def test_retrodiction_collection():
    params = SimulationParams(n=2, max_time=0.02, stop_epsilon=0.0)
    for k in (0, 3):
        stats = run_ensemble(
            params,
            random_permutation_policy(),
            [],
            50,
            31 + k,
            initial_state=DiagonalState.pure(2, k),
            collect_retrodiction=True,
        )
        assert np.all(stats.retrodicted_indices == k)


def test_regression_mean_time_recovers_rate():
    params = SimulationParams(n=1, max_time=2.5, stop_epsilon=1e-4)
    eps = np.logspace(-1, -4, 10)
    stats = run_ensemble(
        params, no_control(), eps, 400, 23, collect_first_passage=True
    )
    fit = regression_mean_time(stats, eps_lo=1e-4, eps_hi=1e-2)
    assert fit.slope == pytest.approx(1.0 / 16.0, rel=0.15)
    assert fit.point_count >= 5
    assert fit.slope_stderr > 0.0
    with pytest.raises(ValueError):
        regression_mean_time(stats, eps_lo=1e-9, eps_hi=1e-8)


def test_asymptotic_speedup_of_identical_ensembles_is_one():
    params = SimulationParams(n=1, max_time=2.5, stop_epsilon=1e-4)
    eps = np.logspace(-1, -4, 10)
    stats = run_ensemble(
        params, no_control(), eps, 200, 6, collect_first_passage=True
    )
    est = asymptotic_speedup(stats, stats, eps_lo=1e-4, eps_hi=1e-2)
    assert est.value == pytest.approx(1.0)
    assert est.stderr > 0.0


def _passage_ensemble(count, max_time, seed):
    params = SimulationParams(n=1, max_time=max_time, stop_epsilon=1e-4)
    eps = np.logspace(-1, -4, 10)
    return run_ensemble(
        params, no_control(), eps, count, seed, collect_first_passage=True
    )


def test_mean_time_stderr_is_the_delete_one_jackknife():
    stats = _passage_ensemble(40, 2.5, 29)
    assert not stats.censored_fraction.any()
    fit = regression_mean_time(stats, eps_lo=1e-4, eps_hi=1e-2)
    fp = stats.first_passage_times
    reps = []
    for i in range(stats.trajectory_count):
        keep = np.arange(stats.trajectory_count) != i
        masked = replace(
            stats,
            mean_first_passage=fp[keep].mean(axis=0),
            first_passage_times=fp[keep],
            trajectory_count=stats.trajectory_count - 1,
        )
        reps.append(regression_mean_time(masked, eps_lo=1e-4, eps_hi=1e-2).slope)
    reps = np.array(reps)
    m = reps.size
    jackknife = math.sqrt((m - 1) / m * np.sum((reps - reps.mean()) ** 2))
    assert fit.slope_stderr == pytest.approx(jackknife, rel=1e-10)


def test_mean_time_stderr_from_per_trajectory_slopes():
    """Censored passages count as max_time in the per-trajectory slopes."""
    stats = _passage_ensemble(60, 0.6, 41)
    assert 0.0 < stats.censored_fraction.max() < 0.5
    fit = regression_mean_time(stats, eps_lo=1e-4, eps_hi=1e-2, max_censored=0.5)
    sel = (stats.epsilons >= 1e-4) & (stats.epsilons <= 1e-2)
    assert fit.point_count == int(sel.sum())
    x = np.log(1.0 / stats.epsilons[sel])
    dx = x - x.mean()
    times = np.nan_to_num(stats.first_passage_times[:, sel], nan=0.6)
    b = times @ dx / (dx @ dx)
    assert fit.slope == pytest.approx(b.mean(), rel=1e-12)
    expected = b.std(ddof=1) / math.sqrt(b.size)
    assert fit.slope_stderr == pytest.approx(expected, rel=1e-12)


def test_mean_time_fit_needs_passage_times():
    params = SimulationParams(n=1, max_time=2.5, stop_epsilon=1e-4)
    stats = run_ensemble(params, no_control(), np.logspace(-1, -4, 10), 40, 29)
    with pytest.raises(ValueError, match="collect_first_passage=True"):
        regression_mean_time(stats, eps_lo=1e-4, eps_hi=1e-2)
    with pytest.raises(ValueError, match="collect_first_passage=True"):
        asymptotic_speedup(stats, stats, eps_lo=1e-4, eps_hi=1e-2)


def test_speedup_estimate_validation():
    with pytest.raises(ValueError):
        SpeedupEstimate(value=-1.0, stderr=0.1)


def test_speedup_bounds_for_policy():
    none = speedup_bounds_for_policy("none", 3)
    assert none.lower == none.upper == 1.0
    rp = speedup_bounds_for_policy("random_permutation", 2)
    assert rp.upper == pytest.approx(4.0 / 3.0)
    # an open-loop cycle can at best track the random-permutation band
    fc = speedup_bounds_for_policy("fixed_cycle", 2)
    assert (fc.lower, fc.upper) == (rp.lower, rp.upper)
    h = speedup_bounds_for_policy("h_ordering", 2)
    assert h.upper == pytest.approx(2.0)
    with pytest.raises(ValueError):
        speedup_bounds_for_policy("greedy", 2)


def test_speedup_scaling_sweep_and_fit():
    eps = np.logspace(-1, -4, 10)
    template = SimulationParams(n=1, max_time=2.5, stop_epsilon=float(eps.min()))
    [points] = speedup_scaling_sweep(
        [1, 2, 3],
        [random_permutation_policy()],
        template,
        60,
        17,
        epsilons=eps,
        eps_lo=1e-4,
        eps_hi=1e-2,
    )
    assert [p.n for p in points] == [1, 2, 3]
    for p in points:
        assert p.estimate.value > 0.0
        assert p.bounds.lower <= p.bounds.upper
    # n=1 has nothing to reorder
    assert points[0].estimate.value == pytest.approx(1.0, abs=0.15)
    fit = fit_speedup_scaling(points)
    assert fit.slope > 0.0
    assert fit.slope_stderr > 0.0


def test_sweep_runs_each_baseline_once(monkeypatch):
    """Policies swept together share each size's no-control ensemble and
    report what each would report when swept alone."""
    import regreadout.ensemble as ensemble

    calls = []
    run = ensemble.run_ensemble

    def counting(params, policy, *args, **kwargs):
        calls.append((params.n, policy.kind))
        return run(params, policy, *args, **kwargs)

    monkeypatch.setattr(ensemble, "run_ensemble", counting)
    eps = np.logspace(-1, -4, 10)
    template = SimulationParams(n=2, max_time=2.5, stop_epsilon=float(eps.min()))
    policies = [random_permutation_policy(), h_ordering_policy()]
    kw = dict(epsilons=eps, eps_lo=1e-4, eps_hi=1e-2)
    both = speedup_scaling_sweep([2, 3], policies, template, 40, 5, **kw)
    assert calls == [
        (n, kind)
        for n in (2, 3)
        for kind in ("none", "random_permutation", "h_ordering")
    ]
    for policy, points in zip(policies, both):
        [alone] = speedup_scaling_sweep([2, 3], [policy], template, 40, 5, **kw)
        assert [p.n for p in points] == [2, 3]
        assert [p.estimate for p in points] == [p.estimate for p in alone]
        assert [p.bounds for p in points] == [p.bounds for p in alone]


def test_fit_speedup_scaling_exact_line():
    def pt(n, value, err):
        return SweepPoint(
            n=n,
            estimate=SpeedupEstimate(value=value, stderr=err),
            bounds=speedup_bounds_for_policy("random_permutation", n),
        )

    points = [pt(n, 0.4 * n + 0.5, 0.1) for n in (2, 3, 4, 5)]
    fit = fit_speedup_scaling(points)
    assert fit.slope == pytest.approx(0.4, abs=1e-12)
    assert fit.intercept == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        fit_speedup_scaling(points[:2])
    bad = [pt(n, 1.0, 0.0) if n == 3 else pt(n, 1.0, 0.1) for n in (2, 3, 4)]
    with pytest.raises(ValueError):
        fit_speedup_scaling(bad)


def test_mc_permuted_step_rate_matches_enumeration():
    state = two_level_state(2, 1e-3)
    exact = permutation_averaged_rate(state).value
    mc = mc_permuted_step_rate(state, 1.0, 2e-4, 200_000, 2718)
    assert mc.stderr > 0.0
    assert abs(mc.value - exact) < 4.0 * mc.stderr
    # the stderr scale itself: fractional error should be small
    assert mc.stderr < 0.05 * abs(exact)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("envelope", [two_level_state, flat_tail_state])
def test_mc_permuted_step_rate_matches_closed_form_beyond_enumeration(n, envelope):
    """At sizes whose D! permutations are out of reach, one-step Monte
    Carlo still reproduces the closed-form group average (acceptance 4's
    check, at 2x10^5 samples)."""
    state = envelope(n, 1e-3)
    exact = permutation_averaged_rate(state).value
    mc = mc_permuted_step_rate(state, 1.0, 2e-4, 200_000, 11)
    assert abs(mc.value - exact) < 3.0 * mc.stderr


def test_mc_permuted_step_rate_validation():
    state = two_level_state(2, 1e-3)
    with pytest.raises(ValueError):
        mc_permuted_step_rate(state, 1.0, 2e-4, 1, 0)
    with pytest.raises(ValueError):
        mc_permuted_step_rate(state, 1.0, 0.0, 100, 0)
    with pytest.raises(ValueError):
        mc_permuted_step_rate(DiagonalState.pure(2, 0), 1.0, 2e-4, 100, 0)


def test_mc_permuted_step_rate_variance_is_merged_across_chunks(monkeypatch):
    """With three chunks, the last one partial, the estimate is the plain
    mean and ddof=1 standard error of the per-sample ln(Delta) changes,
    recomputed here from the same generator calls."""
    import regreadout.ensemble as ensemble

    monkeypatch.setattr(ensemble, "MC_CHUNK_ROWS", 1000)
    state = two_level_state(2, 1e-3)
    gamma, dt, samples, seed = 1.0, 2e-4, 2500, 31
    est = mc_permuted_step_rate(state, gamma, dt, samples, seed)

    rng = np.random.default_rng(seed)
    d = state.probs.size
    changes = []
    for m in (1000, 1000, 500):
        lam = np.empty((d, m))
        lam[np.argsort(rng.random((m, d)), axis=1).T, np.arange(m)] = (
            state.probs[:, None]
        )
        dW = rng.standard_normal((m, state.n)) * math.sqrt(dt)
        delta = infidelity_columns(update_columns(lam, dW.T, gamma, dt))
        changes.append(np.log(delta) - math.log(state.infidelity()))
    dl = np.concatenate(changes)
    assert est.value == pytest.approx(dl.mean() / dt, rel=1e-12)
    assert est.stderr == pytest.approx(
        dl.std(ddof=1) / math.sqrt(samples) / dt, rel=1e-12
    )
