"""Batched ensembles, fits, speed-up estimates, and their statistics."""

import itertools
import math
import multiprocessing
import threading
import tracemalloc
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
import regreadout.ensemble as ensemble
from regreadout.cli import EXCESS_CENSORING, auto_slope_window
from regreadout.ensemble import NOISE_BLOCK_STEPS
from regreadout.registers import infidelity_columns
from regreadout.sde import (
    LOG_FLOOR,
    IntegrationError,
    record_strength,
    trajectory_noise_rng,
    true_outcomes,
    update_columns,
)
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


def test_whole_number_arguments_are_checked_where_they_enter():
    """A fractional count, record_every or samples is rejected by name,
    not run on an irregular record grid or failed deep inside numpy;
    numpy integers are accepted."""
    params = small_params(max_time=0.01)
    with pytest.raises(ValueError, match="record_every"):
        run_ensemble(params, no_control(), [], 4, 0, record_every=2.5)
    with pytest.raises(ValueError, match="count"):
        run_ensemble(params, no_control(), EPS3, 1000.0, 0)
    with pytest.raises(ValueError, match="samples"):
        mc_permuted_step_rate(two_level_state(2, 1e-3), 1.0, 2e-4, 1000.0, 0)
    stats = run_ensemble(params, no_control(), [], np.int64(4), 0,
                         record_every=np.int64(2))
    assert stats.trajectory_count == 4
    assert np.array_equal(stats.sample_times, np.arange(0, 17, 2) * params.dt)


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
    "random_permutation": random_permutation_policy(),
}


DENSE = np.logspace(-1.0, -4.0, 301)


def period3_cycle(n):
    """A fixed cycle of three distinct permutations on 2**n slots; 3 does
    not divide NOISE_BLOCK_STEPS, so its phase moves from block to block."""
    d = 2**n
    swap = np.arange(d)
    swap[[0, d - 1]] = [d - 1, 0]
    return fixed_cycle_policy(
        [leading_rotation(d), Permutation(swap), Permutation(np.roll(np.arange(d), 1))]
    )


def check_against_oracle(params, policy, epsilons, count, retro, seed=99):
    """Run `count` trajectories in the batch and compare each with the
    reference trajectory of the same (seed, index), the mean ln(Delta)
    and active fraction at every grid point included; returns the
    stats."""
    stats = run_ensemble(
        params,
        policy,
        epsilons,
        count,
        seed,
        record_every=4,
        collect_retrodiction=retro,
    )
    # the readout is the most probable final state, on every path
    assert np.array_equal(stats.final_indices, np.argmax(stats.final_states, axis=1))
    # ln(Delta) of each reference trajectory at each grid point; one that
    # has stopped holds the ln(Delta) of its stop step
    ln = np.empty((count, stats.sample_times.size))
    for i in range(count):
        ref = simulate_trajectory(params, policy, epsilons, seed, i, record_every=4)
        m = ref.sample_times.size
        assert np.array_equal(ref.sample_times, stats.sample_times[:m])
        ln[i, :m] = np.log(np.maximum(ref.infidelity, LOG_FLOOR))
        ln[i, m:] = math.log(max(ref.final_state.infidelity(), LOG_FLOOR))
        assert np.allclose(stats.final_states[i], ref.final_state.probs, atol=1e-12)
        assert stats.final_indices[i] == ref.final_index
        assert stats.true_indices[i] == ref.true_index
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
    np.testing.assert_allclose(stats.mean_ln_delta, ln.mean(axis=0), rtol=1e-12)
    assert np.array_equal(stats.active_fraction, np.mean(ln > params.stop_ln, axis=0))
    return stats


@pytest.mark.parametrize(
    "policy, n, epsilons, retro",
    [
        pytest.param(policy, 2, EPS3, True, id=name)
        for name, policy in BATCH_POLICIES.items()
    ]
    + [pytest.param(h_ordering_policy(), 2, EPS3, False, id="h_ordering-noretro")]
    + [pytest.param(h_ordering_policy(), 5, EPS3, True, id="h_ordering-n5")]
    + [
        pytest.param(random_permutation_policy(), 5, EPS3, True,
                     id="random_permutation-n5")
    ]
    + [pytest.param(no_control(), n, EPS3, True, id=f"none-n{n}") for n in (3, 5)]
    + [
        pytest.param(BATCH_POLICIES[name], 3, DENSE, True, id=f"{name}-n3-dense")
        for name in ("none", "h_ordering", "random_permutation")
    ]
    + [pytest.param(period3_cycle(n), n, EPS3, True, id=f"cycle3-n{n}") for n in (2, 3)],
)
def test_batch_matches_single_trajectories(policy, n, epsilons, retro):
    """The vectorized runner reproduces the reference single-trajectory
    integrator trajectory for trajectory (same noise and control streams,
    same arithmetic), retrodiction included.  On the dense grid many steps
    cross several targets at once, and passages fall in the final,
    partial noise block (under h_ordering also on a block's last step):
    the runner writes them at block ends (trajectory 5 of seed 99 passes
    one on a block's last step under h_ordering at n = 3)."""
    params = SimulationParams(n=n, max_time=0.6, stop_epsilon=1e-4)
    stats = check_against_oracle(params, policy, epsilons, 6, retro)
    # trajectories run on into a later noise block (a cycle's phase too)
    assert stats.active_fraction[stats.sample_times > NOISE_BLOCK_STEPS * params.dt].any()
    if len(epsilons) > len(EPS3):
        steps = np.floor(stats.first_passage_times / params.dt)
        same_step = (steps[:, 1:] == steps[:, :-1]) & (steps[:, 1:] > 0)
        assert np.any(same_step)
        # a passage at time t lies on step ceil(t / dt)
        fp = stats.first_passage_times
        passage_steps = np.ceil(fp[np.isfinite(fp) & (fp > 0)] / params.dt - 1e-9)
        last_block = (params.total_steps - 1) // NOISE_BLOCK_STEPS * NOISE_BLOCK_STEPS
        assert params.total_steps % NOISE_BLOCK_STEPS  # a partial last block
        assert np.any(passage_steps > last_block)
        if policy.kind == "h_ordering":  # no control passes too few targets
            assert np.any(passage_steps % NOISE_BLOCK_STEPS == 0)


def test_random_permutation_images_wider_than_a_byte():
    """At n = 9 a permutation image (0..511) needs two bytes; the batch
    still matches the reference over a few steps, retrodiction included."""
    params = SimulationParams(n=9, max_time=0.0125, stop_epsilon=1e-4)
    assert params.total_steps == 20
    check_against_oracle(params, random_permutation_policy(), EPS3, 3, True)


def assert_same_trajectories(a, b, name):
    """Per-trajectory arrays of two runs of the same (seed, index) range:
    indices and NaN patterns equal, floats bitwise equal on the no-control
    path and to 1e-12 relative under the other policies, whose column
    sum in sde.update_columns may round a column differently at another
    matrix width.  Each run reads its final index as the argmax of its
    final state."""
    for run in (a, b):
        assert np.array_equal(run.final_indices, np.argmax(run.final_states, axis=1))
    for field in ("final_indices", "true_indices", "retrodicted_indices"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    for field in ("final_states", "first_passage_times"):
        x, y = getattr(a, field), getattr(b, field)
        if name == "none":
            assert np.array_equal(x, y, equal_nan=True), field
        else:  # NaN patterns must match too
            np.testing.assert_allclose(x, y, rtol=1e-12, atol=0, err_msg=field)


@pytest.mark.parametrize(
    "name, n",
    [pytest.param(name, 2 if name == "fixed_cycle" else 3, id=name)
     for name in BATCH_POLICIES]  # leading_rotation(4) acts on n = 2
    + [pytest.param(name, 5, id=f"{name}-n5")
       for name in ("h_ordering", "random_permutation")],
)
def test_first_trajectories_do_not_depend_on_the_count(name, n):
    """Trajectory i depends only on (seed, i): the first 100 trajectories
    of a 300-trajectory run equal a 100-trajectory run, although the two
    runs freeze and compact different active sets."""
    policy = BATCH_POLICIES[name]
    params = SimulationParams(n=n, max_time=1.0, stop_epsilon=1e-4)
    big = run_ensemble(params, policy, EPS3, 300, 21, collect_retrodiction=True)
    small = run_ensemble(params, policy, EPS3, 100, 21, collect_retrodiction=True)
    # compaction drops frozen columns while others still run
    assert np.any((big.active_fraction > 0.0) & (big.active_fraction < 1.0))
    first = replace(
        big, **{f: getattr(big, f)[:100] for f in (
            "final_indices", "true_indices", "retrodicted_indices",
            "final_states", "first_passage_times",
        )}
    )
    assert_same_trajectories(first, small, name)


class _RowCounter:
    """A control stream that records the rows of each block it draws."""

    def __init__(self, gen, rows):
        self.gen, self.rows = gen, rows

    def random(self, size):
        self.rows.append(size[0])
        return self.gen.random(size)


@pytest.mark.parametrize(
    "name, n",
    [pytest.param(name, 2 if name == "fixed_cycle" else 3, id=name)
     for name in BATCH_POLICIES]
    + [pytest.param("random_permutation", n, id=f"random_permutation-n{n}")
       for n in (7, 9)],
)
def test_outputs_do_not_depend_on_the_block_length(monkeypatch, name, n):
    """Blocks of 1 and 7 steps, and no-control sub-blocks of one step,
    give the default run's outputs, so the ln(Delta) carried into a block,
    the passed targets and the frozen columns cross block edges intact.
    Indices and NaN patterns are exact; floats are bitwise equal under no
    control and equal to 1e-12 relative under the other policies, which
    compact their columns at other widths (see assert_same_trajectories).
    At n = 7 and 9 the default run's random-permutation blocks are cut
    short, so that their images take no more bytes than a full noise
    block."""
    policy = BATCH_POLICIES[name]
    params = SimulationParams(n=n, max_time=0.5, stop_epsilon=1e-4)
    rows = []
    control_rng = ensemble.trajectory_control_rng
    monkeypatch.setattr(ensemble, "trajectory_control_rng",
                        lambda *a: [_RowCounter(g, rows) for g in control_rng(*a)])
    runs = []
    default = ensemble.RESOLVE_SIZE
    for steps, size in ((NOISE_BLOCK_STEPS, default), (1, default), (7, default),
                        (NOISE_BLOCK_STEPS, 1)):
        monkeypatch.setattr(ensemble, "NOISE_BLOCK_STEPS", steps)
        monkeypatch.setattr(ensemble, "RESOLVE_SIZE", size)
        rows.clear()
        runs.append(run_ensemble(
            params, policy, DENSE, 60, 4, record_every=5,
            collect_retrodiction=True,
        ))
        if name == "random_permutation" and steps == NOISE_BLOCK_STEPS:
            itemsize = np.min_scalar_type(2**n - 1).itemsize
            assert max(rows) * 2**n * itemsize <= steps * n * 8
    base = runs[0]
    # trajectories froze partway
    assert np.any((base.active_fraction > 0.0) & (base.active_fraction < 1.0))
    for run in runs[1:]:
        for f in fields(EnsembleStats):
            x, y = getattr(run, f.name), getattr(base, f.name)
            if not isinstance(x, np.ndarray):
                assert x == y, f.name
            elif x.dtype.kind != "f":
                assert np.array_equal(x, y), f.name
            elif name == "none":
                assert np.array_equal(x, y, equal_nan=True), f.name
            else:
                np.testing.assert_allclose(x, y, rtol=1e-12, atol=0, err_msg=f.name)


def traced_peak(call):
    """call() and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_random_permutation_blocks_are_bounded_by_bytes():
    """At n = 9, 500 trajectories over one full block's steps: a 128-step
    block of uint16 images alone would take 65.5 MB, but 9-step blocks
    hold no more than the 4.6 MB of a full noise block, and the whole run
    peaks near 13 MB."""
    params = SimulationParams(n=9, max_time=NOISE_BLOCK_STEPS * 6.25e-4)
    assert params.total_steps == NOISE_BLOCK_STEPS
    peak = traced_peak(lambda: run_ensemble(
        params, random_permutation_policy(), EPS3, 500, 5
    ))
    assert peak < 25e6


def force_shards(monkeypatch, cpus):
    """Let run_ensemble see `cpus` usable CPUs and split any ensemble of
    at least 100 trajectories."""
    monkeypatch.setattr(ensemble, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(ensemble, "SHARD_MIN", 50)


def shard_policy(name, n):
    if name == "fixed_cycle":
        return fixed_cycle_policy([leading_rotation(2**n)])
    if name == "cycle3":
        return period3_cycle(n)
    return BATCH_POLICIES[name]


def test_a_shard_builds_its_streams_in_one_call_each(monkeypatch):
    """A one-process random-permutation run builds all its noise streams
    in one call and all its control streams in another, and constructs
    no SeedSequence: the streams are built in bulk, not per trajectory."""
    monkeypatch.setattr(ensemble, "_usable_cpus", lambda: 1)
    calls = []
    for name in ("trajectory_noise_rng", "trajectory_control_rng"):
        def counted(*args, make=getattr(ensemble, name), name=name):
            calls.append(name)
            return make(*args)
        monkeypatch.setattr(ensemble, name, counted)
    seed_sequence, built = np.random.SeedSequence, []

    def counted_seed_sequence(*args, **kwargs):
        built.append(args)
        return seed_sequence(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counted_seed_sequence)
    params = SimulationParams(n=2, max_time=0.05)
    stats = run_ensemble(params, random_permutation_policy(), EPS3, 1000, 9)
    assert stats.trajectory_count == 1000
    assert sorted(calls) == ["trajectory_control_rng", "trajectory_noise_rng"]
    assert built == []


@pytest.mark.parametrize(
    "name, n, cpus",
    [pytest.param(name, n, 2, id=f"{name}-n{n}")
     for name in BATCH_POLICIES for n in (2, 3, 5)]
    + [pytest.param("cycle3", n, 2, id=f"cycle3-n{n}") for n in (2, 3)]
    + [pytest.param("random_permutation", 3, 3, id="random_permutation-n3-3way")],
)
def test_shards_merge_to_the_one_process_run(monkeypatch, name, n, cpus):
    """An ensemble split into contiguous shards, the first run here and
    the rest in forked children, merges into the one-process run: equal
    indices and NaN patterns, no-control per-trajectory arrays bitwise,
    every other float (the merged mean and stderr curves too) to 1e-12
    relative.  No child outlives the call."""
    policy = shard_policy(name, n)
    params = SimulationParams(n=n, max_time=1.0, stop_epsilon=1e-4)
    collect = dict(collect_retrodiction=True)
    force_shards(monkeypatch, 1)
    one = run_ensemble(params, policy, EPS3, 151, 8, **collect)
    force_shards(monkeypatch, cpus)
    merged_parts = []
    merge = ensemble._merge_shards

    def spy(parts):
        merged_parts.append(len(parts))
        return merge(parts)

    monkeypatch.setattr(ensemble, "_merge_shards", spy)
    sharded = run_ensemble(params, policy, EPS3, 151, 8, **collect)
    assert merged_parts == [cpus]
    assert multiprocessing.active_children() == []
    assert_same_trajectories(sharded, one, name)
    for f in fields(EnsembleStats):
        x, y = getattr(sharded, f.name), getattr(one, f.name)
        if isinstance(x, np.ndarray) and x.dtype.kind == "f":
            np.testing.assert_allclose(x, y, rtol=1e-12, atol=0, err_msg=f.name)
        elif f.name not in ("final_indices", "true_indices", "retrodicted_indices"):
            assert x == y, f.name
    # trajectories froze partway, so summing the active counts is tested
    assert np.any((one.active_fraction > 0.0) & (one.active_fraction < 1.0))


def poison_trajectories(monkeypatch, params, seed, failures):
    """Make sde.update_columns return NaN populations for trajectory i at
    step s, for each (i, s) in `failures` (steps of the first noise
    block): the column is recognised by its first record increment, its
    first Wiener increment (drawn after the true outcome's uniform) plus
    either sign of the drift."""
    marks = []
    drift = record_strength(params.gamma) * params.dt
    for i, s in failures:
        steps = min(NOISE_BLOCK_STEPS, params.total_steps)
        rng = trajectory_noise_rng(seed, i)
        rng.random()
        dW = rng.standard_normal((steps, params.n))[s - 1, 0] * math.sqrt(params.dt)
        marks += [dW + drift, dW - drift]
    update = ensemble.update_columns

    def poisoned(lam, dR, gamma):
        new = update(lam, dR, gamma)
        new[:, np.isin(dR[0], marks)] = np.nan
        return new

    monkeypatch.setattr(ensemble, "update_columns", poisoned)


@pytest.mark.parametrize(
    "failures",
    [
        pytest.param([(10, 30), (100, 12)], id="child-first"),
        pytest.param([(10, 12), (100, 30)], id="parent-first"),
        pytest.param([(100, 12)], id="child-only"),
    ],
)
def test_a_failing_shard_raises_the_one_process_error(monkeypatch, failures):
    """A shard's IntegrationError reaches the caller; of several, the one
    with the earliest step, so the message is the one-process run's.  No
    child outlives the failure."""
    params = SimulationParams(n=2, max_time=0.5, stop_epsilon=1e-4)
    poison_trajectories(monkeypatch, params, 5, failures)
    want = f"non-finite infidelity at step {min(s for _, s in failures)}$"
    for cpus in (1, 2):
        force_shards(monkeypatch, cpus)
        with pytest.raises(IntegrationError, match=want):
            run_ensemble(params, h_ordering_policy(), EPS3, 120, 5)
        assert multiprocessing.active_children() == []


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
                collect_retrodiction=retro, **kw,
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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_no_control_matches_identity_cycle(n):
    """The factorised no-control runner (per-qubit log-odds) agrees with
    the (2^n, trajectories) column path, reached through a cycle of
    identity permutations; also for an ensemble shorter than one step,
    whose log-odds all tie at 0."""
    identity = fixed_cycle_policy([Permutation(np.arange(2**n))])
    collect = dict(collect_retrodiction=True)
    for params in (SimulationParams(n=n), SimulationParams(n=n, max_time=1e-4)):
        grid = default_epsilon_grid()
        a = run_ensemble(params, no_control(), grid, 300, 5, **collect)
        b = run_ensemble(params, identity, grid, 300, 5, **collect)
        for field in fields(EnsembleStats):
            x, y = getattr(a, field.name), getattr(b, field.name)
            if field.name == "policy_kind":
                continue
            if isinstance(x, np.ndarray) and x.dtype.kind == "f":
                # NaN patterns must match too
                np.testing.assert_allclose(x, y, rtol=1e-12, atol=0, err_msg=field.name)
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


def _ks_two_sample_p(a, b):
    """Asymptotic p-value of the two-sample Kolmogorov-Smirnov statistic
    (Numerical Recipes' small-sample correction of the Kolmogorov series)."""
    both = np.concatenate([a, b])
    cdf_a = np.searchsorted(np.sort(a), both, side="right") / a.size
    cdf_b = np.searchsorted(np.sort(b), both, side="right") / b.size
    en = math.sqrt(a.size * b.size / (a.size + b.size))
    lam = (en + 0.12 + 0.11 / en) * np.max(np.abs(cdf_a - cdf_b))
    k = np.arange(1, 101)
    return float(min(1.0, 2.0 * np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * (k * lam) ** 2))))


def test_the_grid_step_is_exact_in_law():
    """A no-control, no-target run from a uniform start steps from one
    grid point to the next.  At record_every 1 and 64 the mean ln(Delta)
    lies within 4 stderr of the exact curve at every grid point, and the
    two runs' ln(Delta) at the horizon pass a two-sample KS test at
    p > 1e-3 (independent seeds, so the samples are independent)."""
    params = SimulationParams(n=2, max_time=0.4, stop_epsilon=0.0)
    finals = []
    for every, seed in ((1, 61), (64, 62)):
        stats = run_ensemble(params, no_control(), [], 4000, seed, record_every=every)
        assert stats.sample_times.size == params.total_steps // every + 1
        exact = np.array([nofb_mean_log_infidelity(t, 2) for t in stats.sample_times[1:]])
        z = (stats.mean_ln_delta[1:] - exact) / stats.stderr_ln_delta[1:]
        assert np.max(np.abs(z)) < 4.0, every
        finals.append(np.log(1.0 - stats.final_states.max(axis=1)))
    assert _ks_two_sample_p(*finals) > 1e-3


START_N3 = np.repeat([0.4, 0.3, 0.2, 0.1], 2) / 2.0  # ties in pairs


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", BATCH_POLICIES)
def test_the_posterior_is_calibrated_at_its_stop(name, n):
    """P(final argmax != the true outcome's slot) = E[1 - max final
    populations], within 4 stderr, because the posterior is the exact
    Bayes posterior, also at a stopping time: from a uniform and a skewed
    start, run to max_time (stop 0) and frozen at a stop that acts."""
    policy = BATCH_POLICIES[name]
    if name == "fixed_cycle":
        policy = fixed_cycle_policy([leading_rotation(2**n)])
    skewed = np.array([0.4, 0.3, 0.2, 0.1]) if n == 2 else START_N3
    for start in (DiagonalState.maximally_mixed(n), DiagonalState(n, skewed)):
        for stop, max_time in ((0.0, 0.1), (0.05, 0.5)):
            params = SimulationParams(n=n, max_time=max_time, stop_epsilon=stop)
            stats = run_ensemble(params, policy, [], 2000, 70 + n, initial_state=start)
            if stop:
                assert stats.active_fraction[-1] < 0.9  # the stop acted
            gap = (stats.final_indices != stats.true_indices) - (
                1.0 - stats.final_states.max(axis=1)
            )
            assert abs(gap.mean()) < 4.0 * gap.std(ddof=1) / math.sqrt(gap.size)


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
    # the least-squares line of the windowed curve, with its usual stderr
    inside = (stats.sample_times >= 0.25) & (stats.sample_times <= 0.5)
    t, y = stats.sample_times[inside], stats.mean_ln_delta[inside]
    dt = t - t.mean()
    sxx = dt @ dt
    expected = (dt @ (y - y.mean())) / sxx
    resid = y - y.mean() - expected * dt
    sigma2 = resid @ resid / (t.size - 2)
    assert slope == pytest.approx(expected, rel=1e-10)
    assert err == pytest.approx(math.sqrt(sigma2 / sxx), rel=1e-10)


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
    assert not np.any(stats.censored_fraction > EXCESS_CENSORING)
    # mean times grow by ln(10)/16 per decade
    gaps = np.diff(stats.mean_first_passage)
    assert np.all(gaps > 0.0)
    assert gaps[-1] == pytest.approx(math.log(10.0) / 16.0, rel=0.25)


def test_censoring_is_reported():
    params = SimulationParams(n=1, max_time=0.05, stop_epsilon=1e-6)
    stats = run_ensemble(params, no_control(), [1e-1, 1e-5], 30, 7)
    j = 1
    assert stats.censored_fraction[j] > 0.5
    assert np.any(stats.censored_fraction > EXCESS_CENSORING)
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


@pytest.mark.parametrize(
    "probs, chi2_max",
    [
        # 0.999 quantiles of chi-squared at 3 and 7 degrees of freedom
        ((0.4, 0.3, 0.2, 0.1), 16.27),
        ((0.25, 0.2, 0.15, 0.12, 0.1, 0.08, 0.06, 0.04), 24.32),
    ],
)
def test_readout_measures_the_start_in_the_computational_basis(probs, chi2_max):
    """From a mixed start, the retrodicted outcome is a computational-basis
    measurement of lambda(0) under every policy: its histogram passes a
    chi-squared test against lambda(0).  Runs of one seed share each
    trajectory's true outcome, so wherever a policy's run and the
    no-control run both read the register correctly, their retrodicted
    indices agree exactly."""
    probs = np.array(probs)
    n = int(math.log2(probs.size))
    params = SimulationParams(n=n, max_time=2.0, stop_epsilon=1e-3)
    count = 4000
    policies = [
        no_control(), h_ordering_policy(), random_permutation_policy(),
        fixed_cycle_policy([leading_rotation(probs.size)]),
    ]
    runs = [
        run_ensemble(
            params, policy, [], count, 9100, record_every=64,
            initial_state=DiagonalState(n, probs), collect_retrodiction=True,
        )
        for policy in policies
    ]
    base = runs[0]
    base_ok = base.final_indices == base.true_indices
    for stats in runs:
        observed = np.bincount(stats.retrodicted_indices, minlength=probs.size)
        expected = count * probs
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < chi2_max, (stats.policy_kind, chi2)
        both_ok = base_ok & (stats.final_indices == stats.true_indices)
        assert both_ok.mean() > 0.99
        assert np.array_equal(
            stats.retrodicted_indices[both_ok], base.retrodicted_indices[both_ok]
        )


@pytest.fixture
def wide_fit_range(monkeypatch):
    """Fit mean times over [1e-4, 1e-2], where the small test grid
    np.logspace(-1, -4, 10) has 7 targets."""
    monkeypatch.setattr(ensemble, "FIT_RANGE", (1e-4, 1e-2))


@pytest.mark.usefixtures("wide_fit_range")
def test_regression_mean_time_recovers_rate(monkeypatch):
    params = SimulationParams(n=1, max_time=2.5, stop_epsilon=1e-4)
    eps = np.logspace(-1, -4, 10)
    stats = run_ensemble(params, no_control(), eps, 400, 23)
    fit = regression_mean_time(stats)
    assert fit.slope == pytest.approx(1.0 / 16.0, rel=0.15)
    assert fit.point_count >= 5
    assert fit.slope_stderr > 0.0
    monkeypatch.setattr(ensemble, "FIT_RANGE", (1e-9, 1e-8))
    with pytest.raises(ValueError):
        regression_mean_time(stats)


@pytest.mark.usefixtures("wide_fit_range")
def test_asymptotic_speedup_of_identical_ensembles_is_one():
    params = SimulationParams(n=1, max_time=2.5, stop_epsilon=1e-4)
    eps = np.logspace(-1, -4, 10)
    stats = run_ensemble(params, no_control(), eps, 200, 6)
    est = asymptotic_speedup(stats, stats)
    assert est.value == pytest.approx(1.0)
    assert est.stderr > 0.0


def _passage_ensemble(count, max_time, seed):
    params = SimulationParams(n=1, max_time=max_time, stop_epsilon=1e-4)
    eps = np.logspace(-1, -4, 10)
    return run_ensemble(params, no_control(), eps, count, seed)


@pytest.mark.usefixtures("wide_fit_range")
def test_mean_time_stderr_is_the_delete_one_jackknife():
    stats = _passage_ensemble(40, 2.5, 29)
    assert not stats.censored_fraction.any()
    fit = regression_mean_time(stats)
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
        reps.append(regression_mean_time(masked).slope)
    reps = np.array(reps)
    m = reps.size
    jackknife = math.sqrt((m - 1) / m * np.sum((reps - reps.mean()) ** 2))
    assert fit.slope_stderr == pytest.approx(jackknife, rel=1e-10)


@pytest.mark.usefixtures("wide_fit_range")
def test_mean_time_stderr_from_per_trajectory_slopes(monkeypatch):
    """Censored passages count as max_time in the per-trajectory slopes."""
    stats = _passage_ensemble(60, 0.6, 41)
    assert 0.0 < stats.censored_fraction.max() < 0.5
    monkeypatch.setattr(ensemble, "CENSOR_LIMIT", 0.5)
    fit = regression_mean_time(stats)
    sel = (stats.epsilons >= 1e-4) & (stats.epsilons <= 1e-2)
    assert fit.point_count == int(sel.sum())
    x = np.log(1.0 / stats.epsilons[sel])
    dx = x - x.mean()
    times = np.nan_to_num(stats.first_passage_times[:, sel], nan=0.6)
    b = times @ dx / (dx @ dx)
    assert fit.slope == pytest.approx(b.mean(), rel=1e-12)
    expected = b.std(ddof=1) / math.sqrt(b.size)
    assert fit.slope_stderr == pytest.approx(expected, rel=1e-12)
    intercept = stats.mean_first_passage[sel].mean() - fit.slope * x.mean()
    assert fit.intercept == pytest.approx(intercept, rel=1e-12)


@pytest.mark.usefixtures("wide_fit_range")
def test_every_result_feeds_the_mean_time_fit():
    """A default run_ensemble result carries its (count, targets) passage
    times, so it feeds the mean-time fit and the speed-up, and the
    ignored collect_first_passage changes no field."""
    params = SimulationParams(n=1, max_time=2.5, stop_epsilon=1e-4)
    eps = np.logspace(-1, -4, 10)
    stats = run_ensemble(params, no_control(), eps, 40, 29)
    assert stats.first_passage_times.shape == (40, 10)
    assert regression_mean_time(stats).slope > 0.0
    assert asymptotic_speedup(stats, stats).value == pytest.approx(1.0)
    for flag in (False, True):
        other = run_ensemble(params, no_control(), eps, 40, 29,
                             collect_first_passage=flag)
        for f in fields(EnsembleStats):
            a, b = getattr(stats, f.name), getattr(other, f.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b, equal_nan=True), f.name
            else:
                assert a == b, f.name
    # a run without targets still carries the array, with no columns
    empty = run_ensemble(params, no_control(), [], 5, 3)
    assert empty.first_passage_times.shape == (5, 0)


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


@pytest.mark.usefixtures("wide_fit_range")
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
    )
    assert [p.n for p in points] == [1, 2, 3]
    for p in points:
        assert p.estimate.value > 0.0
        assert p.bounds.lower <= p.bounds.upper
    # n=1 has nothing to reorder.  The swaps decorrelate the record noise
    # from the baseline's, so the ratio carries both ensembles' spread:
    # at 600 trajectories its stderr is about 0.04
    [[one]] = speedup_scaling_sweep(
        [1], [random_permutation_policy()], template, 600, 17, epsilons=eps
    )
    assert one.estimate.value == pytest.approx(1.0, abs=0.15)
    fit = fit_speedup_scaling(points)
    assert fit.slope > 0.0
    assert fit.slope_stderr > 0.0


@pytest.mark.usefixtures("wide_fit_range")
def test_sweep_runs_each_baseline_once(monkeypatch):
    """Policies swept together share each size's no-control ensemble and
    report what each would report when swept alone."""
    calls = []
    run = ensemble.run_ensemble

    def counting(params, policy, *args, **kwargs):
        calls.append((params.n, policy.kind))
        return run(params, policy, *args, **kwargs)

    monkeypatch.setattr(ensemble, "run_ensemble", counting)
    eps = np.logspace(-1, -4, 10)
    template = SimulationParams(n=2, max_time=2.5, stop_epsilon=float(eps.min()))
    policies = [random_permutation_policy(), h_ordering_policy()]
    both = speedup_scaling_sweep([2, 3], policies, template, 40, 5, epsilons=eps)
    assert calls == [
        (n, kind)
        for n in (2, 3)
        for kind in ("none", "random_permutation", "h_ordering")
    ]
    for policy, points in zip(policies, both):
        [alone] = speedup_scaling_sweep([2, 3], [policy], template, 40, 5, epsilons=eps)
        assert [p.n for p in points] == [2, 3]
        assert [p.estimate for p in points] == [p.estimate for p in alone]
        assert [p.bounds for p in points] == [p.bounds for p in alone]


@pytest.mark.parametrize(
    "n_values,policies,epsilons,message",
    [
        ([2, 0], [random_permutation_policy()], None, "at least one qubit, not n=0"),
        ([2, 3, 2], [random_permutation_policy()], None, "repeats a register size"),
        ([2, 3], [], None, "no policies"),
        ([2, 3], [fixed_cycle_policy([leading_rotation(4)])], None,
         r"dimension 4, which does not fit n=3 \(2\*\*3 = 8\)"),
        ([2, 3], [random_permutation_policy()], [1e-1, 1e-4, 1e-5],
         r"fewer than 3 epsilon targets in the fit range \[1e-06, 0.0001\]: "
         r"2 inside it"),
    ],
    ids=["n0", "repeated", "no-policies", "cycle-misfit", "fit-range"],
)
def test_sweep_checks_its_inputs_before_any_ensemble(
    monkeypatch, n_values, policies, epsilons, message
):
    calls = []

    def spy(params, policy, *args, **kwargs):
        calls.append((params.n, policy.kind))
        raise AssertionError("an ensemble started")

    monkeypatch.setattr(ensemble, "run_ensemble", spy)
    template = SimulationParams(n=2, max_time=1.0)
    with pytest.raises(ValueError, match=message):
        speedup_scaling_sweep(n_values, policies, template, 40, 5, epsilons=epsilons)
    assert calls == []


def test_sweep_does_not_warn_about_dt_again():
    """The per-size copies of the template differ only in n, and the dt
    warning does not depend on n: the template's own warning, at its
    caller, is the only one."""
    with pytest.warns(UserWarning) as record:
        template = SimulationParams(n=2, dt=0.02, max_time=1.0)
        with pytest.raises(ValueError, match="fit range"):
            speedup_scaling_sweep([2, 3], [random_permutation_policy()], template,
                                  40, 5, epsilons=[1e-1, 1e-2])
    assert len(record) == 1
    assert record[0].filename == __file__


@pytest.mark.usefixtures("wide_fit_range")
def test_one_fit_range_governs_every_mean_time_fit(monkeypatch):
    stats = _passage_ensemble(60, 2.5, 29)
    assert not stats.censored_fraction.any()
    inside = (stats.epsilons >= 1e-4) & (stats.epsilons <= 1e-2)
    assert regression_mean_time(stats).point_count == int(inside.sum())
    assert asymptotic_speedup(stats, stats).value == pytest.approx(1.0)

    def spy(params, policy, *args, **kwargs):
        raise AssertionError("an ensemble started")

    monkeypatch.setattr(ensemble, "run_ensemble", spy)
    # 3 targets in the default [1e-6, 1e-4], 1 in the patched range
    with pytest.raises(ValueError, match=r"fit range \[0.0001, 0.01\]: 1 inside it"):
        speedup_scaling_sweep(
            [2], [random_permutation_policy()], SimulationParams(n=2, max_time=1.0),
            40, 5, epsilons=[1e-3, 1e-5, 2e-6, 1e-6],
        )


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
    # repeated points still span only 2 register sizes
    with pytest.raises(ValueError, match="at least 3 register sizes"):
        fit_speedup_scaling(points[:2] + points[:2])
    bad = [pt(n, 1.0, 0.0) if n == 3 else pt(n, 1.0, 0.1) for n in (2, 3, 4)]
    with pytest.raises(ValueError):
        fit_speedup_scaling(bad)
    bad = [pt(n, 1.0, math.nan) if n == 3 else pt(n, 1.0, 0.1) for n in (2, 3, 4)]
    with pytest.raises(ValueError, match="positive stderr"):
        fit_speedup_scaling(bad)


def test_fit_speedup_scaling_is_the_weighted_least_squares_line():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        x = np.arange(2, 2 + int(rng.integers(3, 8)), dtype=float)
        s = rng.uniform(0.02, 0.1, x.size)
        y = rng.uniform(0.2, 0.6) * x + rng.uniform(0.5, 1.0)
        y += s * rng.standard_normal(x.size)
        points = [
            SweepPoint(
                n=int(n), estimate=SpeedupEstimate(value=v, stderr=e),
                bounds=speedup_bounds_for_policy("random_permutation", int(n)),
            )
            for n, v, e in zip(x, y, s)
        ]
        fit = fit_speedup_scaling(points)
        # the weighted normal equations, weights 1/stderr^2
        w = 1.0 / s**2
        W, X, Y, XX, XY = w.sum(), w @ x, w @ y, w @ (x * x), w @ (x * y)
        D = W * XX - X * X
        assert fit.slope == pytest.approx((W * XY - X * Y) / D, rel=1e-10)
        assert fit.intercept == pytest.approx((XX * Y - X * XY) / D, rel=1e-10)
        assert fit.slope_stderr == pytest.approx(math.sqrt(W / D), rel=1e-10)
        assert fit.intercept_stderr == pytest.approx(math.sqrt(XX / D), rel=1e-10)


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


def whole_chunk_changes(state, gamma, dt, seed, sizes):
    """The per-sample ln(Delta) changes of chunks of the given sizes, each
    drawn at once from its chunk's keyed stream."""
    d = state.probs.size
    changes = []
    for c, m in enumerate(sizes):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(c, 2)))
        u = rng.random((m, d))
        # the true outcome i* takes slot 0, the others the argsort order
        # of their uniforms
        u[np.arange(m), true_outcomes(state.probs, rng.random(m))] = -1.0
        lam = state.probs[np.argsort(u, axis=1)].T
        # the true-outcome record, with z_0 = (1, ..., 1)
        dW = rng.standard_normal((m, state.n)) * math.sqrt(dt)
        dR = record_strength(gamma) * dt + dW.T
        delta = infidelity_columns(update_columns(lam, dR, gamma))
        changes.append(np.log(delta) - math.log(state.infidelity()))
    return np.concatenate(changes)


def assert_estimate_of_changes(est, dl, dt):
    """est is the plain mean and ddof=1 standard error of the changes dl."""
    assert est.value == pytest.approx(dl.mean() / dt, rel=1e-12)
    assert est.stderr == pytest.approx(
        dl.std(ddof=1) / math.sqrt(dl.size) / dt, rel=1e-12
    )


def test_mc_permuted_step_rate_variance_is_merged_across_chunks(monkeypatch):
    """With three chunks, the last one partial, the estimate is the plain
    mean and ddof=1 standard error of the per-sample ln(Delta) changes,
    recomputed here from each chunk's keyed stream."""
    monkeypatch.setattr(ensemble, "MC_CHUNK_ROWS", 1000)
    state = two_level_state(2, 1e-3)
    gamma, dt, seed = 1.0, 2e-4, 31
    est = mc_permuted_step_rate(state, gamma, dt, 2500, seed)
    dl = whole_chunk_changes(state, gamma, dt, seed, (1000, 1000, 500))
    assert_estimate_of_changes(est, dl, dt)


def test_mc_permuted_step_rate_sub_blocks_take_the_whole_chunk_draws(monkeypatch):
    """Chunks of 1000 and 701 samples step in even sub-blocks of at most
    300 (4 x 250, and 233 + 234 + 234), which read the chunk's stream
    through three cursors: the estimate is that of whole-chunk draws, and
    bitwise that of one sub-block per chunk."""
    monkeypatch.setattr(ensemble, "MC_CHUNK_ROWS", 1000)
    widths = []

    def recording_update(lam, dR, gamma):
        widths.append(lam.shape[1])
        return update_columns(lam, dR, gamma)

    monkeypatch.setattr(ensemble, "update_columns", recording_update)
    state = two_level_state(2, 1e-3)
    gamma, dt, seed = 1.0, 2e-4, 31
    monkeypatch.setattr(ensemble, "MC_BLOCK_ROWS", 300)
    est = mc_permuted_step_rate(state, gamma, dt, 2701, seed)
    assert sorted(widths) == [233, 234, 234] + [250] * 8
    dl = whole_chunk_changes(state, gamma, dt, seed, (1000, 1000, 701))
    assert_estimate_of_changes(est, dl, dt)

    monkeypatch.setattr(ensemble, "MC_BLOCK_ROWS", 1000)
    widths.clear()
    assert mc_permuted_step_rate(state, gamma, dt, 2701, seed) == est
    assert sorted(widths) == [701, 1000, 1000]


def test_mc_permuted_step_rate_samples_the_true_outcome_into_slot_0(monkeypatch):
    """Each sample's start holds its true outcome i* ~ lambda in slot 0 and
    the other populations in uniformly random order, so with distinct
    populations each of the 24 arrangements at n = 2 has probability
    lambda_{i*}/6; and its record is c*dt plus zero-mean noise on every
    qubit."""
    starts, records = [], []

    def capturing_update(lam, dR, gamma):
        starts.append(lam.copy())
        records.append(dR.copy())
        return update_columns(lam, dR, gamma)

    monkeypatch.setattr(ensemble, "update_columns", capturing_update)
    probs = np.array([0.4, 0.3, 0.2, 0.1])
    gamma, dt, samples = 1.0, 2e-4, 60_000
    mc_permuted_step_rate(DiagonalState(2, probs), gamma, dt, samples, 2026)
    lam, dR = np.hstack(starts), np.hstack(records)
    assert lam.shape == (4, samples)

    # population index held by each slot of each start
    held = np.argmax(lam[:, :, None] == probs, axis=2)
    observed, expected = [], []
    for cell in itertools.permutations(range(4)):
        observed.append(np.all(held == np.array(cell)[:, None], axis=0).sum())
        expected.append(samples * probs[cell[0]] / 6)
    observed, expected = np.array(observed), np.array(expected)
    assert observed.sum() == samples  # every start is an arrangement
    # the 0.999 quantile of chi-squared at 23 degrees of freedom
    assert ((observed - expected) ** 2 / expected).sum() < 49.73

    noise = dR - record_strength(gamma) * dt
    stderr = noise.std(axis=1, ddof=1) / math.sqrt(samples)
    assert np.all(np.abs(noise.mean(axis=1)) < 4.0 * stderr)


def test_mc_permuted_step_rate_does_not_depend_on_the_cpu_count(monkeypatch):
    """Each chunk draws from its own stream and the moments merge in chunk
    order, so 1, 2 or 3 worker threads give bitwise the same estimate, and
    every worker is gone when the call returns."""
    monkeypatch.setattr(ensemble, "MC_CHUNK_ROWS", 700)
    state = flat_tail_state(3, 1e-3)
    threads = threading.active_count()
    estimates = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(ensemble, "_usable_cpus", lambda: cpus)
        estimates.append(mc_permuted_step_rate(state, 1.0, 2e-4, 4000, 8))
        assert threading.active_count() == threads
    assert estimates[1] == estimates[0]
    assert estimates[2] == estimates[0]


def test_mc_permuted_step_rate_chunks_are_bounded_by_bytes(monkeypatch):
    """At d = 256 a chunk takes MC_CHUNK_ROWS * 8 // d rows and a sub-block
    MC_BLOCK_ROWS * 8 // d, so two chunks in flight hold their 25 kB ln(Delta)
    arrays and one 125-row sub-block each: far below one 40 000-row chunk,
    whose uniforms alone take 82 MB.  The run peaks near 2.2 MB."""
    monkeypatch.setattr(ensemble, "_usable_cpus", lambda: 2)
    peak = traced_peak(lambda: mc_permuted_step_rate(
        flat_tail_state(8, 1e-3), 1.0, 2e-4, 40_000, 3
    ))
    assert peak < 8e6


def test_mc_permuted_step_rate_memory_is_bounded_by_its_sub_blocks(monkeypatch):
    """At n = 3 two 100 000-row chunks in flight hold their 0.8 MB ln(Delta)
    arrays and one 4096-row sub-block each, not whole-chunk arrays of 6.4 MB
    apiece; the run peaks near 4.7 MB."""
    monkeypatch.setattr(ensemble, "_usable_cpus", lambda: 2)
    peak = traced_peak(lambda: mc_permuted_step_rate(
        flat_tail_state(3, 1e-3), 1.0, 2e-4, 200_000, 3
    ))
    assert peak < 8e6


def test_mc_permuted_step_rate_raises_a_chunks_failure(monkeypatch):
    """An exception inside one chunk's worker thread reaches the caller."""
    monkeypatch.setattr(ensemble, "MC_CHUNK_ROWS", 1000)
    monkeypatch.setattr(ensemble, "_usable_cpus", lambda: 2)

    def failing_update(lam, dR, gamma):
        if lam.shape[1] == 500:  # the last, partial chunk
            raise FloatingPointError("chunk failed")
        return update_columns(lam, dR, gamma)

    monkeypatch.setattr(ensemble, "update_columns", failing_update)
    threads = threading.active_count()
    with pytest.raises(FloatingPointError, match="chunk failed"):
        mc_permuted_step_rate(two_level_state(2, 1e-3), 1.0, 2e-4, 2500, 31)
    assert threading.active_count() == threads
