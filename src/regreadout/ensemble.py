"""Ensemble simulation and statistics.

run_ensemble integrates many trajectories at once, one per column of a
(2^n, trajectories) array over a compressed active set: every trajectory
owns its per-index noise stream, sde.trajectory_noise_rng(seed, index).
Its first uniform draws the trajectory's true outcome i*, and its
normals are pre-drawn in blocks of steps into a step-major (steps, n,
trajectories) block.  The record is dR = c*z_{label(i*)}*dt + dW, with
label(i*) the slot the control has moved i* to, and each step goes
through sde.update_columns and registers.infidelity_columns.  A step
does only the control (both open-loop kinds move columns by a block of
permutation images, a fixed cycle's shared by every column), the
record's drift, the update, and ln(Delta) written into a (steps,
trajectories) block with a freeze test; once per block, one resolver finds every passage of a
first-passage target, interpolates them, and writes all the block's grid
points of the mean curves in one vectorized pass, and frozen columns are
dropped.  H-ordering sorts
population values rather than indices: tied populations are
interchangeable.  The uncontrolled run from a uniform start sums n
per-qubit log-odds instead, O(n) per trajectory-step, and takes its
ln(Delta) and freezes from the block's log-odds history; asked for no
targets, it steps from one record grid point to the next.
Under random permutations every trajectory also owns its control
stream, sde.trajectory_control_rng(seed, index).  A shard builds each
kind of stream for its whole index range in one bulk call, and every
stream is still bitwise default_rng(SeedSequence(seed, spawn_key=(index,
tag)))'s, with tag 0 for noise and 1 for control.  So each trajectory
depends only on (seed, index) under every policy: its indices and NaN
patterns exactly, its floats bitwise on the no-control path and to
1e-12 relative under the other policies, whose column sums in
sde.update_columns may round a column differently at another matrix
width (measured from n = 3, at narrow widths of 2 to 16 columns; n <= 2
was bitwise at every width).  A large ensemble therefore splits into
contiguous index ranges (shards), one per usable CPU: the calling
process runs the first, forked children run the rest, and the shards
merge into one EnsembleStats that equals the one-process run in that
same sense.  On the log-odds path each process runs its range as
consecutive even sub-ranges of at most LOG_ODDS_RANGE trajectories,
merged as shards are, so it holds one sub-range's streams and blocks at
a time.

The rest of the module turns ensembles into numbers: mean log-infidelity
curves with standard errors, mean first-passage times with censoring
fractions, the asymptotic speed-up (the ratio of the slopes of mean
first-passage time against ln(1/epsilon)), scaling sweeps over register
sizes, a sampled single-step collapse rate under random permutations,
and the small regressions used by the above.
"""

from __future__ import annotations

import copy
import math
import os
import warnings
from dataclasses import dataclass, replace
from functools import partial, reduce

import numpy as np

from .policies import ControlPolicy, h_order_targets, no_control
from .registers import DiagonalState, _positive, _whole, infidelity_columns, z_table
from .sde import (
    LOG_FLOOR,
    IntegrationError,
    SimulationParams,
    _keyed_streams,
    epsilon_targets,
    infidelity_log_odds,
    record_strength,
    trajectory_control_rng,
    trajectory_noise_rng,
    true_outcomes,
    update_columns,
)
from .theory import (
    SpeedupBounds,
    RateEstimate,
    _rate_infidelity,
    speedup_bounds_for_policy,
)

__all__ = [
    "EnsembleStats", "MeanTimeFit", "ScalingFit", "SpeedupEstimate",
    "SweepPoint", "asymptotic_speedup", "default_epsilon_grid",
    "fit_ln_delta_slope", "fit_speedup_scaling", "mc_permuted_step_rate",
    "regression_mean_time", "run_ensemble", "speedup_scaling_sweep",
]

# Steps pre-drawn per trajectory between active-set compressions.  Under
# random permutations a block takes at most NOISE_BLOCK_STEPS * 8 * n //
# (d * itemsize) steps (at least 1), so that its (steps, active, d) images
# hold no more bytes than a full noise block: 128 steps up to n = 5, and
# 96, 56, 32 and 9 at n = 6, 7, 8 and 9.
NOISE_BLOCK_STEPS = 128
# Trajectories whose noise blocks are drawn before one transposed copy.
NOISE_CHUNK = 64
# Log-odds entries per sub-block of steps whose Delta and freezes the
# no-control runner takes at once.  Not finely tuned: 2**13 and 2**17
# timed the same within noise, 2**19 slower on a 5000-column n=3 run.
RESOLVE_SIZE = 2**15
# Trajectories per shard: run_ensemble splits an ensemble across CPUs only
# when every shard gets at least this many.
SHARD_MIN = 500
# Trajectories per sub-range on the no-control log-odds path: a wider shard
# runs as consecutive even sub-ranges, merged as shards are, so a process
# holds one sub-range's streams and noise and ln(Delta) blocks at a time
# (a 5000-trajectory n=3 shard's 15.4 MB noise block becomes 3.1 MB).
# 512 held less but cost +7% shard time, 1024 +2-4%.
LOG_ODDS_RANGE = 1024
# Samples per chunk of mc_permuted_step_rate, and per sub-block of a chunk,
# up to d = 8; a larger d takes ROWS * 8 // d of each.  Each chunk has its
# own stream, so MC_CHUNK_ROWS fixes which samples an estimate takes; the
# sub-blocks keep the arrays cache-sized and do not change the estimate.
MC_CHUNK_ROWS = 100_000
MC_BLOCK_ROWS = 4096
# A first-passage mean is considered unusable above this censoring level.
CENSOR_LIMIT = 1e-3
# Target range [lo, hi] of the mean-time fits behind every speed-up.
FIT_RANGE = (1e-6, 1e-4)
# Grid spacing, in steps, of the mean curves of speedup_scaling_sweep.
SWEEP_RECORD_EVERY = 64


def default_epsilon_grid() -> np.ndarray:
    """Standard first-passage target grid: 13 points per decade from
    1e-1 down to 1e-6, descending."""
    return np.logspace(-1.0, -6.0, 66)


@dataclass(frozen=True)
class EnsembleStats:
    """Aggregated results of one ensemble run.

    Curves carry the full trajectory count at every time: a trajectory
    that reached stop_epsilon keeps contributing its final value, and
    active_fraction records how many were still evolving.  First-passage
    entries are per target epsilon; censored trajectories contribute
    max_time to the mean and to the censored fraction.  Every result
    carries first_passage_times, the (count, targets) passage times (NaN
    where censored) behind those means and the mean-time fits.
    final_states is the (count, 2^n) array of each trajectory's
    populations where it froze or at max_time, final_indices their argmax
    on every path (the first index on a tie), retrodicted_indices the
    origin label at that argmax, and true_indices the slot that holds the
    trajectory's sampled true outcome there.
    """

    sample_times: np.ndarray
    mean_ln_delta: np.ndarray
    stderr_ln_delta: np.ndarray
    active_fraction: np.ndarray
    epsilons: np.ndarray
    mean_first_passage: np.ndarray
    stderr_first_passage: np.ndarray
    censored_fraction: np.ndarray
    trajectory_count: int
    params: SimulationParams
    policy_kind: str
    final_indices: np.ndarray
    final_states: np.ndarray
    true_indices: np.ndarray
    first_passage_times: np.ndarray
    retrodicted_indices: np.ndarray | None = None


def _scatter_rows(x: np.ndarray, img: np.ndarray) -> np.ndarray:
    """Copy of x with row j of each column c moved to row img[j, c]; a
    one-column img moves every column's rows alike."""
    out = np.empty_like(x)
    if img.shape[1] == 1:
        out[img[:, 0]] = x
    else:
        out[img, np.arange(x.shape[1])] = x
    return out


@dataclass(frozen=True)
class _Shard:
    """A contiguous range of trajectories, run to the end: the mean and
    the ddof=1 variance of ln(Delta) over them and their active count at
    each grid point, and their per-trajectory arrays in index order."""

    mean_ln: np.ndarray
    var_ln: np.ndarray
    active_at: np.ndarray
    first_passage: np.ndarray
    finals: np.ndarray
    true_idx: np.ndarray
    retro: np.ndarray | None


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def run_ensemble(
    params: SimulationParams,
    policy: ControlPolicy,
    epsilons,
    count: int,
    master_seed: int,
    *,
    record_every: int = 8,
    initial_state: DiagonalState | None = None,
    collect_retrodiction: bool = False,
    collect_first_passage: bool = False,
) -> EnsembleStats:
    """Run `count` trajectories and aggregate their statistics.

    Trajectory i consumes the noise stream of trajectory_noise_rng(
    master_seed, i) and, under random permutations, the control stream of
    trajectory_control_rng(master_seed, i): each step's permutation image
    is the argsort of d = 2^n uniforms drawn from it.  Each shard builds
    the streams of its index range in one bulk call per kind, bitwise
    default_rng(SeedSequence(master_seed, spawn_key=(i, tag)))'s streams
    with tag 0 for noise and 1 for control.  The noise stream's
    first uniform draws the true outcome i* (sde.true_outcomes), its
    normals the Wiener increments of the record dR = c*z_{label(i*)}*dt +
    dW.  An open-loop control moves label(i*) by its image; H-ordering
    sends it to h_order_targets(n)[rank], the rank counting the larger
    populations and the equal ones in earlier slots (the stable rule of
    the retrodiction sort).  true_indices holds the final labels, so
    final_indices != true_indices marks a misread register.  So
    trajectory i depends only on (master_seed, i) under every policy,
    whatever the count and whichever trajectories are still running: the
    first m trajectories of a run equal an m-trajectory run, and
    ensembles with equal seeds share true outcomes and noise across
    policies.  Equal means equal indices and NaN patterns, with floats
    bitwise equal on the no-control product-state path and equal to
    1e-12 relative otherwise: the normalizing column sum in
    sde.update_columns can round a column differently at another array
    width (measured at n = 3-5 for widths of 2-16 columns; n = 1, 2 and
    the BLAS product z.T @ dR at n <= 5 were width-independent).
    Chunks of NOISE_CHUNK trajectories draw their
    (steps, n) noise blocks, transposed into one (steps, n, active) block.
    Both open-loop controls fill one block of permutation images: random
    permutations one (steps, active, d) block at the smallest unsigned
    dtype that holds d - 1, cut short so that it takes no more bytes than
    a full noise block (see NOISE_BLOCK_STEPS), a fixed cycle one
    (steps, 1, d) block that every trajectory shares.  A step moves the
    populations, origin labels and label(i*) by it, and then adds the
    drift c*z_{label(i*)}*dt.  So memory is bounded at every n, and the
    outputs do not depend on the block length, in the sense above.

    An ensemble of at least 2 * SHARD_MIN trajectories, on a host where
    this process may use more than one CPU and can fork, runs as
    min(usable CPUs, count // SHARD_MIN) contiguous index ranges
    (shards): this process runs the first, forked children run the rest
    and send theirs back through pipes, and every child is joined before
    this returns.  The per-trajectory arrays are concatenated in index
    order, the per-shard moments of ln(Delta) are merged with Chan et
    al.'s formula, the active counts summed, and the passage means,
    stderrs and censoring computed from the concatenated passage times.
    So a sharded run equals the one-process run in the sense above:
    indices and NaN patterns exactly, the no-control per-trajectory arrays
    bitwise, every other float to 1e-12 relative.  An IntegrationError in
    any shard is raised here; when several fail, the earliest one, whose
    message is the one-process run's.  On the log-odds path (below) a
    process runs a range wider than LOG_ODDS_RANGE as consecutive even
    sub-ranges, one after another, merged and failing as shards do; only
    the merged mean and stderr of ln(Delta) differ from a one-range run,
    in their last bits.

    When policy.kind is "none" and the initial populations are uniform,
    the state is the (n, active) per-qubit log-odds L = c*R, a drifted
    Brownian motion c^2*z_{i*}*t + c*W(t) that each block sums row by
    row; otherwise the (2^n, active) populations.  Asked for no targets,
    that path takes the record grid's intervals as its steps (the last
    may be shorter) and draws one Normal(0, interval) increment per qubit
    and interval: exact in law at the grid points, where it also tests
    the stop, so a column freezes at the first grid point at or below
    it.  Such a run reads its noise stream per grid interval, so it is
    not noise-paired with a run of the same seed that asks for targets.

    A column freezes at its first step with ln(Delta) <= params.stop_ln,
    which is -inf for stop_epsilon = 0: nothing freezes, and a pure start
    (Delta = 0) runs to max_time.  On the population path each step
    writes every column's ln(Delta) into a (steps, active) block and
    stores a freezing column's final state at once.  On the log-odds path
    each step writes its log-odds over the spent noise, and sub-blocks of
    that history give ln(Delta), the freezes and their final states.  At
    each block end one resolver takes over: a frozen column holds its
    freeze value at the block's later steps, and target p is passed at
    the first step where the running minimum of ln(Delta) is at or below
    ln(p).  Each round finds, for every column with a target left, its
    first step at or below its next target, where it passes every target
    at or above its ln(Delta).  A passage is interpolated linearly in
    ln(Delta) between its step and the step before (for a block's first
    step, the previous block's last), and the grid points read the block
    directly, all of a block's in one pass over a (points, count) array,
    each row's moments bitwise those of its values in a 1-d array.
    H-ordering sorts population values, since tied populations are
    interchangeable.  For retrodiction an origin label moves with each
    population (under H-ordering by the stable index sort).  On both
    state paths the final index is the argmax of the final populations,
    and the retrodicted index the origin label at that argmax.  Every
    result carries the passage times; collect_first_passage is ignored,
    and ROADMAP item 8 deletes it with the benchmark's call of it.
    """
    _check_whole("count", count, 2)
    _check_whole("record_every", record_every, 1)
    eps = epsilon_targets(epsilons, params.stop_epsilon)
    state0 = initial_state or DiagonalState.maximally_mixed(params.n)
    if state0.n != params.n:
        raise ValueError("initial state size does not match params.n")
    _check_cycle_fits(policy, params.n)

    total_steps = params.total_steps
    grid_steps = np.arange(0, total_steps + 1, record_every, dtype=np.int64)
    if grid_steps[-1] != total_steps:
        grid_steps = np.append(grid_steps, total_steps)
    # the log-odds path: no control from a uniform start
    factored = policy.kind == "none" and bool(np.all(state0.probs == state0.probs[0]))
    run = partial(
        _run_shard, params, policy, eps, grid_steps, state0, master_seed,
        collect_retrodiction, factored,
    )
    if factored:
        run = partial(_run_in_ranges, run)
    shards = min(_usable_cpus(), count // SHARD_MIN)
    if shards < 2 or not hasattr(os, "fork"):
        res = run(0, count)
    else:
        edges = [count * j // shards for j in range(shards + 1)]
        ranges = [(a, b - a) for a, b in zip(edges[:-1], edges[1:])]
        res = _merge_shards(_run_forked(run, ranges))

    fp = res.first_passage
    filled = np.where(np.isnan(fp), params.max_time, fp)
    return EnsembleStats(
        sample_times=grid_steps * params.dt,
        mean_ln_delta=res.mean_ln,
        stderr_ln_delta=np.sqrt(res.var_ln / count),
        active_fraction=res.active_at / count,
        epsilons=eps,
        mean_first_passage=filled.mean(axis=0),
        stderr_first_passage=filled.std(axis=0, ddof=1) / math.sqrt(count),
        censored_fraction=np.isnan(fp).mean(axis=0),
        trajectory_count=count,
        params=params,
        policy_kind=policy.kind,
        final_indices=np.argmax(res.finals, axis=1),
        final_states=res.finals,
        true_indices=res.true_idx,
        first_passage_times=fp,
        retrodicted_indices=res.retro,
    )


def _check_whole(name: str, value, least: int) -> None:
    """Reject a value that is not an integer of at least `least`."""
    if not _whole(value) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, not {value!r}")


def _check_cycle_fits(policy: ControlPolicy, n: int) -> None:
    """Reject a fixed cycle whose permutations do not act on 2**n slots."""
    d = policy.cycle[0].dimension if policy.cycle else 2**n
    if d != 2**n:
        raise ValueError(f"the fixed_cycle permutations have dimension {d}, "
                         f"which does not fit n={n} (2**{n} = {2**n})")


def _integration_error(message: str, step: int, phase: int) -> IntegrationError:
    """An IntegrationError that records where a one-process run meets it:
    at `step`, in the step (phase 0) or at its block end (phase 1)."""
    exc = IntegrationError(message)
    exc.when = (step, phase)
    return exc


def _send_shard(run, first: int, count: int, sender) -> None:
    """A forked child's work: send run(first, count), or the exception
    that stopped it, through the pipe end `sender`."""
    try:
        result = run(first, count)
    except Exception as exc:  # raised again by the parent
        result = exc
    sender.send(result)
    sender.close()


def _run_forked(run, ranges: list[tuple[int, int]]) -> list[_Shard]:
    """run(first, count) for every (first, count) in `ranges`, in order:
    the first range in this process, each other one in a forked child.

    Every child is joined before this returns, and terminated first when
    this process fails or is interrupted.  A shard's failure is raised
    here; of several, the earliest IntegrationError.
    """
    # imported here, not at module level: its import takes milliseconds
    # that single-process runs need not pay
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    children = []
    try:
        for first, count in ranges[1:]:
            receiver, sender = ctx.Pipe(duplex=False)
            child = ctx.Process(
                target=_send_shard, args=(run, first, count, sender), daemon=True
            )
            child.start()
            sender.close()
            children.append((child, receiver))
        outcomes = [_outcome(run, *ranges[0])]
        for child, receiver in children:
            try:
                outcomes.append(receiver.recv())
            except EOFError:
                child.join()
                outcomes.append(
                    RuntimeError(f"a shard process exited with code {child.exitcode}")
                )
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, receiver in children:
            child.join()
            receiver.close()
    return _shards_or_earliest_error(outcomes)


def _outcome(run, first: int, count: int):
    """run(first, count), or the IntegrationError that stopped it."""
    try:
        return run(first, count)
    except IntegrationError as exc:  # raised later unless another is earlier
        return exc


def _shards_or_earliest_error(outcomes: list) -> list[_Shard]:
    """The shards of consecutive ranges, or, if any range failed, raise
    its exception; of several, the earliest IntegrationError, whose `when`
    is where the one-process run would have met it."""
    errors = [o for o in outcomes if isinstance(o, Exception)]
    if errors:
        raise min(errors, key=lambda e: getattr(e, "when", (math.inf, 0)))
    return outcomes


def _run_in_ranges(run, first: int, count: int) -> _Shard:
    """run(first, count) in this process as consecutive even sub-ranges of
    at most LOG_ODDS_RANGE trajectories, run one after another and merged
    as shards are, so that only one sub-range's streams and blocks are
    held at a time.  A failure is raised as _run_forked raises one."""
    parts = -(-count // LOG_ODDS_RANGE)
    if parts == 1:
        return run(first, count)
    edges = [first + count * j // parts for j in range(parts + 1)]
    outcomes = [_outcome(run, a, b - a) for a, b in zip(edges[:-1], edges[1:])]
    return _merge_shards(_shards_or_earliest_error(outcomes))


def _merge_moments(a, b):
    """Chan et al.'s pairwise merge of two samples' (count, mean, M2), M2
    being the sum of squared deviations from the sample's mean.  The means
    and M2 may be arrays of moments taken side by side."""
    na, mean_a, m2_a = a
    nb, mean_b, m2_b = b
    count = na + nb
    shift = mean_b - mean_a
    return (
        count,
        mean_a + shift * (nb / count),
        m2_a + m2_b + shift * shift * (na * nb / count),
    )


def _merge_shards(parts: list[_Shard]) -> _Shard:
    """The shard of consecutive index ranges `parts`: the ln(Delta)
    moments merged at every grid point, the active counts summed and the
    per-trajectory arrays concatenated."""
    count, mean, m2 = reduce(
        _merge_moments,
        [(len(p.finals), p.mean_ln, p.var_ln * (len(p.finals) - 1)) for p in parts],
    )

    def cat(field):
        return np.concatenate([getattr(p, field) for p in parts])

    return _Shard(
        mean_ln=mean,
        var_ln=m2 / (count - 1),
        active_at=sum(p.active_at for p in parts),
        first_passage=cat("first_passage"),
        finals=cat("finals"),
        true_idx=cat("true_idx"),
        retro=None if parts[0].retro is None else cat("retro"),
    )


def _run_shard(
    params: SimulationParams,
    policy: ControlPolicy,
    eps: np.ndarray,
    grid_steps: np.ndarray,
    state0: DiagonalState,
    master_seed: int,
    collect_retrodiction: bool,
    factored: bool,
    first: int,
    count: int,
) -> _Shard:
    """Trajectories first .. first + count - 1 of run_ensemble's ensemble,
    in this process, on the log-odds path if `factored`."""
    n = params.n
    d = 2**n
    initial = state0.probs

    kind = policy.kind
    dt = params.dt
    # the loop's steps: dt each, or on the no-target log-odds path the
    # record grid's intervals, drawn exactly in law
    if factored and eps.size == 0:
        widths = np.diff(grid_steps) * dt
        marks = np.arange(grid_steps.size)  # loop step of each grid point
        step_no = grid_steps  # dt-step at the end of each loop step
    else:
        widths = np.full(params.total_steps, dt)
        marks, step_no = grid_steps, np.arange(params.total_steps + 1)
    roots = np.sqrt(widths)
    c = record_strength(params.gamma)
    z = z_table(n)
    # ch[k]: the record's drift over loop step k per unit of z_{label(i*)}
    ch = c * widths
    label_type = np.min_scalar_type(d - 1)  # of random images, slots and ranks
    if kind == "h_ordering":
        # row targets[k] takes the k-th largest population, which an
        # ascending value sort leaves in row d - 1 - k
        h_targets = h_order_targets(n)
        h_source = np.argsort(h_targets)
        h_rows = d - 1 - h_source
        row_ids = np.arange(d)[:, None]
    elif kind == "fixed_cycle":
        # intp, an index type that needs no cast in the step
        cycle_images = np.array([[p.image] for p in policy.cycle])

    G = grid_steps.size
    # two-pass moments of ln(Delta) over all trajectories at each grid point
    mean_ln = np.zeros(G)
    var_ln = np.zeros(G)
    active_at = np.zeros(G, dtype=np.int64)

    amax0 = state0.argmax_index()
    ln0 = math.log(max(state0.infidelity(), LOG_FLOOR))
    ln_tgt = np.append(np.log(eps), -np.inf)  # -inf: no target left
    neg_tgt = -ln_tgt  # ascending, for searchsorted
    stop_ln = params.stop_ln

    fp = np.full((count, eps.size), np.nan)
    ptr0 = int(np.sum(ln_tgt >= ln0))
    fp[:, :ptr0] = 0.0
    cur_ln = np.full(count, ln0)
    finals = np.tile(initial, (count, 1))
    retro = np.full(count, amax0, dtype=np.intp) if collect_retrodiction else None
    # each trajectory's true outcome, from the first uniform of its stream
    gens = trajectory_noise_rng(master_seed, range(first, first + count))
    true_idx = true_outcomes(initial, np.array([gen.random() for gen in gens]))

    A = count if ln0 > stop_ln else 0  # a start at the stop is frozen
    active_at[0] = A
    mean_ln[0] = ln0

    lam = np.zeros((n, A)) if factored else np.tile(initial[:, None], (1, A))
    origin = np.tile(np.arange(d)[:, None], (1, A)) if collect_retrodiction else None
    idx = np.arange(A)
    label = true_idx[:A].copy()  # the slot that holds each column's true outcome
    ptr = np.full(A, ptr0, dtype=np.intp)
    gens = gens[:A]
    block_steps, ctrl_gens = NOISE_BLOCK_STEPS, None
    if kind == "random_permutation":
        bound = block_steps * 8 * n // (d * label_type.itemsize)
        block_steps = max(1, min(block_steps, bound))
        ctrl_gens = trajectory_control_rng(master_seed, range(first, first + A))

    def record_finals(w, cols, slots):
        """Store the final state, true slot and retrodicted index of
        columns w, whose states are the columns of cols and whose true
        outcomes sit in slots."""
        if factored:
            # both sums run in a fixed order, so that a column's rounding
            # does not depend on how many columns freeze with it: a BLAS
            # product and a pairwise sum (which numpy takes over a single
            # column) would both let it
            expo = z[0][:, None] * cols[0]
            for r in range(1, n):
                expo += z[r][:, None] * cols[r]
            cols = np.exp(expo - expo.max(axis=0))
            cols /= np.cumsum(cols, axis=0)[-1]
        finals[idx[w]] = cols.T
        true_idx[idx[w]] = slots
        if origin is not None:
            retro[idx[w]] = origin[np.argmax(cols, axis=0), w]

    total_steps = widths.size
    step = 0
    g_next = 1
    while A > 0 and step < total_steps:
        k_steps = min(block_steps, total_steps - step)
        noise = np.empty((k_steps, n, A))
        chunk = np.empty((min(NOISE_CHUNK, A), k_steps, n))
        for j0 in range(0, A, NOISE_CHUNK):
            m = min(NOISE_CHUNK, A - j0)
            for j in range(m):
                gens[j0 + j].standard_normal(out=chunk[j])
            noise[:, :, j0 : j0 + m] = chunk[:m].transpose(1, 2, 0)
        noise *= roots[step : step + k_steps, None, None]
        # images[k, j] is column j's permutation image at step k of the
        # block: under random permutations the argsort of d uniforms from
        # the column's own control stream, for a fixed cycle the step's
        # image in a single column that every column shares
        if kind == "random_permutation":
            images = np.empty((k_steps, A, d), dtype=label_type)
            for j, gen in enumerate(ctrl_gens):
                images[:, j] = np.argsort(gen.random((k_steps, d)), axis=1)
            offsets = np.arange(A) * d  # of column j's image in images[k]
        elif kind == "fixed_cycle":
            images = cycle_images[(step + np.arange(k_steps)) % len(cycle_images)]
            offsets = 0

        # ln_blk[k, j] will be column j's ln(Delta) after step `step + k + 1`
        # and frozen_at[j] the row of its freeze, or k_steps
        frozen_at = np.full(A, k_steps)
        if factored:
            # noise[k] becomes the log-odds after step k of the block, a
            # running sum of c*dR (row by row: numpy's cumsum along the
            # step axis took 8 times as long).  Each sub-block of
            # RESOLVE_SIZE entries, while still in cache, takes its drift,
            # gives Delta, the freezes and their states, and then holds
            # ln(Delta) over its spent first-qubit log-odds
            slot_z = np.take(z, label, axis=1)
            sub = max(1, RESOLVE_SIZE // (n * A))
            for k0 in range(0, k_steps, sub):
                k1 = min(k0 + sub, k_steps)
                part = noise[k0:k1]
                part += ch[step + k0 : step + k1, None, None] * slot_z
                part *= c
                part[0] += lam
                for k in range(1, k1 - k0):
                    part[k] += part[k - 1]
                lam = part[-1].copy()  # the state, before its row is overwritten
                delta = infidelity_log_odds(part.transpose(1, 0, 2))
                ln = np.log(np.maximum(delta, LOG_FLOOR))
                below = ln <= stop_ln
                w = np.flatnonzero(below.any(axis=0) & (frozen_at == k_steps))
                if w.size:
                    frozen_at[w] = k0 + np.argmax(below[:, w], axis=0)
                    record_finals(w, noise[frozen_at[w], :, w].T, label[w])
                part[:, 0] = ln
            ln_blk = noise[:, 0]
        else:
            ln_blk = np.empty((k_steps, A))
            columns = np.arange(A)
            for k in range(k_steps):
                # the control moves each population, with its origin label
                if kind == "h_ordering":
                    # tied populations are interchangeable, so lam needs
                    # only its values sorted; the labels follow the stable
                    # index sort, under which the true outcome's rank is
                    # the count of larger populations and of equal ones in
                    # earlier slots
                    if origin is not None:
                        src = np.argsort(-lam, axis=0, kind="stable")[h_source]
                        origin = np.take_along_axis(origin, src, axis=0)
                    v = lam[label, columns]
                    rank = np.add.reduce(lam > v, axis=0, dtype=label_type)
                    ordered = np.sort(lam, axis=0)
                    if (ordered[1:] == ordered[:-1]).any():  # a tie somewhere
                        rank += np.add.reduce(
                            (lam == v) & (row_ids < label), axis=0, dtype=label_type
                        )
                    lam = ordered[h_rows]
                    label = h_targets[rank]
                elif kind != "none":
                    lam = _scatter_rows(lam, images[k].T)
                    if origin is not None:
                        origin = _scatter_rows(origin, images[k].T)
                    label = np.take(images[k], offsets + label)
                # the record's drift, from the true outcome's slot after the
                # control
                noise[k] += ch[step + k] * np.take(z, label, axis=1)

                lam = update_columns(lam, noise[k], params.gamma)
                delta = infidelity_columns(lam)
                ln = np.log(np.maximum(delta, LOG_FLOOR), out=ln_blk[k])
                w = np.flatnonzero((ln <= stop_ln) & (frozen_at == k_steps))
                if w.size:
                    record_finals(w, lam[:, w], label[w])
                    frozen_at[w] = k

        if not np.isfinite(ln_blk).all():
            s = step + int(np.argmin(np.isfinite(ln_blk).all(axis=1))) + 1
            raise _integration_error(f"non-finite infidelity at step {step_no[s]}", s, 0)
        # an overflowed log-odds gives Delta = 0, which LOG_FLOOR would hide
        if factored and not np.isfinite(lam).all():
            s = step + k_steps
            raise _integration_error(f"non-finite log-odds by step {step_no[s]}", s, 1)

        # a frozen column keeps its freeze value at the later steps
        w = np.flatnonzero(frozen_at < k_steps)
        if w.size:
            later = np.arange(k_steps)[:, None] > frozen_at[w]
            ln_blk[:, w] = np.where(later, ln_blk[frozen_at[w], w], ln_blk[:, w])

        # at its first step at or below its next event level, a column
        # passes every target at or above its ln(Delta) there; each round
        # finds that step for every column that has one left
        ln_min = ln_blk.min(axis=0)
        events = []
        while True:
            cols = np.flatnonzero(ln_min <= ln_tgt[ptr])
            if not cols.size:
                break
            rows = np.argmax(ln_blk[:, cols] <= ln_tgt[ptr[cols]], axis=0)
            p1 = np.searchsorted(neg_tgt, -ln_blk[rows, cols], "right")
            events.append((cols, rows, ptr[cols], p1))
            ptr[cols] = p1
        if events:
            # each passage, interpolated linearly in ln(Delta) over its step
            cols, rows, p0, p1 = map(np.concatenate, zip(*events))
            new = ln_blk[rows, cols]
            # before a block's first step: cur_ln holds the previous block's
            # last ln(Delta) until the grid points below overwrite it
            prev = np.where(rows > 0, ln_blk[rows - 1, cols], cur_ln[idx[cols]])
            counts = p1 - p0
            e = np.repeat(np.arange(counts.size), counts)  # event of each passage
            p = np.arange(e.size) - (np.cumsum(counts) - counts - p0)[e]
            prev = prev[e]
            denom = new[e] - prev
            frac = np.ones(e.size)
            strict = denom < 0.0
            frac[strict] = (ln_tgt[p[strict]] - prev[strict]) / denom[strict]
            np.clip(frac, 0.0, 1.0, out=frac)
            fp[idx[cols[e]], p] = (step + rows[e]) * dt + frac * dt

        # the block's grid points in one pass: row j of vals holds every
        # trajectory's ln(Delta) at grid point g_next + j (a row's mean and
        # variance are bitwise those of the same values in a 1-d array)
        g_end = int(np.searchsorted(marks, step + k_steps, "right"))
        rows = marks[g_next:g_end] - step - 1
        vals = np.tile(cur_ln, (rows.size, 1))
        vals[:, idx] = ln_blk[rows]
        mean_ln[g_next:g_end] = vals.mean(axis=1)
        var_ln[g_next:g_end] = vals.var(axis=1, ddof=1)
        active_at[g_next:g_end] = np.count_nonzero(frozen_at > rows[:, None], axis=1)
        g_next = g_end
        cur_ln[idx] = ln_blk[-1]
        step += k_steps

        keep = np.flatnonzero(frozen_at == k_steps)
        ptr = ptr[keep]
        # freed before the next blocks are allocated (part is a view of noise)
        noise = part = images = ln_blk = vals = None
        if keep.size < A:
            lam, idx, label = lam[:, keep], idx[keep], label[keep]
            if origin is not None:
                origin = origin[:, keep]
            gens = [gens[j] for j in keep]
            if ctrl_gens is not None:
                ctrl_gens = [ctrl_gens[j] for j in keep]
            A = idx.size

    record_finals(np.arange(A), lam, label)
    mean_ln[g_next:] = cur_ln.mean()
    var_ln[g_next:] = cur_ln.var(ddof=1)
    active_at[g_next:] = A
    return _Shard(
        mean_ln=mean_ln, var_ln=var_ln, active_at=active_at, first_passage=fp,
        finals=finals, true_idx=true_idx, retro=retro,
    )


def fit_ln_delta_slope(
    stats: EnsembleStats, t_min: float, t_max: float
) -> tuple[float, float]:
    """Slope of the mean log-infidelity curve over a time window.

    Returns (slope, stderr), the least-squares line's slope and its usual
    regression stderr, which understates the truth a little, since
    neighboring time points share trajectories.
    """
    mask = (stats.sample_times >= t_min) & (stats.sample_times <= t_max)
    if int(mask.sum()) < 3:
        raise ValueError("slope window contains fewer than 3 sample times")
    (slope, _), cov = np.polyfit(
        stats.sample_times[mask], stats.mean_ln_delta[mask], 1, cov=True
    )
    return float(slope), math.sqrt(cov[0, 0])


@dataclass(frozen=True)
class MeanTimeFit:
    """Line fit of mean first-passage time against ln(1/epsilon)."""

    slope: float
    slope_stderr: float
    intercept: float
    point_count: int


def regression_mean_time(stats: EnsembleStats) -> MeanTimeFit:
    """Fit mean_T = slope * ln(1/epsilon) + intercept over the targets in
    FIT_RANGE.

    Points with censoring above CENSOR_LIMIT are dropped.  Fewer than 3
    usable points is an error; fewer than 5 draws a warning.  The slope is
    linear in the passage times: it is the mean over trajectories of
    b_i = T_i . dx / (dx . dx), where T_i holds trajectory i's passage
    times at the fitted targets (max_time where censored) and dx is
    ln(1/epsilon) minus its mean.  slope_stderr = std(b) / sqrt(N) is
    therefore the delete-one jackknife stderr, exact for this statistic,
    and it carries the correlation between targets that share
    trajectories.  The intercept puts the line through the means, as
    least squares does.
    """
    fp = stats.first_passage_times
    eps_lo, eps_hi = FIT_RANGE
    in_range = (stats.epsilons >= eps_lo) & (stats.epsilons <= eps_hi)
    sel = in_range & (stats.censored_fraction <= CENSOR_LIMIT)
    m, inside = int(sel.sum()), int(in_range.sum())
    if m < 3:
        raise ValueError(
            f"fewer than 3 usable epsilon points in the fit range [{eps_lo:g}, "
            f"{eps_hi:g}]: {inside} targets inside it, {inside - m} dropped for "
            f"censoring above {CENSOR_LIMIT:g} (max_time {stats.params.max_time:g})"
        )
    if m < 5:
        warnings.warn(
            f"only {m} epsilon points in the regression range", stacklevel=2
        )
    x = np.log(1.0 / stats.epsilons[sel])
    dx = x - x.mean()
    filled = np.where(np.isnan(fp[:, sel]), stats.params.max_time, fp[:, sel])
    b = filled @ (dx / (dx @ dx))
    slope = float(b.mean())
    return MeanTimeFit(
        slope=slope, slope_stderr=float(b.std(ddof=1)) / math.sqrt(b.size),
        intercept=float(stats.mean_first_passage[sel].mean() - slope * x.mean()),
        point_count=m,
    )


@dataclass(frozen=True)
class SpeedupEstimate:
    """A measured speed-up factor with its standard error."""

    value: float
    stderr: float

    def __post_init__(self) -> None:
        if not self.value > 0.0:
            raise ValueError("speed-up must be positive")


def asymptotic_speedup(
    stats_nc: EnsembleStats, stats_ctrl: EnsembleStats
) -> SpeedupEstimate:
    """Small-epsilon speed-up: the ratio of the two regression_mean_time
    slopes over FIT_RANGE, no-control over controlled.

    The stderr combines the two slope stderrs without a covariance term,
    which stays conservative when the ensembles share seeds.  A fit that
    fails names n, the controlled policy and which of the two ensembles
    it was.
    """
    fits = []
    for role, stats in (("no-control baseline", stats_nc), ("controlled", stats_ctrl)):
        try:
            fits.append(regression_mean_time(stats))
        except ValueError as exc:
            raise ValueError(
                f"n={stats.params.n}, policy {stats_ctrl.policy_kind}, "
                f"{role} ensemble: {exc}"
            ) from exc
    nc, ct = fits
    value = nc.slope / ct.slope
    rel = math.hypot(nc.slope_stderr / nc.slope, ct.slope_stderr / ct.slope)
    return SpeedupEstimate(value=value, stderr=abs(value) * rel)


@dataclass(frozen=True)
class SweepPoint:
    """One register size's speed-up next to its analytic band."""

    n: int
    estimate: SpeedupEstimate
    bounds: SpeedupBounds


def speedup_scaling_sweep(
    n_values,
    policies: list[ControlPolicy],
    params_template: SimulationParams,
    count: int,
    master_seed: int,
    *,
    epsilons=None,
) -> list[list[SweepPoint]]:
    """Asymptotic speed-up of each policy for each register size; one list
    of points per policy, in the order given.

    Each size runs one no-control ensemble and pairs it with a controlled
    ensemble of every policy, all with the same master seed, so each pair
    shares measurement noise; the reported stderr is still the unpaired
    propagation (conservative).  Every size, every policy, every cycle
    against every size and the targets, at least 3 of which must lie in
    FIT_RANGE for the mean-time fits, are checked before the first
    ensemble runs.
    """
    if epsilons is None:
        epsilons = default_epsilon_grid()
    with warnings.catch_warnings():
        # the template has warned of its dt once; n does not change that
        warnings.simplefilter("ignore", UserWarning)
        sizes = [replace(params_template, n=int(n)) for n in n_values]
    if len({params.n for params in sizes}) < len(sizes):
        raise ValueError(f"n_values repeats a register size: {list(n_values)}")
    if not policies:
        raise ValueError("no policies to sweep")
    eps = epsilon_targets(epsilons, params_template.stop_epsilon)
    eps_lo, eps_hi = FIT_RANGE
    inside = int(np.sum((eps >= eps_lo) & (eps <= eps_hi)))
    if inside < 3:
        raise ValueError(
            f"fewer than 3 epsilon targets in the fit range [{eps_lo:g}, "
            f"{eps_hi:g}]: {inside} inside it"
        )
    for params in sizes:
        for policy in policies:
            _check_cycle_fits(policy, params.n)
    sweeps: list[list[SweepPoint]] = [[] for _ in policies]
    for params in sizes:
        stats_nc = run_ensemble(params, no_control(), epsilons, count, master_seed,
                                record_every=SWEEP_RECORD_EVERY)
        for policy, points in zip(policies, sweeps):
            stats_ctrl = run_ensemble(params, policy, epsilons, count, master_seed,
                                      record_every=SWEEP_RECORD_EVERY)
            points.append(
                SweepPoint(
                    n=params.n,
                    estimate=asymptotic_speedup(stats_nc, stats_ctrl),
                    bounds=speedup_bounds_for_policy(policy.kind, params.n),
                )
            )
    return sweeps


@dataclass(frozen=True)
class ScalingFit:
    """Weighted line fit of speed-up against register size."""

    slope: float
    intercept: float
    slope_stderr: float
    intercept_stderr: float


def fit_speedup_scaling(points: list[SweepPoint]) -> ScalingFit:
    """Least squares of SweepPoint values against n, weighted by
    1/stderr^2, with stderrs not rescaled by the residuals."""
    if len({p.n for p in points}) < 3:
        raise ValueError("scaling fit needs at least 3 register sizes")
    x = np.array([p.n for p in points], dtype=float)
    y = np.array([p.estimate.value for p in points])
    s = np.array([p.estimate.stderr for p in points])
    if not np.all(s > 0.0):  # NaN too: least squares cannot take it
        raise ValueError("every point needs a positive stderr")
    (slope, intercept), cov = np.polyfit(x, y, 1, w=1.0 / s, cov="unscaled")
    return ScalingFit(
        slope=float(slope),
        intercept=float(intercept),
        slope_stderr=math.sqrt(cov[0, 0]),
        intercept_stderr=math.sqrt(cov[1, 1]),
    )


def mc_permuted_step_rate(
    state: DiagonalState,
    gamma: float,
    dt: float,
    samples: int,
    master_seed: int,
) -> RateEstimate:
    """Monte Carlo single-step estimate of the permutation-averaged
    log-infidelity rate: each sample draws a true outcome i* ~ state.probs
    and a uniform permutation of the state that sends i* to slot 0, takes
    one step of the runner's kernel on the record dR = c*z_0*dt + dW =
    c*dt + dW, and measures the change of ln(Delta) over dt.

    The change has the law it has under an unconditioned permutation,
    with i* in slot s and dR = c*z_s*dt + dW: relabelling every slot j
    as j XOR s keeps Delta and makes the permutation uniform among those
    that send i* to slot 0, and since z_{j XOR s} = z_j*z_s entrywise, it
    turns the drift into c*dt on every qubit and multiplies each dW[r]
    by z_s^r = +-1, which keeps its law.

    The samples go in chunks of MC_CHUNK_ROWS (MC_CHUNK_ROWS * 8 // d
    once d > 8), chunk c drawing from its own stream
    default_rng(SeedSequence(master_seed, spawn_key=(c, 2))), a tag no
    trajectory stream uses; all chunks' streams are built in one bulk
    call, like a shard's trajectory streams.  A chunk of m samples steps
    in even sub-blocks of at most MC_BLOCK_ROWS (likewise), so memory
    stays bounded at every n, and keeps only its m ln(Delta) changes.
    The sub-blocks read the chunk's stream (m*d permutation uniforms, m
    true-outcome uniforms, the normals) through cursors advanced by 0,
    m*d and m*d + m, so they draw the numbers of whole-chunk draws.  The
    chunks run on a pool of one thread per usable CPU (their numpy calls
    release the GIL), and their moments merge in chunk order, so the
    estimate depends only on (master_seed, samples, MC_CHUNK_ROWS),
    bitwise, whatever the number of CPUs or MC_BLOCK_ROWS."""
    _check_whole("samples", samples, 2)
    _positive("gamma", gamma)
    _positive("dt", dt)
    # imported here, not at module level: its import takes milliseconds
    # that runs without this estimator need not pay
    from concurrent.futures import ThreadPoolExecutor

    n = state.n
    d = 2**n
    probs = state.probs
    ln0 = math.log(_rate_infidelity(state))
    sqrt_dt = math.sqrt(dt)
    drift = record_strength(gamma) * dt
    rows = max(1, min(MC_CHUNK_ROWS, MC_CHUNK_ROWS * 8 // d))
    block = max(1, min(MC_BLOCK_ROWS, MC_BLOCK_ROWS * 8 // d))

    def chunk(c: int, rng: np.random.Generator):
        """(count, mean, M2) of chunk c's ln(Delta) changes, drawn from rng."""
        m = min(rows, samples - c * rows)
        # each uniform is one 64-bit output of the stream, and the normals
        # come last, so these cursors read it as whole-chunk draws would
        perm, outcome = copy.deepcopy(rng), copy.deepcopy(rng)
        outcome.bit_generator.advance(m * d)
        rng.bit_generator.advance(m * d + m)
        dl = np.empty(m)
        # even parts: a narrow one may round its column sums differently
        parts = -(-m // block)
        edges = [m * j // parts for j in range(parts + 1)]
        for lo, hi in zip(edges, edges[1:]):
            k = hi - lo
            # slot s of sample j holds population argsort(u)[j, s], i* in slot 0
            u = perm.random((k, d))
            u[np.arange(k), true_outcomes(probs, outcome.random(k))] = -1.0
            lamp = probs[np.argsort(u, axis=1)].T
            record = rng.standard_normal((k, n)) * sqrt_dt + drift
            delta = infidelity_columns(update_columns(lamp, record.T, gamma))
            dl[lo:hi] = np.log(np.maximum(delta, LOG_FLOOR)) - ln0
        # two-pass within the chunk, merged across chunks
        mean = float(dl.mean())
        dl -= mean
        return m, mean, float(dl @ dl)

    chunks = -(-samples // rows)
    streams = _keyed_streams(master_seed, range(chunks), 2)
    with ThreadPoolExecutor(min(_usable_cpus(), chunks)) as pool:
        _, mean_dl, m2 = reduce(_merge_moments, pool.map(chunk, range(chunks), streams))
    var_dl = m2 / (samples - 1)
    return RateEstimate(
        value=mean_dl / dt,
        stderr=math.sqrt(var_dl / samples) / dt,
    )
