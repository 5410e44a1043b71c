"""Ensemble simulation and statistics.

run_ensemble integrates many trajectories at once, one per column of a
(2^n, trajectories) array over a compressed active set: every trajectory
owns its per-index noise stream, sde.trajectory_noise_rng(seed, index)
(blocks of steps are pre-drawn from it into a step-major (steps, n,
trajectories) block) and each step goes through sde.update_columns and
sde.infidelity_columns.  Each column carries the ln(Delta) of its next
event, a first-passage target or the stop, so one comparison per step
finds the few columns that pass a target or freeze; their passages are
logged per step and interpolated once per block, and frozen columns are
dropped at block boundaries.  H-ordering sorts population values rather
than indices: tied populations are interchangeable.  The uncontrolled
run from a uniform start steps n per-qubit log-odds instead, O(n) per
trajectory-step.  Random-permutation controls for a batch come from one
dedicated ensemble stream, so paired runs that share a master seed also
share their measurement noise exactly.

The rest of the module turns ensembles into numbers: mean log-infidelity
curves with standard errors, mean first-passage times with censoring
fractions, the asymptotic speed-up (the ratio of the slopes of mean
first-passage time against ln(1/epsilon)), scaling sweeps over register
sizes, a sampled single-step collapse rate under random permutations,
and the small regressions used by the above.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .policies import POLICY_KINDS, ControlPolicy, h_order_targets, no_control
from .registers import DiagonalState, z_table
from .sde import (
    LOG_FLOOR,
    IntegrationError,
    SimulationParams,
    epsilon_targets,
    infidelity_columns,
    infidelity_log_odds,
    trajectory_noise_rng,
    update_columns,
    update_log_odds,
)
from .theory import (
    SpeedupBounds,
    RateEstimate,
    h_ordering_speedup_bounds,
    random_permutation_speedup_bounds,
)

# Steps pre-drawn per trajectory between active-set compressions.
NOISE_BLOCK_STEPS = 128
# Trajectories whose noise blocks are drawn before one transposed copy.
NOISE_CHUNK = 64
# Samples per vectorized chunk of mc_permuted_step_rate.
MC_CHUNK_ROWS = 200_000
# Spawn key of the batch control stream: outside the per-trajectory
# (index, 0/1) key space, so ensemble permutation draws never collide
# with any trajectory's own streams.
BATCH_CONTROL_KEY = (0xFFFFFFFF, 2)
# A first-passage mean is considered unusable above this censoring level.
CENSOR_LIMIT = 1e-3
# auto_slope_window fits where at least this fraction is still evolving.
SLOPE_ACTIVE_FRACTION = 0.999
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
    max_time to the mean and to the censored fraction.  final_states is
    the (count, 2^n) array of each trajectory's populations where it
    froze or at max_time.
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
    retrodicted_indices: np.ndarray | None = None
    first_passage_times: np.ndarray | None = None

    @property
    def has_excessive_censoring(self) -> bool:
        """True when any target lost more than 10% of trajectories."""
        return bool(self.censored_fraction.size) and bool(
            np.any(self.censored_fraction > 0.10)
        )


def _scatter_rows(x: np.ndarray, img: np.ndarray) -> np.ndarray:
    """Copy of x with row j of each column c moved to row img[j, c]."""
    out = np.empty_like(x)
    np.put_along_axis(out, img, x, axis=0)
    return out


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
    master_seed, i), so ensembles with equal seeds are paired noise-wise
    across policies, and the whole result is a deterministic function of
    the arguments.  Chunks of NOISE_CHUNK trajectories draw their (steps,
    n) noise blocks, transposed into one (steps, n, active) block.

    When policy.kind is "none" and the initial populations are uniform,
    the state is the (n, active) per-qubit log-odds (sde.update_log_odds);
    otherwise the (2^n, active) populations.

    Every active column carries its next target and the ln(Delta) of its
    next event: that target, the stop once no target above it is left, or
    -inf when the column is frozen or has nothing left.  The stop is
    params.stop_ln, which is -inf for stop_epsilon = 0: nothing freezes,
    and a pure start (Delta = 0) runs to max_time.  One comparison per
    step finds the columns at or below their event level; only those pass
    targets and freeze.  Such
    a column has passed every target at or above its new ln(Delta); the
    step is logged, and at each block end all logged passages are
    interpolated linearly in ln(Delta) over their steps at once.  The
    per-trajectory ln(Delta) is written at freezes and at grid points.
    H-ordering sorts population values, since tied populations are
    interchangeable.  For retrodiction an origin label moves with each
    population (under H-ordering by the stable index sort), and the
    retrodicted index is the label that ends at the final index.
    """
    if count < 2:
        raise ValueError("an ensemble needs at least 2 trajectories")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    eps = epsilon_targets(epsilons, params.stop_epsilon)

    n = params.n
    d = 2**n
    state0 = initial_state or DiagonalState.maximally_mixed(n)
    if state0.n != n:
        raise ValueError("initial state size does not match params.n")
    initial = state0.probs

    kind = policy.kind
    factored = kind == "none" and bool(np.all(initial == initial[0]))
    if kind == "h_ordering":
        # row targets[k] takes the k-th largest population, which an
        # ascending value sort leaves in row d - 1 - k
        h_source = np.argsort(h_order_targets(n))
        h_rows = d - 1 - h_source
    elif kind == "fixed_cycle":
        cycle_inverse = [np.argsort(p.image) for p in policy.cycle]
        if any(inv.size != d for inv in cycle_inverse):
            raise ValueError("cycle permutation dimension does not match 2**n")
    elif kind == "random_permutation":
        ctrl_rng = np.random.default_rng(
            np.random.SeedSequence(master_seed, spawn_key=BATCH_CONTROL_KEY)
        )

    dt = params.dt
    sqrt_dt = math.sqrt(dt)
    total_steps = params.total_steps

    grid_steps = np.arange(0, total_steps + 1, record_every, dtype=np.int64)
    if grid_steps[-1] != total_steps:
        grid_steps = np.append(grid_steps, total_steps)
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
    final_idx = np.full(count, amax0, dtype=np.intp)
    finals = np.tile(initial, (count, 1))
    retro = np.full(count, amax0, dtype=np.intp) if collect_retrodiction else None

    A = count if ln0 > stop_ln else 0  # a start at the stop is frozen
    active_at[0] = A
    mean_ln[0] = ln0

    lam = np.zeros((n, A)) if factored else np.tile(initial[:, None], (1, A))
    origin = np.tile(np.arange(d)[:, None], (1, A)) if collect_retrodiction else None
    idx = np.arange(A)
    alive = np.ones(A, dtype=bool)
    ptr = np.full(A, ptr0, dtype=np.intp)
    event_ln = np.full(A, max(ln_tgt[ptr0], stop_ln))
    ln_prev = np.full(A, ln0)
    gens = [trajectory_noise_rng(master_seed, i) for i in range(A)]

    def record_finals(w):
        """Store the final index, state and retrodicted index of columns w."""
        cols = lam[:, w]
        if factored:
            # qubit r's bit is L[r] < 0, first qubit most significant; a
            # tie (L[r] = 0) takes bit 0, the first index, like np.argmax
            final_idx[idx[w]] = (1 << np.arange(n - 1, -1, -1)) @ (cols < 0.0)
            expo = z_table(n).T @ cols
            cols = np.exp(expo - expo.max(axis=0))
            cols /= cols.sum(axis=0)
        else:
            final_idx[idx[w]] = np.argmax(cols, axis=0)
        finals[idx[w]] = cols.T
        if origin is not None:
            retro[idx[w]] = origin[final_idx[idx[w]], w]

    step = 0
    g_next = 1
    while A > 0 and step < total_steps:
        k_steps = min(NOISE_BLOCK_STEPS, total_steps - step)
        # per step, one row per event column: (trajectory, step, ln_prev,
        # ln_new, old ptr, new ptr)
        log = []
        noise = np.empty((k_steps, n, A))
        chunk = np.empty((min(NOISE_CHUNK, A), k_steps, n))
        for j0 in range(0, A, NOISE_CHUNK):
            m = min(NOISE_CHUNK, A - j0)
            for j in range(m):
                gens[j0 + j].standard_normal(out=chunk[j])
            noise[:, :, j0 : j0 + m] = chunk[:m].transpose(1, 2, 0)
        noise *= sqrt_dt

        for k in range(k_steps):
            # the control moves each population, with its origin label
            if kind == "h_ordering":
                # tied populations are interchangeable, so lam needs only
                # its values sorted; the labels follow the stable index sort
                if origin is not None:
                    src = np.argsort(-lam, axis=0, kind="stable")[h_source]
                    origin = np.take_along_axis(origin, src, axis=0)
                lam = np.sort(lam, axis=0)[h_rows]
            elif kind == "random_permutation":
                img = np.argsort(ctrl_rng.random((A, d)), axis=1).T
                lam = _scatter_rows(lam, img)
                if origin is not None:
                    origin = _scatter_rows(origin, img)
            elif kind == "fixed_cycle":
                src = cycle_inverse[step % len(cycle_inverse)]
                lam = lam[src]
                if origin is not None:
                    origin = origin[src]

            if factored:
                update_log_odds(lam, noise[k], params.gamma, dt)
            else:
                lam = update_columns(lam, noise[k], params.gamma, dt)
            step += 1

            delta = infidelity_log_odds(lam) if factored else infidelity_columns(lam)
            ln_new = np.log(np.maximum(delta, LOG_FLOOR))
            if not np.all(np.isfinite(ln_new)):
                raise IntegrationError(f"non-finite infidelity at step {step}")

            hit = np.flatnonzero(ln_new <= event_ln)
            if hit.size:
                # every target at or above ln_new is passed; the passages
                # are interpolated from the log at the block end
                ln_hit, old = ln_new[hit], ptr[hit]
                ptr[hit] = np.maximum(old, np.searchsorted(neg_tgt, -ln_hit, "right"))
                at = np.full(hit.size, step)
                log.append((idx[hit], at, ln_prev[hit], ln_hit, old, ptr[hit]))
                w = hit[ln_hit <= stop_ln]
                if w.size:
                    record_finals(w)
                    cur_ln[idx[w]] = ln_new[w]
                    alive[w] = False
                event_ln[hit] = np.where(
                    alive[hit], np.maximum(ln_tgt[ptr[hit]], stop_ln), -np.inf
                )

            if g_next < G and step == grid_steps[g_next]:
                live = np.flatnonzero(alive)
                cur_ln[idx[live]] = ln_new[live]
                mean_ln[g_next] = cur_ln.mean()
                var_ln[g_next] = cur_ln.var(ddof=1)
                active_at[g_next] = live.size
                g_next += 1
            ln_prev = ln_new

        del noise  # freed before the next block is allocated: one resident
        if log:
            # each passage, interpolated linearly in ln(Delta) over its step
            rows, steps, prev, new, p0, p1 = map(np.concatenate, zip(*log))
            counts = p1 - p0
            e = np.repeat(np.arange(counts.size), counts)  # log row of each passage
            p = np.arange(e.size) - (np.cumsum(counts) - counts - p0)[e]
            prev = prev[e]
            denom = new[e] - prev
            frac = np.ones(e.size)
            strict = denom < 0.0
            frac[strict] = (ln_tgt[p[strict]] - prev[strict]) / denom[strict]
            np.clip(frac, 0.0, 1.0, out=frac)
            fp[rows[e], p] = (steps[e] - 1) * dt + frac * dt
        # an overflowed log-odds gives Delta = 0, which LOG_FLOOR would hide
        if factored and not np.isfinite(lam).all():
            raise IntegrationError(f"non-finite log-odds by step {step}")
        if not alive.all():
            keep = np.flatnonzero(alive)
            lam, idx, ptr = lam[:, keep], idx[keep], ptr[keep]
            event_ln, ln_prev = event_ln[keep], ln_prev[keep]
            if origin is not None:
                origin = origin[:, keep]
            gens = [gens[j] for j in keep]
            A = idx.size
            alive = np.ones(A, dtype=bool)

    record_finals(np.flatnonzero(alive))
    mean_ln[g_next:] = cur_ln.mean()
    var_ln[g_next:] = cur_ln.var(ddof=1)
    active_at[g_next:] = int(alive.sum())
    stderr_ln = np.sqrt(var_ln / count)

    filled = np.where(np.isnan(fp), params.max_time, fp)
    mean_fp = filled.mean(axis=0)
    stderr_fp = filled.std(axis=0, ddof=1) / math.sqrt(count)
    censored = np.isnan(fp).mean(axis=0)

    return EnsembleStats(
        sample_times=grid_steps * dt,
        mean_ln_delta=mean_ln,
        stderr_ln_delta=stderr_ln,
        active_fraction=active_at / count,
        epsilons=eps,
        mean_first_passage=mean_fp,
        stderr_first_passage=stderr_fp,
        censored_fraction=censored,
        trajectory_count=count,
        params=params,
        policy_kind=kind,
        final_indices=final_idx,
        final_states=finals,
        retrodicted_indices=retro,
        first_passage_times=fp if collect_first_passage else None,
    )


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line fit: (slope, intercept, slope stderr)."""
    m = x.size
    if m < 3:
        raise ValueError("regression needs at least 3 points")
    xm = x.mean()
    ym = y.mean()
    dx = x - xm
    sxx = float(dx @ dx)
    if sxx <= 0.0:
        raise ValueError("regression abscissae are degenerate")
    slope = float(dx @ (y - ym)) / sxx
    intercept = ym - slope * xm
    resid = y - (intercept + slope * x)
    sigma2 = float(resid @ resid) / (m - 2)
    return slope, intercept, math.sqrt(sigma2 / sxx)


def fit_ln_delta_slope(
    stats: EnsembleStats, t_min: float, t_max: float
) -> tuple[float, float]:
    """Slope of the mean log-infidelity curve over a time window.

    Returns (slope, stderr).  The stderr is the usual regression value
    and understates the truth a little, since neighboring time points
    share trajectories.
    """
    mask = (stats.sample_times >= t_min) & (stats.sample_times <= t_max)
    if int(mask.sum()) < 3:
        raise ValueError("slope window contains fewer than 3 sample times")
    slope, _, err = _ols(stats.sample_times[mask], stats.mean_ln_delta[mask])
    return slope, err


def auto_slope_window(stats: EnsembleStats) -> tuple[float, float]:
    """Latter half of the time range where at least SLOPE_ACTIVE_FRACTION
    of the trajectories was still evolving; falls back to the latter half
    of the whole run when freezing starts immediately."""
    good = np.where(stats.active_fraction >= SLOPE_ACTIVE_FRACTION)[0]
    t_end = stats.sample_times[good[-1]] if good.size else stats.sample_times[-1]
    if t_end <= 0.0:
        t_end = stats.sample_times[-1]
    return 0.5 * t_end, t_end


@dataclass(frozen=True)
class MeanTimeFit:
    """Line fit of mean first-passage time against ln(1/epsilon)."""

    slope: float
    slope_stderr: float
    intercept: float
    point_count: int


def regression_mean_time(
    stats: EnsembleStats,
    eps_lo: float = 1e-6,
    eps_hi: float = 1e-4,
    max_censored: float = CENSOR_LIMIT,
) -> MeanTimeFit:
    """Fit mean_T = slope * ln(1/epsilon) + intercept over a target range.

    Points with censoring above max_censored are dropped.  Fewer than 3
    usable points is an error; fewer than 5 draws a warning.  The slope is
    linear in the passage times: it is the mean over trajectories of
    b_i = T_i . dx / (dx . dx), where T_i holds trajectory i's passage
    times at the fitted targets (max_time where censored) and dx is
    ln(1/epsilon) minus its mean.  slope_stderr = std(b) / sqrt(N) is
    therefore the delete-one jackknife stderr, exact for this statistic,
    and it carries the correlation between targets that share
    trajectories.  Needs stats.first_passage_times.
    """
    fp = stats.first_passage_times
    if fp is None:
        raise ValueError(
            "the mean-time fit needs per-trajectory passage times: "
            "run_ensemble(..., collect_first_passage=True)"
        )
    in_range = (stats.epsilons >= eps_lo) & (stats.epsilons <= eps_hi)
    sel = in_range & (stats.censored_fraction <= max_censored)
    m, inside = int(sel.sum()), int(in_range.sum())
    if m < 3:
        raise ValueError(
            f"fewer than 3 usable epsilon points in the fit range [{eps_lo:g}, "
            f"{eps_hi:g}]: {inside} targets inside it, {inside - m} dropped for "
            f"censoring above {max_censored:g} (max_time {stats.params.max_time:g})"
        )
    if m < 5:
        warnings.warn(
            f"only {m} epsilon points in the regression range", stacklevel=2
        )
    x = np.log(1.0 / stats.epsilons[sel])
    slope, intercept, _ = _ols(x, stats.mean_first_passage[sel])
    dx = x - x.mean()
    filled = np.where(np.isnan(fp[:, sel]), stats.params.max_time, fp[:, sel])
    b = filled @ (dx / (dx @ dx))
    return MeanTimeFit(
        slope=slope, slope_stderr=float(b.std(ddof=1)) / math.sqrt(b.size),
        intercept=intercept, point_count=m,
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
    stats_nc: EnsembleStats,
    stats_ctrl: EnsembleStats,
    eps_lo: float = 1e-6,
    eps_hi: float = 1e-4,
) -> SpeedupEstimate:
    """Small-epsilon speed-up: the ratio of the two regression_mean_time
    slopes, no-control over controlled.

    The stderr combines the two slope stderrs without a covariance term,
    which stays conservative when the ensembles share seeds.
    """
    nc = regression_mean_time(stats_nc, eps_lo, eps_hi)
    ct = regression_mean_time(stats_ctrl, eps_lo, eps_hi)
    value = nc.slope / ct.slope
    rel = math.hypot(nc.slope_stderr / nc.slope, ct.slope_stderr / ct.slope)
    return SpeedupEstimate(value=value, stderr=abs(value) * rel)


def speedup_bounds_for_policy(kind: str, n: int) -> SpeedupBounds:
    """Analytic band to overlay on a measured speed-up of this policy."""
    if kind not in POLICY_KINDS:
        raise ValueError(f"unknown policy kind {kind!r}")
    if kind == "h_ordering":
        return h_ordering_speedup_bounds(n)
    if kind in ("random_permutation", "fixed_cycle"):
        return random_permutation_speedup_bounds(n)
    return SpeedupBounds(1.0, 1.0)


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
    eps_lo: float = 1e-6,
    eps_hi: float = 1e-4,
) -> list[list[SweepPoint]]:
    """Asymptotic speed-up of each policy for each register size; one list
    of points per policy, in the order given.

    Each size runs one no-control ensemble and pairs it with a controlled
    ensemble of every policy, all with the same master seed, so each pair
    shares measurement noise; the reported stderr is still the unpaired
    propagation (conservative).
    """
    if epsilons is None:
        epsilons = default_epsilon_grid()
    sweeps: list[list[SweepPoint]] = [[] for _ in policies]
    for n in n_values:
        params = replace(params_template, n=int(n))
        stats_nc = run_ensemble(
            params, no_control(), epsilons, count, master_seed,
            record_every=SWEEP_RECORD_EVERY, collect_first_passage=True,
        )
        for policy, points in zip(policies, sweeps):
            stats_ctrl = run_ensemble(
                params, policy, epsilons, count, master_seed,
                record_every=SWEEP_RECORD_EVERY, collect_first_passage=True,
            )
            points.append(
                SweepPoint(
                    n=int(n),
                    estimate=asymptotic_speedup(stats_nc, stats_ctrl, eps_lo, eps_hi),
                    bounds=speedup_bounds_for_policy(policy.kind, int(n)),
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
    """Weighted least squares of SweepPoint values against n."""
    if len(points) < 3:
        raise ValueError("scaling fit needs at least 3 register sizes")
    x = np.array([p.n for p in points], dtype=float)
    y = np.array([p.estimate.value for p in points])
    s = np.array([p.estimate.stderr for p in points])
    if np.any(s <= 0.0):
        raise ValueError("every point needs a positive stderr")
    w = 1.0 / s**2
    W = float(w.sum())
    X = float(w @ x)
    Y = float(w @ y)
    XX = float(w @ (x * x))
    XY = float(w @ (x * y))
    denom = W * XX - X * X
    if denom <= 0.0:
        raise ValueError("scaling fit abscissae are degenerate")
    slope = (W * XY - X * Y) / denom
    intercept = (XX * Y - X * XY) / denom
    return ScalingFit(
        slope=slope,
        intercept=intercept,
        slope_stderr=math.sqrt(W / denom),
        intercept_stderr=math.sqrt(XX / denom),
    )


def mc_permuted_step_rate(
    state: DiagonalState,
    gamma: float,
    dt: float,
    samples: int,
    master_seed: int,
) -> RateEstimate:
    """Monte Carlo single-step estimate of the permutation-averaged
    log-infidelity rate: each sample draws a uniform permutation of the
    state, takes one exact integration step, and measures the change of
    ln(Delta) over dt."""
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    n = state.n
    d = 2**n
    probs = state.probs
    delta0 = state.infidelity()
    if delta0 <= 0.0:
        raise ValueError("rate is singular for a collapsed state (Delta = 0)")
    ln0 = math.log(delta0)
    sqrt_dt = math.sqrt(dt)
    rng = np.random.default_rng(master_seed)

    acc = 0.0  # sum of the ln(Delta) changes
    m2 = 0.0  # sum of their squared deviations from the mean
    done = 0
    while done < samples:
        m = min(MC_CHUNK_ROWS, samples - done)
        # probs under a fresh permutation per column; the index array dies here
        lamp = np.empty((d, m))
        lamp[np.argsort(rng.random((m, d)), axis=1).T, np.arange(m)] = probs[:, None]
        dW = rng.standard_normal((m, n)) * sqrt_dt
        delta = infidelity_columns(update_columns(lamp, dW.T, gamma, dt))
        dl = np.log(np.maximum(delta, LOG_FLOOR)) - ln0
        # two-pass within the chunk, merged across chunks (Chan et al.)
        chunk_sum = float(dl.sum())
        dev = dl - chunk_sum / m
        m2 += float(dev @ dev)
        if done:
            shift = chunk_sum / m - acc / done
            m2 += shift * shift * done * m / (done + m)
        acc += chunk_sum
        done += m

    mean_dl = acc / samples
    var_dl = m2 / (samples - 1)
    return RateEstimate(
        value=mean_dl / dt,
        stderr=math.sqrt(var_dl / samples) / dt,
    )
