"""Single-trajectory integration of the conditional register state under
independent continuous z measurements of every qubit.

Each qubit r produces a measurement record increment

    dR[r] = 2*sqrt(2*gamma) * <Z^r> dt + dW[r],

with independent Wiener increments dW[r] ~ Normal(0, dt) and <Z^r> the
unshifted (+1/-1) expectation in the current state.  Because the state
stays diagonal, the conditional update only reweights populations.  The
simulator integrates it with the multiplicative update (exact_step)

    lam_i *= exp(2*sqrt(2*gamma) * sum_r z_i^r * dR[r]),

then normalization.  Composed over steps this equals the closed-form
conditional state given the accumulated record, so it is unconditionally
positive and remains valid for arbitrarily collapsed states.

euler_step is the explicit first-order update

    lam_i += 2*sqrt(2*gamma) * sum_r dW[r] * (z_i^r - <Z^r>) * lam_i,

with dW recovered from the record as dR - 2*sqrt(2*gamma)*<Z^r>*dt,
followed by clamping to [0, 1] and renormalization; a negative excursion
beyond -1e-6 before clamping aborts the step.  It is a one-step
reference only: the acceptance checks compare it with exact_step on a
shared record stream, and no runner steps with it.

A trajectory starts from the maximally mixed state unless told otherwise,
applies its control permutation at the start of every step (before the
record for that step is generated), and tracks the infidelity
Delta = 1 - max_i lam_i together with first-passage times to a grid of
infidelity targets, linearly interpolated in ln(Delta) between the
bracketing steps.

update_columns and infidelity_columns are the same step and the same
Delta for many trajectories at once, held one per column of a
(2^n, trajectories) array.  The ensemble runner and the Monte Carlo rate
estimator both step through them; exact_step and simulate_trajectory
keep their own arithmetic as the reference.  update_log_odds and
infidelity_log_odds do the step on product states, held as
(n, trajectories) per-qubit log-odds: O(n), not O(2^n).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .policies import ControlPolicy, policy_step
from .registers import (
    BasisIndex,
    DiagonalState,
    Permutation,
    apply_permutation,
    compose,
    z_table,
)

DEFAULT_DT_GAMMA = 6.25e-4     # default step size in units of 1/gamma
DEFAULT_STOP_EPSILON = 1e-6
DT_GAMMA_WARN = 0.01
NEGATIVITY_TOL = 1e-6
# Smallest positive double; keeps ln(Delta) finite when a trajectory
# collapses beyond floating-point resolution.
LOG_FLOOR = 5e-324


class IntegrationError(RuntimeError):
    """Raised when a step produces an invalid state (dt too large, or a
    non-finite value appeared in the update)."""


def record_strength(gamma: float) -> float:
    """Coupling 2*sqrt(2*gamma) of <Z^r> into the record dR[r]."""
    return 2.0 * math.sqrt(2.0 * gamma)


@dataclass(frozen=True)
class SimulationParams:
    """Physical and numerical parameters of a measurement trajectory."""

    n: int
    gamma: float = 1.0
    dt: float | None = None
    max_time: float = 3.0
    stop_epsilon: float = DEFAULT_STOP_EPSILON

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("register needs at least one qubit")
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise ValueError("gamma must be positive and finite")
        if self.dt is None:
            object.__setattr__(self, "dt", DEFAULT_DT_GAMMA / self.gamma)
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError("dt must be positive and finite")
        if self.dt * self.gamma > DT_GAMMA_WARN:
            warnings.warn(
                f"dt*gamma = {self.dt * self.gamma:.3g} is large; the "
                "discretized record statistics degrade above 0.01",
                stacklevel=3,  # past the generated __init__, to the caller
            )
        if not (self.max_time > 0.0 and math.isfinite(self.max_time)):
            raise ValueError("max_time must be positive and finite")
        if not 0.0 <= self.stop_epsilon < 1.0:  # NaN fails too
            raise ValueError("stop_epsilon must lie in [0, 1)")

    @property
    def total_steps(self) -> int:
        return int(round(self.max_time / self.dt))

    @property
    def stop_ln(self) -> float:
        """ln(stop_epsilon), or -inf for stop_epsilon = 0 (never freeze).
        Both runners freeze a trajectory once
        ln(max(Delta, LOG_FLOOR)) <= stop_ln."""
        return math.log(self.stop_epsilon) if self.stop_epsilon else -math.inf


def epsilon_targets(epsilons, stop_epsilon: float) -> np.ndarray:
    """The infidelity targets as a float array, after checking that each
    lies in (0, 1), that they strictly decrease and that none lies below
    stop_epsilon (unreachable; with stop_epsilon = 0 any depth is fine)."""
    eps = np.asarray([float(e) for e in epsilons], dtype=float)
    if not np.all((eps > 0.0) & (eps < 1.0)):  # NaN fails too
        raise ValueError("epsilon targets must lie in (0, 1)")
    if np.any(np.diff(eps) >= 0.0):
        raise ValueError("epsilons must be strictly decreasing")
    if eps.size and eps[-1] < stop_epsilon:
        raise ValueError("epsilon targets below stop_epsilon are unreachable")
    return eps


def generate_increments(
    state: DiagonalState, params: SimulationParams, rng: np.random.Generator
) -> np.ndarray:
    """Draw the n record increments dR = 2*sqrt(2*gamma)*<Z^r>*dt + dW for
    one step from the given state."""
    z = z_table(state.n)
    expect = z @ state.probs
    dw = rng.normal(0.0, math.sqrt(params.dt), size=state.n)
    return record_strength(params.gamma) * expect * params.dt + dw


def euler_step(
    state: DiagonalState, dR: np.ndarray, params: SimulationParams
) -> DiagonalState:
    """First-order update, the reference for exact_step; recovers dW from
    the record so that both steppers consume identical dR streams."""
    z = z_table(state.n)
    probs = state.probs
    expect = z @ probs
    c = record_strength(params.gamma)
    dw = dR - c * expect * params.dt
    # sum_r dw[r] * (z_i^r - <Z^r>); invariant under the eigenvalue shift
    coeff = dw @ z - float(dw @ expect)
    new = probs * (1.0 + c * coeff)
    low = float(new.min())
    if low < -NEGATIVITY_TOL:
        raise IntegrationError(
            f"population went to {low:.3e} before clamping; "
            "reduce dt (or gamma*dt) for this trajectory"
        )
    new = np.clip(new, 0.0, 1.0)
    total = float(new.sum())
    if not (total > 0.0 and math.isfinite(total)):
        raise IntegrationError("state collapsed to an invalid vector")
    return DiagonalState(state.n, new / total)


def exact_step(
    state: DiagonalState, dR: np.ndarray, params: SimulationParams
) -> DiagonalState:
    """Multiplicative closed-form update for one record increment."""
    z = z_table(state.n)
    expo = record_strength(params.gamma) * (dR @ z)
    if not np.all(np.isfinite(expo)):
        raise IntegrationError("non-finite record increment")
    expo -= expo.max()  # the largest weight becomes 1; no overflow
    new = state.probs * np.exp(expo)
    total = float(new.sum())
    if not (total > 0.0 and math.isfinite(total)):
        raise IntegrationError("state collapsed to an invalid vector")
    return DiagonalState(state.n, new / total)


def update_columns(
    lam: np.ndarray, dW: np.ndarray, gamma: float, dt: float
) -> np.ndarray:
    """exact_step for every column of a (2^n, trajectories) population
    array, driven by the columns' (n, trajectories) Wiener increments.
    Returns the normalized posterior columns as a new array."""
    z = z_table(dW.shape[0])
    c = record_strength(gamma)
    dR = c * dt * (z @ lam) + dW
    new = z.T @ dR
    new *= c
    new -= new.max(axis=0)  # the largest weight becomes 1; no overflow
    np.exp(new, out=new)
    new *= lam
    new /= new.sum(axis=0)
    return new


def infidelity_columns(lam: np.ndarray) -> np.ndarray:
    """Each column's infidelity, summed over the non-maximal entries (as
    DiagonalState.infidelity) rather than taken as 1 - max."""
    # argmax before the copy: the other order raised the peak RSS of
    # mc_permuted_step_rate (200k columns) by 9 MB
    amax = np.argmax(lam, axis=0)
    tail = lam.copy()
    tail[amax, np.arange(lam.shape[1])] = 0.0
    return tail.sum(axis=0)


def update_log_odds(L: np.ndarray, dW: np.ndarray, gamma: float, dt: float) -> None:
    """The step of update_columns, in place, for a product state:
    column j of the (n, trajectories) array L holds L[r] = c*R[r]
    (c = record_strength(gamma)), half the log-odds of qubit r's z = +1,
    so <Z^r> = tanh(L[r]), dR = c*dt*tanh(L) + dW and L += c*dR."""
    c = record_strength(gamma)
    L += c * (c * dt * np.tanh(L) + dW)


def infidelity_log_odds(L: np.ndarray) -> np.ndarray:
    """The infidelity of each product state held as a log-odds column,
    Delta = 1 - prod_r 1/(1 + u_r) with u_r = exp(-2|L[r]|), summed
    without cancellation: q <- q + u_r*(1 + q), Delta = q/(1 + q)."""
    u = np.exp(-2.0 * np.abs(L))
    q = u[0].copy()
    for r in range(1, L.shape[0]):
        q += u[r] * (1.0 + q)
    return q / (1.0 + q)


@dataclass(frozen=True)
class TrajectoryResult:
    """Everything a single trajectory reports back.

    first_passage maps each infidelity target to the interpolated crossing
    time, or None if the trajectory was censored at max_time before
    reaching it.  records is the integrated record R[r], the sum of dR[r]
    over every step taken.
    """

    sample_times: np.ndarray
    infidelity: np.ndarray
    first_passage: dict[float, float | None]
    final_index: BasisIndex
    cumulative_control: Permutation
    records: np.ndarray
    final_state: DiagonalState

    def censored(self) -> list[float]:
        return [eps for eps, t in self.first_passage.items() if t is None]


def trajectory_noise_rng(master_seed: int, index: int = 0) -> np.random.Generator:
    """Measurement-noise stream of trajectory `index` under a master seed."""
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(index, 0))
    )


def trajectory_control_rng(master_seed: int, index: int = 0) -> np.random.Generator:
    """Control stream (random-permutation draws) of trajectory `index`.

    Kept separate from the noise stream so open-loop permutation
    sequences are identical whatever the measurement record does.
    """
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(index, 1))
    )


def simulate_trajectory(
    params: SimulationParams,
    policy: ControlPolicy,
    epsilons,
    master_seed: int,
    trajectory_index: int = 0,
    *,
    initial_state: DiagonalState | None = None,
    record_every: int = 1,
) -> TrajectoryResult:
    """Integrate one trajectory and collect its statistics.

    epsilons must be strictly decreasing and no smaller than
    params.stop_epsilon, so every target is reachable before the
    trajectory stops.  The trajectory ends at the first step with
    ln(max(Delta, LOG_FLOOR)) <= params.stop_ln, the rule of
    run_ensemble, or at max_time, whichever comes first; stop_epsilon = 0
    never stops early, not even from a pure start (Delta = 0).
    """
    eps = epsilon_targets(epsilons, params.stop_epsilon).tolist()
    if record_every < 1:
        raise ValueError("record_every must be >= 1")

    state = (
        DiagonalState.maximally_mixed(params.n)
        if initial_state is None
        else initial_state
    )
    if state.n != params.n:
        raise ValueError("initial state size does not match params.n")

    noise_rng = trajectory_noise_rng(master_seed, trajectory_index)
    control_rng = trajectory_control_rng(master_seed, trajectory_index)

    d = state.probs.size
    cumulative = Permutation.identity(d)
    total_steps = params.total_steps
    dt = params.dt

    records = np.zeros(params.n)
    ln_eps = [math.log(e) for e in eps]
    passage: dict[float, float | None] = {e: None for e in eps}
    ptr = 0

    delta = state.infidelity()
    ln_prev = math.log(max(delta, LOG_FLOOR))
    while ptr < len(eps) and delta <= eps[ptr]:
        passage[eps[ptr]] = 0.0
        ptr += 1

    times = [0.0]
    infid = [delta]

    stop_ln = params.stop_ln
    step = 0
    while ln_prev > stop_ln and step < total_steps:
        perm = policy_step(policy, state, step, control_rng)
        if policy.kind != "none":
            state = apply_permutation(state, perm)
            cumulative = compose(perm, cumulative)
        dR = generate_increments(state, params, noise_rng)
        state = exact_step(state, dR, params)
        records += dR
        step += 1

        delta = state.infidelity()
        if not math.isfinite(delta):
            raise IntegrationError(f"non-finite infidelity at step {step}")
        ln_new = math.log(max(delta, LOG_FLOOR))
        while ptr < len(eps) and ln_new <= ln_eps[ptr]:
            frac = 1.0
            if ln_new < ln_prev:
                frac = (ln_eps[ptr] - ln_prev) / (ln_new - ln_prev)
            passage[eps[ptr]] = (step - 1) * dt + min(max(frac, 0.0), 1.0) * dt
            ptr += 1
        ln_prev = ln_new

        if step % record_every == 0:
            times.append(step * dt)
            infid.append(delta)

    return TrajectoryResult(
        sample_times=np.asarray(times),
        infidelity=np.asarray(infid),
        first_passage=passage,
        final_index=state.argmax_index(),
        cumulative_control=cumulative,
        records=records,
        final_state=state,
    )
