"""Scalar reference simulator for the batched runner.

One trajectory at a time, one DiagonalState and one Permutation object
per step: the steppers (exact_step, euler_step), the policy step
(h_order, policy_step), the permutation algebra (compose, invert,
apply_permutation, sample_uniform_permutation), retrodiction through the
accumulated control frame, and simulate_trajectory, which strings them
together on the same per-index noise and control streams as
regreadout.ensemble.run_ensemble.  The tests compare the batched runner
against it.  enumerated_permutation_average_rate is the brute-force
reference for theory.permutation_averaged_rate's closed form.  The oracle
keeps its own arithmetic on purpose and is not part of the library:
nothing under src/ imports it.

euler_step is the explicit first-order update

    lam_i += 2*sqrt(2*gamma) * sum_r dW[r] * (z_i^r - <Z^r>) * lam_i,

with dW recovered from the record as dR - 2*sqrt(2*gamma)*<Z^r>*dt,
followed by clamping to [0, 1] and renormalization; a negative excursion
beyond -1e-6 before clamping aborts the step.  It is a one-step
reference for exact_step on a shared record stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from regreadout.policies import ControlPolicy, h_order_targets
from regreadout.registers import BasisIndex, DiagonalState, Permutation, z_table
from regreadout.sde import (
    LOG_FLOOR,
    IntegrationError,
    SimulationParams,
    epsilon_targets,
    record_strength,
    trajectory_control_rng,
    trajectory_noise_rng,
)
from regreadout.theory import RateEstimate, all_permutation_images

NEGATIVITY_TOL = 1e-6


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Permutation acting as q first, then p."""
    if p.dimension != q.dimension:
        raise ValueError("cannot compose permutations of different dimensions")
    return Permutation(p.image[q.image])


def invert(p: Permutation) -> Permutation:
    inv = np.empty(p.dimension, dtype=np.int64)
    inv[p.image] = np.arange(p.dimension)
    return Permutation(inv)


def apply_permutation(state: DiagonalState, p: Permutation) -> DiagonalState:
    """Relabel the register populations according to p."""
    if p.dimension != state.probs.size:
        raise ValueError("permutation dimension does not match the state")
    out = np.empty_like(state.probs)
    out[p.image] = state.probs
    return DiagonalState(state.n, out)


def sample_uniform_permutation(rng: np.random.Generator, d: int) -> Permutation:
    """Uniformly random permutation of d slots (Fisher-Yates, unbiased)."""
    if d < 1:
        raise ValueError("dimension must be positive")
    return Permutation(rng.permutation(d))


def h_order(state: DiagonalState) -> Permutation:
    """Permutation that Hamming-orders the state.

    Populations are ranked in descending order (ties by current index,
    ascending) and sent to h_order_targets(n) in rank order.  A state that
    is already Hamming-ordered with distinct populations maps to the
    identity.
    """
    order = np.argsort(-state.probs, kind="stable")
    image = np.empty_like(order)
    image[order] = h_order_targets(state.n)
    return Permutation(image)


def policy_step(
    policy: ControlPolicy,
    state: DiagonalState,
    step_index: int,
    rng: np.random.Generator,
) -> Permutation:
    """Permutation the policy applies at the start of this step.

    Only 'h_ordering' looks at the state; 'random_permutation' consumes
    the control stream; 'fixed_cycle' indexes its cycle by step number.
    The permutation sequence of the open-loop policies is therefore
    independent of the measurement record.
    """
    d = state.probs.size
    if policy.kind == "none":
        return Permutation.identity(d)
    if policy.kind == "h_ordering":
        return h_order(state)
    if policy.kind == "random_permutation":
        return sample_uniform_permutation(rng, d)
    perms = policy.cycle
    if perms[0].dimension != d:
        raise ValueError("cycle permutation dimension does not match the state")
    return perms[step_index % len(perms)]


def retrodict(final_index: BasisIndex, cumulative: Permutation) -> BasisIndex:
    """Undo the control frame to recover the uncontrolled outcome.

    cumulative is the composition of all applied permutations, most
    recent outermost.  If the register ends up concentrated at
    final_index after them, the population started (and, absent control,
    would have collapsed) at invert(cumulative).image[final_index].
    """
    return int(invert(cumulative).image[final_index])


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


def enumerated_permutation_average_rate(
    state: DiagonalState, gamma: float = 1.0
) -> RateEstimate:
    """Mean of log_infidelity_rate over all D! permutations of the state,
    by enumeration (n <= 3: all_permutation_images stops at D = 8).

    Each permuted state's observables are shifted by the eigenvalue at its
    own maximum, which keeps every term finite however the state
    collapses.
    """
    delta = state.infidelity()
    if delta <= 0.0:
        raise ValueError("rate is singular for a collapsed state (Delta = 0)")
    n = state.n
    images = all_permutation_images(2**n)
    z = z_table(n)
    i_star = state.argmax_index()
    zsum_avg = 0.0
    for r in range(n):
        permuted = z[r][images]
        shifted = permuted - permuted[:, [i_star]]
        moments = shifted @ state.probs
        zsum_avg += float(np.mean(moments * moments))
    value = -4.0 * gamma * zsum_avg * (1.0 - delta) ** 2 / delta**2
    return RateEstimate(value)
