"""Acceptance gate: eight numbered checks, one printed verdict line each.

Every check states its tolerance inline and prints
``acceptance <k>: PASS/FAIL <numbers>`` straight to the terminal, so the
suite doubles as a readable scorecard.  Every check runs at its published
ensemble size and tolerance, at fixed seeds, so every verdict number but
acceptance 3's own run time is the same on every run.
"""

import math
import time
from functools import lru_cache

import numpy as np
import pytest

from regreadout import (
    DiagonalState,
    SimulationParams,
    asymptotic_speedup,
    default_epsilon_grid,
    fit_ln_delta_slope,
    fit_speedup_scaling,
    fixed_cycle_policy,
    flat_tail_state,
    h_order_targets,
    h_ordering_policy,
    leading_rotation,
    mc_permuted_step_rate,
    no_control,
    nofb_mean_first_passage,
    nofb_mean_log_infidelity,
    permutation_averaged_rate,
    permutation_sum_identities,
    random_permutation_policy,
    regression_mean_time,
    run_ensemble,
    speedup_bounds_for_policy,
    speedup_scaling_sweep,
    trajectory_noise_rng,
    two_level_state,
    z_table,
)
from regreadout.cli import EXCESS_CENSORING
from regreadout.sde import true_outcomes, update_columns
from oracle import apply_permutation, euler_step, exact_step, h_order

GRID = default_epsilon_grid()
STOP = float(GRID.min())
# Trajectories per ensemble in the speed-up checks 5-7; checks 6 and 7
# share their n = 2 no-control baseline through _passage_ensemble's cache.
SPEEDUP_COUNT = 10_000


def _verdict(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\nacceptance {number}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"acceptance {number}: {detail}"


def _policy(kind):
    return {
        "none": no_control(),
        "h_ordering": h_ordering_policy(),
        "random_permutation": random_permutation_policy(),
        "fixed_cycle": fixed_cycle_policy([leading_rotation(4)]),
    }[kind]


@lru_cache(maxsize=None)
def _passage_ensemble(n, kind, count, seed):
    """First-passage ensemble on the standard target grid (cached so the
    speed-up checks can share their no-control baselines)."""
    params = SimulationParams(n=n, max_time=4.0, stop_epsilon=STOP)
    return run_ensemble(
        params,
        _policy(kind),
        GRID,
        count,
        seed,
        record_every=64,
    )


def test_acceptance_1_collapse_slope(capsys):
    """Mean log-infidelity decays at -16*gamma, register size entering
    only through the ln(n) offset.  Tolerance: 5% on the slope over the
    stated asymptotic window, 10^4 trajectories each.  Sub-check: at
    evenly spaced grid points of each window the measured mean is within
    3 stderr of the exact finite-time curve nofb_mean_log_infidelity
    (few points: at n = 3 each is a 128^3-node quadrature)."""
    cases = [
        # (n, max_time, stop_epsilon, window, exact-curve points)
        (1, 1.2, 1e-30, (0.6, 1.2), 7),
        (2, 12.0, 1e-120, (8.0, 12.0), 9),
        (3, 20.0, 1e-250, (14.0, 20.0), 13),
    ]
    slopes = []
    max_z = []
    ok = True
    for n, max_time, stop, window, points in cases:
        params = SimulationParams(n=n, max_time=max_time, stop_epsilon=stop)
        stats = run_ensemble(
            params, no_control(), [], 10_000, 4242, record_every=16
        )
        # the window must not be depleted by early stopping
        in_window = stats.sample_times >= window[0]
        assert float(stats.active_fraction[in_window].min()) > 0.99
        slope, _ = fit_ln_delta_slope(stats, *window)
        slopes.append(slope)
        inside = np.where(in_window & (stats.sample_times <= window[1]))[0]
        picks = inside[np.linspace(0, inside.size - 1, points).round().astype(int)]
        exact = [nofb_mean_log_infidelity(stats.sample_times[i], n) for i in picks]
        z = (stats.mean_ln_delta[picks] - exact) / stats.stderr_ln_delta[picks]
        max_z.append(float(np.abs(z).max()))
        ok = ok and abs(slope + 16.0) <= 0.8 and max_z[-1] <= 3.0
    detail = (
        "slopes n=1,2,3: "
        + ", ".join(f"{s:.3f}" for s in slopes)
        + " (theory -16, tolerance 5%); exact-curve max|z| at 7/9/13 points: "
        + ", ".join(f"{z:.2f}" for z in max_z)
        + " (tolerance 3)"
    )
    _verdict(capsys, 1, ok, detail)


# Siegmund's corrected diffusion approximation: a walk monitored every dt
# overshoots its boundary by about -zeta(1/2)/sqrt(2 pi) = 0.5826 step
# standard deviations, which delays the mean passage by that much / drift.
OVERSHOOT = 0.5826


def test_acceptance_2_mean_time_scaling(capsys):
    """Mean first-passage time grows as ln(1/epsilon)/(16*gamma).
    Tolerance: 5% on the regression slope over [1e-6, 1e-4].  The mean
    times at epsilon = 1e-2, 1e-4, 1e-6 must also lie within 3 stderr of
    the exact n = 1 value plus the discrete-monitoring overshoot
    0.5826*sqrt(32*gamma*dt)/(16*gamma)."""
    params = SimulationParams(n=1, max_time=3.0, stop_epsilon=STOP)
    stats = run_ensemble(
        params,
        no_control(),
        GRID,
        4000,
        777,
        record_every=64,
    )
    assert not np.any(stats.censored_fraction > EXCESS_CENSORING)
    fit = regression_mean_time(stats)
    expected = 1.0 / 16.0
    ok = abs(fit.slope - expected) <= 0.05 * expected
    gamma = params.gamma
    shift = OVERSHOOT * math.sqrt(32.0 * gamma * params.dt) / (16.0 * gamma)
    zs = []
    for eps in (1e-2, 1e-4, 1e-6):
        j = int(np.argmin(np.abs(np.log(stats.epsilons / eps))))
        exact = nofb_mean_first_passage(float(stats.epsilons[j]), gamma)
        excess = stats.mean_first_passage[j] - exact - shift
        zs.append(excess / stats.stderr_first_passage[j])
    ok = ok and max(abs(z) for z in zs) <= 3.0
    detail = (
        f"mean-T slope {fit.slope:.5f} vs 1/16 = {expected:.5f} "
        f"({fit.point_count} epsilon points, tolerance 5%); "
        f"exact mean-T z at 1e-2/1e-4/1e-6 after the {shift:.5f} overshoot: "
        + ", ".join(f"{z:+.2f}" for z in zs)
        + " (tolerance 3)"
    )
    _verdict(capsys, 2, ok, detail)


def test_acceptance_3_permutation_identities(capsys):
    """The two permutation sum identities hold exactly, in integer
    arithmetic, for D = 4 and D = 8, within a 5 s budget."""
    start = time.perf_counter()
    r4 = permutation_sum_identities(4)
    r8 = permutation_sum_identities(8)
    wall = time.perf_counter() - start
    ok = (
        r4.passed
        and r8.passed
        and (r4.square_sum, r4.cross_sum) == (48, 16)
        and (r8.square_sum, r8.cross_sum) == (80640, 34560)
        and wall < 5.0
    )
    detail = (
        f"D=4: {r4.square_sum}/{r4.cross_sum}, "
        f"D=8: {r8.square_sum}/{r8.cross_sum} "
        f"(expected 48/16, 80640/34560; {wall:.2f}s of 5s)"
    )
    _verdict(capsys, 3, ok, detail)


def test_acceptance_4_mc_rate_vs_enumeration(capsys):
    """One-step Monte Carlo over 10^6 random permutations reproduces the
    closed-form group-average collapse rate within 3 standard errors for
    both envelope states at n = 2 and 3, Delta = 1e-3."""
    zscores = []
    ok = True
    for n in (2, 3):
        for state in (two_level_state(n, 1e-3), flat_tail_state(n, 1e-3)):
            exact = permutation_averaged_rate(state).value
            mc = mc_permuted_step_rate(state, 1.0, 2e-4, 1_000_000, 314159)
            z = (mc.value - exact) / mc.stderr
            zscores.append(z)
            ok = ok and abs(z) < 3.0
    detail = (
        "z-scores "
        + ", ".join(f"{z:+.2f}" for z in zscores)
        + " (two_level/flat_tail at n=2,3; threshold 3)"
    )
    _verdict(capsys, 4, ok, detail)


def test_acceptance_5_random_permutation_scaling(capsys):
    """Random-permutation speed-up: n=2,3 match 0.397n + 0.53 within 0.15,
    every measured point sits in its analytic band within 3 stderr, and
    the n=2..5 fit slope matches 0.397 within 0.05.  The verdict prints
    each point's z against its band's upper edge."""
    template = SimulationParams(n=2, max_time=4.0, stop_epsilon=STOP)
    [points] = speedup_scaling_sweep(
        [2, 3, 4, 5],
        [random_permutation_policy()],
        template,
        SPEEDUP_COUNT,
        1000,
        epsilons=GRID,
    )
    by_n = {p.n: p for p in points}
    ok_ref = all(
        abs(by_n[n].estimate.value - (0.397 * n + 0.53)) <= 0.15 for n in (2, 3)
    )
    ok_band = all(
        p.bounds.lower - 3.0 * p.estimate.stderr
        <= p.estimate.value
        <= p.bounds.upper + 3.0 * p.estimate.stderr
        for p in points
    )
    upper_z = [(p.estimate.value - p.bounds.upper) / p.estimate.stderr for p in points]
    fit = fit_speedup_scaling(points)
    ok_slope = abs(fit.slope - 0.397) <= 0.05
    ok = ok_ref and ok_band and ok_slope
    detail = (
        "S(n) = "
        + ", ".join(f"{by_n[n].estimate.value:.3f}" for n in (2, 3, 4, 5))
        + "; refs 1.324, 1.721 +-0.15; bands 3 stderr, upper-edge z "
        + ", ".join(f"{z:+.2f}" for z in upper_z)
        + f" (limit +3); slope {fit.slope:.3f} vs 0.397 +-0.05 "
        + f"[{SPEEDUP_COUNT} trajectories]"
    )
    _verdict(capsys, 5, ok, detail)


def test_acceptance_6_h_ordering_scaling(capsys):
    """H-ordering feedback speed-up matches 0.718n within 15% at
    n = 2 and 3."""
    values = {}
    ok = True
    for n in (2, 3):
        nc = _passage_ensemble(n, "none", SPEEDUP_COUNT, 606)
        fb = _passage_ensemble(n, "h_ordering", SPEEDUP_COUNT, 606)
        est = asymptotic_speedup(nc, fb)
        values[n] = est.value
        ok = ok and abs(est.value - 0.718 * n) <= 0.15 * 0.718 * n
    detail = (
        f"S(2) = {values[2]:.3f} vs 1.436, S(3) = {values[3]:.3f} vs 2.154 "
        f"(tolerance 15%) [{SPEEDUP_COUNT} trajectories]"
    )
    _verdict(capsys, 6, ok, detail)


def test_acceptance_7_fixed_cycle_equivalence(capsys):
    """The three-slot rotation cycle performs like fresh random
    permutations at n = 2: estimates agree within 3 combined stderr."""
    nc = _passage_ensemble(2, "none", SPEEDUP_COUNT, 606)
    rp = asymptotic_speedup(
        nc, _passage_ensemble(2, "random_permutation", SPEEDUP_COUNT, 606)
    )
    fc = asymptotic_speedup(nc, _passage_ensemble(2, "fixed_cycle", SPEEDUP_COUNT, 606))
    gap = abs(fc.value - rp.value)
    limit = 3.0 * math.hypot(fc.stderr, rp.stderr)
    ok = gap <= limit
    detail = (
        f"cycle {fc.value:.3f} vs random {rp.value:.3f}, "
        f"|diff| {gap:.3f} <= {limit:.3f} [{SPEEDUP_COUNT} trajectories]"
    )
    _verdict(capsys, 7, ok, detail)


def _twin_integrator_gap_mse(dt, rows=1000, total_time=0.1, seed=13):
    """Mean squared final-state gap between the exact and first-order
    integrators consuming one shared record stream, vectorized over rows.
    The first step of row 0 is anchored against the package steppers."""
    n, d = 1, 2
    z = z_table(n)
    c = 2.0 * math.sqrt(2.0)
    steps = int(round(total_time / dt))
    params = SimulationParams(n=n, dt=dt, max_time=total_time, stop_epsilon=1e-30)
    dW = np.stack(
        [rng.standard_normal((steps, n)) for rng in trajectory_noise_rng(seed, range(rows))]
    ) * math.sqrt(dt)
    lam_x = np.full((rows, d), 1.0 / d)
    lam_e = np.full((rows, d), 1.0 / d)
    for k in range(steps):
        expect = lam_x @ z.T
        dR = c * dt * expect + dW[:, k, :]
        if k == 0:
            state0 = DiagonalState(n, lam_x[0])
            ref_x = exact_step(state0, dR[0], params).probs
            ref_e = euler_step(state0, dR[0], params).probs
        expo = c * (dR @ z)
        expo -= expo.max(axis=1, keepdims=True)
        lam_x = lam_x * np.exp(expo)
        lam_x /= lam_x.sum(axis=1, keepdims=True)
        ex_e = lam_e @ z.T
        dw = dR - c * dt * ex_e
        coeff = dw @ z - np.sum(dw * ex_e, axis=1, keepdims=True)
        lam_e = lam_e * (1.0 + c * coeff)
        lam_e = np.clip(lam_e, 0.0, 1.0)
        lam_e /= lam_e.sum(axis=1, keepdims=True)
        if k == 0:
            assert np.allclose(lam_x[0], ref_x, atol=1e-14)
            assert np.allclose(lam_e[0], ref_e, atol=1e-14)
    return float(np.mean(np.sum((lam_x - lam_e) ** 2, axis=1)))


def test_acceptance_8_simulator_invariants(capsys):
    """Five structural invariants of the simulator itself."""
    failures = []

    # (a) normalization: every stepper holds |sum - 1| <= 1e-10 per step
    params = SimulationParams(n=3, stop_epsilon=1e-300, max_time=2000 * 6.25e-4)
    worst_norm = 0.0
    for stepper, seed in ((exact_step, 888), (euler_step, 889)):
        rng = trajectory_noise_rng(seed)
        state = DiagonalState.maximally_mixed(3)
        for _ in range(2000):
            dw = rng.normal(0.0, math.sqrt(params.dt), size=3)
            expect = z_table(3) @ state.probs
            dr = 2.0 * math.sqrt(2.0) * expect * params.dt + dw
            state = stepper(state, dr, params)
            worst_norm = max(worst_norm, abs(float(state.probs.sum()) - 1.0))
    # and the production kernel every runner steps through, on its own
    # stream, with the record of a true outcome drawn from its first uniform
    rng = trajectory_noise_rng(890)
    lam = np.full((8, 1), 1.0 / 8)
    true = true_outcomes(lam[:, 0], rng.random())
    for _ in range(2000):
        dw = rng.normal(0.0, math.sqrt(params.dt), size=(3, 1))
        dr = 2.0 * math.sqrt(2.0) * z_table(3)[:, [true]] * params.dt + dw
        lam = update_columns(lam, dr, params.gamma)
        worst_norm = max(worst_norm, abs(float(lam.sum()) - 1.0))
    if worst_norm > 1e-10:
        failures.append(f"normalization drift {worst_norm:.2e}")

    # (b) populations are martingales: ensemble mean of the final state
    # equals the initial state within 3 stderr, 10^4 trajectories
    initial = DiagonalState(2, np.array([0.4, 0.3, 0.2, 0.1]))
    stats = run_ensemble(
        SimulationParams(n=2, max_time=0.5, stop_epsilon=0.0),
        no_control(),
        [],
        10_000,
        555,
        record_every=100,
        initial_state=initial,
    )
    finals = stats.final_states
    se = finals.std(axis=0, ddof=1) / math.sqrt(finals.shape[0])
    zmax = float(np.max(np.abs((finals.mean(axis=0) - initial.probs) / se)))
    if zmax >= 3.0:
        failures.append(f"martingale max|z| {zmax:.2f}")

    # (c) retrodiction: a register prepared in a basis state is recovered
    # exactly by undoing the control frame, for every policy
    bad_retro = 0
    for j, kind in enumerate(
        ("none", "h_ordering", "random_permutation", "fixed_cycle")
    ):
        rstats = run_ensemble(
            SimulationParams(n=2, max_time=0.05, stop_epsilon=0.0),
            _policy(kind),
            [],
            10_000,
            8100 + j,
            record_every=50,
            initial_state=DiagonalState.pure(2, 2),
            collect_retrodiction=True,
        )
        bad_retro += int(np.sum(rstats.retrodicted_indices != 2))
    if bad_retro:
        failures.append(f"{bad_retro} retrodiction misses")

    # (d) integrator agreement improves linearly with dt: the mean squared
    # final-state gap roughly halves per dt halving (ratios in [0.35, 0.65])
    gaps = [_twin_integrator_gap_mse(dt) for dt in (4e-4, 2e-4, 1e-4)]
    ratios = [gaps[1] / gaps[0], gaps[2] / gaps[1]]
    if not all(0.35 <= r <= 0.65 for r in ratios):
        failures.append(f"convergence ratios {ratios[0]:.3f}, {ratios[1]:.3f}")

    # (e) the zsum sandwich holds for H-ordered states: 10^4 random states
    # per register size, H-ordered at once by oracle.h_order's rule (a
    # stable argsort of the negated populations onto h_order_targets(n))
    rng = np.random.default_rng(31415)
    outside = 0
    for n in range(2, 6):
        d = 2**n
        z = z_table(n)
        lam = rng.exponential(size=(10_000, d))
        probs = lam / lam.sum(axis=1, keepdims=True)
        ordered = np.empty_like(probs)
        ordered[:, h_order_targets(n)] = np.take_along_axis(
            probs, np.argsort(-probs, axis=1, kind="stable"), axis=1
        )
        for i in range(3):
            state = DiagonalState(n, probs[i])
            assert np.array_equal(
                ordered[i], apply_permutation(state, h_order(state)).probs
            )
        # each state's z sum and infidelity, formed as DiagonalState's
        # argmax_index() and infidelity() form them
        peak = ordered.argmax(axis=1)
        zs = z[None, :, :] - z.T[peak][:, :, None]
        moments = (zs @ ordered[:, :, None])[:, :, 0]
        zsum = np.sum(moments**2, axis=1)
        tail = ordered.copy()
        tail[np.arange(10_000), peak] = 0.0
        deltas = tail.sum(axis=1)
        band = speedup_bounds_for_policy("h_ordering", n)
        scale = 4 * deltas**2
        inside = (scale * band.lower < zsum) & (zsum < scale * band.upper)
        outside += int(np.count_nonzero(~inside))
    if outside:
        failures.append(f"{outside} states outside the zsum sandwich")

    ok = not failures
    if ok:
        detail = (
            f"norm drift {worst_norm:.1e}; martingale max|z| {zmax:.2f}; "
            f"retrodiction 4x10000 exact; convergence ratios "
            f"{ratios[0]:.2f}, {ratios[1]:.2f}; sandwich 4x10000 inside"
        )
    else:
        detail = "; ".join(failures)
    _verdict(capsys, 8, ok, detail)
