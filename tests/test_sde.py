"""Record generation, the exact and euler steps, and single trajectories."""

import math
from functools import partial

import numpy as np
import pytest

from regreadout import (
    DiagonalState,
    IntegrationError,
    SimulationParams,
    h_ordering_policy,
    run_ensemble,
    two_level_state,
)
from regreadout.policies import no_control, random_permutation_policy
from regreadout.registers import infidelity_columns, z_table
from regreadout.sde import (
    DEFAULT_DT_GAMMA,
    _keyed_streams,
    record_strength,
    trajectory_control_rng,
    trajectory_noise_rng,
    update_columns,
)
from oracle import (
    euler_step,
    exact_step,
    generate_increments,
    simulate_trajectory,
)


def make_params(**kw):
    kw.setdefault("n", 1)
    return SimulationParams(**kw)


def test_params_defaults_and_total_steps():
    p = make_params(gamma=2.0)
    assert p.dt == pytest.approx(DEFAULT_DT_GAMMA / 2.0)
    q = make_params(dt=0.01, max_time=1.0)
    assert q.total_steps == 100


def test_params_validation():
    with pytest.raises(ValueError):
        make_params(n=0)
    with pytest.raises(ValueError):
        make_params(gamma=0.0)
    with pytest.raises(ValueError):
        make_params(dt=-1e-3)
    with pytest.raises(ValueError):
        make_params(max_time=0.0)
    with pytest.raises(TypeError):
        make_params(integrator="exact")
    for stop in (-1e-3, 1.0, math.nan):
        with pytest.raises(ValueError):
            make_params(stop_epsilon=stop)
    with pytest.warns(UserWarning):
        make_params(dt=0.05)


def test_dt_warning_names_the_caller():
    """The update is exact at any dt; what dt still sets is named."""
    message = (
        r"dt\*gamma = 0.05 is above 0.01: the control acts, and passages "
        r"and the stop are checked, only once per step"
    )
    with pytest.warns(UserWarning, match=message) as record:
        SimulationParams(n=1, dt=0.05)
    assert record[0].filename == __file__


def test_increments_shape_and_decomposition():
    params = make_params(n=3, dt=1e-3)
    state = DiagonalState.maximally_mixed(3)
    dR = generate_increments(state, params, np.random.default_rng(0))
    dW = np.random.default_rng(0).normal(0.0, math.sqrt(params.dt), size=3)
    assert dR.shape == (3,)
    # dR = 2*sqrt(2*gamma)*<Z>*dt + dW; mixed state has <Z> = 0
    assert np.allclose(dR, dW)
    biased = DiagonalState(1, np.array([0.9, 0.1]))
    dR2 = generate_increments(biased, make_params(dt=1e-3), np.random.default_rng(0))
    dW2 = np.random.default_rng(0).normal(0.0, math.sqrt(1e-3), size=1)
    drift = 2.0 * math.sqrt(2.0) * 0.8 * 1e-3
    assert np.allclose(dR2 - dW2, drift)


def test_increment_statistics():
    params = make_params(n=2, dt=4e-3)
    state = DiagonalState.maximally_mixed(2)
    rng = np.random.default_rng(5)
    # the mixed state has <Z> = 0, so each record increment is its dW
    draws = np.array(
        [generate_increments(state, params, rng) for _ in range(20000)]
    )
    assert abs(draws.mean()) < 4 * math.sqrt(params.dt / draws.size)
    assert draws.var() == pytest.approx(params.dt, rel=0.05)


def test_exact_step_matches_softmax_formula():
    params = make_params(n=2, dt=1e-3, gamma=0.7)
    probs = np.array([0.4, 0.3, 0.2, 0.1])
    state = DiagonalState(2, probs)
    dr = np.array([0.03, -0.02])
    out = exact_step(state, dr, params)
    c = 2.0 * math.sqrt(2.0 * 0.7)
    z = np.array([[1, 1, -1, -1], [1, -1, 1, -1]], dtype=float)
    weights = probs * np.exp(c * dr @ z)
    assert np.allclose(out.probs, weights / weights.sum(), atol=1e-15)


def test_steppers_preserve_normalization_and_agree_at_small_dt():
    params = make_params(n=3, dt=1e-5, gamma=1.3)
    rng = np.random.default_rng(21)
    state_a = state_b = DiagonalState(3, np.full(8, 0.125))
    for _ in range(200):
        dR = generate_increments(state_a, params, rng)
        state_a = exact_step(state_a, dR, params)
        state_b = euler_step(state_b, dR, params)
        assert abs(state_a.probs.sum() - 1.0) <= 1e-12
        assert abs(state_b.probs.sum() - 1.0) <= 1e-12
    assert np.allclose(state_a.probs, state_b.probs, atol=1e-3)


def test_pure_state_is_fixed_point():
    params = make_params(n=2, dt=1e-3)
    pure = DiagonalState.pure(2, 2)
    rng = np.random.default_rng(9)
    for stepper in (exact_step, euler_step):
        state = pure
        for _ in range(50):
            state = stepper(state, generate_increments(state, params, rng), params)
        assert state.probs[2] == 1.0
        assert state.infidelity() == 0.0


def test_euler_flags_negative_populations():
    # a huge step drives a first-order weight negative; the exact map cannot
    with pytest.warns(UserWarning):
        params = make_params(n=1, dt=0.5)
    state = DiagonalState(1, np.array([0.5, 0.5]))
    dR = np.array([3.0])
    with pytest.raises(IntegrationError):
        euler_step(state, dR, params)
    out = exact_step(state, dR, params)
    assert np.all(out.probs >= 0.0)


def test_exact_step_rejects_nonfinite_record():
    params = make_params(n=1, dt=1e-3)
    state = DiagonalState.maximally_mixed(1)
    with pytest.raises(IntegrationError):
        exact_step(state, np.array([np.nan]), params)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5], ids=lambda n: f"{n}-exact")
def test_column_step_matches_single_steps(n):
    """Every column of the batched step equals exact_step on that column
    alone, and infidelity_columns equals DiagonalState.infidelity(), also
    for columns whose maximum is tied."""
    d = 2**n
    params = make_params(n=n, dt=2e-3)
    rng = np.random.default_rng(40 + n)
    lam = rng.random((d, 7)) ** 4
    lam[:, 0] = 1.0 / d  # every entry tied for the maximum
    if d > 2:
        lam[:, 1] = 0.1
        lam[[d - 1, 1], 1] = 0.5  # two tied maxima, the first at index 1
    lam /= lam.sum(axis=0)
    dW = rng.normal(0.0, math.sqrt(params.dt), size=(n, 7))
    c = record_strength(params.gamma)
    dR = c * (z_table(n) @ lam) * params.dt + dW
    new = update_columns(lam, dR, params.gamma)
    delta = infidelity_columns(new)
    delta0 = infidelity_columns(lam)
    for a in range(lam.shape[1]):
        state = DiagonalState(n, lam[:, a])
        ref = exact_step(state, dR[:, a], params)
        assert np.allclose(new[:, a], ref.probs, rtol=1e-12, atol=1e-12)
        assert delta[a] == pytest.approx(ref.infidelity(), rel=1e-12)
        assert delta0[a] == pytest.approx(state.infidelity(), rel=1e-12)


def test_step_mean_preserves_populations():
    """One integration step is unbiased: averaging the posterior over the
    record distribution returns the prior populations."""
    params = make_params(n=2, dt=2e-3, gamma=1.0)
    prior = DiagonalState(2, np.array([0.4, 0.3, 0.2, 0.1]))
    rng = np.random.default_rng(101)
    total = np.zeros(4)
    draws = 40000
    for _ in range(draws):
        dR = generate_increments(prior, params, rng)
        total += exact_step(prior, dR, params).probs
    mean = total / draws
    # population scale ~0.1-0.4, fluctuation scale sqrt(8*gamma*dt/draws)
    assert np.allclose(mean, prior.probs, atol=4 * math.sqrt(8 * 2e-3 / draws))


def test_trajectory_rngs_are_independent_streams():
    a = trajectory_noise_rng(123, 0).standard_normal(4)
    b = trajectory_noise_rng(123, 0).standard_normal(4)
    c = trajectory_noise_rng(123, 1).standard_normal(4)
    d = trajectory_control_rng(123, 0).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_trajectory_rngs_are_the_default_rng_streams():
    """Built in bulk, without SeedSequence, the noise (tag 0), control
    (tag 1) and estimator chunk (tag 2) streams are still bitwise
    default_rng(SeedSequence(seed, spawn_key=(index, tag)))'s, for seeds of
    one to seven 32-bit words and indices up to 2**32 - 1, one at a time or
    a range at once.  Should numpy change its seed mixing, this fails."""
    makers = (trajectory_noise_rng, trajectory_control_rng, partial(_keyed_streams, tag=2))
    indices = [*range(300), 2**31, 2**32 - 1, 0, 299, 2**32 - 1]
    for seed in (0, 1, 2**32 - 1, 2**32, 2**40 + 7, 2**64 - 1, 2**200 + 3):
        for tag, make in enumerate(makers):
            rngs = (make(seed, range(300)) + make(seed, range(2**31, 2**32, 2**31 - 1))
                    + [make(seed, i) for i in (0, 299, 2**32 - 1)])
            assert len(rngs) == len(indices)
            for index, rng in zip(indices, rngs):
                ref = np.random.default_rng(
                    np.random.SeedSequence(seed, spawn_key=(index, tag))
                )
                assert np.array_equal(rng.random(8), ref.random(8)), (seed, index, tag)
                assert np.array_equal(rng.standard_normal(8), ref.standard_normal(8))
    # SeedSequence rejects a negative seed or index; an index of two words
    # is rejected rather than given another stream
    for seed, index in ((-1, 0), (0, -1), (0, range(-1, 3)), (0, 2**32),
                        (0, range(2**32 - 1, 2**32 + 1))):
        for make in makers:
            with pytest.raises(ValueError):
                make(seed, index)
    # a bool would pass as seed or index 0 or 1, and a fractional one is
    # not an integer either
    for seed, index in ((True, 0), (5, True), (5, 1.5), (1.0, 0), (True, range(3))):
        for make in makers:
            with pytest.raises(ValueError, match="integer"):
                make(seed, index)


def test_trajectory_validation():
    params = make_params(n=1, max_time=0.01)
    with pytest.raises(ValueError):
        simulate_trajectory(params, no_control(), [1e-3, 1e-2], 0)
    with pytest.raises(ValueError):
        simulate_trajectory(params, no_control(), [1e-8], 0)
    with pytest.raises(ValueError):
        simulate_trajectory(params, no_control(), [1e-2], 0, record_every=0)
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        simulate_trajectory(params, no_control(), [1.5, 1e-2], 0)
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        simulate_trajectory(params, no_control(), [1e-2, math.nan], 0)
    with pytest.raises(ValueError):
        simulate_trajectory(
            params,
            no_control(),
            [1e-2],
            0,
            initial_state=DiagonalState.maximally_mixed(2),
        )


def test_trajectory_stops_at_target():
    params = make_params(n=1, max_time=3.0, stop_epsilon=1e-4)
    res = simulate_trajectory(params, no_control(), [1e-2, 1e-3, 1e-4], 7)
    assert res.final_state.infidelity() <= 1e-4
    assert res.sample_times[-1] < 3.0
    assert res.censored() == []
    # crossings are ordered like the targets
    times = [res.first_passage[e] for e in (1e-2, 1e-3, 1e-4)]
    assert times[0] < times[1] < times[2]
    # interpolated crossing sits inside the simulated span
    assert 0.0 < times[0] and times[2] <= res.sample_times[-1] + params.dt


def test_trajectory_censoring():
    # mean crossing times: 0.14 for 1e-1, 1.3 for 1e-9
    params = make_params(n=1, max_time=0.4, stop_epsilon=1e-12)
    res = simulate_trajectory(params, no_control(), [1e-1, 1e-9], 3)
    assert res.censored() == [1e-9]
    assert res.first_passage[1e-9] is None
    assert res.first_passage[1e-1] is not None
    assert res.sample_times[-1] == pytest.approx(0.4)


def test_trajectory_is_deterministic():
    params = make_params(n=2, max_time=0.2)
    a = simulate_trajectory(params, random_permutation_policy(), [1e-2], 42)
    b = simulate_trajectory(params, random_permutation_policy(), [1e-2], 42)
    assert np.array_equal(a.infidelity, b.infidelity)
    assert np.array_equal(a.records, b.records)
    assert a.final_index == b.final_index
    c = simulate_trajectory(params, random_permutation_policy(), [1e-2], 43)
    assert not np.array_equal(a.infidelity, c.infidelity)


def test_record_accumulator_integrates_dr():
    params = make_params(n=2, max_time=0.1, stop_epsilon=0.0)
    res = simulate_trajectory(params, no_control(), [], 5, record_every=1)
    assert res.sample_times[-1] == pytest.approx(0.1)
    assert res.records.shape == (2,)
    assert np.all(np.isfinite(res.records))


def test_stop_zero_runs_to_max_time():
    """stop_epsilon = 0 never freezes: a mixed start, a pure start
    (Delta = 0 from the first step) and a two-level start all run to
    max_time, targets of any depth are accepted, and the batch runner
    reproduces the reference trajectories."""
    res = simulate_trajectory(
        make_params(n=1, max_time=0.4, stop_epsilon=0.0), no_control(), [], 11
    )
    assert res.sample_times[-1] == pytest.approx(0.4)
    params = make_params(n=2, max_time=0.1, stop_epsilon=0.0)
    deep = [1e-1, 1e-30, 1e-300]
    for policy in (no_control(), h_ordering_policy()):
        for state in (DiagonalState.pure(2, 3), two_level_state(2, 0.2)):
            kw = dict(initial_state=state, record_every=4)
            stats = run_ensemble(params, policy, deep, 3, 8, **kw)
            assert np.all(stats.active_fraction == 1.0)
            for i in range(3):
                ref = simulate_trajectory(params, policy, deep, 8, i, **kw)
                assert ref.sample_times[-1] == pytest.approx(0.1)
                assert np.allclose(
                    stats.final_states[i], ref.final_state.probs, atol=1e-12
                )
                assert stats.final_indices[i] == ref.final_index
                for j, eps in enumerate(deep):
                    want = ref.first_passage[eps]
                    got = stats.first_passage_times[i, j]
                    if want is None:
                        assert np.isnan(got)
                    else:
                        assert got == pytest.approx(want, abs=1e-12)


def test_record_every_thins_samples():
    params = make_params(n=1, max_time=0.02, dt=1e-3, stop_epsilon=0.0)
    full = simulate_trajectory(params, no_control(), [], 2)
    thin = simulate_trajectory(params, no_control(), [], 2, record_every=5)
    assert full.sample_times.size == 21
    assert thin.sample_times.size == 5
    assert np.allclose(thin.sample_times, [0.0, 0.005, 0.01, 0.015, 0.02])
    # thinned samples are a subsequence of the dense ones
    idx = np.searchsorted(full.sample_times, thin.sample_times)
    assert np.allclose(full.infidelity[idx], thin.infidelity)


def test_open_loop_record_independence():
    """Open-loop control sequences never depend on the record, so the
    same seed gives an identical permutation log whatever the noise does.
    """
    params = make_params(n=2, max_time=0.1, stop_epsilon=0.0)
    first = simulate_trajectory(params, random_permutation_policy(), [], 17)
    again = simulate_trajectory(params, random_permutation_policy(), [], 17)
    assert np.array_equal(
        first.cumulative_control.image, again.cumulative_control.image
    )
