"""Closed-form rates, bounds, and the exact permutation-sum identities.

The numeric expectations here were frozen from independent evaluations of
the closed forms (small-n brute force, exact fractions), not from the
module under test.
"""

import math
import time

import numpy as np
import pytest

from regreadout import (
    DiagonalState,
    SimulationParams,
    SpeedupBounds,
    flat_tail_state,
    log_infidelity_rate,
    nofb_mean_first_passage,
    nofb_mean_log_infidelity,
    permutation_averaged_rate,
    permutation_sum_identities,
    speedup_bounds_for_policy,
    two_level_state,
)
from regreadout.policies import no_control
from regreadout.theory import _all_permutation_images
from oracle import (
    apply_permutation,
    enumerated_permutation_average_rate,
    linear_trajectory_state,
    sample_uniform_permutation,
    simulate_trajectory,
)


def test_nofb_mean_first_passage_values():
    # the epsilon -> 0 limit is ln(1/epsilon) / (16 gamma)
    assert nofb_mean_first_passage(1e-12) == pytest.approx(
        12.0 * math.log(10.0) / 16.0, rel=1e-11
    )
    a = math.log(99.0)
    assert nofb_mean_first_passage(1e-2) == pytest.approx(0.98 * a / 16.0, rel=1e-15)
    # a * tanh(a/2) / (16 gamma), the two-sided exit time from (-a, a)
    assert nofb_mean_first_passage(1e-2) == pytest.approx(
        a * math.tanh(a / 2.0) / 16.0, rel=1e-13
    )
    assert nofb_mean_first_passage(1e-2, gamma=2.0) == pytest.approx(
        nofb_mean_first_passage(1e-2) / 2.0
    )
    assert nofb_mean_first_passage(0.5) == 0.0
    assert nofb_mean_first_passage(0.7) == 0.0
    with pytest.raises(ValueError):
        nofb_mean_first_passage(0.0)
    with pytest.raises(ValueError):
        nofb_mean_first_passage(1.0)


def test_h_ordering_zsum_edges_frozen_example():
    band = speedup_bounds_for_policy("h_ordering", 2)
    delta = 0.1
    assert 4.0 * delta**2 * band.lower == pytest.approx(0.035556, rel=1e-4)
    assert 4.0 * delta**2 * band.upper == pytest.approx(0.08)


def test_h_ordering_zsum_edges_attained_by_envelope_states():
    for n in (1, 2, 3, 4):
        delta = 0.05
        band = speedup_bounds_for_policy("h_ordering", n)
        two = log_infidelity_rate(two_level_state(n, delta))
        flat = log_infidelity_rate(flat_tail_state(n, delta))
        # rate = -4 (1 - Delta)^2 / Delta^2 * zsum, and the zsum edges are
        # 4 Delta^2 times the band: the envelope states hit the two ends
        scale = -16.0 * (1.0 - delta) ** 2
        assert two.value == pytest.approx(scale * band.upper, rel=1e-12)
        assert flat.value == pytest.approx(scale * band.lower, rel=1e-12)


def test_speedup_bounds_frozen_examples():
    h2 = speedup_bounds_for_policy("h_ordering", 2)
    assert h2.lower == pytest.approx(8.0 / 9.0)
    assert h2.upper == pytest.approx(2.0)
    rp2 = speedup_bounds_for_policy("random_permutation", 2)
    assert rp2.lower == pytest.approx(0.888889, rel=1e-5)
    assert rp2.upper == pytest.approx(1.33333, rel=1e-5)
    rp3 = speedup_bounds_for_policy("random_permutation", 3)
    assert rp3.lower == pytest.approx(64.0 / 49.0 * 0.75)
    assert rp3.upper == pytest.approx(3.0 * 4.0 / 7.0)


def test_speedup_bounds_large_n_band():
    # per-qubit band tightens to [1/4, 1/2] from above as n grows
    for n in (6, 10, 16):
        b = speedup_bounds_for_policy("random_permutation", n)
        assert b.lower / n > 0.25
        assert b.upper / n > 0.5
        assert b.upper / n == pytest.approx(0.5, abs=0.01 if n >= 10 else 0.1)
    h = speedup_bounds_for_policy("h_ordering", 12)
    assert h.upper == pytest.approx(12.0)


def test_speedup_bounds_validation():
    with pytest.raises(ValueError):
        SpeedupBounds(2.0, 1.0)
    with pytest.raises(ValueError):
        SpeedupBounds(0.0, 1.0)
    b = SpeedupBounds(1.0, 2.0)
    assert b.contains(1.5)
    assert not b.contains(2.1)
    assert b.contains(2.1, slack=0.2)


def test_all_permutation_images():
    images = _all_permutation_images(3)
    assert images.shape == (6, 3)
    assert np.array_equal(images[0], [0, 1, 2])
    assert np.array_equal(images[-1], [2, 1, 0])
    assert len({tuple(row) for row in images}) == 6
    with pytest.raises(ValueError):
        _all_permutation_images(9)


@pytest.mark.parametrize(
    "d,square,cross",
    [(4, 48, 16), (8, 80640, 34560)],
)
def test_permutation_sum_identities_exact(d, square, cross):
    report = permutation_sum_identities(d)
    assert report.passed
    assert report.permutation_count == math.factorial(d)
    assert report.square_sum == square == report.expected_square_sum
    assert report.cross_sum == cross == report.expected_cross_sum
    # integer arithmetic end to end
    assert isinstance(report.square_sum, int)


def test_permutation_sum_identities_supported_dimensions():
    with pytest.raises(ValueError):
        permutation_sum_identities(2)
    with pytest.raises(ValueError):
        permutation_sum_identities(16)


def test_permutation_sum_identities_runtime():
    start = time.perf_counter()
    permutation_sum_identities(8)
    assert time.perf_counter() - start < 5.0


def test_envelope_states():
    two = two_level_state(2, 1e-3)
    assert np.allclose(two.probs, [0.999, 0.0, 0.0, 1e-3])
    flat = flat_tail_state(2, 0.3)
    assert np.allclose(flat.probs, [0.7, 0.1, 0.1, 0.1])
    with pytest.raises(ValueError):
        two_level_state(2, 0.6)
    with pytest.raises(ValueError, match="at least one qubit, not n=0"):
        two_level_state(0, 1e-3)
    with pytest.raises(ValueError):
        flat_tail_state(1, 0.6)


def test_single_qubit_rate_closed_form():
    # n=1: <Z~> = -2*delta, so rate = -16*gamma*(1-delta)^2
    for delta in (0.01, 0.2, 0.5):
        rate = log_infidelity_rate(two_level_state(1, delta))
        assert rate.value == pytest.approx(-16.0 * (1.0 - delta) ** 2)
    rate = log_infidelity_rate(two_level_state(1, 0.01), gamma=2.5)
    assert rate.value == pytest.approx(-2.5 * 16.0 * 0.99**2)


def test_rate_is_shift_covariant():
    # relabeling the register relabels the argmax but not the rate
    rng = np.random.default_rng(14)
    probs = rng.dirichlet(np.ones(8))
    state = DiagonalState(3, probs)
    base = log_infidelity_rate(state).value
    for _ in range(20):
        perm = sample_uniform_permutation(rng, 8)
        hop = log_infidelity_rate(apply_permutation(state, perm)).value
        # not equal in general (different <Z> pattern), but both finite
        assert np.isfinite(hop)
    # moving the whole state by a bit flip on every qubit preserves zsum
    flipped = DiagonalState(3, probs[::-1].copy())
    assert log_infidelity_rate(flipped).value == pytest.approx(base)


def test_rate_rejects_collapsed_state():
    with pytest.raises(ValueError):
        log_infidelity_rate(DiagonalState.pure(2, 1))


def two_level_envelope(n, delta, gamma=1.0):
    """-8*gamma*n*D/(D-1) * (1-delta)^2: the fastest group average."""
    d = 2**n
    return -8.0 * gamma * n * d / (d - 1) * (1.0 - delta) ** 2


def flat_tail_envelope(n, delta, gamma=1.0):
    """-4*gamma*n*D^2/(D-1)^2 * (1-delta)^2: the slowest group average."""
    d = 2**n
    return -4.0 * gamma * n * d**2 / (d - 1) ** 2 * (1.0 - delta) ** 2


def test_permuted_rate_closed_forms():
    def rate(state):
        return permutation_averaged_rate(state).value

    # frozen: n=2 envelopes at delta -> 0 are -64/3 and -128/9
    assert rate(two_level_state(2, 1e-12)) == pytest.approx(-64.0 / 3.0)
    assert rate(flat_tail_state(2, 1e-12)) == pytest.approx(-128.0 / 9.0)
    assert rate(two_level_state(3, 1e-12)) == pytest.approx(-192.0 / 7.0)
    assert rate(flat_tail_state(3, 1e-12)) == pytest.approx(-12.0 * 64.0 / 49.0)
    # exact quadratic delta dependence
    assert rate(two_level_state(2, 0.3)) == pytest.approx(-64.0 / 3.0 * 0.49)
    for n in (1, 2, 3, 4, 5, 8):
        for delta in (1e-3, 0.2, 0.45):
            assert rate(two_level_state(n, delta)) == pytest.approx(
                two_level_envelope(n, delta), rel=1e-12
            )
            assert rate(flat_tail_state(n, delta)) == pytest.approx(
                flat_tail_envelope(n, delta), rel=1e-12
            )


def test_enumeration_matches_envelope_closed_forms():
    """Brute-force group averages reproduce the envelope formulas at any
    infidelity, not just in the small-delta limit."""
    for n in (1, 2, 3):
        for delta in (1e-3, 0.2, 0.45):
            two = enumerated_permutation_average_rate(two_level_state(n, delta))
            assert two.value == pytest.approx(
                two_level_envelope(n, delta), rel=1e-12
            )
            flat = enumerated_permutation_average_rate(flat_tail_state(n, delta))
            assert flat.value == pytest.approx(
                flat_tail_envelope(n, delta), rel=1e-12
            )


def test_closed_form_matches_enumeration():
    """The closed form equals the D!-row enumeration on random states,
    and on the all-tied state, where the maximal index is a tie-break."""
    rng = np.random.default_rng(2024)
    for n in (1, 2, 3):
        states = [DiagonalState.maximally_mixed(n)]
        states += [DiagonalState(n, rng.dirichlet(np.full(2**n, 0.5)))
                   for _ in range(20)]
        for state in states:
            exact = enumerated_permutation_average_rate(state, gamma=1.7).value
            assert permutation_averaged_rate(state, gamma=1.7).value == (
                pytest.approx(exact, rel=1e-12)
            )


def test_enumeration_average_sits_inside_envelopes():
    rng = np.random.default_rng(77)
    for n in (2, 3, 4, 5):
        for _ in range(25):
            probs = rng.dirichlet(np.full(2**n, 0.7))
            state = DiagonalState(n, probs)
            if state.infidelity() <= 0.0:
                continue
            avg = permutation_averaged_rate(state).value
            delta = state.infidelity()
            assert two_level_envelope(n, delta) <= avg + 1e-12
            assert avg <= flat_tail_envelope(n, delta) + 1e-12


def test_permutation_averaged_rate_validation():
    with pytest.raises(ValueError):
        permutation_averaged_rate(DiagonalState.pure(2, 0))
    # no register-size cap: n = 4 has 16! permutations
    fast = permutation_averaged_rate(two_level_state(4, 0.1)).value
    assert fast == pytest.approx(-8.0 * 4 * 16 / 15 * 0.81, rel=1e-12)
    slow = permutation_averaged_rate(flat_tail_state(4, 0.1)).value
    assert fast < slow < 0.0


def test_gamma_scales_every_rate():
    state = flat_tail_state(2, 0.2)
    assert log_infidelity_rate(state, gamma=3.0).value == pytest.approx(
        3.0 * log_infidelity_rate(state).value
    )
    assert permutation_averaged_rate(state, gamma=3.0).value == pytest.approx(
        3.0 * permutation_averaged_rate(state).value
    )


def test_linear_trajectory_state_single_qubit():
    # lambda proportional to exp(2*sqrt(2*gamma)*R*z)
    R = np.array([0.25])
    state = linear_trajectory_state(R, 1)
    c = 2.0 * math.sqrt(2.0)
    expected = np.array([math.exp(c * 0.25), math.exp(-c * 0.25)])
    expected /= expected.sum()
    assert np.allclose(state.probs, expected, atol=1e-15)
    with pytest.raises(ValueError):
        linear_trajectory_state(np.zeros(3), 2)


def test_linear_trajectory_state_matches_exact_integrator():
    """From the maximally mixed start with no control, the exact
    integrator's final state is a function of the accumulated record
    alone.  Strong cross-check between the two implementations."""
    params = SimulationParams(n=2, max_time=0.3, stop_epsilon=0.0)
    for seed in (1, 2, 3):
        res = simulate_trajectory(params, no_control(), [], seed)
        replay = linear_trajectory_state(res.records, 2)
        assert np.allclose(replay.probs, res.final_state.probs, atol=1e-10)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("t", [0.02, 0.3, 2.0])
def test_nofb_mean_log_infidelity_matches_a_dense_integral(n, t):
    """Against a 2001-point rectangle rule over each X_r ~ N(m, 2m),
    m = 16*gamma*t, of ln(1 - prod_r sigma(|X_r|))."""
    gamma = 1.5
    m = 16.0 * gamma * t
    sd = math.sqrt(2.0 * m)
    x = np.linspace(m - 12.0 * sd, m + 12.0 * sd, 2001)
    p = np.exp(-0.5 * ((x - m) / sd) ** 2) * (x[1] - x[0]) / math.sqrt(4 * math.pi * m)
    log_sigma = -np.log1p(np.exp(-np.abs(x)))
    total = log_sigma if n == 1 else np.add.outer(log_sigma, log_sigma)
    weight = p if n == 1 else np.outer(p, p)
    expected = float(np.sum(weight * np.log(-np.expm1(total))))
    assert nofb_mean_log_infidelity(t, n, gamma) == pytest.approx(expected, rel=1e-5)


def test_nofb_mean_log_infidelity_limits():
    assert nofb_mean_log_infidelity(0.0, 3) == pytest.approx(math.log(7 / 8))
    # one qubit, late: E ln(1 - sigma(|X|)) -> -E|X| = -16 gamma t
    assert nofb_mean_log_infidelity(4.0, 1, 0.5) == pytest.approx(-32.0, rel=1e-4)
    # before the start it is the start value
    assert nofb_mean_log_infidelity(-1.0, 2) == pytest.approx(math.log(3 / 4))


@pytest.mark.parametrize(
    "t,n,message",
    [
        (1.0, 4, "supports n = 1, 2 or 3, not 4"),
        (1.0, 1.5, "supports n = 1, 2 or 3, not 1.5"),
        (math.nan, 2, "t must be finite, not nan"),
        (math.inf, 2, "t must be finite, not inf"),
        (-math.inf, 2, "t must be finite, not -inf"),
    ],
    ids=["n4", "n1.5", "nan", "inf", "-inf"],
)
def test_nofb_mean_log_infidelity_rejects_bad_inputs(t, n, message):
    with pytest.raises(ValueError, match=message):
        nofb_mean_log_infidelity(t, n)
