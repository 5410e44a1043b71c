"""Control protocols, Hamming ordering, retrodiction."""

import numpy as np
import pytest

from regreadout import (
    ControlPolicy,
    DiagonalState,
    Permutation,
    SimulationParams,
    fixed_cycle_policy,
    h_order_targets,
    h_ordering_policy,
    leading_rotation,
    no_control,
    random_permutation_policy,
    z_table,
)
from regreadout.theory import _all_permutation_images
from oracle import (
    apply_permutation,
    compose,
    h_order,
    policy_step,
    retrodict,
    simulate_trajectory,
)


def test_policy_constructors():
    assert no_control().kind == "none"
    assert h_ordering_policy().kind == "h_ordering"
    assert random_permutation_policy().kind == "random_permutation"
    fc = fixed_cycle_policy([leading_rotation(4)])
    assert fc.kind == "fixed_cycle"
    assert len(fc.cycle) == 1


def test_policy_validation():
    with pytest.raises(ValueError):
        ControlPolicy("greedy")
    with pytest.raises(ValueError):
        ControlPolicy("fixed_cycle")
    with pytest.raises(ValueError):
        ControlPolicy("none", (leading_rotation(4),))
    with pytest.raises(ValueError):
        fixed_cycle_policy([leading_rotation(4), Permutation(np.arange(8))])


def test_h_order_targets_frozen():
    assert np.array_equal(h_order_targets(1), [0, 1])
    assert np.array_equal(h_order_targets(2), [0, 3, 1, 2])
    assert np.array_equal(h_order_targets(3), [0, 7, 3, 5, 6, 1, 2, 4])


def test_h_order_targets_distance_profile():
    # after the leader at 0, targets climb in Hamming distance from the
    # all-ones vertex, so runner-up population crowds as far from the
    # leader as possible
    for n in (2, 3, 4):
        targets = h_order_targets(n)
        all_ones = (1 << n) - 1
        dists = [(int(v) ^ all_ones).bit_count() for v in targets[1:]]
        assert dists == sorted(dists)
        assert sorted(targets.tolist()) == list(range(1 << n))


def test_h_order_moves_populations_to_targets():
    probs = np.array([0.1, 0.2, 0.4, 0.05, 0.15, 0.03, 0.02, 0.05])
    state = DiagonalState(3, probs)
    ordered = apply_permutation(state, h_order(state))
    ranked = np.sort(probs)[::-1]
    assert np.allclose(ordered.probs[h_order_targets(3)], ranked)
    assert ordered.argmax_index() == 0
    # runner-up sits at the all-ones vertex
    assert ordered.probs[7] == pytest.approx(0.2)


def test_h_order_of_ordered_state_is_identity():
    probs = np.zeros(8)
    probs[h_order_targets(3)[:5]] = np.array([0.4, 0.3, 0.12, 0.1, 0.08])
    state = DiagonalState(3, probs)
    assert np.array_equal(h_order(state).image, np.arange(8))


def test_h_order_tie_break_is_stable():
    state = DiagonalState(1, np.array([0.5, 0.5]))
    assert np.array_equal(h_order(state).image, [0, 1])


@pytest.mark.parametrize("n", [2, 3])
def test_h_ordering_is_the_locally_optimal_placement(n):
    """At n <= 3, H-ordering maximizes the instantaneous decay rate of
    <ln Delta>, which is proportional to sum_r <Z~^r>^2 (as in
    theory.log_infidelity_rate), over every placement that keeps the
    largest population in slot 0: 3! placements at n = 2, 7! at n = 3."""
    d = 2**n
    ztilde = z_table(n) - 1.0  # zero at slot 0, which holds the maximum
    placements = _all_permutation_images(d - 1)
    rng = np.random.default_rng(16)
    for probs in rng.dirichlet(np.ones(d), size=300):
        ranked = np.sort(probs)[::-1]
        ordered = np.empty(d)
        ordered[h_order_targets(n)] = ranked
        h_rate = np.sum((ztilde @ ordered) ** 2)
        rates = np.sum((ranked[1:][placements] @ ztilde[:, 1:].T) ** 2, axis=1)
        assert h_rate >= rates.max() * (1.0 - 1e-12)


def test_policy_step_none_and_cycle():
    state = DiagonalState.maximally_mixed(2)
    rng = np.random.default_rng(0)
    assert np.array_equal(
        policy_step(no_control(), state, 0, rng).image, np.arange(4)
    )
    rot = leading_rotation(4)
    fc = fixed_cycle_policy([rot, Permutation(np.arange(4))])
    assert np.array_equal(policy_step(fc, state, 0, rng).image, rot.image)
    assert np.array_equal(policy_step(fc, state, 1, rng).image, np.arange(4))
    assert np.array_equal(policy_step(fc, state, 2, rng).image, rot.image)
    with pytest.raises(ValueError):
        policy_step(fc, DiagonalState.maximally_mixed(3), 0, rng)


def test_policy_step_h_ordering_tracks_state():
    state = DiagonalState(2, np.array([0.1, 0.6, 0.1, 0.2]))
    rng = np.random.default_rng(0)
    perm = policy_step(h_ordering_policy(), state, 0, rng)
    assert np.array_equal(perm.image, h_order(state).image)
    out = apply_permutation(state, perm)
    assert out.argmax_index() == 0
    assert out.probs[3] == pytest.approx(0.2)


def test_policy_step_random_permutation_uses_control_stream():
    state = DiagonalState.maximally_mixed(2)
    a = policy_step(random_permutation_policy(), state, 0, np.random.default_rng(8))
    b = policy_step(random_permutation_policy(), state, 0, np.random.default_rng(8))
    assert np.array_equal(a.image, b.image)
    assert sorted(a.image.tolist()) == [0, 1, 2, 3]


def test_retrodict_inverts_control_frame():
    rng = np.random.default_rng(31)
    for _ in range(100):
        p = Permutation(rng.permutation(8))
        q = Permutation(rng.permutation(8))
        cumulative = compose(q, p)
        for start in range(8):
            final = int(cumulative.image[start])
            assert retrodict(final, cumulative) == start


@pytest.mark.parametrize(
    "policy",
    [
        no_control(),
        h_ordering_policy(),
        random_permutation_policy(),
        fixed_cycle_policy([leading_rotation(4)]),
    ],
    ids=["none", "h_ordering", "random_permutation", "fixed_cycle"],
)
def test_trajectory_retrodiction_recovers_prepared_index(policy):
    """A register prepared in a basis state stays there in the control
    frame, so undoing the frame names the prepared index exactly."""
    params = SimulationParams(n=2, max_time=0.03, stop_epsilon=0.0)
    for k in range(4):
        res = simulate_trajectory(
            params,
            policy,
            [],
            master_seed=50 + k,
            initial_state=DiagonalState.pure(2, k),
        )
        assert retrodict(res.final_index, res.cumulative_control) == k
