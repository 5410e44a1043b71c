"""Basis-index bookkeeping, z tables, states, and permutations."""

import numpy as np
import pytest

from regreadout import (
    POLICY_KINDS,
    DiagonalState,
    Permutation,
    SimulationParams,
    flat_tail_state,
    h_order_targets,
    leading_rotation,
    log_infidelity_rate,
    mc_permuted_step_rate,
    nofb_mean_first_passage,
    nofb_mean_log_infidelity,
    permutation_averaged_rate,
    speedup_bounds_for_policy,
    two_level_state,
    z_table,
)
from oracle import (
    apply_permutation,
    compose,
    invert,
    sample_uniform_permutation,
)


def test_z_table_matches_scalar():
    for n in (1, 2, 3):
        table = z_table(n)
        assert table.shape == (n, 1 << n)
        for r in range(1, n + 1):
            # qubit r sits at bit n - r: qubit 1 is the most significant
            bits = (np.arange(1 << n) >> (n - r)) & 1
            assert np.array_equal(table[r - 1], 1.0 - 2.0 * bits)
    assert np.array_equal(z_table(2), [[1, 1, -1, -1], [1, -1, 1, -1]])


def test_z_table_read_only():
    table = z_table(2)
    with pytest.raises(ValueError):
        table[0, 0] = 5.0


def test_state_validation():
    with pytest.raises(ValueError):
        DiagonalState(1, np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        DiagonalState(1, np.array([1.2, -0.2]))
    with pytest.raises(ValueError):
        DiagonalState(2, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        DiagonalState(1, np.array([np.nan, 1.0]))


REGISTER_ENTRY_POINTS = {
    "DiagonalState": lambda n: DiagonalState(n, [1.0]),
    "maximally_mixed": DiagonalState.maximally_mixed,
    "pure": lambda n: DiagonalState.pure(n, 0),
    "two_level_state": lambda n: two_level_state(n, 1e-3),
    "flat_tail_state": lambda n: flat_tail_state(n, 1e-3),
    "SimulationParams": lambda n: SimulationParams(n=n),
    "z_table": z_table,
    "h_order_targets": h_order_targets,
    **{
        f"bounds_{kind}": lambda n, kind=kind: speedup_bounds_for_policy(kind, n)
        for kind in POLICY_KINDS
    },
}


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("entry", REGISTER_ENTRY_POINTS)
def test_every_entry_point_rejects_a_register_below_one_qubit(entry, n):
    message = f"^register needs at least one qubit, not n={n}$"
    with pytest.raises(ValueError, match=message):
        REGISTER_ENTRY_POINTS[entry](n)


@pytest.mark.parametrize("n", [1.5, 2.0, True, np.True_], ids=["1.5", "2.0", "True", "np.True_"])
@pytest.mark.parametrize("entry", REGISTER_ENTRY_POINTS)
def test_every_entry_point_rejects_a_register_size_that_is_not_an_integer(entry, n):
    """A float fails as a shift count, and a bool would pass as 1 qubit."""
    with pytest.raises(ValueError, match=f"^register size must be an integer, not n={n!r}$"):
        REGISTER_ENTRY_POINTS[entry](n)


def test_every_entry_point_takes_a_numpy_integer_register_size():
    n = np.int64(2)
    DiagonalState(n, [0.25] * 4)
    for entry, call in REGISTER_ENTRY_POINTS.items():
        if entry != "DiagonalState":  # its one probability fits no n
            call(n)


@pytest.mark.parametrize("table", [z_table, h_order_targets])
def test_a_cached_table_does_not_answer_a_bool_or_float_register_size(table):
    """True == 1 and 2.0 == 2 with equal hashes, so a cache keyed on
    value alone would return the n = 1 and n = 2 tables."""
    table(1)
    table(2)
    for n in (True, 2.0):
        with pytest.raises(ValueError, match="^register size must be an integer"):
            table(n)


STATE = two_level_state(2, 1e-3)
POSITIVE_ENTRY_POINTS = {
    "SimulationParams-gamma": ("gamma", lambda v: SimulationParams(n=1, gamma=v)),
    "SimulationParams-dt": ("dt", lambda v: SimulationParams(n=1, dt=v)),
    "SimulationParams-max_time": (
        "max_time", lambda v: SimulationParams(n=1, max_time=v)),
    "mc_permuted_step_rate-gamma": (
        "gamma", lambda v: mc_permuted_step_rate(STATE, v, 1e-3, 1000, 0)),
    "mc_permuted_step_rate-dt": (
        "dt", lambda v: mc_permuted_step_rate(STATE, 1.0, v, 1000, 0)),
    "log_infidelity_rate": ("gamma", lambda v: log_infidelity_rate(STATE, v)),
    "permutation_averaged_rate": (
        "gamma", lambda v: permutation_averaged_rate(STATE, v)),
    "nofb_mean_first_passage": (
        "gamma", lambda v: nofb_mean_first_passage(0.01, v)),
    "nofb_mean_log_infidelity": (
        "gamma", lambda v: nofb_mean_log_infidelity(0.5, 2, v)),
}


@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("entry", POSITIVE_ENTRY_POINTS)
def test_every_entry_point_rejects_a_rate_or_step_that_is_not_positive(entry, value):
    name, call = POSITIVE_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite$"):
        call(value)


def test_state_value_semantics():
    probs = np.array([0.25, 0.75])
    state = DiagonalState(1, probs)
    probs[0] = 0.9
    assert state.probs[0] == 0.25
    with pytest.raises(ValueError):
        state.probs[0] = 0.1


def test_state_constructors_and_infidelity():
    mixed = DiagonalState.maximally_mixed(3)
    assert mixed.probs.size == 8
    assert mixed.infidelity() == pytest.approx(7.0 / 8.0)
    pure = DiagonalState.pure(2, 3)
    assert pure.argmax_index() == 3
    assert pure.infidelity() == 0.0
    with pytest.raises(ValueError):
        DiagonalState.pure(2, 4)


def test_infidelity_survives_tiny_tails():
    # a naive 1 - max would round the tail away entirely
    tail = 1e-40
    state = DiagonalState(1, np.array([1.0 - tail, tail]))
    assert state.infidelity() == pytest.approx(tail, rel=1e-12)


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation(np.array([0, 0, 1]))
    with pytest.raises(ValueError):
        Permutation(np.array([0, 3]))
    with pytest.raises(ValueError):
        Permutation(np.array([], dtype=np.int64))
    with pytest.raises(ValueError):
        Permutation(np.array([-1, 0]))


@pytest.mark.parametrize("index", [1.5, 2.0, True, "1", None])
def test_pure_rejects_an_index_that_is_not_an_integer(index):
    """A bool is not an index: as a mask it would select every slot."""
    with pytest.raises(ValueError, match="^basis index .+ out of range for n=2$"):
        DiagonalState.pure(2, index)


@pytest.mark.parametrize(
    "image",
    [[np.inf, 0.0], [1e30, 0.0], np.array([np.inf, 0.0]), np.array([1e30, 0.0]),
     [None, 0]],
    ids=["inf", "1e30", "inf-array", "1e30-array", "None"],
)
def test_permutation_rejects_a_slot_that_does_not_convert(image):
    with pytest.raises(ValueError, match="^image must be a nonempty 1-d integer array$"):
        Permutation(image)


@pytest.mark.parametrize(
    "image", [[True, False], np.array([True, False]), [0, True]],
    ids=["bools", "bool-array", "mixed"],
)
def test_permutation_rejects_a_bool_slot(image):
    """A bool is not a slot, as it is not a basis index for
    DiagonalState.pure, though it converts to 0 or 1."""
    with pytest.raises(ValueError, match="^image must be a nonempty 1-d integer array$"):
        Permutation(image)


def test_permutation_rejects_a_fractional_slot():
    with pytest.raises(ValueError, match="integer"):
        Permutation([0.5, 1.7])
    # an integral float is a slot
    assert np.array_equal(Permutation([1.0, 0.0]).image, [1, 0])


def test_permutation_identity_and_apply():
    state = DiagonalState(2, np.array([0.4, 0.3, 0.2, 0.1]))
    ident = Permutation(np.arange(4))
    assert np.array_equal(apply_permutation(state, ident).probs, state.probs)
    # population at i lands at image[i]
    p = Permutation(np.array([1, 2, 3, 0]))
    moved = apply_permutation(state, p)
    assert np.allclose(moved.probs, [0.1, 0.4, 0.3, 0.2])


def test_compose_means_q_then_p():
    state = DiagonalState(2, np.array([0.4, 0.3, 0.2, 0.1]))
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = sample_uniform_permutation(rng, 4)
        q = sample_uniform_permutation(rng, 4)
        via_steps = apply_permutation(apply_permutation(state, q), p)
        via_compose = apply_permutation(state, compose(p, q))
        assert np.array_equal(via_steps.probs, via_compose.probs)
    with pytest.raises(ValueError):
        compose(p, Permutation(np.arange(8)))


def test_invert_round_trip():
    rng = np.random.default_rng(7)
    for d in (2, 4, 8, 16):
        p = sample_uniform_permutation(rng, d)
        assert np.array_equal(compose(p, invert(p)).image, np.arange(d))
        assert np.array_equal(compose(invert(p), p).image, np.arange(d))


def test_sample_uniform_permutation_is_valid_and_seeded():
    a = sample_uniform_permutation(np.random.default_rng(42), 8)
    b = sample_uniform_permutation(np.random.default_rng(42), 8)
    assert np.array_equal(a.image, b.image)
    assert sorted(a.image.tolist()) == list(range(8))
    with pytest.raises(ValueError):
        sample_uniform_permutation(np.random.default_rng(0), 0)


def test_sample_uniform_permutation_coverage():
    # all 6 permutations of 3 slots appear with roughly equal frequency
    rng = np.random.default_rng(123)
    counts = {}
    draws = 3000
    for _ in range(draws):
        key = tuple(sample_uniform_permutation(rng, 3).image.tolist())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    for c in counts.values():
        assert abs(c - draws / 6) < 5 * np.sqrt(draws / 6)


def test_leading_rotation_two_qubits():
    # on 4 slots the rotation sends populations 0->2, 1->0, 2->1
    p = leading_rotation(4)
    assert np.array_equal(p.image, [2, 0, 1, 3])
    state = DiagonalState(2, np.array([0.4, 0.3, 0.2, 0.1]))
    out = apply_permutation(state, p)
    assert np.allclose(out.probs, [0.3, 0.2, 0.4, 0.1])
    # applying it k times is the identity
    cyc = Permutation(np.arange(4))
    for _ in range(3):
        cyc = compose(p, cyc)
    assert np.array_equal(cyc.image, np.arange(4))


def test_leading_rotation_validation():
    with pytest.raises(ValueError):
        leading_rotation(2)
    p = leading_rotation(8)
    assert np.array_equal(p.image[3:], np.arange(3, 8))
