"""The measurement step of the conditional register state under
independent continuous z measurements of every qubit.

The measurement is QND: the register holds one true basis index i*,
drawn from the initial populations, and each qubit r produces a
measurement record increment

    dR[r] = 2*sqrt(2*gamma) * z_{label(i*)}^r dt + dW[r],

with independent Wiener increments dW[r] ~ Normal(0, dt) and label(i*)
the slot that the control has moved i* to (Jacobs & Steck,
arXiv:quant-ph/0611067; Wiseman & Milburn, Quantum Measurement and
Control, ch. 4).  Because the state stays diagonal, the conditional
update only reweights populations.  It is the multiplicative update

    lam_i *= exp(2*sqrt(2*gamma) * sum_r z_i^r * dR[r]),

then normalization, which is the exact Bayes posterior given the record
at any dt, because |z_i|^2 = n for every i.  It is unconditionally
positive and remains valid for arbitrarily collapsed states.
update_columns takes that step and infidelity_columns (registers', the
one definition) the infidelity Delta = 1 - max_i lam_i for many
trajectories at once, held one per column of a (2^n, trajectories)
array.  The ensemble runner steps through them on this record, and the
Monte Carlo rate estimator takes one step of them on it from a permuted
start.  Without control the per-qubit log-odds L[r] = 2*sqrt(2*gamma)*R[r]
of a uniform start are a drifted Brownian motion, 8*gamma*z_{i*}^r*t +
2*sqrt(2*gamma)*W[r](t), which the runner sums directly;
infidelity_log_odds reads Delta from them.

SimulationParams holds the physical and numerical parameters of a run,
epsilon_targets checks a grid of infidelity targets, and
trajectory_noise_rng and trajectory_control_rng are the per-index noise
and control streams under a master seed.  A range of indices gets its
streams in one bulk pass that runs numpy's SeedSequence arithmetic on a
column of indices; each is still bitwise
default_rng(SeedSequence(seed, spawn_key=(index, tag)))'s stream.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import permutations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .registers import _positive, _register_dim, _whole, z_table

__all__ = [
    "IntegrationError", "SimulationParams", "trajectory_control_rng",
    "trajectory_noise_rng",
]

DEFAULT_DT_GAMMA = 6.25e-4     # default step size in units of 1/gamma
DEFAULT_STOP_EPSILON = 1e-6
DT_GAMMA_WARN = 0.01
# Smallest positive double; keeps ln(Delta) finite when a trajectory
# collapses beyond floating-point resolution.
LOG_FLOOR = 5e-324


class IntegrationError(RuntimeError):
    """Raised when a run meets a non-finite infidelity or an overflowed
    no-control log-odds; the exact step itself is valid at any dt."""


def record_strength(gamma: float) -> float:
    """Coupling 2*sqrt(2*gamma) of z^r into the record dR[r]."""
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
        _register_dim(self.n)
        _positive("gamma", self.gamma)
        if self.dt is None:
            object.__setattr__(self, "dt", DEFAULT_DT_GAMMA / self.gamma)
        _positive("dt", self.dt)
        if self.dt * self.gamma > DT_GAMMA_WARN:
            warnings.warn(
                f"dt*gamma = {self.dt * self.gamma:.3g} is above {DT_GAMMA_WARN:g}: "
                "the control acts, and passages and the stop are checked, "
                "only once per step",
                stacklevel=3,  # past the generated __init__, to the caller
            )
        _positive("max_time", self.max_time)
        if not 0.0 <= self.stop_epsilon < 1.0:  # NaN fails too
            raise ValueError("stop_epsilon must lie in [0, 1)")

    @property
    def total_steps(self) -> int:
        return int(round(self.max_time / self.dt))

    @property
    def stop_ln(self) -> float:
        """ln(stop_epsilon), or -inf for stop_epsilon = 0 (never freeze).
        run_ensemble freezes a trajectory once
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


def update_columns(lam: np.ndarray, dR: np.ndarray, gamma: float) -> np.ndarray:
    """The multiplicative update for every column of a (2^n, trajectories)
    population array, given the columns' (n, trajectories) record
    increments dR.  Returns the normalized posterior columns as a new
    array."""
    c = record_strength(gamma)
    new = z_table(dR.shape[0]).T @ dR
    new *= c
    new -= new.max(axis=0)  # the largest weight becomes 1; no overflow
    np.exp(new, out=new)
    new *= lam
    new /= new.sum(axis=0)
    return new


def true_outcomes(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The true indices i* ~ probs of uniforms u in [0, 1): the inverse
    CDF on cumsum(probs), never an index of zero probability (should the
    rounded sum fall short of u)."""
    i = np.searchsorted(np.cumsum(probs), u, side="right")
    return np.minimum(i, np.flatnonzero(probs)[-1])


def infidelity_log_odds(L: np.ndarray) -> np.ndarray:
    """The infidelity of each product state held as a log-odds column,
    Delta = 1 - prod_r 1/(1 + u_r) with u_r = exp(-2|L[r]|), summed
    without cancellation: q <- q + u_r*(1 + q), Delta = q/(1 + q)."""
    u = np.exp(-2.0 * np.abs(L))
    q = u[0].copy()
    for r in range(1, L.shape[0]):
        q += u[r] * (1.0 + q)
    return q / (1.0 + q)


# numpy's SeedSequence constants: the hash constants of its entropy
# mixing (A) and of generate_state (B)
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED


def _hashmix(value, const: int, mult: int):
    """SeedSequence's hashmix of value (an int, or a uint32 array) under
    the hash constant const: the hash, and the constant it leaves."""
    new = const * mult & _M32
    value = (value ^ const) * new & _M32
    return value ^ value >> 16, new


def _mix(x, y):
    """SeedSequence's mix of two words (ints, or uint32 arrays)."""
    x = ((0xCA01F9DD * x & _M32) - (0x4973F715 * y & _M32)) & _M32
    return x ^ x >> 16


class _SeedWords(ISeedSequence):
    """One stream's PCG64 seed, computed beforehand: what its
    SeedSequence's generate_state(4, np.uint64) returns."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError("only holds a PCG64 seed, 4 uint64 words")
        return self.words


def _keyed_streams(master_seed: int, index: int | range, tag: int):
    """The stream of default_rng(SeedSequence(master_seed, spawn_key=(i,
    tag))) for index i, or a list of them for a range of indices, built in
    bulk and bitwise equal.  numpy's SeedSequence is fixed uint32
    arithmetic: it hashes the seed's first 4 words, zero-padded, into its
    4-word pool and mixes them, which is done once here; then it mixes in
    any further seed words and the key words, and generate_state hashes
    the pool, which is done on one uint32 column over the indices.  A
    negative seed or index raises ValueError, as SeedSequence does, and so
    do a bool or fractional one and an index above 2**32 - 1 (more than
    one word), which the column does not hold."""
    if not _whole(master_seed) or master_seed < 0:
        raise ValueError(f"the seed must be a non-negative integer, not {master_seed!r}")
    if not (isinstance(index, range) or _whole(index)):
        raise ValueError(f"a trajectory index must be an integer, not {index!r}")
    keys = index if isinstance(index, range) else range(index, index + 1)
    if keys and not (0 <= keys[0] <= _M32 and 0 <= keys[-1] <= _M32):
        raise ValueError(f"trajectory indices must lie in [0, 2**32), not {index!r}")
    seed = int(master_seed)
    words = [seed >> s & _M32 for s in range(0, max(128, seed.bit_length()), 32)]
    const, pool = _INIT_A, [0] * 4
    for dst in range(4):
        pool[dst], const = _hashmix(words[dst], const, _MULT_A)
    for src, dst in permutations(range(4), 2):  # SeedSequence's order
        h, const = _hashmix(pool[src], const, _MULT_A)
        pool[dst] = _mix(pool[dst], h)
    # keys[0] + j*step, exact modulo 2**32 since every key fits one word
    column = np.arange(len(keys), dtype=np.uint32) * (keys.step % 2**32) + keys.start % 2**32
    for word in words[4:] + [column, tag]:
        for dst in range(4):
            h, const = _hashmix(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], h)
    const, state = _INIT_B, [0] * 8
    for i in range(8):
        state[i], const = _hashmix(pool[i % 4], const, _MULT_B)
    # little-endian word pairs; PCG64 reads a row's memory, so rows are contiguous
    state = np.array(state, dtype=np.uint64)
    rows = np.ascontiguousarray((state[0::2] | state[1::2] << 32).T)
    gens = [np.random.Generator(np.random.PCG64(_SeedWords(r))) for r in rows]
    return gens if isinstance(index, range) else gens[0]


def trajectory_noise_rng(master_seed: int, index: int | range = 0):
    """Measurement-noise stream of trajectory `index` under a master seed,
    or the list of them for a range of indices: built in bulk
    (_keyed_streams), and bitwise default_rng(SeedSequence(master_seed,
    spawn_key=(index, 0)))'s stream.  Its first uniform draws the
    trajectory's true outcome (true_outcomes), and its standard normals
    then give the Wiener increments."""
    return _keyed_streams(master_seed, index, 0)


def trajectory_control_rng(master_seed: int, index: int | range = 0):
    """Control stream (random-permutation draws) of trajectory `index`, or
    the list of them for a range of indices: built in bulk, and bitwise
    default_rng(SeedSequence(master_seed, spawn_key=(index, 1)))'s stream.
    Each step's permutation image is the argsort of 2^n uniforms from it.

    Kept separate from the noise stream so open-loop permutation
    sequences are identical whatever the measurement record does.
    """
    return _keyed_streams(master_seed, index, 1)
