"""Basis conventions, z eigenvalue tables, diagonal states, the one
definition of their infidelity (infidelity_columns) and permutations for
an n-qubit register measured in the logical basis.

A basis index i in [0, 2^n) encodes the bit string |q1 q2 ... qn> with
qubit 1 stored in the most significant bit, so qubit r sits at bit
position n - r.  Register states handled by this package stay diagonal
in the logical basis and are represented by their probability vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["DiagonalState", "Permutation", "leading_rotation", "z_table"]

# Basis states are plain integers in [0, 2**n).
BasisIndex = int

NORMALIZATION_TOL = 1e-10


def _register_dim(n: int) -> int:
    """2^n as an exact int, for a register of at least one qubit."""
    # a float fails in the shift, and a bool would pass as 0 or 1
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"register size must be an integer, not n={n!r}")
    if n < 1:
        raise ValueError(f"register needs at least one qubit, not n={n}")
    return 1 << n


def _positive(name: str, value: float) -> None:
    """Reject a rate, step or duration that is not positive and finite."""
    if not 0.0 < value < np.inf:  # NaN fails too
        raise ValueError(f"{name} must be positive and finite")


@lru_cache(maxsize=None, typed=True)  # typed: z_table(True) is not z_table(1)
def z_table(n: int) -> np.ndarray:
    """(n, 2^n) eigenvalue table; row r-1 belongs to qubit r. Read-only."""
    d = _register_dim(n)
    bits = (np.arange(d)[None, :] >> (n - 1 - np.arange(n)[:, None])) & 1
    table = 1.0 - 2.0 * bits
    table.setflags(write=False)
    return table


def infidelity_columns(lam: np.ndarray) -> np.ndarray:
    """Each column's infidelity Delta = 1 - max, the one definition of it:
    computed as the sum of the non-maximal entries rather than as 1 - max,
    so it stays accurate when the maximum is within rounding of 1 and the
    remainder is far below machine epsilon."""
    # argmax before the copy: the other order raised the peak RSS of a
    # 200k-column step (an earlier mc_permuted_step_rate chunk) by 9 MB
    amax = np.argmax(lam, axis=0)
    tail = lam.copy()
    tail[amax, np.arange(lam.shape[1])] = 0.0
    return tail.sum(axis=0)


@dataclass(frozen=True)
class DiagonalState:
    """Register state diagonal in the logical basis: 2^n probabilities."""

    n: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.array(self.probs, dtype=float)  # copy: value semantics
        object.__setattr__(self, "probs", probs)
        d = _register_dim(self.n)
        if probs.shape != (d,):
            raise ValueError(f"expected {d} probabilities, got shape {probs.shape}")
        if not np.all(np.isfinite(probs)):
            raise ValueError("probabilities must be finite")
        if np.any(probs < 0.0):
            raise ValueError("probabilities must be nonnegative")
        if abs(float(probs.sum()) - 1.0) > NORMALIZATION_TOL:
            raise ValueError("probabilities must sum to 1 within 1e-10")
        probs.setflags(write=False)

    @classmethod
    def maximally_mixed(cls, n: int) -> "DiagonalState":
        d = _register_dim(n)
        return cls(n, np.full(d, 1.0 / d))

    @classmethod
    def pure(cls, n: int, index: BasisIndex) -> "DiagonalState":
        d = _register_dim(n)
        # a bool would pass as 0 or 1 and a float would fail as an index
        whole = isinstance(index, (int, np.integer)) and not isinstance(index, bool)
        if not (whole and 0 <= index < d):
            raise ValueError(f"basis index {index} out of range for n={n}")
        probs = np.zeros(d)
        probs[index] = 1.0
        return cls(n, probs)

    def argmax_index(self) -> BasisIndex:
        return int(np.argmax(self.probs))

    def infidelity(self) -> float:
        """One minus the largest probability, by infidelity_columns."""
        return float(infidelity_columns(self.probs[:, None])[0])


@dataclass(frozen=True)
class Permutation:
    """Bijection on basis indices stored as an explicit image array.

    image[i] is the destination slot of the population currently at
    index i, so applying p to a state gives out.probs[p.image[i]] =
    state.probs[i].
    """

    image: np.ndarray

    def __post_init__(self) -> None:
        message = "image must be a nonempty 1-d integer array"
        try:
            # inf or 1e30 raises from a list; from an array it casts to a
            # wrong slot, which the check below rejects
            with np.errstate(invalid="ignore"):
                image = np.array(self.image, dtype=np.int64)
        except (OverflowError, TypeError, ValueError):
            raise ValueError(message) from None
        d = image.size
        # the int cast truncates a fractional slot and takes a bool for 0 or
        # 1 (not a basis index, as in DiagonalState.pure); neither must pass
        bools = any(isinstance(s, (bool, np.bool_))
                    for s in np.asarray(self.image, dtype=object).flat)
        if image.ndim != 1 or d == 0 or bools or not np.array_equal(image, self.image):
            raise ValueError(message)
        object.__setattr__(self, "image", image)
        counts = np.bincount(image, minlength=d) if image.min() >= 0 else None
        if counts is None or image.max() >= d or np.any(counts != 1):
            raise ValueError("image must be a bijection on [0, d)")
        image.setflags(write=False)

    @property
    def dimension(self) -> int:
        return int(self.image.size)


def leading_rotation(d: int) -> Permutation:
    """Cycle the populations of the first three basis slots, identity
    elsewhere.

    The population at slot j moves to slot j - 1 (mod 3) for j < 3, so for
    d=4 the image array is [2, 0, 1, 3]: a state diag(a, b, c, e) becomes
    diag(b, c, a, e).
    """
    if d < 3:
        raise ValueError("need d >= 3")
    image = np.arange(d)
    image[:3] = (image[:3] - 1) % 3
    return Permutation(image)
