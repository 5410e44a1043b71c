"""Control strategies for rapid register readout.

Three families of permutation control are supported on top of the trivial
no-control baseline: closed-loop Hamming ordering (sort the populations
onto the hypercube so measurement distinguishes the leading candidates as
fast as possible), open-loop uniformly random permutations resampled every
step, and user-supplied deterministic cycles.  A ControlPolicy names the
protocol; run_ensemble applies it.  The module reads no file (the
command line parses a --cycle-file), and holds the Hamming ordering's
vertex visit order (h_order_targets).  At n <= 3 Hamming ordering is the
locally optimal feedback: of all placements that keep the largest
population in slot 0, it maximizes sum_r <Z~^r>^2, to which the
instantaneous decay rate of <ln Delta> is proportional.  At n = 4, 5 it
is a heuristic, with a gap measured only from below, on 1,800 H-ordered
states per n (600 trajectories at each of T = 0.02, 0.1, 0.3; seeds
77-79): the best swap of two slots other than slot 0 raised the sum in
32% and 57.5% of them, by a median of 6.8e-5 and 1.7e-5 relative, at
most 1.2e-3 and 9.1e-4; steepest pairwise-swap ascent to a local optimum
took the n = 5 figures to 4.4e-5 and 9.8e-4, and left n = 4's alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .registers import Permutation, _register_dim

__all__ = [
    "POLICY_KINDS", "ControlPolicy", "fixed_cycle_policy",
    "h_order_targets", "h_ordering_policy", "no_control",
    "random_permutation_policy",
]

POLICY_KINDS = ("none", "h_ordering", "random_permutation", "fixed_cycle")


@dataclass(frozen=True)
class ControlPolicy:
    """Named control protocol, plus the cycle for kind 'fixed_cycle'."""

    kind: str
    cycle: tuple[Permutation, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.kind == "fixed_cycle":
            if not self.cycle:
                raise ValueError("fixed_cycle policy needs at least one permutation")
            dims = {p.dimension for p in self.cycle}
            if len(dims) != 1:
                raise ValueError("cycle permutations must share one dimension")
        elif self.cycle:
            raise ValueError(f"policy kind {self.kind!r} takes no cycle")


def no_control() -> ControlPolicy:
    return ControlPolicy("none")


def h_ordering_policy() -> ControlPolicy:
    return ControlPolicy("h_ordering")


def random_permutation_policy() -> ControlPolicy:
    return ControlPolicy("random_permutation")


def fixed_cycle_policy(cycle) -> ControlPolicy:
    return ControlPolicy("fixed_cycle", tuple(cycle))


@lru_cache(maxsize=None, typed=True)  # typed, as registers.z_table
def h_order_targets(n: int) -> np.ndarray:
    """Vertex visit order for Hamming ordering on n qubits.

    The largest population goes to |0...0>, the second largest to |1...1>,
    and the rest to vertices of increasing Hamming distance from |1...1>,
    ties broken by ascending index.  Read-only array of length 2^n.
    """
    d = _register_dim(n)
    rest = sorted(range(1, d), key=lambda v: (n - v.bit_count(), v))
    targets = np.array([0] + rest, dtype=np.int64)
    targets.setflags(write=False)
    return targets
