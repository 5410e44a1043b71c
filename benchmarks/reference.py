"""Exact finite-time mean log-infidelity of the uncontrolled register.

With no control the posterior factorises into n independent qubits, so

    Delta(t) = 1 - prod_r sigma(|X_r|),   X_r iid N(16 gamma t, 32 gamma t),

with sigma the logistic function.  E[ln Delta(t)] is an n-dimensional
Gaussian integral, evaluated here by tensor Gauss-Hermite quadrature
(numpy.polynomial.hermite_e).  The collapse workload checks its measured
slope against the slope of this curve instead of the -16 gamma asymptote.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import hermite_e

DEFAULT_NODES = 64


def nofb_mean_log_infidelity(
    t: float, n: int, gamma: float = 1.0, nodes: int = DEFAULT_NODES
) -> float:
    """E[ln Delta(t)] for n uncontrolled qubits started maximally mixed."""
    if t <= 0.0:
        return math.log(1.0 - 0.5**n)
    x, w = hermite_e.hermegauss(nodes)
    w = w / math.sqrt(2.0 * math.pi)
    mu = 16.0 * gamma * t
    sd = math.sqrt(32.0 * gamma * t)
    # ln sigma(|X|), accurate when sigma is within rounding of 1
    log_sigma = -np.log1p(np.exp(-np.abs(mu + sd * x)))
    total = np.zeros(())
    weight = np.ones(())
    for _ in range(n):
        total = total[..., None] + log_sigma
        weight = weight[..., None] * w
    # ln(1 - exp(sum)) without cancellation
    return float(np.sum(weight * np.log(-np.expm1(total))))


def nofb_slope(times, n: int, gamma: float = 1.0, nodes: int = DEFAULT_NODES) -> float:
    """Least-squares slope of the exact mean curve over the given times,
    the same fit the measured curve gets."""
    t = np.asarray(times, dtype=float)
    if t.size < 3:
        raise ValueError("slope needs at least 3 times")
    y = np.array([nofb_mean_log_infidelity(ti, n, gamma, nodes) for ti in t])
    dt = t - t.mean()
    return float(dt @ (y - y.mean()) / (dt @ dt))
