"""Closed-form predictions and exact permutation-group results.

Covers the no-control collapse laws (the asymptotic rate, the exact
one-qubit mean passage time and the exact finite-time mean
log-infidelity), the instantaneous log-infidelity decay rate of an
arbitrary diagonal state, the analytic bounds on that rate and on the
protocol speed-ups, the exact average of the rate over the full
permutation group (a closed form at every n), the integer sum identities
that it rests on (checked by enumeration for D = 4 and 8).

Rates are d<ln Delta>/dt values and are negative for valid states.  The
two extremal tail shapes appear throughout: the two-level state puts the
whole tail on a single basis index, the flat-tail state spreads it evenly
over the other 2^n - 1 indices.  Under the group average these are the
fastest and slowest collapsing states at fixed infidelity, so they
bracket every other state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre

from .policies import POLICY_KINDS
from .registers import DiagonalState, _positive, _register_dim, _whole, z_table

__all__ = [
    "IdentityReport", "RateEstimate", "SpeedupBounds", "flat_tail_state",
    "log_infidelity_rate", "nofb_mean_first_passage",
    "nofb_mean_log_infidelity", "permutation_averaged_rate",
    "permutation_sum_identities", "speedup_bounds_for_policy",
    "two_level_state",
]

# With no control, <ln Delta> falls at NOFB_RATE * gamma asymptotically.
NOFB_RATE = 16.0


def nofb_mean_log_infidelity(t: float, n: int, gamma: float = 1.0) -> float:
    """Exact E[ln Delta(t)] with no control from the maximally mixed
    state, n <= 3: Delta = 1 - prod_r sigma(|X_r|), sigma the logistic
    function, X_r iid N(16*gamma*t, 32*gamma*t).  Tensor Gauss-Legendre
    quadrature, 128 nodes per qubit, over the folded normal density of
    |X_r| on [max(0, mean - 8 sd), mean + 8 sd], where the integrand is
    smooth (Gauss-Hermite in X_r meets the kink of |X_r| at 0)."""
    if not (_whole(n) and 1 <= n <= 3):
        raise ValueError(f"the quadrature supports n = 1, 2 or 3, not {n!r}")
    _positive("gamma", gamma)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, not {t!r}")
    if t <= 0.0:
        return math.log(1.0 - 0.5**n)
    mu = NOFB_RATE * gamma * t
    sd = math.sqrt(2.0 * mu)
    lo, hi = max(0.0, mu - 8.0 * sd), mu + 8.0 * sd
    x, w = legendre.leggauss(128)
    y = lo + 0.5 * (hi - lo) * (x + 1.0)
    folded = np.exp(-0.5 * ((y - mu) / sd) ** 2) + np.exp(-0.5 * ((y + mu) / sd) ** 2)
    w *= 0.5 * (hi - lo) * folded / (sd * math.sqrt(2.0 * math.pi))
    log_sigma = -np.log1p(np.exp(-y))
    total, weight = log_sigma, w
    for _ in range(n - 1):
        total = np.add.outer(total, log_sigma)
        weight = np.multiply.outer(weight, w)
    # ln(1 - exp(total)) without cancellation
    return float(np.sum(weight * np.log(-np.expm1(total))))


def nofb_mean_first_passage(epsilon: float, gamma: float = 1.0) -> float:
    """Exact mean time for one uncontrolled qubit, started maximally
    mixed, to reach infidelity epsilon:
    (1 - 2*epsilon) * ln((1 - epsilon)/epsilon) / (16*gamma).

    Its log-odds X moves as 16*gamma*t + sqrt(32*gamma)*B towards the true
    outcome, and Delta <= epsilon once |X| >= a = ln((1 - epsilon)/epsilon);
    the mean exit time from (-a, a) is a*tanh(a/2)/(16*gamma).  It tends
    to ln(1/epsilon)/(16*gamma) as epsilon -> 0, and is 0 from
    epsilon = 1/2 on, where the start already qualifies."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    _positive("gamma", gamma)
    if epsilon >= 0.5:
        return 0.0
    a = math.log((1.0 - epsilon) / epsilon)
    return (1.0 - 2.0 * epsilon) * a / (NOFB_RATE * gamma)


@dataclass(frozen=True)
class RateEstimate:
    """A d<ln Delta>/dt value, with a standard error when it came from
    sampling rather than a closed form.  Negative for valid states;
    Monte Carlo noise can push a near-zero estimate slightly positive.
    """

    value: float
    stderr: float | None = None


@dataclass(frozen=True)
class SpeedupBounds:
    """Analytic lower/upper bounds on a protocol speed-up factor."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not 0.0 < self.lower <= self.upper:
            raise ValueError("bounds must satisfy 0 < lower <= upper")

    def contains(self, value: float, slack: float = 0.0) -> bool:
        return self.lower - slack <= value <= self.upper + slack


def _rate_infidelity(state: DiagonalState) -> float:
    """The state's infidelity Delta, which the rates divide by."""
    delta = state.infidelity()
    if delta <= 0.0:
        raise ValueError("rate is singular for a collapsed state (Delta = 0)")
    return delta


def _rate(zsum: float, delta: float, gamma: float) -> RateEstimate:
    """-4*gamma * zsum * (1-Delta)^2 / Delta^2, zsum = sum_r <Z~^r>^2."""
    _positive("gamma", gamma)
    return RateEstimate(-4.0 * gamma * zsum * (1.0 - delta) ** 2 / delta**2)


def log_infidelity_rate(state: DiagonalState, gamma: float = 1.0) -> RateEstimate:
    """Instantaneous mean decay rate of ln(Delta) for a diagonal state.

        rate = -4*gamma * (1-Delta)^2 / Delta^2 * sum_r <Z~^r>^2

    where Z~^r is Z^r shifted so the eigenvalue at the state's maximal
    index is zero (for a maximum at index 0 this is the usual {0, -2}
    convention).  The shift makes the formula valid wherever the maximum
    sits.
    """
    delta = _rate_infidelity(state)
    z = z_table(state.n)
    zs = z - z[:, [state.argmax_index()]]
    expect = zs @ state.probs
    return _rate(float(expect @ expect), delta, gamma)


def speedup_bounds_for_policy(kind: str, n: int) -> SpeedupBounds:
    """Analytic band to overlay on a measured speed-up of this policy kind.

    Each edge is zsum / (4*Delta^2) as Delta -> 0, the ratio of the rate
    to the no-control one.  For H-ordering, 4*Delta^2 times the band
    sandwiches zsum = sum_r <Z~^r>^2 of every H-ordered state of
    infidelity Delta: the flat-tail state attains the lower edge,
    D^2/(D-1)^2 * n/4, and the two-level state (tail at the all-ones
    index) the upper, n.  For the open-loop kinds (random permutations, and
    a fixed cycle, which can at best track them) they are those of
    permutation_averaged_rate's closed form: the flat-tail state gives the
    same lower edge, and the two-level state the upper, n*D/(2*(D-1)),
    which approaches 0.5*n from above as n grows (large-n band 0.25*n to
    0.5*n).  No control is the band [1, 1].
    """
    if kind not in POLICY_KINDS:
        raise ValueError(f"unknown policy kind {kind!r}")
    d = _register_dim(n)
    if kind == "none":
        return SpeedupBounds(1.0, 1.0)
    lower = d**2 / (d - 1) ** 2 * n / 4.0
    if kind == "h_ordering":
        return SpeedupBounds(lower=lower, upper=float(n))
    # one rounding of exact integers; d / 2 alone overflows a float at n > 1024
    return SpeedupBounds(lower=lower, upper=n * d / (2 * (d - 1)))


@lru_cache(maxsize=None)
def _all_permutation_images(d: int) -> np.ndarray:
    """All d! permutation image arrays, one per row, lexicographic order."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if d > 8:
        raise ValueError("enumeration cap exceeded (d! grows too fast above 8)")
    # each permutation of range(m) is its first entry f followed by a
    # permutation of range(m - 1) with the entries >= f raised by one;
    # filled in place, so building the 2.6 MB table of d = 8 peaks near
    # 3.3 MB of traced memory (7.7 MB when joined from copies)
    images = np.zeros((1, 0), dtype=np.intp)
    for m in range(1, d + 1):
        table = np.empty((m, len(images), m), dtype=np.intp)
        table[:, :, 0] = np.arange(m)[:, None]
        rest = table[:, :, 1:]
        rest[:] = images
        rest += rest >= table[:, :, :1]
        images = table.reshape(-1, m)
    images.setflags(write=False)
    return images


@dataclass(frozen=True)
class IdentityReport:
    """Brute-force verification of the permutation sum identities.

    For a single-qubit shifted observable (diagonal entries in {0, -2})
    conjugated by every permutation s of the D basis indices (qubit 1's;
    by symmetry the sums are the same for every qubit):

        sum_s (Z_s)_{ii}^2        = 2 * D!          for every i
        sum_s (Z_s)_{ii} (Z_s)_{jj} = [1 - 1/(D-1)] * D!  for every i != j

    square_sum and cross_sum are the representative entries (i=0, j=1);
    passed reports the check over every index pair, in exact integer
    arithmetic.
    """

    dimension: int
    permutation_count: int
    square_sum: int
    cross_sum: int
    expected_square_sum: int
    expected_cross_sum: int
    passed: bool


def permutation_sum_identities(d: int) -> IdentityReport:
    """Enumerate all d! permutations and verify the two sum identities."""
    if d not in (4, 8):
        raise ValueError(f"identity enumeration supports d = 4 or 8, not {d}")
    zrow = (z_table(d.bit_length() - 1)[0] - 1.0).astype(np.int64)  # {0, -2}
    values = zrow[_all_permutation_images(d)]
    cross = values.T @ values  # exact: |entries| <= 4 * d!
    fact = math.factorial(d)
    expected_square = 2 * fact
    expected_cross = (fact // (d - 1)) * (d - 2)  # (d-1) divides d!
    diag = np.diagonal(cross).copy()
    off = cross[~np.eye(d, dtype=bool)]
    passed = bool(np.all(diag == expected_square) and np.all(off == expected_cross))
    return IdentityReport(
        dimension=d,
        permutation_count=fact,
        square_sum=int(cross[0, 0]),
        cross_sum=int(cross[0, 1]),
        expected_square_sum=expected_square,
        expected_cross_sum=expected_cross,
        passed=passed,
    )


def two_level_state(n: int, delta: float) -> DiagonalState:
    """State with 1-delta at index 0 and the whole tail on the all-ones
    index, the H-ordered placement."""
    d = _register_dim(n)
    if not 0.0 < delta <= 0.5:
        raise ValueError("delta must lie in (0, 0.5] so the maximum stays at 0")
    probs = np.zeros(d)
    probs[0] = 1.0 - delta
    probs[-1] = delta
    return DiagonalState(n, probs)


def flat_tail_state(n: int, delta: float) -> DiagonalState:
    """State with 1-delta at index 0 and the tail spread evenly."""
    d = _register_dim(n)
    if not 0.0 < delta <= (d - 1) / d:
        raise ValueError("delta too large for the maximum to stay at 0")
    probs = np.full(d, delta / (d - 1))
    probs[0] = 1.0 - delta
    return DiagonalState(n, probs)


def permutation_averaged_rate(
    state: DiagonalState, gamma: float = 1.0
) -> RateEstimate:
    """Mean of log_infidelity_rate over every permutation of the state,
    in closed form at any n (no standard error):

        E[sum_r <Z~^r>^2] = n*D/(D-1) * (Delta^2 + S),  D = 2^n,

    S the sum of lambda_i^2 over i != i*, the maximal index.  Each z row
    holds D/2 entries of each sign, so for a uniform permutation pi and
    distinct i, j != i*: E[(z_pi(i) - z_pi(i*))^2] = 2D/(D-1) and
    E[(z_pi(i) - z_pi(i*))(z_pi(j) - z_pi(i*))] = D/(D-1).  Cauchy-Schwarz,
    Delta^2/(D-1) <= S <= Delta^2, brackets the rate between the flat-tail
    state, -4*gamma*n*D^2/(D-1)^2 * (1-Delta)^2, and the two-level state,
    -8*gamma*n*D/(D-1) * (1-Delta)^2.
    """
    delta = _rate_infidelity(state)
    d = 2**state.n
    rest = np.sort(state.probs)[:-1]  # every entry but one maximal one
    zsum = state.n * d / (d - 1) * (delta**2 + float(rest @ rest))
    return _rate(zsum, delta, gamma)
