"""Exact number-theoretic kernel.

Moebius/totient/divisor-power sums, the two exact-period point counts, tuple
stabilizer orders and the degree-2 moduli-space mass series.  Everything here
is a pure function of small integers; results are exact Python ints except for
the mass series, which is a compensated float sum with an explicit tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections import Counter

from .errors import PreconditionError

# Desk-scale caps: d_n is only ever needed for degrees and periods a desktop
# root finder can face.
MAX_DEGREE = 8
MAX_PERIOD = 40


@dataclass(frozen=True)
class PeriodTuple:
    """Ordered tuple of cycle periods (n_1, ..., n_p)."""

    periods: tuple[int, ...]

    def __post_init__(self):
        if len(self.periods) < 1:
            raise PreconditionError("period tuple must be nonempty")
        if any((not isinstance(n, int)) or n < 1 for n in self.periods):
            raise PreconditionError("periods must be positive integers")


def _check_positive(n: int, name: str = "n") -> None:
    if not isinstance(n, int) or n < 1:
        raise PreconditionError(f"{name} must be a positive integer, got {n!r}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; fine for the n <= 10**4 range
    this module serves."""
    _check_positive(n)
    out: dict[int, int] = {}
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    _check_positive(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def moebius(n: int) -> int:
    _check_positive(n)
    mu = 1
    for _, e in factorize(n).items():
        if e > 1:
            return 0
        mu = -mu
    return mu


def euler_phi(n: int) -> int:
    _check_positive(n)
    phi = n
    for p in factorize(n):
        phi -= phi // p
    return phi


def sigma(i: int, n: int) -> int:
    """Sum of i-th powers of the divisors of n, i in {0, 1, 2}."""
    if i not in (0, 1, 2):
        raise PreconditionError(f"sigma exponent must be 0, 1 or 2, got {i!r}")
    _check_positive(n)
    return sum(d**i for d in divisors(n))


def _check_degree_period(d: int, n: int) -> None:
    if not isinstance(d, int) or d < 2:
        raise PreconditionError(f"degree must be an integer >= 2, got {d!r}")
    if d > MAX_DEGREE:
        raise PreconditionError(f"degree cap is {MAX_DEGREE}, got {d}")
    _check_positive(n)
    if n > MAX_PERIOD:
        raise PreconditionError(f"period cap is {MAX_PERIOD}, got {n}")


def exact_cycle_point_count(d: int, n: int) -> int:
    """Generic number of exact-period-n points of a degree-d map on the
    sphere: the Moebius-alternating divisor sum over d**m + 1."""
    _check_degree_period(d, n)
    return sum(moebius(n // m) * (d**m + 1) for m in divisors(n))


def affine_cycle_point_count(d: int, n: int) -> int:
    """Affine counterpart (divisor sum over d**m); equals the sphere count for
    n >= 2 and misses the extra fixed point at n = 1."""
    _check_degree_period(d, n)
    return sum(moebius(n // m) * d**m for m in divisors(n))


def stab_count(t: PeriodTuple) -> int:
    """Number of index permutations fixing the ordered tuple: the product of
    factorials of the multiplicities of its distinct entries."""
    out = 1
    for m in Counter(t.periods).values():
        out *= math.factorial(m)
    return out


@dataclass(frozen=True)
class MassSeriesResult:
    value: float
    terms: int
    tail_bound: float


def m2_mass_series(terms: int) -> MassSeriesResult:
    """Partial sum of the total bifurcation mass of the degree-2 moduli space:
    1/3 - (1/8) * sum_{n>=1} phi(n) / (2**n - 1)**2.

    Kahan summation: the summands span many orders of magnitude.  The tail
    bound uses phi(n) <= n and (2**n - 1)**2 >= 4**(n-1).
    """
    _check_positive(terms, "terms")
    if terms > 511:  # (2**n - 1)**2 overflows a double from n = 512 on
        raise PreconditionError(f"terms must be at most 511, got {terms}")
    total = 0.0
    comp = 0.0
    for n in range(1, terms + 1):
        term = euler_phi(n) / float((2**n - 1) ** 2)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    n = terms
    # sum_{m > n} m * 4**(1-m) = 4**(1-n) * (n/3 + 4/9)
    tail = (1.0 / 8.0) * 4.0 ** (1 - n) * (n / 3.0 + 4.0 / 9.0)
    return MassSeriesResult(value=1.0 / 3.0 - total / 8.0, terms=terms, tail_bound=tail)
