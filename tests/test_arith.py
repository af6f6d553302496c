"""Number-theoretic kernel: brute-force oracles, frozen count tables and
divisor-sum identities."""

import math

import pytest
from hypothesis import given, strategies as st

from dynbif import arith
from dynbif.errors import PreconditionError


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------


def _moebius_brute(n: int) -> int:
    # count squarefree prime factorizations directly
    count = 0
    m = n
    for p in range(2, n + 1):
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            count += 1
    return (-1) ** count


def _phi_brute(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


@pytest.mark.parametrize("n", range(1, 200))
def test_moebius_against_brute_force(n):
    assert arith.moebius(n) == _moebius_brute(n)


@pytest.mark.parametrize("n", range(1, 200))
def test_phi_against_brute_force(n):
    assert arith.euler_phi(n) == _phi_brute(n)


@given(st.integers(1, 5000))
def test_divisors_and_sigma(n):
    divs = arith.divisors(n)
    assert divs == sorted(d for d in range(1, n + 1) if n % d == 0)
    assert arith.sigma(0, n) == len(divs)
    assert arith.sigma(1, n) == sum(divs)
    assert arith.sigma(2, n) == sum(d * d for d in divs)


@given(st.integers(2, 5000))
def test_factorize_reconstructs(n):
    fac = arith.factorize(n)
    prod = 1
    for p, e in fac.items():
        assert all(p % q for q in range(2, p) if q * q <= p)
        prod *= p**e
    assert prod == n


# ---------------------------------------------------------------------------
# cycle-point counts
# ---------------------------------------------------------------------------

# Exact-period point counts d_n for degree 2 (number of period-n points of a
# generic quadratic map on the sphere).
D2_SPHERE = [3, 2, 6, 12, 30, 54, 126, 240, 504, 990, 2046, 4020]


def test_frozen_degree2_count_table():
    got = [arith.exact_cycle_point_count(2, n) for n in range(1, 13)]
    assert got == D2_SPHERE


def test_affine_count_misses_one_fixed_point():
    assert arith.affine_cycle_point_count(2, 1) == 2
    for n in range(2, 13):
        assert (arith.affine_cycle_point_count(2, n)
                == arith.exact_cycle_point_count(2, n))


@given(st.integers(2, 6), st.integers(1, 20))
def test_count_divisor_sum_inversion(d, n):
    # summing the exact-period counts over divisors must recover the raw
    # periodic-point counts d**n + 1 (sphere) and d**n (affine)
    total_sphere = sum(arith.exact_cycle_point_count(d, m)
                       for m in arith.divisors(n))
    total_affine = sum(arith.affine_cycle_point_count(d, m)
                       for m in arith.divisors(n))
    assert total_sphere == d**n + 1
    assert total_affine == d**n


@given(st.integers(2, 6), st.integers(2, 20))
def test_counts_divisible_by_period(d, n):
    # exact-period points organize into n-cycles
    assert arith.exact_cycle_point_count(d, n) % n == 0


def test_count_caps():
    with pytest.raises(PreconditionError):
        arith.exact_cycle_point_count(9, 3)
    with pytest.raises(PreconditionError):
        arith.exact_cycle_point_count(2, 41)
    with pytest.raises(PreconditionError):
        arith.exact_cycle_point_count(1, 3)


# ---------------------------------------------------------------------------
# period tuples and stabilizers
# ---------------------------------------------------------------------------


def test_period_tuple_validation():
    assert arith.PeriodTuple((1, 2, 2)).periods == (1, 2, 2)
    with pytest.raises(PreconditionError):
        arith.PeriodTuple(())
    with pytest.raises(PreconditionError):
        arith.PeriodTuple((0,))


@pytest.mark.parametrize("entries,expected", [
    ((3,), 1),
    ((1, 2), 1),
    ((2, 2), 2),
    ((2, 2, 2), 6),
    ((1, 1, 2, 2, 2), 12),
])
def test_stab_count(entries, expected):
    assert arith.stab_count(arith.PeriodTuple(entries)) == expected


# ---------------------------------------------------------------------------
# mass series
# ---------------------------------------------------------------------------


def test_mass_series_one_term():
    # 1/3 - (1/8) * phi(1)/(2-1)^2 = 1/3 - 1/8 = 5/24
    res = arith.m2_mass_series(1)
    assert res.value == pytest.approx(5.0 / 24.0, abs=1e-16)


def test_mass_series_frozen_value():
    # frozen from an independent exact-rational partial sum
    res = arith.m2_mass_series(60)
    assert res.value == pytest.approx(0.18759011896690844, abs=1e-15)


def test_mass_series_tail_bound_and_stability():
    r60 = arith.m2_mass_series(60)
    r200 = arith.m2_mass_series(200)
    assert abs(r60.value - r200.value) < 1e-15
    assert abs(r60.value - r200.value) <= r60.tail_bound
    assert r60.tail_bound < 1e-33


def test_mass_series_tail_bound_dominates_truncation():
    # the documented bound must dominate the actual truncation error
    ref = arith.m2_mass_series(300).value
    for terms in range(1, 40):
        res = arith.m2_mass_series(terms)
        assert abs(res.value - ref) <= res.tail_bound + 1e-16


def test_mass_series_monotone_decreasing():
    vals = [arith.m2_mass_series(t).value for t in range(1, 30)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))
