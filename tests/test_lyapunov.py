"""Lyapunov estimators: Green-function closed forms, periodic averages,
the backward Monte Carlo oracle and degeneration slopes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynbif import arith
from dynbif.dynamics import exact_cycles
from dynbif.errors import IllConditionedError, PreconditionError
from dynbif.families import PCA3, QUADRAT, map_at, power_map_spectrum
from dynbif.lyapunov import (
    degeneration_slope,
    green_normalized,
    lyap_from_spectrum,
    lyap_oracle_backward,
    lyap_periodic,
    lyap_poly_closed_form,
    polynomial_green,
)

from conftest import power_lift, quad_lift, sphere_point

# closed-form Lyapunov exponent of z^2 + 1, frozen from an independent
# high-precision escape-rate integration
LYAP_C1 = 0.8968244419296854


def _quad_coeffs(c):
    return np.array([c, 0.0, 1.0], dtype=complex)


# ---------------------------------------------------------------------------
# Green functions
# ---------------------------------------------------------------------------


def test_polynomial_green_square():
    # for z^2 the escape potential is log|z| outside the unit disk
    for z in [2.0, 3.0 - 1.0j, 1.5j]:
        assert polynomial_green(_quad_coeffs(0.0), z) == pytest.approx(
            np.log(abs(z)), abs=1e-12)
    assert polynomial_green(_quad_coeffs(0.0), 0.5) == pytest.approx(
        0.0, abs=1e-12)


def test_green_vanishes_on_filled_julia():
    # c = -1: the critical orbit is bounded, so the potential vanishes at 0
    assert polynomial_green(_quad_coeffs(-1.0), 0.0) == pytest.approx(
        0.0, abs=1e-12)


def test_closed_form_connected_parameters():
    # any quadratic with bounded critical orbit has exponent exactly log 2
    for c in [0.0, -1.0, 0.25, -1.75, 0.1 + 0.1j]:
        assert lyap_poly_closed_form(_quad_coeffs(c)) == pytest.approx(
            np.log(2.0), abs=1e-10)


def test_closed_form_escaping_parameter():
    assert lyap_poly_closed_form(_quad_coeffs(1.0)) == pytest.approx(
        LYAP_C1, abs=1e-12)


def test_closed_form_formula():
    # L = log d + sum over critical points of the escape potential
    c = 2.0
    want = np.log(2.0) + polynomial_green(_quad_coeffs(c), 0.0)
    assert lyap_poly_closed_form(_quad_coeffs(c)) == pytest.approx(
        want, abs=1e-11)


@given(st.complex_numbers(min_magnitude=0, max_magnitude=3,
                          allow_nan=False, allow_infinity=False))
def test_closed_form_at_least_log_degree(c):
    assert lyap_poly_closed_form(_quad_coeffs(c)) >= np.log(2.0) - 1e-12


def test_normalized_green_scaling_invariance():
    F = quad_lift(0.4 + 0.2j)
    z = sphere_point(2.5 - 1.0j)
    base = green_normalized(F, z)
    for alpha in [2.0, 0.125, 3.0j]:
        assert green_normalized(F.scaled(alpha), z) == pytest.approx(
            base, abs=1e-8)


# ---------------------------------------------------------------------------
# periodic averages
# ---------------------------------------------------------------------------


def test_square_period1_average():
    # spectrum {0, 0, 2} over d_1 = 3 points: L_1 = (1/3) log 2
    est = lyap_periodic(power_lift(2), 1, r=1.0)
    assert est.value == pytest.approx(np.log(2.0) / 3.0, abs=1e-12)
    assert est.cycle_count == 3
    assert est.floored_cycles == 2


def test_square_higher_periods_exact():
    for n in (2, 3, 4):
        est = lyap_periodic(power_lift(2), n, r=1.0)
        assert est.value == pytest.approx(np.log(2.0), abs=1e-10)


def test_spectrum_census_enforced():
    with pytest.raises(PreconditionError):
        lyap_from_spectrum([(4.0 + 0.0j, 2)], degree=2, period=2)


def _loop_average(spectrum, degree, period, r):
    """The periodic average as one pass over the (multiplier, count) rows:
    Python's abs and one += per row.  Returns (value, cycle_count,
    floored_cycles)."""
    total = 0.0
    floored = cycles = 0
    for mult, count in spectrum:
        m = abs(mult)
        if m < r:
            m = r
            floored += count
        total += count * np.log(m)
        cycles += count
    return float(total / arith.exact_cycle_point_count(degree, period)), \
        cycles, floored


def _assert_loop_bits(est, spectrum, degree, period, r):
    value, cycles, floored = _loop_average(spectrum, degree, period, r)
    assert est.value.hex() == value.hex()
    assert (est.cycle_count, est.floored_cycles) == (cycles, floored)


@pytest.mark.parametrize("d", [2, 3])
def test_spectrum_sum_equals_the_loop_on_power_maps(d):
    for n in range(1, 13):
        spec = power_map_spectrum(d, n)
        for r in (1.0, 0.3):
            est = lyap_from_spectrum(spec, d, n, r)
            _assert_loop_bits(est, spec, d, n, r)


@pytest.mark.parametrize("F, periods", [
    (quad_lift(1.0), (8, 10)),
    (quad_lift(0.0), (8, 10)),
    (quad_lift(0.3 + 0.2j), (8, 10)),
    (map_at(QUADRAT, [0.5, 0.3]), (6,)),
    (map_at(PCA3, [0.5, 0.2]), (4,)),
], ids=["quad-1", "quad-0", "quad-inside", "quadrat", "pca3"])
def test_periodic_average_equals_the_loop(F, periods):
    for n in periods:
        cs = exact_cycles(F, n)
        spec = [(complex(m), 1) for m in np.repeat(cs.multiplier, cs.copies)]
        for r in (1.0, 0.3):
            _assert_loop_bits(lyap_periodic(F, n, r), spec, F.degree, n, r)


@pytest.mark.parametrize("count", [0, -1, 1.5])
def test_spectrum_counts_must_be_positive_integers(count):
    with pytest.raises(PreconditionError, match="positive ints"):
        lyap_from_spectrum([(4.0 + 0.0j, 1), (2.0, count)], degree=2,
                           period=2)


def test_radius_validation():
    with pytest.raises(PreconditionError):
        lyap_periodic(power_lift(2), 1, r=0.0)
    with pytest.raises(PreconditionError):
        lyap_periodic(power_lift(2), 1, r=1.5)


@given(st.floats(0.05, 1.0), st.floats(0.05, 1.0))
@settings(deadline=None, max_examples=20)
def test_estimator_monotone_in_radius(r1, r2):
    # the floor log max(|m|, r) is nondecreasing in r pointwise
    F = quad_lift(-1.0)
    lo, hi = sorted((r1, r2))
    assert (lyap_periodic(F, 2, r=lo).value
            <= lyap_periodic(F, 2, r=hi).value + 1e-12)


def test_basilica_periodic_near_log2():
    F = quad_lift(-1.0)
    ref = np.log(2.0)
    errs = [abs(lyap_periodic(F, n, r=1.0).value - ref) for n in (4, 6, 8)]
    assert errs[2] <= errs[0] + 1e-12
    assert max(errs) < 1e-10


# ---------------------------------------------------------------------------
# Monte Carlo oracle
# ---------------------------------------------------------------------------


def test_backward_oracle_square():
    est = lyap_oracle_backward(power_lift(2), samples=300, depth=40, seed=1)
    assert est.value == pytest.approx(np.log(2.0), abs=5 * est.stderr + 0.02)


def test_backward_oracle_matches_closed_form():
    F = quad_lift(1.0)
    est = lyap_oracle_backward(F, samples=400, depth=50, seed=2)
    assert abs(est.value - LYAP_C1) < 0.05


# ---------------------------------------------------------------------------
# degeneration slopes
# ---------------------------------------------------------------------------


def test_slope_linear_exact():
    fit = degeneration_slope(
        lambda t: 3.0 * np.log(1.0 / abs(t)) + 0.7,
        np.logspace(-6, -3, 8))
    assert fit.slope == pytest.approx(3.0, abs=1e-10)
    assert fit.intercept == pytest.approx(0.7, abs=1e-8)
    assert fit.residual < 1e-10


def test_slope_rejects_noise():
    rng = np.random.default_rng(0)
    ts = np.logspace(-6, -3, 10)

    def noisy(t):
        return float(rng.standard_normal())

    with pytest.raises(IllConditionedError):
        degeneration_slope(noisy, ts)


def test_slope_needs_samples():
    with pytest.raises(PreconditionError):
        degeneration_slope(lambda t: 0.0, [1e-4, 1e-5])


def test_slope_oracle_families():
    # c = 1/t: escape closed form gives exponent ~ (1/2) log(1/|t|)
    def lyap_inv_t(t):
        return lyap_poly_closed_form(_quad_coeffs(1.0 / t))

    fit = degeneration_slope(lyap_inv_t, np.logspace(-6, -3, 10))
    assert 0.48 <= fit.slope <= 0.52

    # c = t stays inside the connectedness locus: slope 0
    def lyap_t(t):
        return lyap_poly_closed_form(_quad_coeffs(t))

    fit0 = degeneration_slope(lyap_t, np.logspace(-6, -3, 10))
    assert abs(fit0.slope) <= 0.02
