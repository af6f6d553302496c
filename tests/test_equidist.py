"""Atomic parameter-space measures, moments, grid densities and the
equidistribution report."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynbif import arith, families
from dynbif.equidist import (
    MAX_PATHS,
    QUAD_WINDOW,
    AtomicMeasure,
    GridDensity,
    binned_distance,
    center_measure,
    equidist_report,
    moment,
    pern_circle_measure,
)
from dynbif.errors import EmptyMeasureError, PreconditionError
from dynbif.families import DEGEN_CATALOG, PCA3, QUAD, QUADRAT


# ---------------------------------------------------------------------------
# atomic measures and center measures
# ---------------------------------------------------------------------------


def test_atomic_measure_invariants():
    m = AtomicMeasure(np.array([[0.0 + 0.0j], [1.0 + 0.0j]]),
                      np.array([0.25, 0.25]))
    assert m.total_mass == pytest.approx(0.5)
    for params, weights in [([[0.0 + 0.0j]], [-0.1]),
                            ([[complex(np.nan, 0.0)]], [0.1]),
                            ([[0.0 + 0.0j]], [0.0]),
                            ([[0.0 + 0.0j]], [np.inf])]:
        with pytest.raises(PreconditionError):
            AtomicMeasure(np.array(params), np.array(weights))


def test_empty_measure_keeps_its_shape_and_has_no_moments(monkeypatch):
    empty = families.CenterSet(np.empty((0, 2), dtype=complex),
                               np.empty((0, 2), dtype=int), np.empty(0),
                               np.empty(0, dtype=int))
    monkeypatch.setattr(families, "centers", lambda *args: empty)
    m = center_measure(PCA3, arith.PeriodTuple((1, 2)))
    assert m.params.shape == (0, 2) and m.weights.shape == (0,)
    assert m.total_mass == 0.0
    with pytest.raises(EmptyMeasureError):
        moment(m, 1)


def test_binned_distance_needs_mass_inside_the_window():
    inside = AtomicMeasure(np.array([[-1.0 + 0.0j]]), np.array([1.0]))
    outside = AtomicMeasure(np.array([[99.0 + 0.0j]]), np.array([1.0]))
    with pytest.raises(EmptyMeasureError):
        binned_distance(inside, outside)
    with pytest.raises(EmptyMeasureError):
        binned_distance(outside, inside)


def test_center_measure_period1():
    mu = center_measure(QUAD, arith.PeriodTuple((1,)))
    assert mu.params.shape == (1, 1)
    (param,), (weight,) = mu.params, mu.weights
    assert param[0] == 0.0 + 0.0j
    # one fixed critical cycle among d_1 = 3 fixed points: weight 1/3
    assert weight == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_center_measure_period3():
    mu = center_measure(QUAD, arith.PeriodTuple((3,)))
    assert mu.params.shape == (3, 1)
    for w in mu.weights:
        assert w == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert mu.total_mass == pytest.approx(0.5)
    # first moment: the three centers are the roots of c^3 + 2c^2 + c + 1,
    # whose mean is -2/3
    assert moment(mu, 1) == pytest.approx(-2.0 / 3.0, abs=1e-10)


def test_center_measure_integer_structure():
    # each quadratic atom has weight 1/d_n, so mass * d_n is the center count
    for n in (2, 3, 4, 5):
        mu = center_measure(QUAD, arith.PeriodTuple((n,)))
        d_n = arith.exact_cycle_point_count(2, n)
        assert mu.total_mass * d_n == pytest.approx(len(mu.weights),
                                                    abs=1e-9)


def test_center_measure_reads_the_certified_quad_centers():
    # the atoms are the cached centers in their order; the period cap holds
    mu = center_measure(QUAD, arith.PeriodTuple((6,)))
    want = families.centers_1d(QUAD, 6).params[:, 0]
    assert np.array_equal(mu.params[:, 0], want)
    too_high = families.QUAD_CENTER_CAP + 1
    with pytest.raises(PreconditionError):
        center_measure(QUAD, arith.PeriodTuple((too_high,)))


@pytest.mark.parametrize("spec", [QUADRAT, *DEGEN_CATALOG.values()],
                         ids=lambda spec: spec.family_id)
def test_center_measure_needs_a_family_with_centers(spec):
    periods = (2,) * spec.parameter_dim
    with pytest.raises(PreconditionError):
        center_measure(spec, arith.PeriodTuple(periods))


def test_center_measure_pca3_counts_multiplicity():
    mu = center_measure(PCA3, arith.PeriodTuple((1, 2)))
    # both markings contribute: 6 multiplicity-3 solutions with the period-1
    # cycle marked at the unicritical point, 18 simple ones the other way
    assert mu.params.shape == (24, 2)
    base = 1.0 / 48.0  # stab / (2! * d_1 * d_2)
    counts = {1: 0, 3: 0}
    for w in mu.weights:
        mult = round(w / base)
        counts[mult] += 1
        assert w == pytest.approx(mult * base, abs=1e-15)
    assert counts == {1: 18, 3: 6}
    assert mu.total_mass == pytest.approx(0.75, abs=1e-12)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def test_moment_order_zero_is_one():
    mu = center_measure(QUAD, arith.PeriodTuple((4,)))
    assert moment(mu, 0) == pytest.approx(1.0, abs=1e-15)


@given(st.integers(1, 4), st.integers(2, 6))
@settings(deadline=None, max_examples=20)
def test_moment_matches_direct_sum(k, n):
    mu = center_measure(QUAD, arith.PeriodTuple((n,)))
    want = sum(float(w) * complex(p[0]) ** k
               for p, w in zip(mu.params, mu.weights))
    want /= sum(float(w) for w in mu.weights)
    assert moment(mu, k) == pytest.approx(want, abs=1e-13)


def test_first_moment_is_the_exact_center_mean():
    # f_c^n(0) = c^(2^(n-1)) + 2^(n-2) c^(2^(n-1)-1) + ... has the centers
    # of every period m | n as its simple roots, so their sums S(m) satisfy
    # sum_{m | n} S(m) = -2^(n-2) (n >= 2) and S(1) = 0; Moebius inversion
    # gives S(n), and the mean divides it by the exact-period center count
    def root_sum(m):
        return 0 if m == 1 else -2 ** (m - 2)

    for n in range(2, 15):
        divs = arith.divisors(n)
        s_n = sum(arith.moebius(n // m) * root_sum(m) for m in divs)
        count = sum(arith.moebius(n // m) * 2 ** (m - 1) for m in divs)
        mu = center_measure(QUAD, arith.PeriodTuple((n,)))
        assert len(mu.weights) == count
        exact = float(Fraction(s_n, count))
        assert abs(moment(mu, 1) - exact) <= 1e-15, n


# ---------------------------------------------------------------------------
# grid densities
# ---------------------------------------------------------------------------


def test_grid_density_binning():
    mu = AtomicMeasure(np.array([[-2.0 + 1.0j], [0.5 - 1.0j],
                                 [99.0 + 0.0j]]),  # the last lies outside
                       np.array([1.0, 2.0, 7.0]))
    g = GridDensity.from_measure(mu, QUAD_WINDOW, (8, 8))
    assert g.mass == pytest.approx(3.0)
    # row 0 is the top of the window: the atom at im = +1 lands high
    iy, ix = np.unravel_index(np.argmax(g.bins == 1.0), g.bins.shape)
    assert iy < 4


def test_binned_distance_metric_properties():
    rng = np.random.default_rng(3)

    def random_measure(seed):
        r = np.random.default_rng(seed)
        pts = (-1.0 + r.standard_normal(10) * 0.4
               + 1j * r.standard_normal(10) * 0.4)
        return AtomicMeasure(pts[:, None], r.random(10) + 0.1)

    a, b, c = (random_measure(s) for s in (1, 2, 3))
    dab = binned_distance(a, b, QUAD_WINDOW, (16, 16))
    dba = binned_distance(b, a, QUAD_WINDOW, (16, 16))
    assert dab == pytest.approx(dba, abs=1e-14)
    assert 0.0 <= dab <= 1.0 + 1e-12
    assert binned_distance(a, a, QUAD_WINDOW, (16, 16)) == pytest.approx(
        0.0, abs=1e-14)
    dac = binned_distance(a, c, QUAD_WINDOW, (16, 16))
    dcb = binned_distance(c, b, QUAD_WINDOW, (16, 16))
    assert dab <= dac + dcb + 1e-12


# ---------------------------------------------------------------------------
# multiplier level-curve measures
# ---------------------------------------------------------------------------


def test_circle_measure_rho_zero_is_center_measure():
    cm = pern_circle_measure(QUAD, 3, 0.0, 1)
    mu = center_measure(QUAD, arith.PeriodTuple((3,)))
    assert (cm.path_loss_deficit, cm.recheck_deficit) == (0, 0)
    got = sorted((p.real, p.imag) for p in cm.measure.params[:, 0])
    want = sorted((p.real, p.imag) for p in mu.params[:, 0])
    for g, w in zip(got, want):
        assert g == pytest.approx(w, abs=1e-9)


def test_circle_measure_masses():
    cm = pern_circle_measure(QUAD, 2, 0.5, 8)
    assert cm.measure.total_mass == pytest.approx(
        1.0 / arith.exact_cycle_point_count(2, 2), abs=1e-12)
    assert cm.measure.params.shape == (8, 1)
    # every atom sits on the curve |multiplier| = 0.5: recheck one directly
    from dynbif.families import quad_cycle_multiplier
    for p in cm.measure.params[:, 0]:
        assert abs(quad_cycle_multiplier(complex(p), 2)) == pytest.approx(
            0.5, abs=1e-8)


def test_circle_measure_keeps_ill_conditioned_atoms():
    # near c = -1.996 the multiplier moves by ~1e6 per unit of c, so rounding
    # c to a double alone can put lambda(c) 2e-10 from its target; every
    # center x angle atom must survive the re-check all the same
    n, rho, thetas = 6, 0.5, 32
    cm = pern_circle_measure(QUAD, n, rho, thetas)
    assert (cm.path_loss_deficit, cm.recheck_deficit) == (0, 0)
    assert cm.measure.params.shape == (27 * thetas, 1)
    # independent multipliers from the critical orbit, against the grid
    # target of each atom (center-major, angle-minor)
    for i, p in enumerate(cm.measure.params[:, 0]):
        c, z = complex(p), 0.0 + 0.0j
        for _ in range(400 * n):
            z = z * z + c
        lam = 1.0 + 0.0j
        for _ in range(n):
            lam *= 2.0 * z
            z = z * z + c
        target = rho * np.exp(2j * np.pi * (i % thetas) / thetas)
        assert abs(lam - target) <= 1e-8


@pytest.mark.parametrize("rho", [0.949, 0.95])
def test_circle_measure_period_one_near_max_modulus(rho):
    # a fixed point with |lambda| near 0.95 attracts the critical orbit at
    # rate |lambda| per step: the multiplier re-check must run long enough
    # for its 1e-10 bound at n = 1 too
    cm = pern_circle_measure(QUAD, 1, rho, 16)
    assert (cm.path_loss_deficit, cm.recheck_deficit) == (0, 0)
    assert cm.measure.params.shape == (16, 1)


def test_circle_measure_thetas_validation():
    with pytest.raises(PreconditionError):
        pern_circle_measure(QUAD, 2, 0.5, 4)
    # the 3 period-3 centers times thetas angles pass the path cap: refused
    # before any path array is built
    for thetas in (MAX_PATHS // 3 + 1, 10**15):
        with pytest.raises(PreconditionError, match="path cap"):
            pern_circle_measure(QUAD, 3, 0.5, thetas)


# ---------------------------------------------------------------------------
# the convergence report
# ---------------------------------------------------------------------------


def test_equidist_report_small():
    rep = equidist_report(QUAD, range(3, 6), 2, 8)
    assert [row.n for row in rep.rows] == [3, 4, 5]
    assert rep.reference_n == 8
    for row in rep.rows:
        assert len(row.moment_errors) == 2
        assert row.grid_distance >= 0.0
    # grid distances to the reference shrink over this range
    ds = [row.grid_distance for row in rep.rows]
    assert ds[-1] < ds[0]


def test_equidist_reference_must_exceed_range():
    with pytest.raises(PreconditionError):
        equidist_report(QUAD, range(3, 6), 2, 5)
