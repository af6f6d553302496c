"""Sphere dynamics: lifts, resultants, the period-n wedge evaluator, cycle
extraction and multiplier spectra."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dynbif import arith, dynamics
from dynbif.cpoly import RootSet, roots_blackbox
from dynbif.dynamics import (
    CLOUD_STARTS,
    RationalMapLift,
    _sylvester_matrix,
    backward_cloud,
    chordal_derivative,
    compose_forms,
    cycle_multiplier,
    exact_cycles,
    form_eval,
    homogeneous_resultant,
    period_wedge_evaluator,
    unit,
)
from dynbif.errors import (
    DegenerateMapError,
    OrbitMismatchError,
    ParabolicContaminationError,
    PreconditionError,
)

from dynbif.families import PCA3, QUADRAT, map_at

from conftest import (
    chordal,
    circle_seeds,
    cycle_columns,
    power_lift,
    quad_lift,
    random_quadratic_rational,
    sphere_point,
    spectrum_multiset,
)

small_complex = st.complex_numbers(
    min_magnitude=0, max_magnitude=5, allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# forms and resultants
# ---------------------------------------------------------------------------


def test_form_eval_homogeneous():
    coeffs = np.array([1.0, -2.0, 3.0])  # z1^2 - 2 z0 z1 + 3 z0^2
    assert form_eval(coeffs, 1.0, 2.0) == pytest.approx(4.0 - 4.0 + 3.0)
    lam = 0.7 - 0.2j
    a = form_eval(coeffs, lam * 1.3, lam * -0.4)
    b = lam**2 * form_eval(coeffs, 1.3, -0.4)
    assert a == pytest.approx(b, rel=1e-12)


def _chart_points(rng, size):
    """Pairs (z0, z1) in both charts, on the chart boundary |z0| = |z1|
    exactly (z1 = conj z0, i z0, -z0), and with z1 = 0 or z0 = 0."""
    a = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    b = 3.0 * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
    z0 = np.concatenate([a, b, a, a, a, a, [0.0, 1.0, 0.0, 2.5 - 1j]])
    z1 = np.concatenate([b, a, np.conj(a), 1j * a, -a, np.zeros(size),
                         [1.0, 0.0, -0.5j, 0.0]])
    assert np.any(np.abs(z0) == np.abs(z1))
    return z0, z1


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_stacked_form_eval_equals_rows(degree):
    rng = np.random.default_rng(degree)
    forms = (rng.standard_normal((4, degree + 1))
             + 1j * rng.standard_normal((4, degree + 1)))
    z0, z1 = _chart_points(rng, 16)
    got = form_eval(forms, z0, z1)
    assert got.shape == (4, len(z0))
    for row, form in zip(got, forms):
        assert np.array_equal(row, form_eval(form, z0, z1))  # bit for bit
    # a scalar point gives one value per form
    for i in range(len(z0)):
        col = form_eval(forms, z0[i], z1[i])
        assert col.shape == (4,)
        assert np.array_equal(col, got[:, i])
        assert form_eval(forms[0], z0[i], z1[i]) == got[0, i]


def _reference_form_eval(coeffs, z0, z1):
    """The form kernel as one gather over the stack: the chart's
    coefficients as a (m+1, forms, N) array, run against flat broadcast
    copies of the ratio and of bottom**m."""
    c = np.asarray(coeffs, dtype=np.complex128)
    m = c.shape[-1] - 1
    z0 = np.asarray(z0, dtype=np.complex128)
    z1 = np.asarray(z1, dtype=np.complex128)
    shape = c.shape[:-1] + z0.shape
    c = c.reshape(-1, m + 1).T[:, :, None]  # (m+1, forms, 1)
    z0, z1 = z0.reshape(-1), z1.reshape(-1)
    flat = (c.shape[1], z0.size)
    lo = np.abs(z0) <= np.abs(z1)
    top, bottom = np.where(lo, z0, z1), np.where(lo, z1, z0)
    coef = np.where(lo, c[::-1], c)
    t = np.broadcast_to(top / bottom, flat).reshape(-1)
    acc = coef[0].reshape(-1)
    for k in range(1, m + 1):
        acc = acc * t
        acc += coef[k].reshape(-1)
    acc = acc * np.broadcast_to(bottom ** m, flat).reshape(-1)
    out = acc.reshape(shape)
    return complex(out) if out.ndim == 0 else out


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
def test_form_eval_equals_the_gathered_kernel(degree):
    rng = np.random.default_rng(10 + degree)
    z0, z1 = _chart_points(rng, 40)
    for k in (1, 2, 4):
        forms = (rng.standard_normal((k, degree + 1))
                 + 1j * rng.standard_normal((k, degree + 1)))
        for c in (forms, forms[0]):
            got, want = form_eval(c, z0, z1), _reference_form_eval(c, z0, z1)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()  # bit for bit
            for i in (0, 41, 80, len(z0) - 4, len(z0) - 1):
                got = form_eval(c, z0[i], z1[i])
                want = _reference_form_eval(c, z0[i], z1[i])
                assert type(got) is type(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("F", [
    quad_lift(1.0), quad_lift(0.3 + 0.2j), map_at(PCA3, [0.5, 0.2]),
    map_at(QUADRAT, [0.5, 0.3]),
], ids=["quad", "quad-inside", "pca3", "quadrat"])
def test_period_wedge_evaluator_equals_two_kernel_calls_per_step(F):
    rng = np.random.default_rng(3)
    z = np.concatenate([
        rng.standard_normal(100) + 1j * rng.standard_normal(100),
        [0.0, 1.0, -1.0, 1e8 + 1e8j, 1e-9j]])
    lift = np.stack([F.num, F.den])
    jac = dynamics._jacobian_forms(F)
    for n in range(1, 13):
        v0, v1 = z.copy(), np.ones_like(z)
        u0, u1 = np.ones_like(z), np.zeros_like(z)
        for _ in range(n):
            w0, w1 = _reference_form_eval(lift, v0, v1)
            j00, j01, j10, j11 = _reference_form_eval(jac, v0, v1)
            t0 = j00 * u0 + j01 * u1
            t1 = j10 * u0 + j11 * u1
            s = np.maximum(np.abs(w0), np.abs(w1))
            s[s == 0] = 1.0
            v0, v1 = w0 / s, w1 / s
            u0, u1 = t0 / s, t1 / s
        p, dp = period_wedge_evaluator(F, n)(z)
        assert p.tobytes() == (v0 - v1 * z).tobytes(), n
        assert dp.tobytes() == (u0 - u1 * z - v1).tobytes(), n


@pytest.mark.parametrize("F, n", [
    (quad_lift(1.0), 6),
    (map_at(PCA3, [0.5, 0.2]), 3),
    (map_at(QUADRAT, [0.5, 0.3]), 4),
], ids=["quad", "pca3", "quadrat"])
def test_period_wedge_evaluator_is_pointwise(F, n):
    rng = np.random.default_rng(n)
    z = np.concatenate([
        rng.standard_normal(200) + 1j * rng.standard_normal(200),
        [0.0, 1.0, -1.0, 1e8 + 1e8j, 1e-9j]])
    p, dp = period_wedge_evaluator(F, n)(z)
    ev = period_wedge_evaluator(F, n)
    for keep in (rng.random(len(z)) < 0.3, np.arange(len(z)) % 7 == 3):
        ps, dps = ev(z[keep])
        assert np.array_equal(ps, p[keep])  # bit for bit
        assert np.array_equal(dps, dp[keep])
    for i in (0, 57, len(z) - 1):
        pi, dpi = ev(z[i:i + 1])
        assert pi[0] == p[i] and dpi[0] == dp[i]


def test_homogeneous_resultant_known_values():
    # lift of z^d: the forms (z0^d, z1^d) have the identity as Sylvester
    # matrix, so their resultant is exactly 1
    for d in range(1, 9):
        z0d, z1d = np.zeros(d + 1), np.zeros(d + 1)
        z0d[d] = z1d[0] = 1.0
        assert np.array_equal(_sylvester_matrix(z0d, z1d), np.eye(2 * d))
        assert homogeneous_resultant(z0d, z1d) == 1.0
    # scaling both forms by alpha multiplies it by alpha^(2d)
    assert homogeneous_resultant(
        np.array([0.0, 0.0, 2.0]), np.array([2.0, 0.0, 0.0])
    ) == pytest.approx(16.0)
    # scaling only one form by alpha multiplies it by alpha^d
    assert homogeneous_resultant(
        np.array([0.0, 0.0, 2.0]), np.array([1.0, 0.0, 0.0])
    ) == pytest.approx(4.0)


def test_degenerate_lift_rejected():
    with pytest.raises(DegenerateMapError):
        RationalMapLift(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 2.0]))


def test_compose_forms_is_iteration():
    F = quad_lift(-1.0)
    n2, d2 = compose_forms(F.num, F.den, F.num, F.den)
    for z in [0.3 + 0.1j, -1.2, 2.0j]:
        w0, w1 = F.apply(sphere_point(z))
        w = w0 / w1
        want = (w * w - 1.0)
        got = form_eval(n2, z, 1.0) / form_eval(d2, z, 1.0)
        assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# unit pairs and the chordal metric
# ---------------------------------------------------------------------------


def test_unit_rejects_pairs_that_do_not_project():
    p = unit([3.0 - 4.0j, 1.0])
    assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-15)
    assert p[0] / p[1] == pytest.approx(3.0 - 4.0j)
    assert unit([2.0j, 0.0]).tolist() == [1.0j, 0.0]  # infinity
    for bad in ([0.0, 0.0], [np.inf, 1.0], [np.nan, 1.0], [1.0, 2.0, 3.0]):
        with pytest.raises(PreconditionError):
            unit(bad)


@given(small_complex, small_complex, small_complex)
def test_chordal_metric_axioms(a, b, c):
    pa, pb, pc = (sphere_point(z) for z in (a, b, c))
    dab = chordal(pa, pb)
    assert 0.0 <= dab <= 1.0 + 1e-12
    assert dab == pytest.approx(chordal(pb, pa), abs=1e-12)
    assert dab <= chordal(pa, pc) + chordal(pc, pb) + 1e-9
    if a == b:
        assert dab < 1e-12


def test_chordal_distance_to_infinity():
    inf = sphere_point(np.inf)
    assert chordal(sphere_point(0.0), inf) == pytest.approx(1.0)
    # diameter-1 normalization: antipodal pairs are at distance 1
    assert chordal(sphere_point(1.0), sphere_point(-1.0)) == (
        pytest.approx(1.0))


# ---------------------------------------------------------------------------
# derivative bounds
# ---------------------------------------------------------------------------


def test_chordal_derivative_of_square():
    F = power_lift(2)
    # on the unit circle |f'| = 2|z| = 2 and the chordal correction is 1
    p = sphere_point(np.exp(0.4j))
    assert chordal_derivative(F, p) == pytest.approx(2.0, rel=1e-10)
    # at the superattracting fixed points the derivative vanishes
    assert chordal_derivative(F, sphere_point(0.0)) == (
        pytest.approx(0.0, abs=1e-12))
    assert chordal_derivative(F, sphere_point(np.inf)) == (
        pytest.approx(0.0, abs=1e-12))


# ---------------------------------------------------------------------------
# the period-n locus
# ---------------------------------------------------------------------------


def test_period_wedge_evaluator_vanishes_on_cycles():
    F = quad_lift(-1.0)  # 0 <-> -1 is a superattracting 2-cycle
    ev = period_wedge_evaluator(F, 2)
    vals, _ = ev(np.array([0.0 + 0.0j, -1.0 + 0.0j, 0.5 + 0.5j]))
    assert abs(vals[0]) < 1e-10
    assert abs(vals[1]) < 1e-10
    assert abs(vals[2]) > 1e-6


# ---------------------------------------------------------------------------
# cycle extraction and multiplier spectra
# ---------------------------------------------------------------------------


def test_square_fixed_points():
    F = power_lift(2)
    cs = exact_cycles(F, 1)
    assert not cs.contaminated.any()
    assert cs.copies.sum() == 3
    assert spectrum_multiset(cs, 6) == [0.0, 0.0, 2.0]


def test_square_period2_and_3():
    F = power_lift(2)
    cs2 = exact_cycles(F, 2)
    assert np.repeat(cs2.period, cs2.copies).tolist() == [2]
    assert cs2.multiplier[0] == pytest.approx(4.0, rel=1e-9)
    cs3 = exact_cycles(F, 3)
    assert cs3.copies.sum() == 2
    for mult in cs3.multiplier:
        assert mult == pytest.approx(8.0, rel=1e-9)
        assert abs(mult) > 1.0  # repelling


def test_basilica_superattracting_cycle():
    F = quad_lift(-1.0)
    cs = exact_cycles(F, 2)
    mults = sorted(abs(np.repeat(cs.multiplier, cs.copies)))
    # two exact-period-2 points -> a single 2-cycle, the superattracting
    # critical cycle {0, -1}
    assert cs.copies.sum() == 1
    assert mults[0] < 1e-9
    (cols,) = cycle_columns(cs)
    pts = sorted((cols[0] / cols[1]).real)
    assert pts == pytest.approx([-1.0, 0.0], abs=1e-9)


def test_cycle_count_matches_census(rng):
    for _ in range(8):
        F = random_quadratic_rational(rng)
        for n in range(1, 5):
            cols = cycle_columns(exact_cycles(F, n))
            pts = sum(c.shape[1] for c in cols)
            assert pts == arith.exact_cycle_point_count(2, n)


def test_parabolic_contamination_detected():
    # c = 1/4: the parabolic fixed point contaminates the period-2 wedge
    F = quad_lift(0.25)
    cs = exact_cycles(F, 2)
    assert cs.contaminated.any()
    with pytest.raises(ParabolicContaminationError):
        from dynbif.lyapunov import lyap_periodic
        lyap_periodic(F, 2)


def test_cycle_multiplier_through_infinity():
    # the fixed point of z^2 at infinity is superattracting; its multiplier
    # needs no affine chart
    F = power_lift(2)
    m = cycle_multiplier(F, sphere_point(np.inf)[:, None])
    assert m == pytest.approx(0.0, abs=1e-12)


def test_cycle_multiplier_matches_affine_quotient(rng):
    # reference: the chain rule in the z1 = 1 chart, prod (p'q - pq')/q^2
    for _ in range(6):
        F = random_quadratic_rational(rng)
        p = np.polynomial.Polynomial(F.num)
        q = np.polynomial.Polynomial(F.den)
        dp, dq = p.deriv(), q.deriv()
        for n in (1, 2, 3):
            cs = exact_cycles(F, n)
            exact = ~cs.contaminated
            mults = np.repeat(cs.multiplier[exact], cs.copies[exact])
            for cols, mult in zip(cycle_columns(cs, exact), mults):
                want = 1.0 + 0.0j
                for z in cols[0] / cols[1]:
                    want *= (dp(z) * q(z) - p(z) * dq(z)) / q(z) ** 2
                got = cycle_multiplier(F, cols)
                assert abs(got - want) <= 1e-9 * (1.0 + abs(want))
                assert abs(mult - want) <= 1e-9 * (1.0 + abs(want))


def test_cycle_set_invariants(rng):
    maps = [random_quadratic_rational(rng) for _ in range(4)]
    for F in maps + [quad_lift(1.0), quad_lift(-1.0)]:
        for n in range(1, 7):
            cs = exact_cycles(F, n)
            assert cs.points.shape == (2, cs.period.sum())
            norms = np.linalg.norm(cs.points, axis=0)
            assert np.all(np.abs(norms - 1.0) <= 1e-15)
            assert (cs.period * cs.copies).sum() == (
                arith.exact_cycle_point_count(2, n))
            cols = np.split(cs.points, np.cumsum(cs.period)[:-1], axis=1)
            for c, mult in zip(cols, cs.multiplier):
                image = F.apply(c)
                image = image / np.linalg.norm(image, axis=0)
                after = np.roll(c, -1, axis=1)
                for k in range(c.shape[1]):  # F maps column k to k + 1
                    assert chordal(image[:, k], after[:, k]) <= 1e-9
                assert cycle_multiplier(F, c) == mult  # bit for bit


def test_conjugation_invariance_of_spectrum(rng):
    for _ in range(6):
        F = random_quadratic_rational(rng)
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if abs(np.linalg.det(m)) < 0.1:
            continue
        G = F.conjugate(m)
        for n in (1, 2, 3):
            sa = spectrum_multiset(exact_cycles(F, n), ndigits=5)
            sb = spectrum_multiset(exact_cycles(G, n), ndigits=5)
            assert len(sa) == len(sb)
            for x, y in zip(sa, sb):
                assert abs(x - y) < 1e-8 * (1.0 + abs(x))


def test_backward_cloud_is_the_preimage_tree():
    # for z^2 the tree of depth n is the 2^n distinct roots of z^(2^n) = z0,
    # on the circle of radius |z0|^(1/2^n), not on the Julia set
    z0 = CLOUD_STARTS[0]
    for n in (3, 6):
        pts = backward_cloud(power_lift(2), 2**n)
        assert len(pts) == 2**n
        assert np.max(np.abs(pts ** (2**n) - z0)) < 1e-12
        spacing = 2.0 * np.pi * abs(z0) ** (1.0 / 2**n) / 2**n
        gaps = np.abs(np.subtract.outer(pts, pts)) + np.eye(2**n)
        assert gaps.min() > 0.9 * spacing
    # d^n + 1 seeds: the start itself is the extra one
    assert backward_cloud(power_lift(2), 9)[-1] == z0
    with pytest.raises(PreconditionError):
        backward_cloud(power_lift(2), 10)
    # for z^2 + 1 each period-8 root has its own seed as nearest point and
    # each seed its own root; the roots come from a solve seeded on a
    # staggered circle of radius 2.5, independent of the cloud
    F = quad_lift(1.0)
    seeds = backward_cloud(F, 256)
    roots = roots_blackbox(period_wedge_evaluator(F, 8), 256,
                           circle_seeds(256, 2.5)).roots
    assert len(roots) == 256
    dist = np.abs(np.subtract.outer(seeds, roots))
    assert sorted(np.argmin(dist, axis=1)) == list(range(256))
    assert sorted(np.argmin(dist, axis=0)) == list(range(256))


@pytest.mark.parametrize("c", [
    CLOUD_STARTS[0],  # the first start is the critical value
    (-1.0 + np.sqrt(1.0 + 4.0 * CLOUD_STARTS[0])) / 2.0,  # c^2 + c = start
])
def test_exact_cycles_certify_when_the_start_hits_the_critical_orbit(c):
    # at c = start the two preimages of the start are both 0 and every
    # subtree below them is duplicated; the tree moves on to the next start
    F = quad_lift(c)
    pts = backward_cloud(F, 2**6)
    gaps = np.abs(np.subtract.outer(pts, pts)) + np.eye(64)
    assert gaps.min() > 1e-6
    for n in range(2, 11):
        cs = exact_cycles(F, n)
        assert not cs.contaminated.any()
        assert n * cs.copies.sum() == arith.exact_cycle_point_count(2, n)


def test_period_solve_draws_no_random_numbers():
    code = ("import sys\n"
            "from dynbif.dynamics import exact_cycles\n"
            "from dynbif.families import QUAD, map_at\n"
            "exact_cycles(map_at(QUAD, [1.0]), 9)\n"
            "print('numpy.random' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
    a, b = (exact_cycles(quad_lift(1.0), 9) for _ in range(2))
    assert a.period.tolist() == b.period.tolist()
    assert a.points.tobytes() == b.points.tobytes()


# ---------------------------------------------------------------------------
# orbit labelling
# ---------------------------------------------------------------------------


def _walked_orbits(sigma, n):
    """The cycles of sigma by a walk from each unvisited index in turn."""
    seen = np.zeros(len(sigma), dtype=bool)
    orbits = []
    for start in range(len(sigma)):
        if seen[start]:
            continue
        orbit = [start]
        while sigma[orbit[-1]] != start:
            orbit.append(int(sigma[orbit[-1]]))
        seen[orbit] = True
        if n % len(orbit) != 0:
            raise OrbitMismatchError("orbit period does not divide n")
        orbits.append(orbit)
    return orbits


def _permutation(rng, lengths):
    """A random permutation with the given cycle lengths."""
    perm = rng.permutation(sum(lengths))
    sigma = np.empty(len(perm), dtype=np.int64)
    at = 0
    for length in lengths:
        cycle = perm[at:at + length]
        sigma[cycle] = np.roll(cycle, -1)
        at += length
    return sigma


@pytest.mark.parametrize("n", range(1, 13))
def test_orbit_labelling_equals_the_walk(n):
    rng = np.random.default_rng(n)
    divisors = [k for k in range(1, n + 1) if n % k == 0]
    for lengths in ([1] * 5, [n], list(rng.choice(divisors, 40))):
        sigma = _permutation(rng, lengths)
        factors = (rng.standard_normal(len(sigma))
                   + 1j * rng.standard_normal(len(sigma))) * 3.0
        orbit, period, mult = dynamics._orbits(sigma, n, factors)
        want = _walked_orbits(sigma, n)
        assert period.tolist() == [len(o) for o in want]
        assert [row[:p].tolist() for row, p in zip(orbit, period)] == want
        for row, p in zip(orbit, period):  # each row repeats its cycle
            assert row.tolist() == (row[:p].tolist() * (n // p))
        assert mult.tobytes() == np.array(
            [np.prod(factors[o]) for o in want]).tobytes()  # bit for bit


@pytest.mark.parametrize("n, lengths", [
    (6, [1, 4]), (6, [2, 3, 5]), (4, [3]), (1, [2]), (12, [13]), (2, [1, 3])])
def test_a_cycle_length_not_dividing_n_is_a_mismatch(n, lengths):
    sigma = _permutation(np.random.default_rng(0), lengths)
    with pytest.raises(OrbitMismatchError, match="does not divide n"):
        _walked_orbits(sigma, n)
    with pytest.raises(OrbitMismatchError, match="does not divide n"):
        dynamics._orbits(sigma, n, np.ones(len(sigma), dtype=complex))


# ---------------------------------------------------------------------------
# the image-to-root match
# ---------------------------------------------------------------------------


def _dense_nearest_root(x, v):
    """The match as a dense search: for every unit column of x, the first
    index of the chordally nearest column of v, and that distance."""
    wedge = np.multiply.outer(x[0], v[1]) - np.multiply.outer(x[1], v[0])
    idx = np.argmin(wedge.real**2 + wedge.imag**2, axis=1)
    return idx, np.abs(x[0] * v[1, idx] - x[1] * v[0, idx])


@pytest.mark.parametrize("family, c, n", [
    (None, 1.0, 10),               # with the column of infinity
    (None, 0.3 + 0.2j, 8),
    (QUADRAT, [0.5, 0.3], 8),
])
def test_match_equals_the_dense_search(monkeypatch, family, c, n):
    F = quad_lift(c) if family is None else map_at(family, c)
    seen = []
    sweep = dynamics._nearest_root

    def recording(x, v, reach):
        seen.append((x, v, sweep(x, v, reach)))
        return seen[-1][2]

    monkeypatch.setattr(dynamics, "_nearest_root", recording)
    exact_cycles(F, n)
    (x, v, (idx, dist)), = seen
    want_idx, want_dist = _dense_nearest_root(x, v)
    assert np.array_equal(idx, want_idx)
    assert dist.tobytes() == want_dist.tobytes()


def test_match_takes_the_lowest_index_on_ties():
    # z = 0.1 and z = -0.1 are equally far from 0; -0.1 comes first along
    # the sphere coordinate, but the match takes the lower index
    x = sphere_point(0.0)[:, None]
    for roots in ([0.1, -0.1, 5.0], [-0.1, 0.1, 5.0], [5.0, 0.1, 0.1]):
        v = np.array([sphere_point(z) for z in roots]).T
        idx, dist = dynamics._nearest_root(x, v, np.array([0.5]))
        assert idx.tolist() == [int(np.argmin(np.abs(roots)))]
        assert dist[0] == _dense_nearest_root(x, v)[1][0]
    # nothing within reach: no index, infinite distance
    idx, dist = dynamics._nearest_root(x, v, np.array([1e-3]))
    assert idx.tolist() == [-1] and dist.tolist() == [np.inf]


def _altered_solve(monkeypatch, alter):
    solve = dynamics.roots_blackbox

    def altered(*args, **kwargs):
        rs = solve(*args, **kwargs)
        roots, mults = alter(rs.roots, rs.multiplicities)
        return RootSet(roots, mults, rs.cluster_radius)

    monkeypatch.setattr(dynamics, "roots_blackbox", altered)


def test_a_missing_root_names_the_match_bound(monkeypatch):
    _altered_solve(monkeypatch, lambda r, m: (r[1:], m[1:]))
    with pytest.raises(OrbitMismatchError,
                       match=r"^1 of 64 images have no root within their "
                             r"match bound \(at most \d\.\d{3}e-\d+\)$"):
        exact_cycles(quad_lift(1.0), 6)


def test_a_doubled_root_is_an_orbit_collision(monkeypatch):
    _altered_solve(monkeypatch, lambda r, m: (np.append(r, r[3]),
                                              np.append(m, m[3])))
    with pytest.raises(OrbitMismatchError, match="orbit collision"):
        exact_cycles(quad_lift(1.0), 6)
