"""Parametrized families: construction, center enumeration, multiplier
continuation and component counting."""

import os
import subprocess
import sys
import warnings
from dataclasses import fields
from functools import lru_cache, partial

import numpy as np
import pytest

from dynbif import arith, equidist, families
from dynbif.dynamics import exact_cycles
from dynbif.errors import (
    CountMismatchError,
    CountOverflowError,
    DegenerateMapError,
    IllConditionedError,
    IncompleteEnumerationWarning,
    NotInComponentError,
    PathLossError,
    PreconditionError,
)
from dynbif.families import (
    DEGEN_CATALOG,
    ORBIT_CLOSE_TOL,
    PCA3,
    QUAD,
    _assign_multiplicities,
    _check_in_component,
    _dedupe,
    _first_return,
    _merge,
    _pca3_bare,
    _pca3_cycles_merged,
    _pca3_chart_step,
    _pca3_newton,
    _pca3_solutions,
    _pca3_step,
    _quad_bare,
    _quad_exact_centers,
    _settle,
    _swap_marking,
    centers_1d,
    centers_2d,
    component_count,
    continuation,
    degen_parameter,
    family_from_id,
    map_at,
    marked_critical_points,
    multiplier_continuation,
    pca_map,
    pca3_cycle_multiplier,
    power_map_spectrum,
    quad_center_evaluator,
    quad_cycle_multiplier,
    quadrat_fixed_normal_form,
)

from conftest import sphere_point

# frozen real and complex period-3 centers of z^2 + c (roots of
# c^3 + 2c^2 + c + 1)
PERIOD3_CENTERS = [
    -1.7548776662466927,
    complex(-0.12256116687665362, 0.7448617666197442),
    complex(-0.12256116687665362, -0.7448617666197442),
]

# distinct-component counts for z^2 + c at periods 1..14
QUAD_COMPONENT_COUNTS = [1, 1, 3, 6, 15, 27, 63, 120, 252, 495, 1023, 2010,
                         4095, 8127]


def _match(found, expected, tol):
    remaining = list(expected)
    assert len(found) == len(remaining)
    for z in found:
        dists = [abs(complex(z) - complex(w)) for w in remaining]
        i = int(np.argmin(dists))
        assert dists[i] <= tol
        remaining.pop(i)


# ---------------------------------------------------------------------------
# family construction
# ---------------------------------------------------------------------------


def test_family_ids():
    assert family_from_id("quad") is QUAD
    assert family_from_id("pca3") is PCA3
    assert degen_parameter(family_from_id("degen:inv_t2"), 0.5) == 4.0
    with pytest.raises(PreconditionError):
        family_from_id("nope")


def test_degen_parameters():
    assert degen_parameter(DEGEN_CATALOG["inv_t"], 0.01) == pytest.approx(100.0)
    assert degen_parameter(DEGEN_CATALOG["inv_t2"], 0.1) == pytest.approx(100.0)
    assert degen_parameter(DEGEN_CATALOG["t"], 0.1) == pytest.approx(0.1)
    with pytest.raises(PreconditionError):
        degen_parameter(DEGEN_CATALOG["t"], 0.0)
    # a non-finite t, or a t whose c(t) is no finite double, is outside the
    # punctured disk: 1/inf = 0, and 1e-170^2 underflows to 0
    for key, t in [("inv_t", np.inf), ("t", complex(0.1, np.nan)),
                   ("inv_t2", 1e-170), ("inv_t2", 1e200)]:
        with pytest.raises(PreconditionError):
            degen_parameter(DEGEN_CATALOG[key], t)
    with pytest.raises(PreconditionError, match="not a disk family"):
        degen_parameter(QUAD, 0.1)


def test_pca_map_cubic_coeffs():
    # d = 3, free critical point c = 2, a = 1:
    # z^3/3 - z^2 + 1 has derivative z^2 - 2z = z(z - 2)
    coeffs = pca_map(2.0, 1.0)
    assert np.allclose(coeffs, [1.0, 0.0, -1.0, 1.0 / 3.0])
    assert marked_critical_points(PCA3, [2.0, 1.0]) == [0.0, 2.0]


def test_pca_map_critical_points_property():
    rng = np.random.default_rng(5)
    c = complex(rng.standard_normal(), rng.standard_normal())
    coeffs = pca_map(c, 0.3 + 0.1j)
    dcoeffs = coeffs[1:] * np.arange(1, 4)
    crit = np.roots(dcoeffs[::-1])
    _match(crit, np.array([0.0, c]), 1e-8)


def test_quad_lift():
    F = map_at(QUAD, [-1.0])
    z = 0.5 + 0.5j
    w0, w1 = F.apply(sphere_point(z))
    assert w0 / w1 == pytest.approx(z * z - 1.0)


def test_quadrat_normal_form_index_relation():
    mu1, mu2 = 0.3 + 0.1j, -0.7j
    lift = quadrat_fixed_normal_form(mu1, mu2)
    cs = exact_cycles(lift, 1)
    assert cs.period.tolist() == [1, 1, 1]
    # fixed points 0 and infinity carry the prescribed multipliers
    at_zero = np.abs(cs.points[0]) < 1e-12
    at_inf = np.abs(cs.points[1]) < 1e-12
    assert at_zero.sum() == at_inf.sum() == 1
    assert cs.multiplier[at_zero][0] == pytest.approx(mu1, rel=1e-12)
    assert cs.multiplier[at_inf][0] == pytest.approx(mu2, rel=1e-12)
    # holomorphic index relation over the three fixed points
    assert np.sum(1.0 / (1.0 - cs.multiplier)) == pytest.approx(1.0,
                                                                 rel=1e-10)
    with pytest.raises(DegenerateMapError):
        quadrat_fixed_normal_form(2.0, 0.5)


def test_power_map_detection():
    spec1 = dict(power_map_spectrum(2, 1))
    assert spec1 == {0.0 + 0.0j: 2, 2.0 + 0.0j: 1}
    spec3 = power_map_spectrum(2, 3)
    assert spec3 == [(8.0 + 0.0j, 2)]
    # census: cycles * period = exact-period point count
    for d in (2, 3):
        for n in range(2, 13):
            (mult, count), = power_map_spectrum(d, n)
            assert count * n == arith.exact_cycle_point_count(d, n)
            assert mult == complex(d) ** n


# ---------------------------------------------------------------------------
# quadratic centers
# ---------------------------------------------------------------------------


def test_center_evaluator_matches_orbit():
    ev = quad_center_evaluator(4)
    cs = np.array([0.3 + 0.2j, -1.1, 2.0 - 1.0j])
    vals, dvals = ev(cs)
    for c, v in zip(cs, vals):
        z = 0.0j
        for _ in range(4):
            z = z * z + c
        assert v == pytest.approx(z, rel=1e-9)
    # derivative by central differences
    h = 1e-6
    vp, _ = ev(cs + h)
    vm, _ = ev(cs - h)
    for fd, dv in zip((vp - vm) / (2 * h), dvals):
        assert fd == pytest.approx(dv, rel=1e-5)


@pytest.mark.parametrize("n", [1, 5, 14])
def test_center_evaluator_batch_equals_one_point_calls(n):
    # the points escape at different steps (1e200 at the first), so the
    # batch compresses its live set while the one-point calls do not
    cs = np.array([0.3 + 0.2j, 1e200, -1.1, 2.0 - 1.0j, -2.0, 0.25, 5j,
                   -1.75 + 0j, 0.5 + 0.5j, 1e-300j])
    ev = quad_center_evaluator(n)
    p, dp = ev(cs)
    one = [ev(cs[i:i + 1]) for i in range(len(cs))]
    assert np.array_equal(p, np.concatenate([q for q, _ in one]))
    assert np.array_equal(dp, np.concatenate([d for _, d in one]))
    assert dp[1] == 1.0 and np.isfinite(p).all()


def test_quad_centers_small_periods():
    assert centers_1d(QUAD, 1).params.tolist() == [[0.0 + 0.0j]]
    _match(centers_1d(QUAD, 2).params[:, 0], [-1.0], 1e-10)
    _match(centers_1d(QUAD, 3).params[:, 0], PERIOD3_CENTERS, 1e-10)


def test_quad_centers_have_exact_period_and_small_residual():
    for n in (4, 5, 6):
        cs = centers_1d(QUAD, n)
        assert len(cs) == QUAD_COMPONENT_COUNTS[n - 1]
        assert cs.periods.tolist() == [[n]] * len(cs)
        assert np.all(cs.residual < 1e-8)
        for c in cs.params[:, 0].tolist():
            # the critical orbit really closes at period n, not a divisor
            z = 0.0j
            for k in range(1, n):
                z = z * z + c
                assert abs(z) > 1e-6
            assert abs(z * z + c) < 1e-8


def test_quad_center_residual_is_the_newton_step():
    # |p_n / p_n'| at the center, a distance in c that the evaluator's
    # per-point scaling cannot change: rounding level after the polish
    for n in (3, 10):
        cs = centers_1d(QUAD, n)
        p, dp = quad_center_evaluator(n)(cs.params[:, 0])
        assert cs.residual.tolist() == np.abs(p / dp).tolist()
        assert cs.residual.max() < 1e-14


@pytest.mark.parametrize("n", [6, 8])
def test_quad_center_rows_in_stable_order(n):
    # a conjugate pair's real parts agree only up to rounding: the rows are
    # ordered by the rounded real part, then the imaginary part, so each
    # pair comes out as (-im, +im) whatever the last bits
    cs = centers_1d(QUAD, n).params[:, 0].tolist()
    keys = [(round(c.real, 10), c.imag) for c in cs]
    assert keys == sorted(keys)
    for a, b in zip(cs, cs[1:]):
        if abs(a - b.conjugate()) < 1e-9 and abs(a.imag) > 1e-9:
            assert a.imag < 0 < b.imag


def test_quad_center_counts_mid_range():
    for n in range(7, 15):
        assert len(centers_1d(QUAD, n)) == QUAD_COMPONENT_COUNTS[n - 1]


# whether a CLI call loads numpy.random; only the random-seeded pca3 center
# solve does, until ROADMAP item 2 replaces its seeds by a homotopy
CLI_RNG_USE = [
    ("lyap --family quad --c 1 --n 4", False),
    ("lyap --family quadrat --c 0.5,0.3 --n 4", False),
    ("lyap --family pca3 --c 0.1,0.2 --n 3", False),
    ("equidist --family quad --n 3..4 --ref 6 --window -2,1,-1,1", False),
    ("percurve --family quad --n 3 --thetas 8", False),
    ("centers --family quad --periods 4", False),
    ("count --family quad --periods 4", False),
    ("mass-m2", False),
    ("degenerate --family degen:inv_t", False),
    ("centers --family pca3 --periods 1,2", True),
    ("count --family pca3 --periods 1,1", True),
]


def test_quad_centers_are_deterministic_without_rng(tmp_path):
    # the seeds come from the period-(n-1) centers, not from a random draw:
    # a fresh interpreter never loads numpy.random, and a re-solve after
    # clearing the cache returns the same rows
    code = ("import sys\n"
            "from dynbif.families import QUAD, centers_1d\n"
            "assert len(centers_1d(QUAD, 6)) == 27\n"
            "print('numpy.random' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
    # the same holds for every CLI path but the pca3 center solve
    cli = ("import sys\n"
           "from dynbif.cli import main\n"
           "assert main(sys.argv[1:]) == 0\n"
           "print('numpy.random' in sys.modules)\n")
    out_path = str(tmp_path / "out.csv")
    for argv, loads in CLI_RNG_USE:
        out = subprocess.run(
            [sys.executable, "-c", cli, *argv.split(), "--no-cache",
             "--out", out_path],
            env=env, check=True, capture_output=True, text=True).stdout
        assert out.splitlines()[-1] == str(loads), argv
    first = _quad_exact_centers(9)
    _quad_exact_centers.cache_clear()
    again = _quad_exact_centers(9)
    for f in fields(first):
        got, want = getattr(again, f.name), getattr(first, f.name)
        assert got.tobytes() == want.tobytes()


def test_quad_centers_cap():
    with pytest.raises(PreconditionError):
        centers_1d(QUAD, 15)


# ---------------------------------------------------------------------------
# cubic centers
# ---------------------------------------------------------------------------


def test_pca3_centers_1_1():
    # both critical points fixed: the only markings are the intersection of
    # P(0) = 0 and P(c) = c; count with multiplicity must fill the product
    # of the two system degrees
    sols = centers_2d(PCA3, 1, 1)
    total = sols.multiplicity.sum()
    assert total == 9  # 3 x 3 product count
    for c, a in sols.params.tolist():
        # verify the fixed-point conditions directly
        coeffs = pca_map(c, a)
        p = np.polynomial.polynomial.polyval
        assert abs(p(0.0j, coeffs)) < 1e-7
        assert abs(p(c, coeffs) - c) < 1e-7


def test_pca3_centers_1_2_multiplicity():
    sols = centers_2d(PCA3, 1, 2)
    assert sols.multiplicity.sum() == 18
    # the period-1 marking is non-reduced: every solution has multiplicity 3
    assert set(sols.multiplicity.tolist()) == {3}
    assert len(sols) == 6


def test_pca3_centers_2_2_distinct():
    sols = centers_2d(PCA3, 2, 2)
    assert sols.multiplicity.sum() == 36
    assert np.all(sols.residual < 1e-8)


@pytest.fixture
def fresh_pca3_solutions():
    """An empty solve cache, and none of a test's patched solves left in
    it afterwards."""
    _pca3_solutions.cache_clear()
    yield
    _pca3_solutions.cache_clear()


NO_ROWS = np.empty((0, 2), dtype=complex)


def _residuals(q, n0, n1):
    (g0, g1), _ = families._pca3_center_system(q[:, 0], q[:, 1], n0, n1)
    return np.abs(g0) + np.abs(g1)


def test_pca3_seeding_stops_at_the_solution_count(monkeypatch,
                                                   fresh_pca3_solutions):
    # round 0 finds all 3^(2+2-1) = 27 solutions of the full (2, 2) return
    # system, so no second round is seeded to confirm them
    calls = []

    def counted(*args):
        calls.append(args)
        return _pca3_newton(*args)

    monkeypatch.setattr(families, "_pca3_newton", counted)
    sols = centers_2d(PCA3, 2, 2)
    assert sols.multiplicity.sum() == 36
    assert len(calls) == 1


def test_pca3_newton_stops_every_seed_at_the_solution_count(
        monkeypatch, fresh_pca3_solutions):
    # some of the 4,860 round-0 seeds never converge; they used to iterate
    # to the 120-step cap after round 0 had found all 27 (2, 2) solutions
    # by step 16.  One system call per step moves the live seeds and judges
    # the converged ones by the residuals it started from.
    moved = []

    def counted(c, b, n0, n1):
        moved.append(len(c))
        return families_system(c, b, n0, n1)

    families_system = families._pca3_center_system
    monkeypatch.setattr(families, "_pca3_center_system", counted)
    found = _pca3_solutions(2, 2)
    assert len(found) == 27
    assert moved[0] == 4860 and len(moved) < 40


def test_pca3_newton_steps_no_seed_once_the_set_is_full():
    # a set already holding the 3 (1, 1) rows stops every seed before its
    # first step, even a seed that would converge to a row not in it
    full = np.array([[5.0, 5.0], [6.0, 6.0], [7.0, 7.0]], dtype=complex)
    got = _pca3_newton([0.3 + 0.1j], [0.2 + 0j], 1, 1, 120, full)
    assert np.array_equal(got, full)
    assert len(_pca3_newton([0.3 + 0.1j], [0.2 + 0j], 1, 1, 120,
                            full[:2])) == 3


@pytest.mark.parametrize("n0,n1", [(2, 1), (3, 1), (3, 2), (4, 2)])
def test_pca3_swapped_marking_matches_a_direct_solve(n0, n1):
    # z -> c - z trades the critical points: the (n0, n1) solutions map
    # onto the (n1, n0) ones, which centers_2d no longer solves itself
    mapped = _swap_marking(_pca3_solutions(n0, n1))
    direct = _pca3_solutions(n1, n0)
    assert len(mapped) == len(direct) == 3 ** (n0 + n1 - 1)
    dist = np.linalg.norm(mapped[:, None] - direct[None], axis=2)
    nearest = dist.argmin(axis=1)
    assert np.all(dist[np.arange(len(mapped)), nearest] <= 1e-13)
    assert len(set(nearest.tolist())) == len(mapped)


def test_pca3_solutions_are_read_only():
    # both markings share one cached set: centers_2d zeroes b at n0 = 1 on
    # its own copy
    found = _pca3_solutions(1, 1)
    before = found.copy()
    with pytest.raises(ValueError):
        found[0, 1] = 0.0
    assert centers_2d(PCA3, 1, 1).multiplicity.sum() == 9
    assert np.array_equal(found, before, equal_nan=True)


def test_pca3_equal_periods_must_be_closed_under_the_swap(
        monkeypatch, fresh_pca3_solutions):
    # one (2, 2) row moved by 1e-6 has no image among the others
    def perturbed(*args):
        found = _pca3_newton(*args).copy()
        found[5, 1] += 1e-6
        return found

    monkeypatch.setattr(families, "_pca3_newton", perturbed)
    with pytest.raises(CountMismatchError):
        centers_2d(PCA3, 2, 2)


def test_pca3_unequal_periods_must_be_closed_under_conjugation(
        monkeypatch, fresh_pca3_solutions):
    # with n0 != n1 the swap is no symmetry, but conjugation and z -> -z are
    def perturbed(*args):
        found = _pca3_newton(*args).copy()
        found[5, 1] += 1e-6
        return found

    monkeypatch.setattr(families, "_pca3_newton", perturbed)
    with pytest.raises(CountMismatchError, match="symmetries"):
        centers_2d(PCA3, 2, 1)


def _symmetries(n0, n1):
    """The generators of the symmetries of the (n0, n1) return system in
    (c, b): conjugation, z -> -z and, for n0 = n1, z -> c - z."""
    maps = [np.conj, np.negative]
    if n0 == n1:
        maps.append(lambda q: np.stack(
            [q[:, 0], q[:, 0] + q[:, 0] ** 3 / 6.0 - q[:, 1]], axis=1))
    return maps


@pytest.mark.parametrize("n0", [1, 2, 3])
@pytest.mark.parametrize("n1", [1, 2, 3])
def test_pca3_solution_sets_are_closed_under_the_symmetries(n0, n1):
    found = _pca3_solutions(n0, n1)
    assert len(found) == 3 ** (n0 + n1 - 1)
    for g in _symmetries(n0, n1):
        dist = np.linalg.norm(g(found)[:, None] - found[None], axis=2)
        nearest = dist.argmin(axis=1)
        assert np.all(dist[np.arange(len(found)), nearest] <= 1e-10)
        assert len(set(nearest.tolist())) == len(found)


def test_pca3_symmetry_images_restore_a_row_without_a_second_round(
        monkeypatch, fresh_pca3_solutions):
    # round 0 made to miss one non-real row: Newton from the images of the
    # 26 rows it kept finds it again, and no second seed round runs
    want = _pca3_solutions(2, 2).copy()
    _pca3_solutions.cache_clear()
    seeds = []

    def dropping(c, b, *args):
        seeds.append(len(c))
        found = _pca3_newton(c, b, *args)
        if len(seeds) == 1:
            found = np.delete(found, np.argmax(found[:, 0].imag), axis=0)
        return found

    monkeypatch.setattr(families, "_pca3_newton", dropping)
    got = _pca3_solutions(2, 2)
    assert seeds == [4860, 7 * 26]
    dist = np.linalg.norm(got[:, None] - want[None], axis=2)
    assert len(got) == len(want)
    assert np.all(dist.min(axis=1) <= 1e-12)
    assert len(set(dist.argmin(axis=1).tolist())) == len(want)


def test_pca3_ill_conditioned_divisor_period_row_is_rejected(
        monkeypatch, fresh_pca3_solutions):
    # a spurious row can hold the slot of a missed solution once the set is
    # full.  (i sqrt 2, 0), where the (1, 1) Jacobian is singular, stands in
    # for one: its critical point 0 is fixed, so the exact-period (2, 1)
    # read-off would drop it without a check on the whole set
    def spurious(*args):
        found = _pca3_newton(*args).copy()
        found[np.argmin(np.abs(found[:, 1]))] = [1j * np.sqrt(2.0), 0.0]
        return found

    monkeypatch.setattr(families, "_pca3_newton", spurious)
    with pytest.raises(IllConditionedError):
        centers_2d(PCA3, 2, 1)
    with pytest.raises(IllConditionedError):
        centers_2d(PCA3, 1, 2)


def test_pca3_overflow_is_raised_under_the_early_stop(monkeypatch,
                                                      fresh_pca3_solutions):
    # at radius 0 seeds that meet one solution a bit apart count twice, and
    # the set passes 27 within one Newton step
    monkeypatch.setattr(families, "CENTER_DEDUPE_RADIUS", 0.0)
    with pytest.raises(CountOverflowError):
        centers_2d(PCA3, 2, 2)


def _one_ulp(x, rng):
    """x moved by one ulp up or down, at random, in each real and imaginary
    part."""
    def nudge(v):
        return np.nextafter(v, np.where(rng.random(v.shape) < 0.5, -np.inf,
                                        np.inf))
    return nudge(x.real) + 1j * nudge(x.imag)


@pytest.mark.parametrize("n0,n1", [(1, 3), (2, 2), (2, 3), (3, 2)])
def test_pca3_row_order_survives_last_bit_changes(n0, n1, monkeypatch):
    # conjugate rows share Re c up to rounding: a raw sort key let one ulp
    # swap them
    rows = centers_2d(PCA3, n0, n1)
    solve = families._pca3_solutions
    for seed in range(4):
        rng = np.random.default_rng(seed)
        monkeypatch.setattr(families, "_pca3_solutions",
                            lambda m0, m1: _one_ulp(solve(m0, m1), rng))
        moved = centers_2d(PCA3, n0, n1)
        assert len(moved) == len(rows)
        assert np.allclose(rows.params, moved.params, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n0,n1,bezout", [(2, 4, 432), (3, 3, 576)])
def test_pca3_centers_certify_larger_pairs(n0, n1, bezout):
    # (2, 4) used to overflow (460 > 432): seeds that passed the residual
    # test without having converged were kept as near-duplicates
    with warnings.catch_warnings():
        warnings.simplefilter("error", IncompleteEnumerationWarning)
        sols = centers_2d(PCA3, n0, n1)
    assert sols.multiplicity.sum() == bezout


@pytest.mark.parametrize("n0,n1", [(2, 1), (2, 2), (3, 1)])
def test_pca3_rows_are_the_three_cube_roots(n0, n1):
    # n0 > 1 keeps b = a^3 away from 0: each solution (c, b) gives the
    # three rows a = b^(1/3) w^k, with one bit-identical c and multiplicity
    sols = _pca3_centers(n0, n1)
    rows: dict[complex, list] = {}
    for i, c in enumerate(sols.params[:, 0].tolist()):
        rows.setdefault(c, []).append(i)
    assert len(rows) * 3 == len(sols)
    for group in rows.values():
        a = sols.params[group, 1]
        assert len(group) == 3
        assert len(set(sols.multiplicity[group].tolist())) == 1
        assert np.all(np.abs(a) > 1e-3)
        np.testing.assert_allclose(a**3, a[0] ** 3, rtol=1e-13)
        for u in np.exp(2j * np.pi * np.arange(3) / 3):
            assert np.min(np.abs(a / a[0] - u)) < 1e-12


@pytest.mark.parametrize("n1", [1, 2, 3])
def test_pca3_period_one_rows_sit_at_a_zero(n1):
    # P(0) = b: the critical point 0 is fixed only at b = 0, where a = 0 is
    # a triple root
    sols = _pca3_centers(1, n1)
    assert np.all(sols.params[:, 1] == 0)
    assert set(sols.multiplicity.tolist()) == {3}
    assert len(set(sols.params[:, 0].tolist())) == len(sols)


def test_pca3_newton_drops_seeds_with_no_finite_step(monkeypatch):
    # the orbit of c = 1e200 overflows, so its Newton step is not finite:
    # that seed stops where it is, is never stepped again and joins no set
    seen = []

    def recorded(c, b, n0, n1):
        seen.append(np.array(c))
        return families_system(c, b, n0, n1)

    families_system = families._pca3_center_system
    monkeypatch.setattr(families, "_pca3_center_system", recorded)
    c0, b0 = np.array([1e200 + 0j, 0.3 + 0.1j]), np.array([0j, 0.2 + 0j])
    with np.errstate(over="ignore", invalid="ignore"):
        found = _pca3_newton(c0, b0, 2, 2, 120, NO_ROWS)
    assert seen[0].tolist() == c0.tolist()  # one system call per step
    assert len(seen) > 2 and all(len(s) == 1 for s in seen[1:])
    later = np.concatenate(seen[1:])
    assert np.all(np.isfinite(later)) and np.all(np.abs(later) < 10)
    assert found.shape == (1, 2) and abs(found[0, 0]) < 10
    assert _residuals(found, 2, 2)[0] < 1e-12
    assert c0[1] == 0.3 + 0.1j  # the seeds are not moved in place


def test_pca3_newton_keeps_only_converged_seeds():
    c0, b0 = np.array([0.3 + 0.1j]), np.array([0.2 + 0j])
    found = _pca3_newton(c0, b0, 2, 2, 120, NO_ROWS)
    assert found.shape == (1, 2) and _residuals(found, 2, 2)[0] < 1e-12
    for iters in (0, 1, 2):
        assert _pca3_newton(c0, b0, 2, 2, iters, NO_ROWS).shape == (0, 2)


def test_pca3_step_matches_horner_and_finite_differences():
    rng = np.random.default_rng(7)
    z, c, a = (rng.standard_normal(6) + 1j * rng.standard_normal(6)
               for _ in range(3))
    b = a**3
    f, f_z, f_c = _pca3_step(z, c, b)
    for i in range(6):
        coeffs = pca_map(c[i], a[i])
        horner = 0.0j
        for k in coeffs[::-1]:
            horner = horner * z[i] + k
        assert f[i] == pytest.approx(horner, rel=1e-12, abs=1e-12)
    # central differences along a real step (P is holomorphic in each
    # argument, and dP/db = 1)
    h = 1e-6
    for got, dz, dc, db in ((f_z, h, 0, 0), (f_c, 0, h, 0), (1.0, 0, 0, h)):
        fd = (_pca3_step(z + dz, c + dc, b + db)[0]
              - _pca3_step(z - dz, c - dc, b - db)[0]) / (2 * h)
        assert np.allclose(got, fd, rtol=1e-6, atol=1e-6)
    # the chart step adds f_zz and f_zq = (d f_z/dc, d f_z/db), checked by
    # central differences of f_z, and keeps the bits of the first three
    g, g_z, f_zz, (g_c, g_b), (f_zc, f_zb) = _pca3_chart_step(z, (c, b))
    for got, want in ((g, f), (g_z, f_z), (g_c, f_c)):
        assert np.array_equal(got, want)
    assert g_b == 1.0
    for got, dz, dc, db in ((f_zz, h, 0, 0), (f_zc, 0, h, 0),
                            (f_zb, 0, 0, h)):
        fd = (_pca3_step(z + dz, c + dc, b + db)[1]
              - _pca3_step(z - dz, c - dc, b - db)[1]) / (2 * h)
        assert np.allclose(got, fd, rtol=1e-6, atol=1e-6)
    # Python complex scalars give the same values as the arrays
    for i in range(6):
        scalar = _pca3_step(complex(z[i]), complex(c[i]), complex(b[i]))
        assert all(isinstance(v, complex) for v in scalar)
        assert scalar == pytest.approx(
            [f[i], f_z[i], f_c[i]], rel=1e-14, abs=1e-14)


def _dedupe_loop(points, radius):
    """The pairwise first-come dedupe loop, as a reference."""
    kept = []
    for i, p in enumerate(points):
        if all(np.linalg.norm(p - points[j]) > radius for j in kept):
            kept.append(i)
    return kept


def _pts(*rows):
    return np.array(rows, dtype=complex).reshape(-1, 2)


def test_dedupe_keeps_first_occurrence_in_input_order():
    pts = _pts([1, 0], [0, 0], [1 + 1e-12, 0], [0, 1e-12j], [5, 5])
    assert list(_dedupe(pts, 1e-10)) == [0, 1, 4]
    # a point near a dropped one but clear of every kept one stays
    r = 1.0
    chain = _pts([0, 0], [0.8, 0], [1.6, 0])
    assert list(_dedupe(chain, r)) == [0, 2]


def test_dedupe_radius_boundary():
    r = 1e-5
    pts = _pts([0, 0], [0.6 * r, 0.6j * r], [0.75 * r, 0.75j * r])
    # Euclidean in C^2: 0.85 r lies within, 1.06 r lies just outside
    assert list(_dedupe(pts, r)) == [0, 2]


def test_dedupe_empty():
    assert _dedupe(_pts(), 1e-8).size == 0


def test_dedupe_keeps_rows_of_earlier_rounds():
    prior = _pts([0, 0], [1, 1j], [2, 2])  # kept by an earlier round
    new = _pts([1 + 1e-13, 1j], [3, 3], [3, 3 + 1e-13j], [0, 1e-13])
    kept = _dedupe(np.concatenate([prior, new]), 1e-10)
    assert list(kept) == [0, 1, 2, 4]


def test_dedupe_matches_pairwise_loop():
    rng = np.random.default_rng(2)
    centers = rng.standard_normal((30, 2)) + 1j * rng.standard_normal((30, 2))
    pts = centers[rng.integers(0, 30, 400)]
    pts = pts + 1e-3 * (rng.standard_normal(pts.shape)
                        + 1j * rng.standard_normal(pts.shape))
    for radius in (1e-4, 3e-3, 0.5):
        assert list(_dedupe(pts, radius)) == _dedupe_loop(pts, radius)


@pytest.mark.parametrize("radius", [1e-4, 3e-3, 0.5])
def test_merge_matches_dedupe_of_the_concatenation(radius, monkeypatch):
    # _merge takes the rows of an earlier _dedupe as kept and only dedupes
    # what is new; _dedupe of the whole concatenation is the reference
    monkeypatch.setattr(families, "CENTER_DEDUPE_RADIUS", radius)
    rng = np.random.default_rng(3)
    centers = rng.standard_normal((30, 2)) + 1j * rng.standard_normal((30, 2))
    pts = centers[rng.integers(0, 30, 400)]
    pts = pts + 1e-3 * (rng.standard_normal(pts.shape)
                        + 1j * rng.standard_normal(pts.shape))
    found = pts[:150][_dedupe(pts[:150], radius)]
    for new in (pts[150:], pts[150:151], pts[:0], np.conj(found)):
        both = np.concatenate([found, new])
        assert np.array_equal(_merge(found, new), both[_dedupe(both, radius)])
    assert np.array_equal(_merge(found[:0], pts), pts[_dedupe(pts, radius)])


@pytest.mark.parametrize("n0,n1,mult", [(1, 2, 3), (2, 1, 1)])
def test_pca3_multiplicities_from_the_jacobian(n0, n1, mult):
    # every (c, b) is simple; a = 0 is a triple root of b = a^3 at n0 = 1
    sols = centers_2d(PCA3, n0, n1)
    assert set(sols.multiplicity.tolist()) == {mult}
    assert sols.multiplicity.sum() == 18


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("conj", [False, True])
def test_pca3_3_4_center_next_to_a_divisor_period_solution_is_simple(
        sign, conj):
    # four conjugate (3, 4) centers lie 1.3e-2 from a (3, 2) solution of the
    # full return system; a perturbation count in a 3e-2 ball gave them
    # multiplicity 2 and overflowed (3, 4) to 1,740 > 1,728
    c0, b0 = sign * (2.2999 + 1.1403j), sign * (0.0669 + 1.6455j)
    if conj:
        c0, b0 = c0.conjugate(), b0.conjugate()
    found = _pca3_newton([c0], [b0], 3, 4, 20, NO_ROWS)
    c, b = found[:, 0], found[:, 1]
    assert found.shape == (1, 2) and _residuals(found, 3, 4)[0] < 1e-12
    assert abs(c[0] - c0) + abs(b[0] - b0) < 1e-3
    assert _first_return(_pca3_bare, (c, b), 0 * c, 3)[0] == 3
    assert _first_return(_pca3_bare, (c, b), c, 4)[0] == 4
    assert _assign_multiplicities(np.stack([c, b], axis=1), 3, 4).tolist() \
        == [1]


def test_pca3_singular_jacobian_is_not_counted():
    # at (1, 1) the Jacobian determinant is c^2/2 + 1: zero at c = i sqrt 2,
    # -2 at the (1, 1) center c = i sqrt 6
    with pytest.raises(IllConditionedError):
        _assign_multiplicities(np.array([[1j * np.sqrt(2.0), 0.0]]), 1, 1)
    q = np.array([[1j * np.sqrt(6.0), 0.0]])
    assert _assign_multiplicities(q, 1, 1).tolist() == [3]


def test_first_return_is_the_exact_period():
    # z^2 - 1: 0 -> -1 -> 0 has period 2; z^2 + 0: 0 is fixed; z^2 + 1
    # escapes and never returns
    q = (np.array([-1.0, 0.0, 1.0], dtype=complex),)
    z0 = np.zeros(3, dtype=complex)
    assert _first_return(_quad_bare, q, z0, 4).tolist() == [2, 1, 0]
    assert _first_return(_quad_bare, q, z0, 1).tolist() == [0, 1, 0]


# ---------------------------------------------------------------------------
# multiplier continuation
# ---------------------------------------------------------------------------


def _quad_center(n):
    return centers_1d(QUAD, n)


def test_continuation_quad_period1_closed_form():
    center = _quad_center(1)[0]
    for w in [0.3, -0.5 + 0.4j, 0.9j]:
        c = multiplier_continuation(QUAD, center, (w,))
        want = w / 2.0 - w * w / 4.0
        assert c == pytest.approx(want, abs=1e-10)


def test_continuation_quad_period2_closed_form():
    center = _quad_center(2)[0]
    for w in [0.2, -0.6, 0.5 - 0.5j]:
        c = multiplier_continuation(QUAD, center, (w,))
        assert c == pytest.approx(-1.0 + w / 4.0, abs=1e-10)


def test_continuation_quad_multiplier_recheck():
    rng = np.random.default_rng(11)
    for center in _quad_center(3):
        w = 0.8 * np.exp(2j * np.pi * rng.random())
        c = multiplier_continuation(QUAD, center, (w,))
        got = quad_cycle_multiplier(complex(c), 3)
        assert got == pytest.approx(w, abs=1e-9)


def _scalar_continuation(c, p, w, steps=20, tol=1e-12):
    """The per-path predictor-corrector loop that the batched kernel
    replaced, kept as its reference."""
    z, s, ds = 0.0 + 0.0j, 0.0, 1.0 / steps
    while s < 1.0 - 1e-15:
        s_next = min(1.0, s + ds)
        c_try, z_try, ok = c, z, False
        for _ in range(60):
            zk, dz_z, dz_c = z_try, 1.0 + 0.0j, 0.0 + 0.0j
            lam, dlam_z, dlam_c = 1.0 + 0.0j, 0.0 + 0.0j, 0.0 + 0.0j
            for _ in range(p):
                dlam_z = dlam_z * 2.0 * zk + lam * 2.0 * dz_z
                dlam_c = dlam_c * 2.0 * zk + lam * 2.0 * dz_c
                lam = lam * 2.0 * zk
                dz_z, dz_c = 2.0 * zk * dz_z, 2.0 * zk * dz_c + 1.0
                zk = zk * zk + c_try
            g0, g1 = zk - z_try, lam - s_next * w
            j00, j01, j10, j11 = dz_c, dz_z - 1.0, dlam_c, dlam_z
            det = j00 * j11 - j01 * j10
            if det == 0 or not np.isfinite(det):
                break
            step = ((g0 * j11 - g1 * j01) / det, (g1 * j00 - g0 * j10) / det)
            if not np.all(np.isfinite(step)):
                break
            c_try, z_try = c_try - step[0], z_try - step[1]
            if max(abs(step[0]), abs(step[1])) < tol * (
                    1.0 + abs(c_try) + abs(z_try)):
                ok = True
                break
        if ok:
            c, z, s = c_try, z_try, s_next
        else:
            ds *= 0.5
            if ds < 1e-4:
                raise PathLossError(f"lost at s = {s}")
    return c


@pytest.mark.parametrize("n", [3, 4, 5])
def test_batched_continuation_matches_scalar_loop(n):
    centers = _quad_center(n)
    targets = 0.7 * np.exp(2j * np.pi * np.arange(8) / 8)
    (c,), lost, slope = continuation(QUAD, centers, targets)
    assert not lost.any()
    assert np.all(np.isfinite(slope) & (slope > 0))
    want = [_scalar_continuation(c0, n, w)
            for c0 in centers.params[:, 0].tolist()
            for w in targets]  # center-major
    np.testing.assert_allclose(c, want, rtol=0, atol=1e-12)
    # the single-path entry point runs the same kernel
    one = multiplier_continuation(QUAD, centers[-1], (targets[3],))
    assert one == pytest.approx(c[len(targets) * (len(centers) - 1) + 3],
                                abs=1e-12)


def test_quad_cycle_multiplier_array_matches_scalar():
    c = np.array([0.2 + 0.1j, -1.0 + 0.05j, -0.12 + 0.7j, -1.75, 0.3j])
    for p in (1, 2, 3):
        got = quad_cycle_multiplier(c, p)
        assert isinstance(got, np.ndarray) and got.shape == c.shape
        want = [quad_cycle_multiplier(complex(x), p) for x in c]
        assert all(isinstance(x, complex) for x in want)
        # a scalar runs as a 0-d array, whose numpy scalar products may
        # round differently from the vectorized ones
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def _counted(c):
    """z^2 + c and a list whose length is the number of calls."""
    calls = []

    def f(z):
        calls.append(None)
        return _quad_bare(z, (c,))
    return f, calls


def _full_length_multiplier(c, p):
    """The re-check as a plain loop over the whole cap, the reference for
    the early stop."""
    z = np.zeros_like(c)
    for _ in range(max(400 * p * p, 800 * p)):
        z = z * z + c
    lam = 1.0 + 0.0j
    for _ in range(p):
        z, f_z = z * z + c, 2.0 * z
        lam = lam * f_z
    return lam


def _level_curve(rho, n, thetas=32):
    targets = rho * np.exp(2j * np.pi * np.arange(thetas) / thetas)
    (c,), lost, slope = continuation(QUAD, _quad_center(n), targets)
    assert not lost.any()
    return c, slope


def test_settle_stops_once_every_orbit_repeats():
    c, _ = _level_curve(0.5, 6)
    f, calls = _counted(c)
    cap = 400 * 6 * 6
    z = _settle(f, np.zeros_like(c), 6, cap)
    assert 0 < len(calls) <= cap // 10 and len(calls) % 6 == 0
    ret = z
    for _ in range(6):
        ret = f(ret)
    assert np.all(np.abs(ret - z) <= 2.0**-20 * (1.0 + np.abs(z)))


def test_settle_runs_to_its_cap_on_a_parabolic_orbit():
    # -0.75 is where the period-2 component meets the main cardioid: the
    # critical orbit creeps towards a multiplier -1 cycle and never
    # repeats to rounding within the cap
    c = np.array([-0.75, -1.0, -1.1 + 0.05j, -0.9 - 0.1j])
    f, calls = _counted(c)
    _settle(f, np.zeros_like(c), 2, 1600)
    assert len(calls) == 1600
    np.testing.assert_array_equal(quad_cycle_multiplier(c, 2),
                                  _full_length_multiplier(c, 2))


def test_escaping_critical_orbit_is_not_in_component():
    # c = 1 lies outside M; the settle stops on its non-finite orbit once
    # the attracted one at c = -0.1 has returned no closer over a second
    # 64-step group
    c = np.array([-0.1, 1.0], dtype=complex)
    fixed = (1.0 - np.sqrt(1.0 - 4.0 * c)) / 2.0
    f, calls = _counted(c)
    with pytest.raises(NotInComponentError, match="critical orbit escaped"):
        _check_in_component(f, fixed, np.zeros_like(c), 1)
    assert len(calls) == 128  # of the cap 600


@pytest.mark.parametrize("rho", [0.3, 0.5, 0.65, 0.8])
def test_early_stop_multiplier_matches_the_full_length_settle(rho):
    for n in range(2, 9):
        c, slope = _level_curve(rho, n)
        tol = 1e-10 + 8.0 * np.finfo(float).eps * np.abs(c) * slope
        lam = quad_cycle_multiplier(c, n)
        assert np.all(np.abs(lam - _full_length_multiplier(c, n))
                      <= 0.9 * tol), n
        assert equidist.pern_circle_measure(QUAD, n, rho,
                                            32).recheck_deficit == 0, n


def test_continuation_rejects_large_targets():
    center = _quad_center(1)[0]
    with pytest.raises(PreconditionError):
        multiplier_continuation(QUAD, center, (1.2,))


@lru_cache(maxsize=None)
def _pca3_centers(n0, n1):
    return centers_2d(PCA3, n0, n1)


# multiplier targets of the two marked cycles, up to |w| = 0.95
PCA3_TARGETS = [(0.4 + 0.2j, -0.3 + 0.1j), (0.95, -0.95j),
                (-0.95, 0.6 - 0.3j), (0.0, 0.95 * np.exp(2.2j)),
                (0.95 * np.exp(-1.1j), 0.0)]


def _unmerged_pca3_centers(n0, n1):
    sols = _pca3_centers(n0, n1)
    return sols[~_pca3_cycles_merged(sols)]


@pytest.mark.parametrize("n0,n1", [(1, 2), (2, 1), (1, 3), (2, 2)])
def test_continuation_pca3(n0, n1):
    centers = _unmerged_pca3_centers(n0, n1)
    assert len(centers) == {(1, 2): 6, (2, 1): 18, (1, 3): 24,
                            (2, 2): 24}[n0, n1]
    (cs, as_), lost, _ = continuation(PCA3, centers, PCA3_TARGETS)
    assert not lost.any()
    assert cs.dtype == as_.dtype == complex
    cube_roots = np.exp(2j * np.pi * np.arange(3) / 3.0)
    paths = iter(zip(cs, as_))  # center-major, target-minor
    for a0 in centers.params[:, 1].tolist():
        for w0, w1 in PCA3_TARGETS:
            c, a = (complex(v) for v in next(paths))
            crit = marked_critical_points(PCA3, [c, a])
            assert pca3_cycle_multiplier(c, a, crit[0], n0) == \
                pytest.approx(w0, abs=1e-9)
            assert pca3_cycle_multiplier(c, a, crit[1], n1) == \
                pytest.approx(w1, abs=1e-9)
            # a is the cube root of b = a^3 nearest the center's a
            assert abs(a - a0) <= np.min(np.abs(a * cube_roots - a0)) + 1e-12


def test_continuation_takes_one_marking():
    # centers joins the (1, 2) and (2, 1) markings in one set; a
    # continuation follows the rows of one, and an empty set has none
    sols = families.centers(PCA3, (1, 2))
    for rows in (sols, sols[:0]):
        with pytest.raises(PreconditionError, match="share their periods"):
            continuation(PCA3, rows, PCA3_TARGETS)


def test_single_path_is_the_batched_path_bit_for_bit():
    # one path of each family, against the same path inside a batch; the
    # (1, 2) centers have a = 0 up to rounding, where the three cube roots
    # of b tie
    quad = _quad_center(4)
    targets = 0.8 * np.exp(2j * np.pi * np.arange(5) / 5)
    (c,), _, _ = continuation(QUAD, quad, targets)
    for i, center in enumerate(quad):
        for j, w in enumerate(targets):
            one = multiplier_continuation(QUAD, center, (w,))
            assert isinstance(one, complex)
            assert one == c[i * len(targets) + j]
    for n0, n1 in ((1, 2), (2, 2)):
        centers = _unmerged_pca3_centers(n0, n1)
        (cs, as_), _, _ = continuation(PCA3, centers, PCA3_TARGETS)
        if n0 == 1:
            assert np.abs(centers.params[:, 1]).max() < 1e-12
        for i, center in enumerate(centers):
            for j, w in enumerate(PCA3_TARGETS):
                c, a = multiplier_continuation(PCA3, center, w)
                assert isinstance(c, complex) and isinstance(a, complex)
                k = i * len(PCA3_TARGETS) + j
                assert (c, a) == (cs[k], as_[k])


def _cycles_merged_loop(c, a, n0):
    """The per-center orbit scan that the vectorized _pca3_cycles_merged
    replaced, kept as its reference."""
    step, z = partial(_pca3_bare, q=(c, a**3)), 0.0 + 0.0j
    for _ in range(n0):
        if abs(z - c) <= ORBIT_CLOSE_TOL:
            return True
        z = step(z)
    return False


@pytest.mark.parametrize("n0,n1", [(1, 3), (2, 3), (3, 3)])
def test_cycles_merged_matches_the_per_center_loop(n0, n1):
    # centers joins both markings, so the period n0 of 0 that bounds the
    # scan differs across the rows when n0 != n1
    sols = families.centers(PCA3, (n0, n1))
    want = [_cycles_merged_loop(c, a, p0) for (c, a), (p0, _) in
            zip(sols.params.tolist(), sols.periods.tolist())]
    assert _pca3_cycles_merged(sols).tolist() == want
    # the two orbits can share a cycle only when their periods agree
    assert any(want) == (n0 == n1)


def test_continuation_pca3_rejects_merged_centers():
    # at 12 of the (2,2) centers both marked critical points lie on one
    # 2-cycle; no component with two distinct attracting cycles starts
    # there
    sols = _pca3_centers(2, 2)
    merged = sols[_pca3_cycles_merged(sols)]
    assert len(merged) == 12
    for center in merged:
        with pytest.raises(PreconditionError, match="share one cycle"):
            multiplier_continuation(PCA3, center, (0.3, -0.2j))


# ---------------------------------------------------------------------------
# component counting
# ---------------------------------------------------------------------------


def test_component_count_quad_small():
    for n in (1, 2, 3, 4, 5, 6):
        cc = component_count(QUAD, arith.PeriodTuple((n,)))
        assert cc.N == QUAD_COMPONENT_COUNTS[n - 1]
        assert cc.deficiency == pytest.approx(0.0, abs=1e-12)


def test_component_count_pca3_2_2():
    cc = component_count(PCA3, arith.PeriodTuple((2, 2)))
    assert cc.N == 24
    assert cc.deficiency >= -1e-12
    assert cc.deficiency == pytest.approx(cc.merged_fraction, abs=1e-12)
    assert cc.stab == 2


@pytest.mark.parametrize("periods", [
    *[(n0, n1) for n0 in (1, 2, 3) for n1 in (1, 2, 3)], (1, 4), (4, 1)],
    ids=lambda p: f"{p[0]},{p[1]}")
def test_component_count_pca3_deficiency_is_merged_fraction(periods):
    # both are multiplicity-weighted over the affine census, so they agree
    # once the enumeration is complete, period-1 slots included
    cc = component_count(PCA3, arith.PeriodTuple(periods))
    assert cc.marked_solutions == 2 * (
        arith.affine_cycle_point_count(3, periods[0])
        * arith.affine_cycle_point_count(3, periods[1]))
    assert cc.deficiency == pytest.approx(cc.merged_fraction, abs=1e-12)


def test_component_count_pca3_1_2():
    cc = component_count(PCA3, arith.PeriodTuple((1, 2)))
    assert cc.marked_solutions == 36
    assert cc.N == 24
    assert cc.stab == 1
