"""End-to-end acceptance gate.

Nine criteria, each evaluated by one test that prints a single
``[PASS]``/``[FAIL]`` line (run with ``pytest -s`` to see them) and then
asserts.  Tolerances are pinned in the module constants below.  Two criteria
contain sub-clauses that the underlying mathematics contradicts; those tests
fail honestly with a message stating the counterexample (the analysis lives
in the project notes, outside the package).
"""

import math
import time

import numpy as np

from dynbif import arith
from dynbif.cpoly import roots_blackbox
from dynbif.dynamics import (
    backward_cloud,
    exact_cycles,
    infinity_exact_period,
    period_wedge_evaluator,
)
from dynbif.equidist import (
    binned_distance,
    center_measure,
    equidist_report,
    moment,
    pern_circle_measure,
)
from dynbif.families import (
    DEGEN_CATALOG,
    PCA3,
    QUAD,
    centers_1d,
    centers_2d,
    component_count,
    degen_parameter,
    map_at,
    marked_critical_points,
    multiplier_continuation,
    pca3_cycle_multiplier,
    power_map_spectrum,
)
from dynbif.lyapunov import (
    green_normalized,
    lyap_from_spectrum,
    lyap_periodic,
    lyap_poly_closed_form,
)

from conftest import (
    chordal,
    cycle_columns,
    quad_lift,
    random_quadratic_rational,
    sphere_point,
    spectrum_multiset,
)

# ---------------------------------------------------------------------------
# pinned tolerances and expected values
# ---------------------------------------------------------------------------

POWER_MAP_TOL = 1e-12               # criterion 1
RATE_BOUND_FACTOR = 50.0            # criterion 2, first clause
RATE_SLACK = 2.0                    # criterion 2, second clause
QUAD_CENTER_COUNTS = (1, 1, 3, 6, 15, 27, 63, 120, 252, 495, 1023, 2010)
MASS_M2_VALUE = 0.1875901           # criterion 4
MASS_M2_TOL = 1e-6
MASS_M2_STABILITY = 1e-15
CUBIC_MARKED_PER_MARKING = 18       # criterion 5
DEFICIENCY_TOL = 1e-12
CONTINUATION_TOL = 1e-10            # criterion 6
SLOPE_RANGES = {"inv_t": (0.48, 0.52), "inv_t2": (0.96, 1.04),
                "t": (-0.02, 0.02)}  # criterion 7
MOEBIUS_TOL = 1e-9                  # criterion 9
GREEN_INVARIANCE_TOL = 1e-8
SPECTRUM_INVARIANCE_TOL = 1e-8
QUAD_WINDOW = ((-2.1, 0.6), (-1.3, 1.3))


def _line(num: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


def _decreasing_with_slack(values, slack):
    run_min = math.inf
    for v in values:
        if v > slack * run_min:
            return False
        run_min = min(run_min, v)
    return True


# ---------------------------------------------------------------------------
# criterion 1: power-map exactness
# ---------------------------------------------------------------------------


def test_criterion_1_power_map_exactness():
    t0 = time.perf_counter()
    failures = []
    for d in (2, 3):
        for n in range(1, 13):
            est = lyap_from_spectrum(power_map_spectrum(d, n), d, n, r=1.0)
            err = abs(est.value - math.log(d))
            if err > POWER_MAP_TOL:
                failures.append((d, n, err))
    elapsed = time.perf_counter() - t0
    in_time = elapsed < 10.0
    ok = not failures and in_time
    n1_only = all(n == 1 for _, n, _ in failures)
    detail = (
        f"z^d exactness d in {{2,3}}, n in [1,12], tol {POWER_MAP_TOL:g}, "
        f"{elapsed:.2f}s"
        if ok else
        f"{len(failures)} deviations {failures[:2]}..., {elapsed:.2f}s"
        + ("; only n=1 deviates: the estimator's defining average over the "
           "d+1 fixed points is (d-1)log(d)/(d+1), not log d -- the n=1 "
           "endpoint of this criterion contradicts the estimator definition "
           "(see project notes)" if n1_only else ""))
    assert _line(1, ok, detail), detail


# ---------------------------------------------------------------------------
# criterion 2: convergence-rate shape for z^2 + 1
# ---------------------------------------------------------------------------


def test_criterion_2_convergence_rate_shape():
    t0 = time.perf_counter()
    F = quad_lift(1.0)
    ref = lyap_poly_closed_form(np.array([1.0, 0.0, 1.0], dtype=complex))
    errors = {}
    normalized = {}
    for n in range(6, 15):
        e = abs(lyap_periodic(F, n, r=1.0).value - ref)
        errors[n] = e
        normalized[n] = e * 2.0**n / arith.sigma(2, n)
    elapsed = time.perf_counter() - t0
    bound = RATE_BOUND_FACTOR * normalized[6]
    bounded_ok = all(v <= bound for v in normalized.values())
    decreasing_ok = _decreasing_with_slack(
        [errors[n] for n in range(8, 15)], RATE_SLACK)
    in_time = elapsed < 120.0
    ok = bounded_ok and decreasing_ok and in_time
    detail = (f"normalized errors bounded by 50x n=6 value: {bounded_ok} "
              f"(max {max(normalized.values()):.3e} vs bound {bound:.3e}); "
              f"e_n decreasing for n >= 8 within factor 2: {decreasing_ok}"
              + ("" if decreasing_ok else
                 f" -- counterexample e_8 = {errors[8]:.3e} < "
                 f"e_9 = {errors[9]:.3e}, an oscillation of the exact error "
                 "sequence, not a numerical artifact (see project notes)")
              + f"; {elapsed:.1f}s")
    assert _line(2, ok, detail), detail


# ---------------------------------------------------------------------------
# criterion 3: quadratic center counts
# ---------------------------------------------------------------------------


def test_criterion_3_quad_center_counts():
    t0 = time.perf_counter()
    counts = tuple(len(centers_1d(QUAD, n)) for n in range(1, 13))
    elapsed = time.perf_counter() - t0
    ok = counts == QUAD_CENTER_COUNTS and elapsed < 300.0
    detail = (f"period 1..12 counts {counts} "
              f"{'==' if counts == QUAD_CENTER_COUNTS else '!='} "
              f"{QUAD_CENTER_COUNTS}; {elapsed:.1f}s")
    assert _line(3, ok, detail), detail


# ---------------------------------------------------------------------------
# criterion 4: degree-2 moduli-space mass series
# ---------------------------------------------------------------------------


def test_criterion_4_mass_series():
    r60 = arith.m2_mass_series(60)
    r200 = arith.m2_mass_series(200)
    value_ok = abs(r60.value - MASS_M2_VALUE) <= MASS_M2_TOL
    stable_ok = abs(r60.value - r200.value) < MASS_M2_STABILITY
    ok = value_ok and stable_ok
    detail = (f"60-term sum {r60.value:.16f} within {MASS_M2_TOL:g} of "
              f"{MASS_M2_VALUE}: {value_ok}; 60-vs-200-term drift "
              f"{abs(r60.value - r200.value):.2e} < {MASS_M2_STABILITY:g}: "
              f"{stable_ok}")
    assert _line(4, ok, detail), detail


# ---------------------------------------------------------------------------
# criterion 5: cubic counting
# ---------------------------------------------------------------------------


def _pca3_exact_period_check(c, a, z_start, n):
    """First-return time of the orbit of z_start equals n."""
    coeffs = np.array([a**3, 0.0, -c / 2.0, 1.0 / 3.0], dtype=complex)

    def step(z):
        return ((coeffs[3] * z + coeffs[2]) * z + coeffs[1]) * z + coeffs[0]

    z = complex(z_start)
    for k in range(1, n + 1):
        z = step(z)
        close = abs(z - z_start) < 1e-6
        if close:
            return k == n
    return False


def test_criterion_5_cubic_counting():
    t0 = time.perf_counter()
    marked_ok = True
    per_marking = []
    for n0, n1 in ((1, 2), (2, 1)):
        sols = centers_2d(PCA3, n0, n1)
        total = int(sols.multiplicity.sum())
        per_marking.append(total)
        for c, a in sols.params.tolist():
            if not _pca3_exact_period_check(c, a, 0.0, n0):
                marked_ok = False
            if not _pca3_exact_period_check(c, a, c, n1):
                marked_ok = False
    marked_ok = marked_ok and all(
        t == CUBIC_MARKED_PER_MARKING for t in per_marking)
    cc = component_count(PCA3, arith.PeriodTuple((2, 2)))
    deficiency_ok = (cc.deficiency >= -DEFICIENCY_TOL
                     and abs(cc.deficiency - cc.merged_fraction)
                     <= DEFICIENCY_TOL)
    elapsed = time.perf_counter() - t0
    ok = marked_ok and deficiency_ok and elapsed < 600.0
    detail = (f"(1,2)/(2,1) marked totals {per_marking} == 18 each with "
              f"exact-period recheck: {marked_ok}; (2,2) deficiency "
              f"{cc.deficiency:.12f} >= 0 and equals merged fraction "
              f"{cc.merged_fraction:.12f} to {DEFICIENCY_TOL:g}: "
              f"{deficiency_ok}; {elapsed:.1f}s")
    assert _line(5, ok, detail), detail


# ---------------------------------------------------------------------------
# criterion 6: multiplier-map continuation
# ---------------------------------------------------------------------------


def test_criterion_6_multiplier_continuation():
    rng = np.random.default_rng(2024)
    cardioid = centers_1d(QUAD, 1)[0]
    worst_quad = 0.0
    for _ in range(20):
        w = 0.9 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        c = multiplier_continuation(QUAD, cardioid, (w,))
        worst_quad = max(worst_quad, abs(c - (w / 2.0 - w * w / 4.0)))
    quad_ok = worst_quad <= CONTINUATION_TOL

    worst_cubic = 0.0
    sols = centers_2d(PCA3, 1, 2)
    for center, (w0, w1) in zip(sols[:3], [
            (0.5 + 0.2j, -0.4 + 0.1j),
            (-0.3 - 0.3j, 0.6j),
            (0.7, 0.25 - 0.5j)]):
        c, a = multiplier_continuation(PCA3, center, (w0, w1))
        crit = marked_critical_points(PCA3, [c, a])
        m0 = pca3_cycle_multiplier(complex(c), complex(a), crit[0], 1)
        m1 = pca3_cycle_multiplier(complex(c), complex(a), crit[1], 2)
        worst_cubic = max(worst_cubic, abs(m0 - w0), abs(m1 - w1))
    cubic_ok = worst_cubic <= CONTINUATION_TOL
    ok = quad_ok and cubic_ok
    detail = (f"20 cardioid targets, worst |c - (w/2 - w^2/4)| = "
              f"{worst_quad:.2e} <= {CONTINUATION_TOL:g}: {quad_ok}; cubic "
              f"(1,2) recomputed multipliers, worst deviation "
              f"{worst_cubic:.2e}: {cubic_ok}")
    assert _line(6, ok, detail), detail


# ---------------------------------------------------------------------------
# criterion 7: degeneration slopes
# ---------------------------------------------------------------------------


def test_criterion_7_degeneration_slopes():
    from dynbif.lyapunov import degeneration_slope
    t0 = time.perf_counter()
    results = {}
    all_ok = True
    for fam_id, (lo, hi) in SLOPE_RANGES.items():
        spec = DEGEN_CATALOG[fam_id]

        def lyap_of_t(t, spec=spec):
            c = degen_parameter(spec, t)
            return lyap_poly_closed_form(
                np.array([c, 0.0, 1.0], dtype=complex))

        fit = degeneration_slope(lyap_of_t, np.logspace(-6, -3, 10))
        results[fam_id] = fit.slope
        all_ok = all_ok and (lo <= fit.slope <= hi)
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed < 60.0
    detail = (f"slopes {{{', '.join(f'{k}: {v:.4f}' for k, v in results.items())}}} "
              f"within {SLOPE_RANGES}; {elapsed:.1f}s")
    assert _line(7, ok, detail), detail


# ---------------------------------------------------------------------------
# criterion 8: equidistribution
# ---------------------------------------------------------------------------


def test_criterion_8_equidistribution():
    t0 = time.perf_counter()
    rep = equidist_report(QUAD, range(6, 13), 4, 14)
    moments_ok = all(rep.moment_trend_ok)
    grid_ok = rep.grid_trend_ok

    circle_tvs = []
    for n in range(2, 7):
        cm = pern_circle_measure(QUAD, n, 0.5, 16)
        mu_n = center_measure(QUAD, arith.PeriodTuple((n,)))
        circle_tvs.append(binned_distance(cm.measure, mu_n,
                                          QUAD_WINDOW, (64, 64)))
    circle_ok = _decreasing_with_slack(circle_tvs, 1.0 + 1e-12)
    elapsed = time.perf_counter() - t0
    ok = moments_ok and grid_ok and circle_ok
    mu8 = center_measure(QUAD, arith.PeriodTuple((8,)))
    mu10 = center_measure(QUAD, arith.PeriodTuple((10,)))
    detail = (f"moment errors vs mu_14 decreasing for k <= 4: {moments_ok}"
              + ("" if moments_ok else
                 f" -- counterexample: the first moments of mu_8 and mu_10 "
                 f"are the exact rationals {moment(mu8, 1).real:.10f} and "
                 f"{moment(mu10, 1).real:.10f}; the error sequence "
                 "oscillates because several mu_n means equal the limit mean "
                 "exactly while the mu_14 reference itself does not (see "
                 "project notes)")
              + f"; grid-TV vs mu_14 decreasing: {grid_ok}; level-curve "
              f"measure at rho=0.5 approaching the center measure, TVs "
              f"{[round(v, 4) for v in circle_tvs]}: {circle_ok}; "
              f"{elapsed:.1f}s")
    assert _line(8, ok, detail), detail


# ---------------------------------------------------------------------------
# criterion 9: structural identities suite
# ---------------------------------------------------------------------------


def _full_periodic_points(F, n):
    """Roots of the full period-n fixed-point locus, solved directly."""
    m_inf = infinity_exact_period(F, n)
    has_inf = m_inf is not None and n % m_inf == 0
    target = F.degree**n + 1 - (1 if has_inf else 0)
    init = backward_cloud(F, target)
    rs = roots_blackbox(period_wedge_evaluator(F, n), target, init)
    pts = [sphere_point(z) for z in rs.expanded()]
    if has_inf:
        pts.append(sphere_point(math.inf))
    return pts


def _multiset_match(pts_a, pts_b, tol):
    if len(pts_a) != len(pts_b):
        return False
    remaining = list(pts_b)
    for p in pts_a:
        dists = [chordal(p, q) for q in remaining]
        i = int(np.argmin(dists))
        if dists[i] > tol:
            return False
        remaining.pop(i)
    return True


def test_criterion_9_structural_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)

    # (a) Moebius product identity: the union over m | n of the independently
    # extracted exact-period-m points must reproduce the directly solved
    # full period-n locus (the root form of prod_{m|n} Phi_m = F^n wedge id)
    moebius_ok = True
    for trial in range(4):
        F = random_quadratic_rational(rng)
        for n in (4, 6):
            try:
                union = []
                for m in arith.divisors(n):
                    for cols in cycle_columns(exact_cycles(F, m)):
                        union.extend(cols.T)
                full = _full_periodic_points(F, n)
            except Exception:
                moebius_ok = False
                break
            if not _multiset_match(union, full, MOEBIUS_TOL):
                moebius_ok = False
                break

    # (b) d_n census at 50 random parameters
    census_ok = True
    for _ in range(50):
        c = 2.0 * (rng.standard_normal() + 1j * rng.standard_normal())
        F = map_at(QUAD, [c])
        for n in (1, 2, 3):
            cols = cycle_columns(exact_cycles(F, n))
            pts = sum(c.shape[1] for c in cols)
            if pts != arith.exact_cycle_point_count(2, n):
                census_ok = False

    # (c) lift-scaling invariance of the normalized potential
    green_ok = True
    F = quad_lift(0.3 + 0.4j)
    samples = [sphere_point(
        2.0 * (rng.standard_normal() + 1j * rng.standard_normal()))
        for _ in range(20)]
    for alpha in (2.0, 1.0j, 10.0):
        for z in samples:
            if abs(green_normalized(F.scaled(alpha), z)
                   - green_normalized(F, z)) > GREEN_INVARIANCE_TOL:
                green_ok = False

    # (d) conjugation invariance of multiplier spectra
    conj_ok = True
    for _ in range(5):
        F = random_quadratic_rational(rng)
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if abs(np.linalg.det(m)) < 0.1:
            continue
        G = F.conjugate(m)
        for n in (1, 2, 3):
            sa = spectrum_multiset(exact_cycles(F, n))
            sb = spectrum_multiset(exact_cycles(G, n))
            if len(sa) != len(sb) or any(
                    abs(x - y) > SPECTRUM_INVARIANCE_TOL * (1.0 + abs(x))
                    for x, y in zip(sa, sb)):
                conj_ok = False

    elapsed = time.perf_counter() - t0
    ok = moebius_ok and census_ok and green_ok and conj_ok and elapsed < 300.0
    detail = (f"divisor-product root identity (n in {{4,6}}): {moebius_ok}; "
              f"d_n census at 50 random parameters: {census_ok}; "
              f"lift-scaling invariance of normalized potential "
              f"({GREEN_INVARIANCE_TOL:g}): {green_ok}; conjugation "
              f"invariance of multiplier spectra "
              f"({SPECTRUM_INVARIANCE_TOL:g}): {conj_ok}; {elapsed:.1f}s")
    assert _line(9, ok, detail), detail
