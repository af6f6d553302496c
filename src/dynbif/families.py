"""Parametrized families and parameter-space solvers.

Families carried: the quadratic polynomials z^2 + c, the critically marked
cubic polynomials z^3/3 - (c/2) z^2 + a^3 (one marked critical point at 0,
one at c), a quadratic rational normal form with prescribed fixed-point
multipliers, and a catalog of one-parameter meromorphic disk families for
degeneration slopes.

Parameter-space solving is black-box throughout: critical-orbit return
polynomials are evaluated by orbit recursion (never expanded in
coefficients), with escape shortcuts so that nothing overflows.

The marked cycles of z^2 + c (one) and of the marked cubic (two) share one
kernel.  Each family gives only its step in the continuation chart, with
the derivatives the corrector needs, and its bare map; the cycle block, the
corrector, the batched continuation of all center x target paths and the
settled-multiplier read-off are written once.  The cubic continues in
(c, b = a^3) and maps back to the cube root a nearest the center's; at the
(1, n) centers a = 0, where the three roots tie.
"""

from __future__ import annotations

import cmath
import warnings
from collections.abc import Callable
from dataclasses import astuple, dataclass, fields
from functools import lru_cache, partial

import numpy as np

from . import arith
from .aberth import slab_pairs
from .cpoly import roots_blackbox
from .dynamics import RationalMapLift
from .errors import (
    CountMismatchError,
    CountOverflowError,
    DegenerateMapError,
    IllConditionedError,
    IncompleteEnumerationWarning,
    NotInComponentError,
    PathLossError,
    PreconditionError,
)

# Degree 2^(n-1) stays under the desk cap of 2*10^4 through n = 14, the
# highest period whose enumeration is certified complete (every count is
# checked against the Moebius divisor count).
QUAD_CENTER_CAP = 14
PCA_BEZOUT_CAP = 2000
#: Newton seeds per Bezout solution in round 0 of the pca3 center solve
SEEDS_PER_ROOT = 60
#: converged (c, b) solutions closer than this (Euclidean in C^2) are one
CENTER_DEDUPE_RADIUS = 1e-9
#: a (c, b) center is simple below this Jacobian condition number: placed to
#: MAX_CENTER_COND * eps ~ 2e-10, it stays inside CENTER_DEDUPE_RADIUS
MAX_CENTER_COND = 1e6
#: orbit points this close coincide: an orbit closes, or meets a critical
#: point
ORBIT_CLOSE_TOL = 1e-8
ESCAPE = 1e100


# ---------------------------------------------------------------------------
# family catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilySpec:
    """A row of FAMILIES: CLI id, parameter count, degree and the member
    map from the parameters (a 1-d complex array) to ascending polynomial
    coefficients, None for the rational normal form."""

    family_id: str
    parameter_dim: int
    degree: int
    member: Callable[[np.ndarray], np.ndarray | None]


def pca_map(c, a) -> np.ndarray:
    """Ascending coefficients of the marked cubic z^3/3 - (c/2) z^2 + a^3,
    whose critical points are exactly 0 and c."""
    return np.array([complex(a) ** 3, 0.0, -c / 2, 1.0 / 3.0],
                    dtype=np.complex128)


def _quadratic(p) -> np.ndarray:
    """z^2 + c at p = (c,)."""
    (c,) = p
    return np.array([c, 0.0, 1.0], dtype=np.complex128)


def _disk(c_of_t):
    """Member map of a disk family z^2 + c(t), t in the punctured disk: a
    zero or non-finite t, or a c(t) that is not a finite double, is a
    PRECONDITION."""

    def member(p):
        (t,) = p
        t = complex(t)
        if t == 0 or not cmath.isfinite(t):
            raise PreconditionError(f"t = {t} must be finite and nonzero")
        try:
            c = c_of_t(t)
        except (ZeroDivisionError, OverflowError):  # t**2 under/overflows
            c = complex("nan")
        if not cmath.isfinite(c):
            raise PreconditionError(
                f"c(t) does not evaluate to a finite double at t = {t}")
        return _quadratic((c,))

    return member


QUAD = FamilySpec("quad", 1, 2, _quadratic)
PCA3 = FamilySpec("pca3", 2, 3, lambda p: pca_map(*p))
QUADRAT = FamilySpec("quadrat", 2, 2, lambda p: None)

DEGEN_CATALOG = {
    "inv_t": FamilySpec("degen:inv_t", 1, 2, _disk(lambda t: 1.0 / t)),
    "inv_t2": FamilySpec("degen:inv_t2", 1, 2, _disk(lambda t: 1.0 / t**2)),
    "t": FamilySpec("degen:t", 1, 2, _disk(lambda t: t)),
}

#: every family by its CLI id
FAMILIES = {spec.family_id: spec
            for spec in (QUAD, PCA3, QUADRAT, *DEGEN_CATALOG.values())}


def family_from_id(family_id: str) -> FamilySpec:
    if family_id not in FAMILIES:
        raise PreconditionError(f"unknown family id {family_id!r}")
    return FAMILIES[family_id]


def degen_parameter(spec: FamilySpec, t: complex) -> complex:
    """The quadratic parameter c(t) of a catalog disk family."""
    if spec not in DEGEN_CATALOG.values():
        raise PreconditionError(f"{spec.family_id} is not a disk family")
    return complex(spec.member([t])[0])


def poly_coeffs(spec: FamilySpec, params) -> np.ndarray | None:
    """Ascending coefficients of a polynomial family member; None for the
    rational normal form."""
    return spec.member(np.atleast_1d(np.asarray(params, dtype=complex)))


def map_at(spec: FamilySpec, params) -> RationalMapLift:
    """The rational-map lift of a family member."""
    if spec is QUADRAT:
        mu1, mu2 = np.atleast_1d(np.asarray(params, dtype=complex))
        return quadrat_fixed_normal_form(mu1, mu2)
    coeffs = poly_coeffs(spec, params)
    den = np.zeros(len(coeffs), dtype=np.complex128)
    den[0] = 1.0
    return RationalMapLift(coeffs, den)


def marked_critical_points(spec: FamilySpec, params) -> list[complex]:
    """0, then the cubic's free critical point c."""
    if spec is QUADRAT:
        raise PreconditionError("quadrat has no marked critical points")
    p = np.atleast_1d(np.asarray(params, dtype=complex))
    return [0.0 + 0.0j] + [complex(x) for x in p[:spec.parameter_dim - 1]]


def quadrat_fixed_normal_form(mu1: complex, mu2: complex) -> RationalMapLift:
    """Degree-2 rational map z(z + mu1)/(mu2 z + 1) with fixed points 0 and
    infinity of multipliers mu1 and mu2."""
    mu1, mu2 = complex(mu1), complex(mu2)
    if abs(mu1 * mu2 - 1.0) <= 1e-12:
        raise DegenerateMapError("mu1 * mu2 = 1 collapses the normal form")
    num = np.array([0.0, mu1, 1.0], dtype=np.complex128)
    den = np.array([1.0, mu2, 0.0], dtype=np.complex128)
    return RationalMapLift(num, den)


# ---------------------------------------------------------------------------
# power maps: closed-form multiplier spectra
# ---------------------------------------------------------------------------


def power_map_spectrum(d: int, n: int) -> list[tuple[complex, int]]:
    """Exact multiplier spectrum of z^d at period n as (multiplier,
    cycle count) pairs: every exact-period-n cycle has multiplier d^n, plus
    the two superattracting fixed points at n = 1."""
    if d < 2 or n < 1:
        raise PreconditionError("need d >= 2, n >= 1")
    if n == 1:
        return [(0.0 + 0.0j, 2), (complex(d), d - 1)]
    d_n = arith.exact_cycle_point_count(d, n)
    return [(complex(d) ** n, d_n // n)]


# ---------------------------------------------------------------------------
# quadratic critical-orbit evaluators
# ---------------------------------------------------------------------------


def quad_center_evaluator(n: int):
    """Vectorized evaluator of the period-n critical-orbit return polynomial
    of z^2 + c: c -> f_c^n(0), with d/dc, degree 2^(n-1).

    Escaped parameters switch to the asymptotic Newton-ratio recursion
    (the ratio halves per remaining step once |z| dwarfs |c| and 1), so the
    returned pair never overflows; it may carry a per-point scaling, which is
    all the root finder needs.
    """

    def eval_fn(c: np.ndarray):
        c = np.asarray(c, dtype=np.complex128)
        p = np.empty_like(c)
        dp = np.ones_like(c)
        live = np.arange(c.size)
        cl, z, dz = c, np.zeros_like(c), np.zeros_like(c)
        for k in range(n):
            dz = 2.0 * z * dz + 1.0
            z = z ** 2 + cl
            esc = np.abs(z) > ESCAPE
            if np.any(esc):
                # remaining steps only halve the Newton ratio
                p[live[esc]] = (z[esc] / dz[esc]) * 0.5 ** (n - 1 - k)
                dp[live[esc]] = 1.0
                keep = ~esc
                live, cl, z, dz = live[keep], cl[keep], z[keep], dz[keep]
        p[live] = z
        dp[live] = dz
        return p, dp

    return eval_fn


@dataclass(frozen=True)
class CenterSet:
    """Postcritically finite parameters, one row per center: ``params``
    (complex, K x dim), the exact ``periods`` of the marked critical points
    (int, K x dim), the largest ``residual`` of the defining system and the
    ``multiplicity`` (K each): the local intersection multiplicity of the
    return system, 1 at the transversal solutions that the center solves
    certify and 3 at the marked cubic's a = 0 rows, where b = a^3 triples a
    simple root in b.  An index, a slice or a mask selects a CenterSet."""

    params: np.ndarray
    periods: np.ndarray
    residual: np.ndarray
    multiplicity: np.ndarray

    def __len__(self) -> int:
        return len(self.params)

    def __getitem__(self, rows) -> "CenterSet":
        i = np.atleast_1d(np.arange(len(self))[rows])
        return CenterSet(*(getattr(self, f.name)[i] for f in fields(self)))


def _first_return(bare, q, z0, n: int) -> np.ndarray:
    """First return time of each z0 to itself under bare(., q), arrays
    broadcast, scanned up to n; 0 where the orbit does not return."""
    period = np.zeros(np.shape(z0), dtype=np.int64)
    z = z0
    for m in range(1, n + 1):
        z = bare(z, q)
        period[(period == 0) & (np.abs(z - z0) <= ORBIT_CLOSE_TOL)] = m
    return period


@lru_cache(maxsize=None)
def _quad_exact_centers(n: int) -> CenterSet:
    """Exact-period-n centers of z^2 + c, sorted, certified complete, as a
    read-only CenterSet.

    Solves the full critical-orbit return polynomial p_n(c) = f_c^n(0) (all
    periods dividing n) by the black-box simultaneous iteration.  The seeds
    come from p_n = p_(n-1)^2 + c: near each root r of p_(n-1) (the centers
    of the periods dividing n - 1), p_n(r + d) ~ a d^2 + d + r with
    a = p_(n-1)'(r)^2, whose two roots give two seeds, so the 2^(n-1) seeds
    are deterministic and most already sit near a root.  The offsets are
    turned by a fixed 0.01 rad: real seeds of a real polynomial would
    never leave the real axis to reach a conjugate pair.  Exact periods are
    assigned by orbit tests and every per-period count is certified
    against the Moebius divisor count, raising COUNT_MISMATCH on any
    discrepancy.  Each residual is the Newton step |p_n / p_n'| (a distance
    in c).
    """
    if n == 1:
        cs = np.zeros(1, dtype=np.complex128)
    else:
        r = np.concatenate([_quad_exact_centers(m).params[:, 0]
                            for m in arith.divisors(n - 1)])
        a = quad_center_evaluator(n - 1)(r)[1] ** 2
        # the principal root has Re >= 0, so 1 + sqrt(.) never cancels
        q = -0.5 * (1.0 + np.sqrt(1.0 - 4.0 * a * r))
        init = np.tile(r, 2) + np.concatenate([q / a, r / q]) * np.exp(0.01j)
        rs = roots_blackbox(quad_center_evaluator(n), 2 ** (n - 1), init)
        if np.any(rs.multiplicities > 1):
            raise CountOverflowError(
                "duplicate clusters among centers resist separation")
        roots = rs.roots
        period = _first_return(_quad_bare, (roots,), np.zeros_like(roots), n)
        stray = (period == 0) | (n % np.maximum(period, 1) != 0)
        if np.any(stray):
            raise CountMismatchError(f"root {complex(roots[stray][0])} has "
                                     f"no divisor period up to {n}")
        for m in arith.divisors(n):
            expected = arith.affine_cycle_point_count(2, m) // 2
            got = np.count_nonzero(period == m)
            if got != expected:
                raise CountMismatchError(
                    f"period {m}: found {got} centers, expected {expected}")
        # a conjugate pair's real parts differ only by rounding: round them
        # so each pair keeps the order (-im, +im) under last-bit changes
        cs = roots[period == n]
        cs = cs[np.lexsort((cs.imag, np.round(cs.real, 10)))]
    res = np.abs(np.divide(*quad_center_evaluator(n)(cs)))
    centers = CenterSet(cs[:, None], np.full((len(cs), 1), n), res,
                        np.ones(len(cs), dtype=int))
    for f in fields(centers):
        getattr(centers, f.name).flags.writeable = False
    return centers


def centers_1d(spec: FamilySpec, n: int) -> CenterSet:
    """All parameters of a one-parameter family where the marked critical
    point has exact period n, certified complete against the Moebius divisor
    count (a cached, read-only CenterSet)."""
    if spec is not QUAD:
        raise PreconditionError("one-parameter center enumeration supports "
                                f"quad, not {spec.family_id}")
    if n < 1 or n > QUAD_CENTER_CAP:
        raise PreconditionError(f"period must lie in [1, {QUAD_CENTER_CAP}]")
    return _quad_exact_centers(n)


# ---------------------------------------------------------------------------
# cubic center systems in the chart (c, b = a^3)
# ---------------------------------------------------------------------------


def _pca3_step(z, c, b):
    """The marked cubic P(z) = z^3/3 - (c/2) z^2 + b with b = a^3 and its
    first derivatives (P, dP/dz, dP/dc), on scalars and arrays alike;
    dP/db = 1."""
    z2 = z * z
    return z2 * z / 3.0 - 0.5 * c * z2 + b, z2 - c * z, -0.5 * z2


def _pca3_orbit(c, b, z, z_c, n):
    """n steps of the orbit of z with forward-mode derivatives in (c, b),
    starting from dz/dc = z_c and dz/db = 0; all arrays broadcast."""
    z_b = np.zeros_like(z)
    for _ in range(n):
        f, f_z, f_c = _pca3_step(z, c, b)
        z, z_c, z_b = f, f_z * z_c + f_c, f_z * z_b + 1.0
    return z, z_c, z_b


def _pca3_center_system(c, b, n0, n1):
    """Residuals and exact Jacobian of the two-critical-orbit return system
    (P^n0(0), P^n1(c)) at parameters (c, b), vectorized."""
    zero = np.zeros_like(c)
    g0, g0c, g0b = _pca3_orbit(c, b, zero, zero, n0)
    # the free critical point c must return to itself
    z1, z1c, z1b = _pca3_orbit(c, b, c, np.ones_like(c), n1)
    return (g0, z1 - c), ((g0c, g0b), (z1c - 1.0, z1b))


def _pca3_newton(c, b, n0, n1, iters, found):
    """Up to ``iters`` vectorized Newton steps from every seed (c, b) on the
    return system, each cut to length 1.  A seed stops once its step is not
    finite or |dc| + |db| <= 1e-15 (1 + |c| + |b|), and joins the K x 2 set
    ``found`` if |g0| + |g1| < 1e-8 where that last step started.  All stop
    once the set holds the 3^(n0+n1-1) solutions of the system; more raise
    CountOverflowError."""
    n_solutions = 3 ** (n0 + n1 - 1)
    c, b = np.array(c, dtype=complex), np.array(b, dtype=complex)
    live = np.arange(len(c))
    for _ in range(iters):
        if not live.size or len(found) >= n_solutions:
            break
        (g0, g1), ((g0c, g0b), (g1c, g1b)) = \
            _pca3_center_system(c[live], b[live], n0, n1)
        det = g0c * g1b - g0b * g1c
        with np.errstate(divide="ignore", invalid="ignore"):
            step_c = (g0 * g1b - g1 * g0b) / det
            step_b = (g1 * g0c - g0 * g1c) / det
        ok = np.isfinite(step_c) & np.isfinite(step_b)
        live, step_c, step_b = live[ok], step_c[ok], step_b[ok]
        small = (np.abs(g0) + np.abs(g1))[ok] < 1e-8
        # damp long steps to keep seeds from being flung out
        mag = np.sqrt(np.abs(step_c) ** 2 + np.abs(step_b) ** 2)
        damp = np.minimum(1.0, 1.0 / np.maximum(mag, 1e-30))
        step_c, step_b = step_c * damp, step_b * damp
        c[live] -= step_c
        b[live] -= step_b
        done = (np.abs(step_c) + np.abs(step_b)
                <= 1e-15 * (1.0 + np.abs(c[live]) + np.abs(b[live])))
        new, live = live[done & small], live[~done]
        found = _merge(found, np.stack([c[new], b[new]], 1))
    if len(found) > n_solutions:
        raise CountOverflowError(f"{len(found)} solutions of the ({n0}, {n1})"
                                 f" return system exceed {n_solutions}")
    return found


def _dedupe(points: np.ndarray, radius: float) -> np.ndarray:
    """Ascending indices of the rows of ``points`` (K x 2, complex) that a
    first-come pass keeps: a row is dropped when it lies within ``radius``
    (Euclidean in C^2) of a row kept before it.  Each kept row removes its
    whole neighbourhood in one vectorized sweep, so the cost is
    O(K * kept).  Rows kept by an earlier call stay kept when they lead the
    input."""
    left = np.arange(len(points))
    kept = []
    while left.size:
        i = left[0]
        kept.append(i)
        left = left[np.linalg.norm(points[left] - points[i], axis=1)
                    > radius]
    return np.array(kept, dtype=int)


def _merge(found: np.ndarray, new: np.ndarray) -> np.ndarray:
    """The rows _dedupe keeps of found + new, found being rows it kept: new
    rows near found go first (slab search on Re c), then _dedupe the rest."""
    r, key = CENTER_DEDUPE_RADIUS, new[:, 0].real
    q, p = slab_pairs(found[:, 0].real, key, np.full(len(key), r))
    new = np.delete(new, q[np.linalg.norm(new[q] - found[p], axis=1) <= r],
                    axis=0)
    return np.concatenate([found, new[_dedupe(new, r)]])


def _swap_marking(q: np.ndarray) -> np.ndarray:
    """(c, b) -> (c, c + c^3/6 - b): z -> c - z swaps the critical points."""
    return np.stack([q[:, 0], q[:, 0] + q[:, 0]**3 / 6.0 - q[:, 1]], axis=1)


def _symmetry_images(q: np.ndarray, n0: int, n1: int) -> np.ndarray:
    """The images of the K x 2 rows (c, b) under each symmetry of the
    (n0, n1) return system but the identity: complex conjugation (the
    coefficients are real), z -> -z, which maps (c, b) to (-c, -b), and
    their product; when n0 = n1, also each of these after _swap_marking."""
    images = [q.conj(), -q, -q.conj()]
    if n0 == n1:
        images += [_swap_marking(g) for g in [q] + images]
    return np.concatenate(images)


@lru_cache(maxsize=None)
def _pca3_solutions(n0: int, n1: int) -> np.ndarray:
    """Read-only K x 2 solutions (c, b) of the full (n0, n1) return system.
    Each seeding round is followed by Newton runs from the symmetry images
    of the rows found, and a full set must be closed under the symmetries
    (CountMismatch)."""
    n_solutions = 3 ** (n0 + n1 - 1)
    found = np.empty((0, 2), dtype=complex)
    for round_id in range(5):
        if len(found) == n_solutions:
            break
        rng = np.random.default_rng(7919 * round_id)
        n_seeds = SEEDS_PER_ROOT * 3 * n_solutions * (1 + round_id)
        # parameters of interest sit in a bounded bidisk (the connectedness
        # locus of the family is compact); seed generously around it
        spread = 2.2 + 0.6 * round_id
        c = spread * (rng.standard_normal(n_seeds)
                      + 1j * rng.standard_normal(n_seeds))
        a = (0.73 * spread) * (rng.standard_normal(n_seeds)
                               + 1j * rng.standard_normal(n_seeds))
        found = _pca3_newton(c, a**3, n0, n1, 120, found)
        if len(found) < n_solutions:
            image = _symmetry_images(found, n0, n1)
            found = _pca3_newton(image[:, 0], image[:, 1], n0, n1, 120, found)
    _assign_multiplicities(found, n0, n1)  # duplicates are ill-conditioned
    if len(_merge(found, _symmetry_images(found, n0, n1))) \
            > len(found) == n_solutions:
        raise CountMismatchError(
            f"({n0}, {n1}) not closed under its symmetries")
    found.flags.writeable = False
    return found


def centers(spec: FamilySpec, periods) -> CenterSet:
    """The centers of a family at one period per parameter: centers_1d for
    one period; for the pair {n0, n1}, both markings of the critical points
    0 and c (one when n0 = n1) from one solve (centers_2d), the (n0, n1)
    rows first."""
    if len(periods) != spec.parameter_dim:
        raise PreconditionError(f"{spec.family_id} takes one period per "
                                f"parameter ({spec.parameter_dim}), got "
                                f"{len(periods)}")
    if len(periods) == 1:
        return centers_1d(spec, *periods)
    n0, n1 = periods
    markings = [(n0, n1)] if n0 == n1 else [(n0, n1), (n1, n0)]
    sets = [astuple(centers_2d(spec, m0, m1)) for m0, m1 in markings]
    return CenterSet(*map(np.concatenate, zip(*sets)))


def centers_2d(spec: FamilySpec, n0: int, n1: int) -> CenterSet:
    """All (c, a) where critical point 0 has exact period n0 and critical
    point c has exact period n1, for the marked cubic family.

    Random-seeded damped Newton on the two return equations in the chart
    (c, b = a^3), where a = 0 is no triple root; converged solutions are
    deduped at CENTER_DEDUPE_RADIUS.  The full return system (all divisor
    periods) has 3^(n0+n1-1) solutions in (c, b), its (c, a) Bezout count
    3^(n0+n1) over the three cube roots: seeds stop once that many are
    found, more raise CountOverflowError; n0 < n1 maps the (n1, n0) solve
    by _swap_marking.  Each exact-period (c, b) gives the rows of the three
    cube roots a of b, or a = 0 alone when n0 = 1 (P(0) = b).  Each row has
    multiplicity 1, or 3 at a = 0 (see _assign_multiplicities), and the
    total is certified against the Bezout count D_n0 * D_n1 (an
    IncompleteEnumerationWarning with the deficit when seeding falls short).
    """
    if spec is not PCA3:
        raise PreconditionError("two-parameter center enumeration supports "
                                f"pca3, not {spec.family_id}")
    if n0 < 1 or n1 < 1:
        raise PreconditionError("periods must be >= 1")
    bezout = (arith.affine_cycle_point_count(3, n0)
              * arith.affine_cycle_point_count(3, n1))
    if bezout > PCA_BEZOUT_CAP:
        raise PreconditionError(
            f"Bezout count {bezout} exceeds the desk cap {PCA_BEZOUT_CAP}")
    found = (_pca3_solutions(n0, n1).copy() if n0 >= n1
             else _swap_marking(_pca3_solutions(n1, n0)))
    if n0 == 1:
        found[:, 1] = 0.0  # P(0) = b
    # drop the divisor-period solutions of the full return system
    q = (found[:, 0], found[:, 1])
    zero = np.zeros_like(q[0])
    found = found[(_first_return(_pca3_bare, q, zero, n0) == n0)
                  & (_first_return(_pca3_bare, q, q[0], n1) == n1)]
    (g0, g1), _ = _pca3_center_system(found[:, 0], found[:, 1], n0, n1)
    mult = _assign_multiplicities(found, n0, n1)
    roots = _cube_roots(found[:, 1])[:3 if n0 > 1 else 1]
    k = len(roots)  # rows cube-root-major, as the stable sort then sees them
    params = np.stack([np.tile(found[:, 0], k), roots.ravel()], axis=1)
    total = int(mult.sum()) * k
    if total < bezout:
        warnings.warn(
            f"found multiplicity total {total} of {bezout} exact-period "
            f"solutions", IncompleteEnumerationWarning)
    if total > bezout:
        raise CountOverflowError(
            f"multiplicity total {total} exceeds the exact-period Bezout "
            f"count {bezout}")
    # conjugate rows tie up to rounding: rounded keys keep their order
    order = np.lexsort(np.round(params.view(float), 10).T[::-1])
    return CenterSet(params, np.tile([n0, n1], (len(params), 1)),
                     np.tile(np.maximum(np.abs(g0), np.abs(g1)), k),
                     np.tile(mult, k))[order]


def _assign_multiplicities(q: np.ndarray, n0: int, n1: int) -> np.ndarray:
    """Multiplicity in (c, a) of the rows over each solution (c, b) of the
    K x 2 array ``q``.  Centers are transversal intersections of the two
    critical-orbit relations: with every Jacobian condition number below
    MAX_CENTER_COND each (c, b) is simple, times 3 at b = 0 (n0 = 1), where
    a = 0 is a triple root of b = a^3; otherwise IllConditionedError."""
    _, jac = _pca3_center_system(q[:, 0], q[:, 1], n0, n1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.linalg.cond(np.moveaxis(np.array(jac), -1, 0))
    if not np.all(cond < MAX_CENTER_COND):  # nan fails too
        raise IllConditionedError(
            f"({n0}, {n1}) center Jacobian condition number "
            f"{np.nanmax(cond):.3g} >= {MAX_CENTER_COND:g}")
    return np.full(len(q), 3 if n0 == 1 else 1)


# ---------------------------------------------------------------------------
# marked cycles: one kernel for z^2 + c and the marked cubic
# ---------------------------------------------------------------------------
#
# A family's step in its chart q (q = (c,) for z^2 + c, q = (c, b = a^3) for
# the cubic) is (f, f_z, f_zz, f_q, f_zq); its bare map is f alone, for
# settling and orbit scans.  Marked cycle j starts at the marked critical
# point 0 (j = 0) or q[j - 1].


def _quad_chart_step(z, q):
    return z * z + q[0], 2.0 * z, 2.0, (1.0,), (0.0,)


def _quad_bare(z, q):
    return z * z + q[0]


def _pca3_chart_step(z, q):
    c, b = q
    f, f_z, f_c = _pca3_step(z, c, b)
    return f, f_z, 2.0 * z - c, (f_c, 1.0), (-z, 0.0)


def _pca3_bare(z, q):
    z2 = z * z
    return z2 * z / 3.0 - 0.5 * q[0] * z2 + q[1]


#: the continued families: (chart step, bare map)
_CYCLE_FAMILIES = {QUAD: (_quad_chart_step, _quad_bare),
                   PCA3: (_pca3_chart_step, _pca3_bare)}


def _marked_points(q: list) -> list:
    """The marked critical points in the chart q, one per marked cycle."""
    return [np.zeros_like(q[0])] + list(q[:-1])


#: initial steps of a continuation path in the path variable s in [0, 1]
_CONTINUATION_STEPS = 20
#: corrector iterations per continuation step, and the relative Newton step
#: that converges; below a step of _MIN_DS in the path variable a path counts
#: as lost
_CORRECTOR_ITERS = 60
_CORRECTOR_TOL = 1e-12
_MIN_DS = 1e-4
_S_END = 1.0 - 1e-15
#: paths continued together: bounds the kernel's temporaries, whatever the
#: number of paths
PATH_CHUNK = 2**14
#: largest multiplier modulus a continuation may target
MAX_TARGET_MODULUS = 0.95


def multiplier_continuation(spec: FamilySpec, center: CenterSet, target_w):
    """Parameter in the hyperbolic component of the one-row set ``center``
    where the marked attracting cycles have the prescribed multipliers: the
    one path of ``continuation`` to ``target_w``, with PATH_LOSS when it is
    lost.  Returns c for the quadratic family and (c, a) for the cubic."""
    w = np.atleast_1d(np.asarray(target_w, dtype=complex))
    if len(w) != spec.parameter_dim:
        raise PreconditionError(f"{spec.family_id} takes one target "
                                "multiplier per marked cycle, "
                                f"{spec.parameter_dim} in all")
    q, (lost,), _ = continuation(spec, center, w[None, :])  # one row only
    if lost:
        raise PathLossError("Newton diverged with minimal step")
    params = tuple(complex(v[0]) for v in q)
    return params if len(params) > 1 else params[0]


def continuation(spec: FamilySpec, centers: CenterSet, targets
                 ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Multiplier continuation along every (center, target) path at once,
    center-major and target-minor: from each center, the parameters where
    the marked attracting cycles have the target multipliers (one per
    marked cycle and target; a flat array for z^2 + c).

    Every path runs on ``_continue_paths`` (targets s*w for s from 0 to 1,
    step halving down to 1e-4 before it counts as lost).  The marked cubic
    continues in the chart (c, b = a^3), where the map, hence both
    multipliers, is smooth (it sees a only through b), and returns the cube
    root a of b nearest the center's a.  Where the center's a is 0 (the
    (1, n) markings, up to rounding) the three roots tie and rounding
    picks one; all three give the same map.

    Returns the end parameters, one array per coordinate ((c,) or (c, a)),
    the mask of lost paths and each path's slope |det d lambda/dq|: the
    factor by which rounding in q moves the multipliers.  Raises
    NotInComponentError when a continued cycle closes early or does not
    attract its critical point, and PreconditionError at a center whose two
    marked critical points share one cycle (no component with two distinct
    attracting cycles starts there).
    """
    if spec not in _CYCLE_FAMILIES:
        raise PreconditionError(
            f"continuation not supported for {spec.family_id}")
    step, bare = _CYCLE_FAMILIES[spec]
    k = spec.parameter_dim  # one marked cycle per parameter
    w = np.asarray(targets, dtype=complex).reshape(-1, k)
    # rho * e^(i theta) can round to an ulp past rho: allow a few ulps
    slack = 1.0 + 4.0 * np.finfo(float).eps
    if np.any(np.abs(w) > MAX_TARGET_MODULUS * slack):
        raise PreconditionError("multiplier targets must satisfy "
                                f"|w| <= {MAX_TARGET_MODULUS}")
    if np.any(centers.residual > 1e-8):
        raise PreconditionError("center residuals too large")
    if not len(centers) or np.any(centers.periods != centers.periods[:1]):
        raise PreconditionError("continued centers must share their periods")
    periods = tuple(centers.periods[0].tolist())
    if k == 2 and np.any(_pca3_cycles_merged(centers)):
        raise PreconditionError("the marked critical points share one cycle "
                                "at a center")
    start = np.repeat(centers.params, len(w), axis=0).T
    q0 = [start[0]] + [a**3 for a in start[1:]]  # the chart (c, b = a^3)
    x, lost, slope = _continue_paths(
        q0 + _marked_points(q0), np.tile(w, (len(centers), 1)).T,
        partial(_corrector, step, periods))
    q = x[:k]
    kept = [v[~lost] for v in q]
    for z, crit, p in zip(x[k:], _marked_points(kept), periods):
        _check_in_component(lambda u: bare(u, kept), z[~lost], crit, p)
    return [q[0]] + [_nearest_cube_root(b, a0)
                     for b, a0 in zip(q[1:], start[1:])], lost, slope


def _cube_roots(b: np.ndarray) -> np.ndarray:
    """The cube roots b^(1/3) w^k of the array b, one row per k = 0, 1, 2."""
    return np.array([b ** (1.0 / 3.0) * u
                     for u in np.exp(2j * np.pi * np.arange(3) / 3.0)])


def _nearest_cube_root(b: np.ndarray, a0: np.ndarray) -> np.ndarray:
    """Elementwise, the cube root of b nearest a0; the first on a tie."""
    roots = _cube_roots(b)
    return np.choose(np.argmin(np.abs(roots - a0), axis=0), roots)


def _continue_paths(x0, w, corrector
                    ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Predictor-corrector from the states x0 (an array over the paths per
    coordinate: parameters, then a point per marked cycle) to the targets w
    (an array per marked cycle); ``corrector(x, t)`` is the Newton step at
    targets t, with its finite mask and the slopes of the finite steps.

    Each path keeps its own s, ds and Newton state; in each PATH_CHUNK
    chunk only the paths still trying take a Newton step.  A converged
    corrector advances s, a failed or spent one halves ds, and a path is
    lost below ds = _MIN_DS.  Returns the end states, the lost mask and
    each path's last slope (NaN if none)."""
    n = len(x0[0])
    x = [np.array(v, dtype=complex) for v in x0]
    s = np.zeros(n)
    ds = np.full(n, 1.0 / _CONTINUATION_STEPS)
    s_next = np.minimum(1.0, s + ds)
    x_try = [v.copy() for v in x]
    iters = np.zeros(n, dtype=int)
    slope = np.full(n, np.nan)
    lost = np.zeros(n, dtype=bool)
    for lo in range(0, n, PATH_CHUNK):
        live = np.arange(lo, min(n, lo + PATH_CHUNK))
        while live.size:
            step, ok, live_slope = corrector(
                [v[live] for v in x_try], [s_next[live] * wk[live] for wk in w])
            moved = live[ok]
            slope[moved] = live_slope
            longest, scale = 0.0, 1.0
            for v, d in zip(x_try, step):
                d = d[ok]
                v[moved] -= d
                longest = np.maximum(longest, np.abs(d))
                scale = scale + np.abs(v[moved])
            iters[moved] += 1
            conv = longest < _CORRECTOR_TOL * scale
            done = moved[conv]
            spent = iters[moved] >= _CORRECTOR_ITERS
            failed = np.concatenate([live[~ok], moved[~conv & spent]])
            s[done] = s_next[done]
            ds[failed] *= 0.5
            lost[failed] = ds[failed] < _MIN_DS
            restart = np.concatenate([done, failed])
            for v, v_try in zip(x, x_try):
                v[done] = v_try[done]
                v_try[restart] = v[restart]
            s_next[restart] = np.minimum(1.0, s[restart] + ds[restart])
            iters[restart] = 0
            live = live[(s[live] < _S_END) & ~lost[live]]
    return x, lost, slope


def _cycle_block(step, q, z, p: int, w):
    """The return residual r = f^p(z) - z and the multiplier residual
    m = lambda - w of the cycle through z, each with its row of
    derivatives in (q, z), by forward mode along the orbit:
    ((r, r_q, r_z), (m, m_q, m_z))."""
    zk, d_z, d_q = z, 1.0, [0.0] * len(q)
    lam, l_z, l_q = 1.0, 0.0, [0.0] * len(q)
    for _ in range(p):
        f, f_z, f_zz, f_q, f_zq = step(zk, q)
        l_z = l_z * f_z + lam * (f_zz * d_z)
        l_q = [l_j * f_z + lam * (f_zz * d_j + g_j)
               for l_j, d_j, g_j in zip(l_q, d_q, f_zq)]
        lam = lam * f_z
        zk, d_z = f, f_z * d_z
        d_q = [f_z * d_j + f_j for d_j, f_j in zip(d_q, f_q)]
    return (zk - z, d_q, d_z - 1.0), (lam - w, l_q, l_z)


def _corrector(step, periods: tuple[int, ...], x: list, t: list):
    """Newton step on every marked cycle's (return, multiplier) residuals in
    x = (q, then a point per cycle), in closed form.  Each return row has
    d/dz = lambda - 1, nonzero on an attracting cycle, so it eliminates its
    z and leaves one row in q per cycle; the k x k system in q (k = 1 or 2)
    is solved by Cramer's rule.  The slope is |det d lambda/dq| =
    |det| / prod |r_z|."""
    k = len(periods)
    q = x[:k]
    with np.errstate(all="ignore"):
        rows, returns = [], []
        for z, p, w in zip(x[k:], periods, t):
            ret, (m, m_q, m_z) = _cycle_block(step, q, z, p, w)
            r, r_q, r_z = ret
            rows.append(([m_j * r_z - m_z * r_j for m_j, r_j in zip(m_q, r_q)],
                         m * r_z - m_z * r))
            returns.append(ret)
        if k == 1:
            (((det,), e),) = rows
            dq = [e / det]
        else:
            ((u0, v0), e0), ((u1, v1), e1) = rows
            det = u0 * v1 - v0 * u1
            dq = [(e0 * v1 - e1 * v0) / det, (e1 * u0 - e0 * u1) / det]
        dz = []
        for r, r_q, r_z in returns:
            for r_j, d_j in zip(r_q, dq):
                r = r - r_j * d_j
            dz.append(r / r_z)
        newton = dq + dz
        ok = (det != 0) & np.isfinite(det) & np.isfinite(newton).all(axis=0)
        slope = np.abs(det[ok])
        for _, _, r_z in returns:
            slope = slope / np.abs(r_z[ok])
    return newton, ok, slope


def _settle(f, z, p: int, cap: int):
    """z after cap steps of f (cap a multiple of p), or sooner: tested every
    ceil(64 / p) periods, a batch stops once each orbit has been non-finite
    or returned |f^p(z) - z| <= 2^-20 (1 + |z|), no less than a test before."""
    group, done, ret = -(-64 // p) * p, np.zeros(np.shape(z), bool), np.inf
    for walked in range(0, cap, group):
        for _ in range(min(group, cap - walked) - p):
            z = f(z)
        start = z
        for _ in range(p):
            z = f(z)
        gap, ret = ret, abs(z - start)
        done |= ~np.isfinite(z) | (ret >= gap) & (ret <= (1 + abs(z)) / 2**20)
        if done.all():
            break
    return z


def _check_in_component(f, z: np.ndarray, crit: np.ndarray, p: int
                        ) -> None:
    """NOT_IN_COMPONENT unless every continued cycle through z has exact
    period p under the map f and attracts the orbit of crit, ``_settle``d
    for at most 600 p steps; z and crit are arrays or scalars alike."""
    cycle = [z]
    for m in range(1, p):
        cycle.append(f(cycle[-1]))
        if np.any(np.abs(cycle[-1] - z) <= ORBIT_CLOSE_TOL):
            raise NotInComponentError(
                f"continued cycle closed early at step {m} < {p}")
    with np.errstate(over="ignore", invalid="ignore"):
        orbit = _settle(f, crit, p, 600 * p)
    # past 1e12 an orbit of bounded parameters only grows, so one test at
    # the end sees every escape
    if not np.all(np.abs(orbit) < 1e12):
        raise NotInComponentError("critical orbit escaped")
    if np.any(np.min([np.abs(orbit - u) for u in cycle], axis=0) > 1e-6):
        raise NotInComponentError("critical point not attracted by the "
                                  "continued cycle")


def _settled_multiplier(spec: FamilySpec, q, z, p: int):
    """Multiplier of the attracting period-p cycle that the orbit of z
    converges to: the orbit is ``_settle``d under the bare map, capped at
    max(400 p^2, 800 p) steps, so a cycle with |lambda| = 0.95 is reached
    to 0.95^800 ~ 1.5e-18 even at p = 1; then the product of f_z is taken
    over one period."""
    step, bare = _CYCLE_FAMILIES[spec]
    with np.errstate(over="ignore", invalid="ignore"):
        z = _settle(lambda u: bare(u, q), z, p, max(400 * p * p, 800 * p))
        lam = 1.0 + 0.0j
        for _ in range(p):
            z, f_z = step(z, q)[:2]
            lam = lam * f_z
    return lam


def quad_cycle_multiplier(c, p: int):
    """Multiplier of the attracting period-p cycle of z^2 + c found from the
    critical orbit (the critical point converges to it), elementwise on an
    array of parameters."""
    c = np.asarray(c, dtype=complex)
    return _settled_multiplier(QUAD, (c,), np.zeros_like(c), p)


def pca3_cycle_multiplier(c: complex, a: complex, z0: complex, p: int
                          ) -> complex:
    """Multiplier of the attracting period-p cycle that the orbit of z0
    converges to under the marked cubic."""
    return complex(_settled_multiplier(PCA3, (c, a**3), complex(z0), p))


# ---------------------------------------------------------------------------
# component counting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentCount:
    N: int
    marked_solutions: int
    stab: int
    deficiency: float
    merged_solutions: int
    merged_fraction: float
    bezout: int


def component_count(spec: FamilySpec, periods: arith.PeriodTuple
                    ) -> ComponentCount:
    """Distinct hyperbolic components whose attracting cycles have the given
    exact periods, with the normalized counting deficiency
    1 - stab * M / ((d-1)! * prod d_(n_j)).  Here d_n is the affine count of
    exact period-n points of a degree-d polynomial, N counts the distinct
    components (the centers for quad, the rows whose two critical cycles
    are distinct orbits for pca3) and M counts them as marked parameters:
    2N for quad, where each z^2 + c is two marked parameters, and for pca3
    the multiplicity-weighted count of those rows.

    For the marked cubic family the deficiency is, when enumeration is
    complete, exactly the multiplicity-weighted fraction of marked
    solutions whose two cycles merge into one orbit; both numbers are
    reported.
    """
    stab = arith.stab_count(periods)
    sols = centers(spec, periods.periods)
    if spec is QUAD:
        (n,) = periods.periods
        N = len(sols)
        d_tuple = arith.affine_cycle_point_count(2, n)
        deficiency = 1.0 - (stab * 2 * N) / d_tuple
        return ComponentCount(N=N, marked_solutions=N, stab=stab,
                              deficiency=deficiency, merged_solutions=0,
                              merged_fraction=0.0, bezout=d_tuple)
    n0, n1 = periods.periods
    both = 2 if n0 == n1 else 1  # one run of the system covers both markings
    marked = sols.multiplicity * both
    merged = _pca3_cycles_merged(sols)
    merged_marked = int(marked[merged].sum())
    nonmerged = int(marked[~merged].sum())
    # distinct components: centers_2d dedupes within a marking, and the two
    # markings differ in the exact period of 0
    N = int(np.count_nonzero(~merged))
    d_tuple = (arith.affine_cycle_point_count(3, n0)
               * arith.affine_cycle_point_count(3, n1))
    expected = 2 * d_tuple  # (d-1)! = 2
    return ComponentCount(
        N=N, marked_solutions=int(marked.sum()), stab=stab,
        deficiency=1.0 - nonmerged / expected,
        merged_solutions=merged_marked,
        merged_fraction=merged_marked / expected,
        bezout=d_tuple * (1 if n0 == n1 else 2))


def _pca3_cycles_merged(centers: CenterSet) -> np.ndarray:
    """Per row, whether the two marked critical orbits lie on one periodic
    orbit: at a center, whether the orbit of 0 passes through c within the
    row's period n0 of 0."""
    (c, a), n0 = centers.params.T, centers.periods[:, 0]
    q, z = (c, a**3), np.zeros_like(c)
    merged = np.zeros(len(c), dtype=bool)
    for m in range(n0.max(initial=0)):
        merged |= (m < n0) & (np.abs(z - c) <= ORBIT_CLOSE_TOL)
        z = _pca3_bare(z, q)
    return merged
