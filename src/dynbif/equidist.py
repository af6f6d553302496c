"""Discretized bifurcation-measure objects.

Atomic measures on parameter space, held as a parameter and a weight array:
center measures (one atom per hyperbolic-component center, arithmetically
normalized weights) and circle-averaged measures supported on multiplier
level curves (one atom per continued parameter).  Moments (pairwise numpy
sums, rounding error O(log K eps) over K atoms) and grid-binned
total-variation distances serve as the desk-scale observables; convergence
toward the bifurcation measure is tested as a Cauchy property against the
highest enumerable period, never against a materialized limit object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import arith, families
from .errors import EmptyMeasureError, PreconditionError

#: window containing the quadratic connectedness locus
QUAD_WINDOW = ((-2.1, 0.6), (-1.3, 1.3))
DEFAULT_RESOLUTION = (64, 64)
#: highest moment order of the report: quadratic centers lie in |c| < 2, so
#: |c|^k stays finite in double precision
MAX_MOMENT_ORDER = 512
#: an error sequence "decreases" while each value stays within this factor
#: of the running minimum
TREND_SLACK = 2.0
#: most center x angle continuation paths of one level-curve measure
MAX_PATHS = 2**20


@dataclass(frozen=True)
class AtomicMeasure:
    """A finite positive atomic measure on parameter space: atom i sits at
    ``params[i]`` (complex, shape (K, dim)) with mass ``weights[i]``."""

    params: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.params).all()
                and np.isfinite(self.weights).all()
                and (self.weights > 0).all()):
            raise PreconditionError("atom parameters must be finite and "
                                    "weights positive and finite")

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    #: ``params`` under the name perfbench/tracer.py counts the atoms by
    atoms = property(lambda self: self.params)


def center_measure(spec: families.FamilySpec,
                   periods: arith.PeriodTuple) -> AtomicMeasure:
    """Atomic measure on the hyperbolic-component centers with weight
    stab / d_(n) per center (polynomial normalization divides additionally
    by (d-1)!)."""
    stab = arith.stab_count(periods)
    d_prod = 1
    for n in periods.periods:
        d_prod *= arith.exact_cycle_point_count(spec.degree, n)
    norm = math.factorial(spec.degree - 1) * d_prod
    centers = families.centers(spec, periods.periods)
    return AtomicMeasure(centers.params, stab / norm * centers.multiplicity)


@dataclass(frozen=True)
class CircleMeasure:
    """Circle-averaged multiplier-level-curve measure with the counts of
    atoms dropped to continuation path loss and to the multiplier
    re-check."""

    measure: AtomicMeasure
    path_loss_deficit: int
    recheck_deficit: int


def pern_circle_measure(spec: families.FamilySpec, n: int, rho: float,
                        thetas: int) -> CircleMeasure:
    """Atoms at the parameters where the period-n cycle has multiplier
    rho * e^(i theta_k), 0 <= rho <= families.MAX_TARGET_MODULUS (0.95),
    theta_k uniform, one per component center and angle (center-major),
    each of weight 1/(d_n * thetas); at most MAX_PATHS paths.

    All center x angle paths are continued in one batched call.  At
    rho > 0 every atom re-verifies its multiplier via an independent
    critical-orbit computation, to 1e-10 plus the rounding floor
    8 eps |c| |d lambda/dc| (c is a double, so lambda(c) cannot come closer
    to its target than that); atoms whose continuation path is lost or
    whose re-check misses are dropped and tallied in their own deficit.  At
    rho = 0 the atoms are the centers themselves and are not re-checked.
    """
    if spec is not families.QUAD:
        raise PreconditionError("level-curve measures support quad, not "
                                f"{spec.family_id}")
    if not (0.0 <= rho <= families.MAX_TARGET_MODULUS):
        raise PreconditionError(
            f"rho must lie in [0, {families.MAX_TARGET_MODULUS}]")
    if thetas < 8 and not (rho == 0.0 and thetas == 1):
        raise PreconditionError("need thetas >= 8")
    centers = families.centers_1d(spec, n)
    if len(centers) * thetas > MAX_PATHS:
        raise PreconditionError(f"{len(centers)} centers x {thetas} angles "
                                f"exceed the path cap {MAX_PATHS}")
    d_n = arith.exact_cycle_point_count(spec.degree, n)
    w = 1.0 / (d_n * thetas)
    targets = rho * np.exp(2j * np.pi * np.arange(thetas) / thetas)
    (c,), lost, slope = families.continuation(spec, centers, targets)
    kept = np.flatnonzero(~lost)
    recheck_deficit = 0
    if rho > 0:
        lam = families.quad_cycle_multiplier(c[kept], n)
        floor = 8.0 * np.finfo(float).eps * np.abs(c[kept]) * slope[kept]
        hit = (np.abs(lam - np.tile(targets, len(centers))[kept])
               <= 1e-10 + floor)
        recheck_deficit = len(kept) - int(np.count_nonzero(hit))
        kept = kept[hit]
    if not kept.size:
        raise EmptyMeasureError("all continuation paths were lost")
    return CircleMeasure(AtomicMeasure(c[kept, None], np.full(kept.size, w)),
                         int(np.count_nonzero(lost)), recheck_deficit)


def moment(m: AtomicMeasure, k: int) -> complex:
    """Normalized k-th moment of the first parameter coordinate."""
    if k < 0:
        raise PreconditionError("moment order must be >= 0")
    if not m.weights.size:
        raise EmptyMeasureError("moment of an empty measure")
    return complex(np.sum(m.weights * m.params[:, 0] ** k) / m.total_mass)


@dataclass(frozen=True)
class GridDensity:
    """Binned mass of an atomic measure's first parameter coordinate over a
    rectangular window.

    ``bins[iy, ix]`` holds the mass in the cell; row 0 is the top of the
    window (largest imaginary part), matching image conventions.
    """

    bins: np.ndarray = field(repr=False)

    @staticmethod
    def from_measure(m: AtomicMeasure, window, resolution) -> "GridDensity":
        (x0, x1), (y0, y1) = window
        nx, ny = resolution
        if not (x1 > x0 and y1 > y0 and nx >= 1 and ny >= 1):
            raise PreconditionError("window must be nondegenerate")
        xs, ys, ws = m.params[:, 0].real, m.params[:, 0].imag, m.weights
        inside = (xs >= x0) & (xs <= x1) & (ys >= y0) & (ys <= y1)
        ix = np.clip(((xs[inside] - x0) / (x1 - x0) * nx).astype(int),
                     0, nx - 1)
        iy = np.clip(((y1 - ys[inside]) / (y1 - y0) * ny).astype(int),
                     0, ny - 1)
        bins = np.zeros((ny, nx))
        np.add.at(bins, (iy, ix), ws[inside])
        return GridDensity(bins)

    @property
    def mass(self) -> float:
        return float(self.bins.sum())


def binned_distance(m1: AtomicMeasure, m2: AtomicMeasure,
                    window=QUAD_WINDOW,
                    resolution=DEFAULT_RESOLUTION) -> float:
    """Total-variation distance between the two measures seen through the
    grid: half the L1 distance of the mass-normalized bin vectors."""
    g1 = GridDensity.from_measure(m1, window, resolution)
    g2 = GridDensity.from_measure(m2, window, resolution)
    if g1.mass <= 0 or g2.mass <= 0:
        raise EmptyMeasureError("a measure has no mass inside the window")
    return float(0.5 * np.abs(g1.bins / g1.mass
                              - g2.bins / g2.mass).sum())


@dataclass(frozen=True)
class EquidistRow:
    n: int
    moment_errors: tuple[float, ...]  # orders 1..k
    grid_distance: float


@dataclass(frozen=True)
class EquidistReport:
    rows: tuple[EquidistRow, ...]
    reference_n: int
    #: per moment order, True when the error sequence decreases within
    #: TREND_SLACK (each value at most twice the running minimum)
    moment_trend_ok: tuple[bool, ...]
    grid_trend_ok: bool


def _decreasing_with_slack(values) -> bool:
    running = math.inf
    for v in values:
        if v > TREND_SLACK * running:
            return False
        running = min(running, v)
    return True


def equidist_report(spec: families.FamilySpec, n_range, k_moments: int,
                    reference_n: int) -> EquidistReport:
    """Moment and grid-TV convergence of the center measures toward the
    highest-period reference measure, with trend flags."""
    if spec.parameter_dim != 1:
        raise PreconditionError(
            f"equidist compares one-period center measures; {spec.family_id}"
            " has more than one parameter")
    ns = sorted(set(int(n) for n in n_range))
    if not ns:
        raise PreconditionError("empty period range")
    if reference_n <= max(ns):
        raise PreconditionError("reference period must exceed the range")
    if not 1 <= k_moments <= MAX_MOMENT_ORDER:
        raise PreconditionError(
            f"the moment orders must be 1..k with 1 <= k <= "
            f"{MAX_MOMENT_ORDER}")
    ref = center_measure(spec, arith.PeriodTuple((reference_n,)))
    ref_moments = [moment(ref, k) for k in range(1, k_moments + 1)]
    rows = []
    for n in ns:
        mu = center_measure(spec, arith.PeriodTuple((n,)))
        errs = tuple(abs(moment(mu, k) - ref_moments[k - 1])
                     for k in range(1, k_moments + 1))
        rows.append(EquidistRow(n, errs, binned_distance(mu, ref)))
    trends = tuple(
        _decreasing_with_slack([r.moment_errors[k] for r in rows])
        for k in range(k_moments))
    grid_ok = _decreasing_with_slack([r.grid_distance for r in rows])
    return EquidistReport(tuple(rows), reference_n, trends, grid_ok)
