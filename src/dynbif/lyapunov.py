"""Lyapunov exponents of rational maps.

Three independent routes to the same number:

* periodic averages over exact-period multiplier spectra (the estimator whose
  convergence this package studies),
* escape-rate Green's functions, giving the closed form
  L = log d + sum over critical points of the Green value (polynomials only),
* backward-orbit Monte Carlo sampling of the maximal measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import arith
from .dynamics import RationalMapLift, chordal_derivative, exact_cycles, unit
from .errors import (
    ExceptionalStartError,
    IllConditionedError,
    NoConvergenceError,
    ParabolicContaminationError,
    PreconditionError,
)

#: tail bound at which the homogeneous escape sum stops, and its step cap
GREEN_TOL = 1e-14
GREEN_MAX_ITER = 600
#: step cap of the affine escape rate, and the radius past which it is read
#: off in closed form
POLY_GREEN_MAX_ITER = 2000
ESCAPE_RADIUS = 1e150


# ---------------------------------------------------------------------------
# Green's functions
# ---------------------------------------------------------------------------


def normalization_shift(F: RationalMapLift) -> float:
    """-log|Res(F)| / (2 d (d - 1)): the additive constant making the
    homogeneous escape potential of a lift independent of the chosen lift.

    Scaling the lift by alpha adds log|alpha| / (d - 1) to the potential and
    multiplies the resultant by alpha**(2d), so the combination
    G + shift is scaling-invariant."""
    d = F.degree
    return -float(np.log(abs(F.resultant))) / (2.0 * d * (d - 1))


def green_value(F: RationalMapLift, p: np.ndarray) -> float:
    """Homogeneous potential g_F at a unit pair p,
    lim d^-k log ||F^k(p)||, by the per-step normalized escape sum
    sum_k u(p_k) / d^(k+1) with u(p) = log ||F(p)|| on unit p."""
    d = F.degree
    v = p
    total = 0.0
    comp = 0.0
    weight = 1.0 / d
    # |log ||F(unit)||| is bounded by the coefficient scale, so the tail after
    # k steps is bounded by that scale times the remaining geometric weight
    bound = np.log1p(float(max(np.max(np.abs(F.num)), np.max(np.abs(F.den))))
                     * (d + 1))
    for _ in range(GREEN_MAX_ITER):
        w = F.apply(v)
        nrm = float(np.linalg.norm(w))
        if not np.isfinite(nrm) or nrm == 0.0:
            raise NoConvergenceError("escape sum hit a non-finite norm")
        term = weight * np.log(nrm)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        v = w / nrm
        weight /= d
        if bound * weight * d / (d - 1) < GREEN_TOL:
            return total
    raise NoConvergenceError(f"escape sum tail above {GREEN_TOL} after "
                             f"{GREEN_MAX_ITER} steps")


def green_normalized(F: RationalMapLift, p: np.ndarray) -> float:
    """Lift-independent potential g_F - log|Res| / (2d(d-1)) at a unit
    pair p."""
    return green_value(F, p) + normalization_shift(F)


def polynomial_green(coeffs: np.ndarray, z: complex) -> float:
    """Escape-rate Green's function of an affine polynomial at z: the limit of
    d^-k log+ |p^k(z)|.  Returns 0.0 for bounded orbits."""
    c = np.asarray(coeffs, dtype=np.complex128)
    d = len(c) - 1
    if d < 2 or c[-1] == 0:
        raise PreconditionError("polynomial must have degree >= 2")
    w = complex(z)
    for k in range(POLY_GREEN_MAX_ITER):
        if abs(w) > ESCAPE_RADIUS:
            # far out, log|p(w)| = d log|w| + log|a_d| + O(1/|w|); summing the
            # geometric corrections gives machine precision immediately
            # float(d) ** -k underflows gracefully to 0.0 for huge k
            return (np.log(abs(w))
                    + np.log(abs(c[-1])) / (d - 1)) * float(d) ** (-k)
        acc = c[d]
        for j in range(d - 1, -1, -1):
            acc = acc * w + c[j]
        w = acc
    return 0.0


def lyap_poly_closed_form(coeffs: np.ndarray) -> float:
    """Closed form for affine polynomials: log d plus the escape-rate Green
    values at the finite critical points (with multiplicity)."""
    c = np.asarray(coeffs, dtype=np.complex128)
    d = len(c) - 1
    if d < 2 or c[-1] == 0:
        raise PreconditionError("polynomial must have degree >= 2")
    deriv = c[1:] * np.arange(1, d + 1)
    crits = np.roots(deriv[::-1])
    total = float(np.log(d))
    for z in crits:
        total += polynomial_green(c, complex(z))
    return total


# ---------------------------------------------------------------------------
# periodic estimator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LyapunovEstimate:
    value: float
    cycle_count: int
    floored_cycles: int


def _check_radius(r: float) -> None:
    if not (0.0 < r <= 1.0):
        raise PreconditionError("multiplier floor r must lie in (0, 1]")


def lyap_from_spectrum(spectrum, degree: int, period: int, r: float = 1.0
                       ) -> LyapunovEstimate:
    """Periodic average from an aggregated multiplier spectrum.

    ``spectrum`` holds rows (multiplier, cycle count) covering all
    exact-period-``period`` cycles, as a sequence of pairs or a (K, 2)
    array.  Every point of a cycle shares the cycle multiplier, so
    L_n^r = (1/(n d_n)) * sum over points of log max(|mult|, r)
    collapses to (1/d_n) * sum over cycles.
    """
    _check_radius(r)
    mult, count = np.asarray(spectrum, dtype=np.complex128).reshape(-1, 2).T
    if not np.all((count == np.floor(count.real)) & (count.real >= 1)):
        raise PreconditionError("spectrum counts must be positive ints")
    count = count.real
    d_n = arith.exact_cycle_point_count(degree, period)
    n_cycles = int(count.sum())
    if n_cycles * period != d_n:
        raise PreconditionError(
            f"{n_cycles} cycles of period {period} cover "
            f"{n_cycles * period} points, expected d_n = {d_n}")
    # hypot is Python's abs of a complex, and cumsum adds in row order
    mod = np.hypot(mult.real, mult.imag)
    total = np.cumsum(count * np.log(np.maximum(mod, r)))[-1]
    return LyapunovEstimate(value=float(total / d_n), cycle_count=n_cycles,
                            floored_cycles=int(count[mod < r].sum()))


def lyap_periodic(F: RationalMapLift, n: int, r: float = 1.0
                  ) -> LyapunovEstimate:
    """Truncated periodic estimator of the Lyapunov exponent,
    L_n^r = (1/(n d_n)) sum over exact-period-n points of
    log max(|(f^n)'|, r)."""
    _check_radius(r)
    cs = exact_cycles(F, n)
    if cs.contaminated.any():
        p = cs.period[cs.contaminated]
        gap = np.abs(cs.multiplier[cs.contaminated] ** (n // p) - 1.0)
        raise ParabolicContaminationError(
            f"{p.size} lower-period parabolic orbits (periods {p.tolist()}, "
            f"largest |multiplier^(n/p) - 1| = {gap.max():.3e}) make the "
            f"period-{n} spectrum ill defined")
    mult = np.repeat(cs.multiplier, cs.copies)
    return lyap_from_spectrum(np.stack([mult, np.ones_like(mult)], axis=1),
                              F.degree, n, r)


# ---------------------------------------------------------------------------
# backward Monte Carlo oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonteCarloEstimate:
    value: float
    stderr: float
    samples: int


def _pullback_one(F: RationalMapLift, z: np.ndarray, rng) -> np.ndarray:
    """One uniformly random preimage of the unit pair z under F."""
    a, b = z
    form = b * F.num - a * F.den
    lead = float(np.max(np.abs(form)))
    if lead == 0:
        raise ExceptionalStartError("fiber polynomial vanished identically")
    form = form / lead
    deg = len(form) - 1
    while deg > 0 and abs(form[deg]) < 1e-13:
        deg -= 1
    finite = np.roots(form[deg::-1]) if deg >= 1 else np.empty(0)
    k = rng.integers(F.degree)  # the other d - deg preimages are infinity
    return unit([finite[k], 1.0] if k < deg else [1.0, 0.0])


def lyap_oracle_backward(F: RationalMapLift, samples: int = 400,
                         depth: int = 60, seed: int = 0) -> MonteCarloEstimate:
    """Monte Carlo estimate of L(f) = integral of log f# against the maximal
    measure: average log chordal_derivative over the endpoints of independent
    random inverse-orbit branches.

    A start whose inverse images collapse to a single point (an exceptional
    point) raises EXCEPTIONAL_START; retry with another seed.
    """
    if samples < 100:
        raise PreconditionError("samples must be >= 100")
    if depth < 20:
        raise PreconditionError("depth must be >= 20")
    rng = np.random.default_rng(seed)
    vals = []
    for _ in range(samples):
        z = unit([rng.normal() + 1j * rng.normal(),
                  rng.normal() + 1j * rng.normal()])
        collapse = 0
        for _ in range(depth):
            w = _pullback_one(F, z, rng)
            if abs(w[0] * z[1] - w[1] * z[0]) < 1e-13:  # chordal distance
                collapse += 1
                if collapse >= 5:
                    raise ExceptionalStartError(
                        "inverse orbit collapsed onto a fixed exceptional point")
            else:
                collapse = 0
            z = w
        fs = chordal_derivative(F, z)
        if fs > 0:
            vals.append(float(np.log(fs)))
    value = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / np.sqrt(len(vals)))
    return MonteCarloEstimate(value=value, stderr=stderr, samples=len(vals))


# ---------------------------------------------------------------------------
# degeneration slopes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    residual: float
    samples: int


def degeneration_slope(lyap_of_t, t_samples) -> SlopeFit:
    """Least-squares slope of L(f_t) against log(1/|t|): the leading
    degeneration rate of the Lyapunov exponent along the family.

    Raises ILL_CONDITIONED when the fit residual exceeds 10% of the fitted
    value range (the family is not in its asymptotic regime)."""
    ts = [complex(t) for t in t_samples]
    if len(ts) < 3:
        raise PreconditionError("need at least 3 parameters for a slope fit")
    if any(t == 0 for t in ts):
        raise PreconditionError("parameters must be nonzero")
    radii = sorted(abs(t) for t in ts)
    if radii[-1] / radii[0] < 1e3:
        raise PreconditionError("|t| samples must span at least 3 decades")
    xs = np.array([np.log(1.0 / abs(t)) for t in ts])
    ys = np.array([float(lyap_of_t(t)) for t in ts])
    A = np.stack([xs, np.ones_like(xs)], axis=1)
    coef, res, *_ = np.linalg.lstsq(A, ys, rcond=None)
    resid = float(np.sqrt(res[0] / len(ts))) if len(res) else 0.0
    spread = float(np.max(ys) - np.min(ys))
    if spread > 0 and resid > 0.1 * spread:
        raise IllConditionedError(
            f"regression residual {resid:.3e} exceeds 10% of the fitted "
            f"range {spread:.3e}")
    return SlopeFit(slope=float(coef[0]), intercept=float(coef[1]),
                    residual=resid, samples=len(ts))
