"""Shared fixtures and map builders for the test suite."""

import numpy as np
import pytest

from dynbif import dynamics
from dynbif.dynamics import RationalMapLift, unit
from dynbif.families import QUAD, map_at


def quad_lift(c: complex) -> RationalMapLift:
    """Lift of z^2 + c."""
    return map_at(QUAD, [c])


def power_lift(d: int) -> RationalMapLift:
    """Lift of z^d."""
    num = np.zeros(d + 1, dtype=complex)
    num[-1] = 1.0
    den = np.zeros(d + 1, dtype=complex)
    den[0] = 1.0
    return RationalMapLift(num, den)


def random_quadratic_rational(rng) -> RationalMapLift:
    """A random non-degenerate degree-2 rational map."""
    for _ in range(50):
        num = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        den = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        try:
            return RationalMapLift(num, den)
        except Exception:
            continue
    raise RuntimeError("could not draw a non-degenerate quadratic map")


def sphere_point(z: complex) -> np.ndarray:
    """The unit pair of an affine value z, or of infinity for z = inf."""
    return unit([1.0, 0.0] if np.isinf(z) else [z, 1.0])


def circle_seeds(degree: int, radius: float) -> np.ndarray:
    """Root-finder seeds on a circle, staggered in radius and turned off the
    real axis."""
    k = np.arange(degree)
    return (radius * (1.0 + 1e-3 * np.cos(7.1 * k))
            * np.exp(1j * (2.0 * np.pi * k / degree + 0.41322)))


def chordal(p: np.ndarray, q: np.ndarray) -> float:
    """Chordal distance (diameter 1) of two unit pairs, as the orbit match
    of ``exact_cycles`` measures it."""
    _, dist = dynamics._nearest_root(p[:, None], q[:, None], np.array([2.0]))
    return float(dist[0])


def cycle_columns(cs, rows=None) -> list[np.ndarray]:
    """The (2, period) unit columns of each cycle of the CycleSet cs that
    the mask rows selects (every row by default), each repeated ``copies``
    times, as the dynatomic divisor counts it."""
    cols = np.split(cs.points, np.cumsum(cs.period)[:-1], axis=1)
    keep = np.ones(len(cols), dtype=bool) if rows is None else rows
    return [c for c, k, kept in zip(cols, cs.copies, keep) if kept
            for _ in range(k)]


def spectrum_multiset(cs, ndigits: int = 9) -> list[complex]:
    """The exact-period multipliers of the CycleSet cs, each repeated
    ``copies`` times, rounded to ndigits decimals and sorted."""
    exact = ~cs.contaminated
    mult = np.round(np.repeat(cs.multiplier[exact], cs.copies[exact]),
                    ndigits)
    return sorted(map(complex, mult), key=lambda z: (z.real, z.imag))


@pytest.fixture
def rng():
    return np.random.default_rng(7)
