"""Simultaneous root finding from coefficients and from black-box
evaluators, and the Sylvester resultant behind the lift's resultant.

Test polynomials are built from their roots with numpy's
``polyfromroots``, independently of the code under test."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as P

from dynbif.cpoly import (
    ComplexPolynomial, _cluster, roots_blackbox, roots_simultaneous)
from dynbif.dynamics import _sylvester_matrix
from dynbif.errors import NoConvergenceError, PreconditionError

from conftest import circle_seeds

finite_complex = st.complex_numbers(
    min_magnitude=0, max_magnitude=10, allow_nan=False, allow_infinity=False)


def _match(found: np.ndarray, expected: np.ndarray, tol: float) -> bool:
    """Multiset match of two point lists."""
    if len(found) != len(expected):
        return False
    remaining = list(expected)
    for z in found:
        dists = [abs(z - w) for w in remaining]
        i = int(np.argmin(dists))
        if dists[i] > tol:
            return False
        remaining.pop(i)
    return True


def from_roots(roots) -> ComplexPolynomial:
    return ComplexPolynomial(P.polyfromroots(np.asarray(roots, dtype=complex)))


def resultant(a, b) -> complex:
    """Sylvester determinant, rows of the first polynomial on top."""
    return complex(np.linalg.det(_sylvester_matrix(
        np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))))


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------


def test_roots_simple():
    p = from_roots([1.0, -2.0, 3.0j])
    rs = roots_simultaneous(p)
    assert rs.multiplicities.sum() == 3
    assert _match(rs.expanded(), np.array([1.0, -2.0, 3.0j]), 1e-9)


def test_roots_multiplicities():
    p = from_roots([1.0, 1.0, 1.0, -1.0])
    rs = roots_simultaneous(p)
    assert rs.multiplicities.sum() == 4
    assert sorted(rs.multiplicities.tolist()) == [1, 3]
    triple = rs.roots[np.argmax(rs.multiplicities)]
    assert abs(triple - 1.0) < 1e-4  # triple roots lose 2/3 of the digits


MULTIPLE_AT = [1.0, -1.0, 0.5, 2.0, 1j, -0.7, 1.5, 3.0, -2.0, 0.25]
SIMPLE_AT = [-1.0, 2.0, 0.3j, -3.0]


@pytest.mark.parametrize("multiple,m,simple", [
    (r, m, s) for r in MULTIPLE_AT for m in (2, 3) for s in SIMPLE_AT
    if s != r])
def test_roots_multiplicity_sweep(multiple, m, simple):
    p = from_roots([multiple] * m + [simple])
    try:
        rs = roots_simultaneous(p)
    except NoConvergenceError:
        # a triple cluster bottoms out near eps**(1/3), above the stop
        # rule's sqrt(tol): a known limit of the solver, never a wrong count
        assert m == 3
        return
    assert sorted(rs.multiplicities.tolist()) == [1, m]
    big = rs.roots[np.argmax(rs.multiplicities)]
    assert abs(big - multiple) < 1e-4


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(-4, 4), min_size=2, max_size=8, unique=True))
def test_roots_recover_integer_grid(roots_re):
    roots = np.array([complex(r, (r * 7919) % 5 - 2) for r in roots_re])
    p = from_roots(roots)
    rs = roots_simultaneous(p)
    assert _match(rs.expanded(), roots, 1e-7)


def test_roots_of_product_are_union():
    a = np.array([1.0, 2.0j, -3.0])
    b = np.array([0.5 + 0.5j, -1.0])
    p = ComplexPolynomial(P.polymul(P.polyfromroots(a), P.polyfromroots(b)))
    rs = roots_simultaneous(p)
    assert _match(rs.expanded(), np.concatenate([a, b]), 1e-8)


def test_blackbox_matches_simultaneous():
    p = from_roots([0.3, -1.1, 2.0 + 1.0j, -0.4j])
    dp = p.derivative()

    def eval_fn(z):
        return p(z), dp(z)

    rs_bb = roots_blackbox(eval_fn, p.degree, circle_seeds(4, 4.0))
    rs = roots_simultaneous(p)
    assert _match(rs_bb.expanded(), rs.expanded(), 1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_cluster_centers_are_per_group_means(seed):
    # well-separated clusters of 1..9 members (with exact duplicates),
    # shuffled: each center must be bit for bit its group's own mean(), and
    # the groups come in the stable real-part order of those centers
    rng = np.random.default_rng(seed)
    base = 3.0 * (rng.standard_normal(40) + 1j * rng.standard_normal(40))
    base = base[np.argsort(base.real)][::2]  # keep the sites apart
    sizes = rng.integers(1, 10, size=len(base))
    group = np.repeat(np.arange(len(base)), sizes)
    pts = base[group] + 1e-9 * (rng.standard_normal(len(group))
                                + 1j * rng.standard_normal(len(group)))
    pts[::4] = base[group[::4]]
    perm = rng.permutation(len(pts))
    pts, group = pts[perm], group[perm]
    centers, mults, radius = _cluster(pts, 1e-8, np.zeros(len(pts)))
    first = sorted(range(len(base)), key=lambda g: np.flatnonzero(group == g)[0])
    means = np.array([pts[group == g].mean() for g in first])
    counts = np.array([np.count_nonzero(group == g) for g in first])
    order = np.argsort(means.real + 1e-12 * means.imag, kind="stable")
    assert centers.tobytes() == means[order].tobytes()
    assert mults.tolist() == counts[order].tolist()
    assert radius == max(float(np.max(np.abs(pts[group == g] - means[i])))
                         for i, g in enumerate(first) if counts[i] > 1)


def test_roots_preconditions():
    with pytest.raises(PreconditionError):
        roots_simultaneous(ComplexPolynomial(np.array([1.0])))
    # the black-box solve takes exactly one seed per root
    p = from_roots([0.3, -1.1, 2.0 + 1.0j])
    dp = p.derivative()
    for seeds in (circle_seeds(2, 4.0), circle_seeds(4, 4.0)):
        with pytest.raises(PreconditionError, match="one seed per root"):
            roots_blackbox(lambda z: (p(z), dp(z)), p.degree, seeds)


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------


def test_univariate_resultant_known_values():
    # Res(z^2 - 1, z^2 - 4) = prod of pairwise root differences = 9
    a = np.array([-1.0, 0.0, 1.0])
    b = np.array([-4.0, 0.0, 1.0])
    assert resultant(a, b) == pytest.approx(9.0)
    # Res(z - a, z - b) = b - a with the first input's rows on top
    assert resultant(
        np.array([-2.0, 1.0]), np.array([-5.0, 1.0])) == pytest.approx(-3.0)


@settings(deadline=None, max_examples=30)
@given(st.lists(finite_complex, min_size=1, max_size=4),
       st.lists(finite_complex, min_size=1, max_size=4))
def test_univariate_resultant_product_formula(ra, rb):
    want = 1.0 + 0.0j
    scale = 1.0
    for x in ra:
        for y in rb:
            want *= (x - y)
            scale *= 1.0 + abs(x) + abs(y)
    got = resultant(P.polyfromroots(ra), P.polyfromroots(rb))
    assert abs(got - want) <= 1e-8 * scale

