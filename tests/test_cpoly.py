"""Polynomial arithmetic, simultaneous root finding and resultants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynbif.cpoly import (
    ComplexPolynomial,
    roots_blackbox,
    roots_simultaneous,
    sylvester_resultant,
    sylvester_resultant_univariate,
)
from dynbif.errors import (
    NoConvergenceError,
    NonDivisibleError,
    PreconditionError,
)

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


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------


def test_basic_ring_ops():
    p = ComplexPolynomial(np.array([1.0, 2.0, 3.0]))  # 1 + 2z + 3z^2
    q = ComplexPolynomial(np.array([0.0, 1.0]))  # z
    assert (p * q).degree == 3
    assert (p + q)(2.0) == pytest.approx(p(2.0) + 2.0)
    assert (p - p).is_zero
    assert (p**3)(1.5) == pytest.approx(p(1.5) ** 3)
    assert p.derivative()(0.5) == pytest.approx(2.0 + 6.0 * 0.5)


def test_compose_matches_pointwise():
    p = ComplexPolynomial(np.array([1.0, 0.0, 1.0]))
    q = ComplexPolynomial(np.array([-2.0, 3.0, 0.0, 1.0]))
    comp = p.compose(q)
    for z in [0.3, -1.2 + 0.7j, 2.0j]:
        assert comp(z) == pytest.approx(p(q(z)), rel=1e-12)


def test_division_and_exact_divide():
    a = ComplexPolynomial.from_roots([1.0, 2.0, 3.0])
    b = ComplexPolynomial.from_roots([2.0])
    q = a.exact_divide(b)
    assert _match(roots_simultaneous(q).expanded(),
                  np.array([1.0, 3.0]), 1e-9)
    c = a + 1e-3
    with pytest.raises(NonDivisibleError):
        c.exact_divide(b)


@given(st.lists(finite_complex, min_size=1, max_size=6),
       st.lists(finite_complex, min_size=1, max_size=6))
def test_mul_evaluation_homomorphism(ac, bc):
    p = ComplexPolynomial(np.array(ac, dtype=complex))
    q = ComplexPolynomial(np.array(bc, dtype=complex))
    z = 0.37 - 0.21j
    assert (p * q)(z) == pytest.approx(p(z) * q(z), rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------


def test_roots_simple():
    p = ComplexPolynomial.from_roots([1.0, -2.0, 3.0j])
    rs = roots_simultaneous(p)
    assert rs.total == 3
    assert _match(rs.expanded(), np.array([1.0, -2.0, 3.0j]), 1e-9)


def test_roots_multiplicities():
    p = ComplexPolynomial.from_roots([1.0, 1.0, 1.0, -1.0])
    rs = roots_simultaneous(p, tol=1e-12)
    assert rs.total == 4
    assert sorted(rs.multiplicities.tolist()) == [1, 3]
    triple = rs.roots[np.argmax(rs.multiplicities)]
    assert abs(triple - 1.0) < 1e-4  # triple roots lose 2/3 of the digits


MULTIPLE_AT = [1.0, -1.0, 0.5, 2.0, 1j, -0.7, 1.5, 3.0, -2.0, 0.25]
SIMPLE_AT = [-1.0, 2.0, 0.3j, -3.0]


@pytest.mark.parametrize("multiple,m,simple", [
    (r, m, s) for r in MULTIPLE_AT for m in (2, 3) for s in SIMPLE_AT
    if s != r])
def test_roots_multiplicity_sweep(multiple, m, simple):
    p = ComplexPolynomial.from_roots([multiple] * m + [simple])
    try:
        rs = roots_simultaneous(p, tol=1e-12)
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
    p = ComplexPolynomial.from_roots(roots)
    rs = roots_simultaneous(p)
    assert _match(rs.expanded(), roots, 1e-7)


def test_roots_of_product_are_union():
    a = np.array([1.0, 2.0j, -3.0])
    b = np.array([0.5 + 0.5j, -1.0])
    p = ComplexPolynomial.from_roots(a) * ComplexPolynomial.from_roots(b)
    rs = roots_simultaneous(p)
    assert _match(rs.expanded(), np.concatenate([a, b]), 1e-8)


def test_blackbox_matches_simultaneous():
    p = ComplexPolynomial.from_roots([0.3, -1.1, 2.0 + 1.0j, -0.4j])
    dp = p.derivative()

    def eval_fn(z):
        return p(z), dp(z)

    rs_bb = roots_blackbox(eval_fn, p.degree, tol=1e-12, radius=4.0)
    rs = roots_simultaneous(p)
    assert _match(rs_bb.expanded(), rs.expanded(), 1e-9)


def test_roots_preconditions():
    with pytest.raises(PreconditionError):
        roots_simultaneous(ComplexPolynomial(np.array([1.0])))
    with pytest.raises(PreconditionError):
        roots_simultaneous(ComplexPolynomial(np.array([1.0, 1.0])), tol=0.0)


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------


def test_univariate_resultant_known_values():
    # Res(z^2 - 1, z^2 - 4) = prod of pairwise root differences = 9
    a = np.array([-1.0, 0.0, 1.0])
    b = np.array([-4.0, 0.0, 1.0])
    assert sylvester_resultant_univariate(a, b) == pytest.approx(9.0)
    # Res(z - a, z - b) = b - a with the first input's rows on top
    assert sylvester_resultant_univariate(
        np.array([-2.0, 1.0]), np.array([-5.0, 1.0])) == pytest.approx(-3.0)


@settings(deadline=None, max_examples=30)
@given(st.lists(finite_complex, min_size=1, max_size=4),
       st.lists(finite_complex, min_size=1, max_size=4))
def test_univariate_resultant_product_formula(ra, rb):
    a = ComplexPolynomial.from_roots(np.array(ra, dtype=complex))
    b = ComplexPolynomial.from_roots(np.array(rb, dtype=complex))
    want = 1.0 + 0.0j
    scale = 1.0
    for x in ra:
        for y in rb:
            want *= (x - y)
            scale *= 1.0 + abs(x) + abs(y)
    got = sylvester_resultant_univariate(a.coeffs, b.coeffs)
    assert abs(got - want) <= 1e-8 * scale


def test_bivariate_resultant_eliminates_variable():
    # p = x^2 + y^2 - 1, q = x - y: eliminating x leaves 2y^2 - 1
    p = np.zeros((3, 3))
    p[2, 0] = 1.0
    p[0, 2] = 1.0
    p[0, 0] = -1.0
    q = np.zeros((2, 2))
    q[1, 0] = 1.0
    q[0, 1] = -1.0
    res = sylvester_resultant(p, q, eliminate="x")
    rs = roots_simultaneous(res)
    want = np.array([np.sqrt(0.5), -np.sqrt(0.5)])
    assert _match(rs.expanded(), want, 1e-9)


def test_bivariate_resultant_common_root_vanishes():
    # p and q share the root (x, y) = (1, 1)
    p = np.zeros((2, 2))
    p[1, 0] = 1.0
    p[0, 1] = 1.0
    p[0, 0] = -2.0  # x + y - 2
    q = np.zeros((2, 2))
    q[1, 1] = 1.0
    q[0, 0] = -1.0  # xy - 1
    res = sylvester_resultant(p, q, eliminate="x")
    assert abs(res(1.0)) < 1e-10
