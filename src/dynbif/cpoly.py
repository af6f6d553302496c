"""Dense complex polynomial arithmetic and small bivariate resultants.

Coefficients are stored ascending in a complex128 numpy array.  The drop
tolerance for trailing (leading) coefficients is 1e-14 times the largest
coefficient modulus: the double-precision noise floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateResultantError,
    NonDivisibleError,
    PreconditionError,
)
from . import aberth

DROP_TOL = 1e-14
DIVIDE_TOL = 1e-9


def _trim(coeffs: np.ndarray) -> np.ndarray:
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.ndim != 1 or c.size == 0:
        raise PreconditionError("coefficient vector must be 1-d and nonempty")
    if not np.all(np.isfinite(c)):
        raise PreconditionError("coefficients must be finite")
    scale = np.max(np.abs(c))
    if scale == 0.0:
        return np.zeros(1, dtype=np.complex128)
    keep = np.abs(c) > DROP_TOL * scale
    last = int(np.max(np.nonzero(keep)[0]))
    return c[: last + 1].copy()


@dataclass(frozen=True)
class ComplexPolynomial:
    """Dense univariate polynomial over C, ascending coefficients."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

    # -- basic queries ----------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.degree == 0 and self.coeffs[0] == 0

    def scale(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    # -- ring operations --------------------------------------------------
    def __add__(self, other):
        a, b = self.coeffs, _as_poly(other).coeffs
        n = max(len(a), len(b))
        out = np.zeros(n, dtype=np.complex128)
        out[: len(a)] += a
        out[: len(b)] += b
        return ComplexPolynomial(out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return ComplexPolynomial(-self.coeffs)

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        if np.isscalar(other):
            return ComplexPolynomial(self.coeffs * other)
        b = _as_poly(other)
        if self.is_zero or b.is_zero:
            return ComplexPolynomial(np.zeros(1))
        return ComplexPolynomial(np.convolve(self.coeffs, b.coeffs))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise PreconditionError("polynomial powers must be nonnegative ints")
        out = ComplexPolynomial(np.ones(1))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def derivative(self) -> "ComplexPolynomial":
        if self.degree == 0:
            return ComplexPolynomial(np.zeros(1))
        return ComplexPolynomial(self.coeffs[1:] * np.arange(1, len(self.coeffs)))

    def __call__(self, z):
        """Horner evaluation; accepts scalars or arrays."""
        z = np.asarray(z, dtype=np.complex128)
        out = np.full_like(z, self.coeffs[-1])
        for c in self.coeffs[-2::-1]:
            out = out * z + c
        if out.ndim == 0:
            return complex(out)
        return out

    def compose(self, inner: "ComplexPolynomial") -> "ComplexPolynomial":
        out = ComplexPolynomial(np.zeros(1))
        for c in self.coeffs[::-1]:
            out = out * inner + ComplexPolynomial(np.array([c]))
        return out

    def divmod_with_norm(self, divisor: "ComplexPolynomial"):
        """Long division; returns (quotient, remainder_norm / scale)."""
        b = _as_poly(divisor)
        if b.is_zero:
            raise PreconditionError("division by zero polynomial")
        a = self.coeffs.copy()
        if self.degree < b.degree:
            return ComplexPolynomial(np.zeros(1)), float(
                np.max(np.abs(a)) / max(self.scale(), b.scale(), 1.0)
            )
        q = np.zeros(self.degree - b.degree + 1, dtype=np.complex128)
        lead = b.coeffs[-1]
        for k in range(len(q) - 1, -1, -1):
            q[k] = a[k + b.degree] / lead
            a[k : k + b.degree + 1] -= q[k] * b.coeffs
        rem = a[: b.degree] if b.degree > 0 else np.zeros(1)
        rem_norm = float(np.max(np.abs(rem))) if rem.size else 0.0
        return ComplexPolynomial(q), rem_norm / max(self.scale(), 1e-300)

    def exact_divide(self, divisor: "ComplexPolynomial", tol: float = DIVIDE_TOL):
        q, rel = self.divmod_with_norm(divisor)
        if rel > tol:
            raise NonDivisibleError(rel, tol)
        return q

    def monic(self) -> "ComplexPolynomial":
        return ComplexPolynomial(self.coeffs / self.coeffs[-1])

    @staticmethod
    def from_roots(roots) -> "ComplexPolynomial":
        """Monic polynomial with the given roots.

        Factors are multiplied in Leja order; taking same-phase roots
        consecutively inflates the partial products and loses the final
        cancellation to rounding.
        """
        rs = np.asarray(roots, dtype=np.complex128)
        if rs.size > 2:
            n = rs.size
            order = np.empty(n, dtype=np.int64)
            picked = np.zeros(n, dtype=bool)
            i0 = int(np.argmax(np.abs(rs)))
            order[0] = i0
            picked[i0] = True
            logdist = np.log(np.maximum(np.abs(rs - rs[i0]), 1e-300))
            for k in range(1, n):
                logdist[picked] = -np.inf
                nxt = int(np.argmax(logdist))
                order[k] = nxt
                picked[nxt] = True
                if k < n - 1:
                    logdist += np.log(np.maximum(np.abs(rs - rs[nxt]), 1e-300))
            rs = rs[order]
        out = np.ones(1, dtype=np.complex128)
        for r in rs:
            out = np.convolve(out, np.array([-r, 1.0], dtype=np.complex128))
        return ComplexPolynomial(out)


def _as_poly(x) -> ComplexPolynomial:
    if isinstance(x, ComplexPolynomial):
        return x
    if np.isscalar(x):
        return ComplexPolynomial(np.array([x], dtype=np.complex128))
    return ComplexPolynomial(np.asarray(x, dtype=np.complex128))


@dataclass(frozen=True)
class RootSet:
    roots: np.ndarray
    multiplicities: np.ndarray
    residual: float
    cluster_radius: float = 0.0

    @property
    def total(self) -> int:
        return int(np.sum(self.multiplicities))

    def expanded(self) -> np.ndarray:
        """Roots repeated according to multiplicity."""
        return np.repeat(self.roots, self.multiplicities)


def _cluster(roots: np.ndarray, tol: float, newton_ratio: np.ndarray | None = None
             ) -> tuple[np.ndarray, np.ndarray, float]:
    """Single-linkage clustering of near-coincident roots.

    Two points join a cluster when their distance is at most a few times the
    sum of their Newton ratios |p/p'| plus the tolerance floor: a converged
    simple root has ratio ~ machine epsilon, while a member of an m-fold
    cluster of radius e keeps ratio ~ e/m.  Candidate pairs come from a
    real-part sort, so simple-root inputs cost O(n log n).
    """
    n = len(roots)
    scale = 1.0 + np.abs(roots)
    if newton_ratio is None:
        newton_ratio = np.zeros(n)
    w = np.minimum(np.abs(newton_ratio), 1e-3 * scale)
    w = np.where(np.isfinite(w), w, 1e-3 * scale)
    thresh = 8.0 * w + tol * scale
    order = np.argsort(roots.real, kind="stable")
    parent = np.arange(n)

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    re_sorted = roots.real[order]
    smax = 2.0 * float(np.max(thresh)) if n else 0.0
    for a in range(n):
        i = order[a]
        b = a + 1
        while b < n and re_sorted[b] - re_sorted[a] <= smax:
            j = order[b]
            if abs(roots[i] - roots[j]) <= thresh[i] + thresh[j]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
            b += 1
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    centers, mults, radius = [], [], 0.0
    for members in groups.values():
        pts = roots[members]
        c = pts.mean()
        centers.append(c)
        mults.append(len(members))
        if len(members) > 1:
            radius = max(radius, float(np.max(np.abs(pts - c))))
    centers = np.array(centers, dtype=np.complex128)
    mults = np.array(mults, dtype=np.int64)
    order2 = np.argsort(centers.real + 1e-12 * centers.imag, kind="stable")
    return centers[order2], mults[order2], radius


def roots_simultaneous(
    p: ComplexPolynomial, tol: float = 1e-12, max_iter: int = 200
) -> RootSet:
    """All complex roots by simultaneous (Ehrlich-Aberth) iteration, with
    cluster post-processing for multiple roots."""
    p = _as_poly(p)
    if tol <= 0:
        raise PreconditionError("tol must be positive")
    if p.degree < 1:
        raise PreconditionError("degree must be >= 1")
    coeffs = p.coeffs
    dp = p.derivative()

    def eval_fn(z):
        return p(z), dp(z)

    init = aberth.initial_points_from_coeffs(coeffs)
    roots = aberth.aberth_solve(eval_fn, init, tol, max_iter)
    scale = p.scale()
    residual = float(np.max(np.abs(p(roots)))) / scale
    if residual > tol * max(1.0, np.max(1.0 + np.abs(roots)) ** p.degree):
        # one perturbed retry before giving up
        rng = np.random.default_rng(0)
        init2 = init * (1.0 + 0.05 * rng.standard_normal(len(init)))
        roots2 = aberth.aberth_solve(eval_fn, init2, tol, max_iter)
        r2 = float(np.max(np.abs(p(roots2)))) / scale
        if r2 < residual:
            roots, residual = roots2, r2
    # |p| below Horner's rounding bound is noise: a cluster member whose
    # p(z) rounds to ~0 would get a ratio far below the cluster radius and
    # drop out of its cluster
    eps = np.finfo(float).eps
    noise = (4.0 * (p.degree + 1) * eps
             * ComplexPolynomial(np.abs(coeffs))(np.abs(roots)).real)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.maximum(np.abs(p(roots)), noise) / np.abs(dp(roots))
    centers, mults, radius = _cluster(roots, tol, ratio)
    return RootSet(centers, mults, residual, radius)


def roots_blackbox(eval_fn, degree: int, tol: float = 1e-12, max_iter: int = 300,
                   init=None, radius: float = 2.5) -> RootSet:
    """Same contract as :func:`roots_simultaneous` for a polynomial known only
    through an evaluator.

    ``eval_fn(z_array) -> (p, dp)`` must be vectorized over numpy arrays; the
    pair may carry a common per-point rescaling (only the Newton ratio p/p'
    and the sign of p enter the iteration).  Used when explicit coefficients
    would overflow, e.g. iterated-map recursions.
    """
    if degree < 1:
        raise PreconditionError("degree must be >= 1")
    if tol <= 0:
        raise PreconditionError("tol must be positive")
    if init is None:
        init = aberth.initial_points_on_circle(degree, radius)
    roots = aberth.aberth_solve(eval_fn, np.asarray(init, dtype=np.complex128),
                                tol, max_iter)
    v, dv = eval_fn(roots)
    v = np.asarray(v, dtype=np.complex128)
    dv = np.asarray(dv, dtype=np.complex128)
    denom = np.maximum(np.abs(dv) * (1.0 + np.abs(roots)), 1e-300)
    residual = float(np.max(np.abs(v) / denom))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(v / dv)
    centers, mults, radius_out = _cluster(roots, tol, ratio)
    return RootSet(centers, mults, residual, radius_out)


# ---------------------------------------------------------------------------
# Bivariate resultants by evaluation-interpolation
# ---------------------------------------------------------------------------


def _sylvester_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sylvester matrix of two univariate coefficient vectors (ascending),
    using their nominal lengths as degrees (leading zeros allowed: this is the
    homogeneous convention)."""
    m, n = len(a) - 1, len(b) - 1
    size = m + n
    s = np.zeros((size, size), dtype=np.complex128)
    for i in range(n):
        s[i, i : i + m + 1] = a[::-1]
    for i in range(m):
        s[n + i, i : i + n + 1] = b[::-1]
    return s


def sylvester_resultant_univariate(a, b) -> complex:
    """Resultant of two univariate polynomials via the Sylvester determinant
    (rows of the first polynomial on top)."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if len(a) < 2 and len(b) < 2:
        raise PreconditionError("at least one input must have degree >= 1")
    return complex(np.linalg.det(_sylvester_matrix(a, b)))


def sylvester_resultant(p: np.ndarray, q: np.ndarray, eliminate: str = "x"
                        ) -> ComplexPolynomial:
    """Resultant of two bivariate polynomials with respect to one variable.

    Inputs are 2-d coefficient arrays ``c[i, j]`` for the monomial x**i y**j.
    Sign convention: the Sylvester matrix is built with the eliminated
    variable's coefficient rows of ``p`` on top, so the result equals
    (-1)**(deg_p * deg_q) times the opposite ordering.

    Computed by sampling the surviving variable at scaled Chebyshev nodes,
    taking univariate Sylvester determinants and interpolating.
    """
    p = np.atleast_2d(np.asarray(p, dtype=np.complex128))
    q = np.atleast_2d(np.asarray(q, dtype=np.complex128))
    if eliminate not in ("x", "y"):
        raise PreconditionError("eliminate must be 'x' or 'y'")
    if eliminate == "y":
        p, q = p.T, q.T
    if not p.any() or not q.any():
        raise PreconditionError("inputs must be nonzero")
    dx_p, dy_p = p.shape[0] - 1, p.shape[1] - 1
    dx_q, dy_q = q.shape[0] - 1, q.shape[1] - 1
    if dx_p < 1 and dx_q < 1:
        raise PreconditionError(
            "eliminated variable must appear in at least one input")
    out_deg = dx_p * dy_q + dx_q * dy_p
    if out_deg == 0:
        val = sylvester_resultant_univariate(p[:, 0], q[:, 0])
        return ComplexPolynomial(np.array([val]))
    # Chebyshev nodes on a slightly irrational radius to dodge symmetry
    nodes = 1.1789 * np.cos(np.pi * (2 * np.arange(out_deg + 1) + 1)
                            / (2.0 * (out_deg + 1)))
    vals = np.empty(out_deg + 1, dtype=np.complex128)
    ypow_p = nodes[:, None] ** np.arange(dy_p + 1)[None, :]
    ypow_q = nodes[:, None] ** np.arange(dy_q + 1)[None, :]
    a_all = ypow_p @ p.T  # (nodes, dx_p+1)
    b_all = ypow_q @ q.T
    for k in range(out_deg + 1):
        vals[k] = sylvester_resultant_univariate(a_all[k], b_all[k])
    vmax = np.max(np.abs(vals))
    if vmax == 0.0:
        raise DegenerateResultantError("resultant vanishes identically")
    vander = np.vander(nodes, out_deg + 1, increasing=True)
    coeffs = np.linalg.solve(vander, vals)
    res = ComplexPolynomial(coeffs)
    if res.is_zero:
        raise DegenerateResultantError("resultant vanishes identically")
    return res
