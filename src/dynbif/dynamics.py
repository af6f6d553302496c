"""Rational maps on the sphere via homogeneous lifts.

A degree-d map is a pair of degree-d homogeneous forms in (z0, z1); forms are
stored as complex vectors of length m+1 indexed by z0-degree, so the affine
chart z1 = 1 reads the vector directly as an ascending univariate polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import aberth, arith
from .cpoly import BLACKBOX_TOL, roots_blackbox
from .errors import (
    DegenerateMapError,
    ExceptionalStartError,
    OrbitMismatchError,
    PreconditionError,
)

DESK_DEGREE_CAP = 20_000
PARABOLIC_ROOT_OF_UNITY_TOL = 1e-6
# chordal distance at which the orbit of infinity counts as closed
INFINITY_RETURN_TOL = 1e-9
# an image may sit this many times its propagated root error from its root
MATCH_FACTOR = 100.0
# generic start points of the period-n seed tree, tried in turn, and the
# relative gap below which two preimages of one parent count as one
CLOUD_STARTS = (0.3 + 0.2j, -0.41 + 0.17j, 0.13 - 0.37j)
CLOUD_GAP = 1e-6


# ---------------------------------------------------------------------------
# homogeneous forms
# ---------------------------------------------------------------------------


def _chart(z0: np.ndarray, z1: np.ndarray):
    """Per point of (z0, z1): the chart index, 1 for z1 = 1 (|z0| <= |z1|,
    Horner from c_m down in t = z0/z1) or 0 for z0 = 1 (from c_0 up in
    t = z1/z0), the ratio t and the chart's divisor."""
    lo = np.abs(z0) <= np.abs(z1)
    top, bottom = np.where(lo, z0, z1), np.where(lo, z1, z0)
    return lo.astype(np.intp), top / bottom, bottom


def _horner(c: np.ndarray, chart) -> list[np.ndarray]:
    """Each form of the (k, m+1) stack c on the chart's points, as k
    vectors.  Every product runs on flat vectors, which numpy rounds the
    same at every length and offset: a point's value is its own alone."""
    lo, t, bottom = chart
    m = c.shape[-1] - 1
    # numpy's x ** 1 is x, at 20 times the cost of a product, except that
    # it maps the complex zeros to +0, where z0 = z1 = 0 and t is NaN
    scale = bottom ** m if m != 1 else bottom
    out = []
    for row in np.stack([c, c[:, ::-1]], axis=-1):  # row k: (c_k, c_m-k)
        acc = row[0].take(lo)
        for k in range(1, m + 1):
            acc = acc * t
            # a shared coefficient adds as a scalar: a sum rounds alike
            acc += row[k, 0] if row[k, 0] == row[k, 1] else row[k].take(lo)
        out.append(acc * scale)
    return out


def form_eval(coeffs: np.ndarray, z0, z1):
    """Evaluate sum_k c_k z0^k z1^(m-k), Horner in whichever chart keeps the
    ratio inside the unit disk.

    ``coeffs`` is one form (m+1,) or a stack (k, m+1) of forms of one
    degree; the result has the stack's leading shape followed by the shape
    of z0.  The chart is chosen once per point for every form of the stack.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    z0 = np.asarray(z0, dtype=np.complex128)
    z1 = np.asarray(z1, dtype=np.complex128)
    chart = _chart(z0.reshape(-1), z1.reshape(-1))
    out = np.array(_horner(c.reshape(-1, c.shape[-1]), chart))
    out = out.reshape(c.shape[:-1] + z0.shape)
    return complex(out) if out.ndim == 0 else out


def form_partial(coeffs: np.ndarray, var: int) -> np.ndarray:
    """Coefficient vector of the partial derivative with respect to z0
    (var=0) or z1 (var=1)."""
    c = np.asarray(coeffs, dtype=np.complex128)
    m = len(c) - 1
    if m == 0:
        return np.zeros(1, dtype=np.complex128)
    if var == 0:
        return c[1:] * np.arange(1, m + 1)
    return c[:-1] * (m - np.arange(m))


def compose_forms(outer_num: np.ndarray, outer_den: np.ndarray,
                  inner_num: np.ndarray, inner_den: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Substitute the inner pair (degree m forms) into the outer pair
    (degree d forms); results are degree d*m forms."""
    d = len(outer_num) - 1
    apow = [np.ones(1, dtype=np.complex128)]
    bpow = [np.ones(1, dtype=np.complex128)]
    for _ in range(d):
        apow.append(np.convolve(apow[-1], inner_num))
        bpow.append(np.convolve(bpow[-1], inner_den))
    m = len(inner_num) - 1
    out_n = np.zeros(d * m + 1, dtype=np.complex128)
    out_d = np.zeros(d * m + 1, dtype=np.complex128)
    for k in range(d + 1):
        if outer_num[k] != 0 or outer_den[k] != 0:
            term = np.convolve(apow[k], bpow[d - k])
            pad = np.zeros(d * m + 1, dtype=np.complex128)
            pad[: len(term)] = term
            out_n += outer_num[k] * pad
            out_d += outer_den[k] * pad
    return out_n, out_d


# ---------------------------------------------------------------------------
# resultant
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


def homogeneous_resultant(num: np.ndarray, den: np.ndarray) -> complex:
    """Resultant of two degree-d forms: their Sylvester determinant, which
    is 1 on the monomial pair (z0^d, z1^d), whose Sylvester matrix is the
    identity."""
    num = np.asarray(num, dtype=np.complex128)
    den = np.asarray(den, dtype=np.complex128)
    if len(num) != len(den) or len(num) < 2:
        raise PreconditionError("lift components must share a degree >= 1")
    return complex(np.linalg.det(_sylvester_matrix(num, den)))


# ---------------------------------------------------------------------------
# points on the sphere
# ---------------------------------------------------------------------------


def unit(v) -> np.ndarray:
    """The pair v = (z0, z1) as a unit vector, the point z0 / z1 of the
    projective line."""
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (2,) or not np.all(np.isfinite(v)):
        raise PreconditionError("sphere point needs a finite pair")
    norm = np.linalg.norm(v)
    if norm == 0:
        raise PreconditionError("zero vector does not project")
    return v / norm


# ---------------------------------------------------------------------------
# the lift
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalMapLift:
    """Non-degenerate pair of degree-d homogeneous forms."""

    num: np.ndarray
    den: np.ndarray
    resultant: complex = field(init=False)

    def __post_init__(self):
        num = np.asarray(self.num, dtype=np.complex128)
        den = np.asarray(self.den, dtype=np.complex128)
        if len(num) != len(den) or len(num) < 3:
            raise PreconditionError("lift needs two equal-length forms, degree >= 2")
        if not (np.all(np.isfinite(num)) and np.all(np.isfinite(den))):
            raise PreconditionError("lift coefficients must be finite")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        res = homogeneous_resultant(num, den)
        scale = max(np.max(np.abs(num)), np.max(np.abs(den)))
        with np.errstate(over="ignore"):  # an infinite bound is degenerate
            bound = 1e-30 * scale ** (2 * self.degree)
        if abs(res) < bound:
            raise DegenerateMapError(
                f"resultant {abs(res):.3e} vanishes relative to the "
                f"coefficient scale {scale:.3e}")
        object.__setattr__(self, "resultant", res)

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    # -- evaluation -------------------------------------------------------
    def apply(self, v: np.ndarray) -> np.ndarray:
        """F(v) for a pair v, or column-wise for a (2, N) array."""
        return form_eval(np.stack([self.num, self.den]), v[0], v[1])

    # -- derived lifts ----------------------------------------------------
    def scaled(self, alpha: complex) -> "RationalMapLift":
        return RationalMapLift(self.num * alpha, self.den * alpha)

    def conjugate(self, m: np.ndarray) -> "RationalMapLift":
        """Lift of M^-1 o f o M for an invertible 2x2 matrix M."""
        m = np.asarray(m, dtype=np.complex128)
        inner_n = np.array([m[0, 1], m[0, 0]], dtype=np.complex128)
        inner_d = np.array([m[1, 1], m[1, 0]], dtype=np.complex128)
        fn, fd = compose_forms(self.num, self.den, inner_n, inner_d)
        inv = np.linalg.inv(m)
        return RationalMapLift(inv[0, 0] * fn + inv[0, 1] * fd,
                               inv[1, 0] * fn + inv[1, 1] * fd)


def _jacobian_forms(F: RationalMapLift) -> np.ndarray:
    """The four partials of the lift as one (4, d) stack: d num/d z0,
    d num/d z1, d den/d z0, d den/d z1."""
    return np.stack([form_partial(F.num, 0), form_partial(F.num, 1),
                     form_partial(F.den, 0), form_partial(F.den, 1)])


def _jacobian_det(F: RationalMapLift, v0, v1):
    """det DF at (v0, v1), on scalars or arrays."""
    j00, j01, j10, j11 = form_eval(_jacobian_forms(F), v0, v1)
    return j00 * j11 - j01 * j10


def chordal_derivative(F: RationalMapLift, p: np.ndarray) -> float:
    """Expansion rate in the chordal metric:
    (1/d) |det DF(p)| ||p||^2 / ||F(p)||^2 at a unit pair p."""
    det = _jacobian_det(F, p[0], p[1])
    fp = F.apply(p)
    n2 = float(np.abs(fp[0]) ** 2 + np.abs(fp[1]) ** 2)
    return float(abs(det)) / (F.degree * n2)


# ---------------------------------------------------------------------------
# the period-n locus
# ---------------------------------------------------------------------------


def _check_dynatomic_caps(F: RationalMapLift, n: int) -> None:
    if n < 1:
        raise PreconditionError("period must be >= 1")
    if F.degree**n > DESK_DEGREE_CAP:
        raise PreconditionError(
            f"d^n = {F.degree**n} exceeds the desk cap {DESK_DEGREE_CAP}")


def infinity_exact_period(F: RationalMapLift, n: int) -> int | None:
    """Exact period of the point at infinity if it is periodic with period
    <= n, else None."""
    v = np.array([1.0, 0.0], dtype=np.complex128)
    for m in range(1, n + 1):
        v = unit(F.apply(v))
        if abs(v[1]) <= INFINITY_RETURN_TOL:  # chordal distance to (1, 0)
            return m
    return None


def period_wedge_evaluator(F: RationalMapLift, n: int):
    """Black-box evaluator for the full period-n fixed-point locus.

    Returns eval_fn(z) -> (p, dp) evaluating the wedge of F^n against the
    identity in the affine chart (a degree d^n + 1 polynomial whose roots are
    all points of period dividing n), with a shared per-point rescaling.
    Orbits and their z-derivatives run on unit sphere representatives, so the
    evaluation stays stable where any coefficient expansion is hopelessly
    ill-conditioned.  Each orbit step picks each point's chart once and
    evaluates the lift and its four partials on it.  The evaluator is
    pointwise: the pair at z_i depends on z_i alone, bit for bit, so it may
    be called on any subset of points.
    """
    lift = np.stack([F.num, F.den])
    jac = _jacobian_forms(F)

    def eval_fn(z: np.ndarray):
        z = np.asarray(z, dtype=np.complex128)
        v0 = z.copy()
        v1 = np.ones_like(z)
        u0 = np.ones_like(z)
        u1 = np.zeros_like(z)
        for _ in range(n):
            chart = _chart(v0, v1)
            w0, w1 = _horner(lift, chart)
            j00, j01, j10, j11 = _horner(jac, chart)
            t0 = j00 * u0 + j01 * u1
            t1 = j10 * u0 + j11 * u1
            s = np.maximum(np.abs(w0), np.abs(w1))
            s[s == 0] = 1.0
            v0, v1 = w0 / s, w1 / s
            u0, u1 = t0 / s, t1 / s
        return v0 - v1 * z, u0 - u1 * z - v1

    return eval_fn


def backward_cloud(F: RationalMapLift, count: int) -> np.ndarray:
    """Seeds for the period-n locus: the n-th preimages of a start point off
    the Julia set, n the largest with d^n <= count, plus the start itself if
    count = d^n + 1.  Each inverse branch of F^n takes the start close to its
    own fixed point, so an expanding map gets one seed per root.  A start on
    the critical orbit has a parent whose preimages coincide; the next of
    CLOUD_STARTS is then tried.  Affine values; branches that wander to
    infinity are replaced by large finite stand-ins."""
    d = F.degree
    n = len(np.base_repr(count, d)) - 1  # d^n <= count < d^(n+1)
    if count - d**n > 1:
        raise PreconditionError(f"count {count} is neither d^n nor d^n + 1")
    i, j = np.triu_indices(d, 1)
    for z0 in CLOUD_STARTS:
        pts = np.array([z0], dtype=np.complex128)
        for _ in range(n):
            # batched fiber polynomials num(w) - y*den(w) solved by companion
            # eigenvalues; degree can drop when y passes through the image of
            # infinity, so guard the leading coefficient
            coeffs = F.num[None, :] - pts[:, None] * F.den[None, :]
            small = np.abs(coeffs[:, -1]) < 1e-12 * np.abs(coeffs).max(axis=1)
            coeffs[small, -1] = 1e-6 * np.abs(coeffs[small]).max(axis=-1)
            comp = np.zeros((len(pts), d, d), dtype=np.complex128)
            comp[:, 1:, :-1] = np.eye(d - 1)
            comp[:, :, -1] = -coeffs[:, :-1] / coeffs[:, -1:]
            pre = np.linalg.eigvals(comp)  # (parents, d)
            big = np.abs(pre) > 1e8
            pre[big] = 1e8 * pre[big] / np.abs(pre[big])
            scale = np.maximum(1.0, np.abs(pre).max(axis=1, keepdims=True))
            if np.any(np.abs(pre[:, i] - pre[:, j]) <= CLOUD_GAP * scale):
                break
            pts = pre.reshape(-1)
        else:
            return np.append(pts, z0) if count > d**n else pts
    raise ExceptionalStartError(
        "every start of the preimage tree hits the critical orbit")


@dataclass(frozen=True)
class CycleSet:
    """The cycles that make up the period-n dynatomic divisor, one row per
    cycle in the order of its lowest root index: its ``period`` and
    ``multiplier``; ``copies``, how many times the divisor counts it (the
    least root multiplicity along an exact-period cycle, 1 elsewhere); and
    the ``contaminated`` mask of the lower-period parabolic orbits, whose
    multiplier is an (n/period)-th root of unity.  ``points`` holds the unit
    columns of every cycle, from its lowest root in orbit order, cycle
    after cycle: shape (2, period.sum())."""

    period: np.ndarray
    multiplier: np.ndarray
    copies: np.ndarray
    contaminated: np.ndarray
    points: np.ndarray


def _step_factors(d: int, det, w, target):
    """One-step multiplier factors det DF(v_i) / (d s_i^2) on unit vectors
    v_i, where the image w_i = F(v_i) = s_i * target_i.  In the orthonormal
    frames (v, v^perp) the derivative of F on the sphere is det DF / (d s^2),
    so the frame choices cancel and the product around a cycle is its
    multiplier, in any chart."""
    s = np.conj(target[0]) * w[0] + np.conj(target[1]) * w[1]
    return det / (d * s * s)


def cycle_multiplier(F: RationalMapLift, v: np.ndarray) -> complex:
    """Multiplier of the cycle of the (2, p) unit columns
    v[:, 0] -> v[:, 1] -> ... -> v[:, 0]."""
    factors = _step_factors(F.degree, _jacobian_det(F, v[0], v[1]),
                            F.apply(v), np.roll(v, -1, axis=1))
    return complex(np.prod(factors))


def _nearest_root(x: np.ndarray, v: np.ndarray, reach: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Index of the chordally nearest column of v (the lowest on ties) for
    each unit column of x with one within chordal distance reach, and that
    distance; -1 and inf elsewhere.  Candidates share a slab of the sphere
    coordinate 2 Re(a conj b) of the columns (a, b), which moves at most
    twice the chordal distance; BLACKBOX_TOL covers its rounding."""
    key = [2.0 * (u[0].real * u[1].real + u[0].imag * u[1].imag)
           for u in (v, x)]
    q, p = aberth.slab_pairs(*key, 2.0 * reach + BLACKBOX_TOL)
    wedge = x[0, q] * v[1, p] - x[1, q] * v[0, p]
    d2 = wedge.real**2 + wedge.imag**2
    s = np.flatnonzero(np.diff(q, prepend=-1))  # each query's first pair
    tie = d2 == np.minimum.reduceat(d2, s).repeat(np.diff(s, append=q.size))
    hit, j = q[s], np.minimum.reduceat(np.where(tie, p, v.shape[1]), s)
    idx, dist = np.full(x.shape[1], -1), np.full(x.shape[1], np.inf)
    idx[hit] = j
    dist[hit] = np.abs(x[0, hit] * v[1, j] - x[1, hit] * v[0, j])
    return idx, dist


def _orbits(sigma: np.ndarray, n: int, factors: np.ndarray):
    """The cycles of the permutation sigma, whose lengths must divide n, in
    the order of their lowest index (the leader): the rows sigma^k(leader),
    k < n, the lengths, and the products of the factors around each cycle
    from its leader on.  reduceat multiplies in sequence, as np.prod does."""
    walk = [np.arange(len(sigma))]
    for _ in range(n):
        walk.append(sigma[walk[-1]])
    walk = np.stack(walk, axis=1)  # row i: sigma^k(i) for k = 0..n
    back = walk[:, 1:] == walk[:, :1]
    if not np.all(back.any(axis=1)) or np.any(n % (back.argmax(axis=1) + 1)):
        raise OrbitMismatchError("orbit period does not divide n")
    lead = walk[:, 0] == walk[:, :n].min(axis=1)
    orbit, period = walk[lead, :n], back[lead].argmax(axis=1) + 1
    first = orbit[np.arange(n) < period[:, None]]
    starts = np.cumsum(period) - period
    return orbit, period, np.multiply.reduceat(factors[first], starts)


def exact_cycles(F: RationalMapLift, n: int) -> CycleSet:
    """All exact-period-n cycles of F.

    Solves the full period-n fixed-point locus (every point of period
    dividing n) through the orbit-based black-box evaluator, then pushes
    every root forward once: each image is matched to its chordally nearest
    root, the matches must form a permutation, and its cycles are the
    orbits.  A match may lie no farther than the image error the root error
    can explain (the cluster radius, expanded by the local chordal |f'|), so
    a root the solver left out raises a mismatch.  The roots stay one array
    of unit columns; the match is a sorted sweep over a slab of one sphere
    coordinate, so it costs O(N log N).  Lower-period orbits whose
    multiplier is an (n/m)-th root of unity sit inside the period-n dynatomic
    divisor (parabolic contamination); their rows are marked
    ``contaminated``.
    """
    _check_dynatomic_caps(F, n)
    m_inf = infinity_exact_period(F, n)
    has_inf = m_inf is not None and n % m_inf == 0
    target_deg = F.degree**n + 1 - (1 if has_inf else 0)
    # one preimage-tree seed lies next to each root, so the simultaneous
    # iteration starts essentially converged; coefficient-based seeding is
    # hopeless at these degrees
    init = backward_cloud(F, target_deg)
    rs = roots_blackbox(period_wedge_evaluator(F, n), target_deg, init)
    v = np.stack([rs.roots, np.ones_like(rs.roots)])
    mults = rs.multiplicities
    if has_inf:
        v = np.append(v, [[1.0], [0.0]], axis=1)
        mults = np.append(mults, 1)
    # np.linalg.norm's summation order: each column is unit()'s
    re, im = v.real**2, v.imag**2
    norm = np.sqrt((re[0] + re[1]) + (im[0] + im[1]))
    if not np.all(np.isfinite(norm)):
        raise PreconditionError("sphere point needs a finite pair")
    v = v / norm
    w = F.apply(v)
    det = _jacobian_det(F, v[0], v[1])
    w_norm2 = np.abs(w[0]) ** 2 + np.abs(w[1]) ** 2
    expansion = np.abs(det) / (F.degree * w_norm2)
    bound = (MATCH_FACTOR * (1.0 + expansion)
             * (rs.cluster_radius + BLACKBOX_TOL))
    sigma, dist = _nearest_root(w / np.sqrt(w_norm2), v, bound)
    miss = ~(dist <= bound)
    if np.any(miss):
        raise OrbitMismatchError(
            f"{np.count_nonzero(miss)} of {len(dist)} images have no root "
            f"within their match bound (at most {bound[miss].max():.3e})")
    if np.any(np.bincount(sigma, minlength=v.shape[1]) != 1):
        raise OrbitMismatchError("orbit collision between root groups")
    factors = _step_factors(F.degree, det, w, v[:, sigma])
    orbit, period, mult = _orbits(sigma, n, factors)
    exact = period == n
    contaminated = ~exact & (np.abs(mult ** (n // period) - 1.0)
                             <= PARABOLIC_ROOT_OF_UNITY_TOL)
    # a lower-period row that is not parabolic belongs to a smaller
    # dynatomic divisor only; root multiplicity > 1 occurs only at parabolic
    # exact-n cycles, which the divisor counts that many times
    keep = exact | contaminated
    orbit, period, mult = orbit[keep], period[keep], mult[keep]
    copies = np.where(exact[keep], mults[orbit].min(axis=1), 1)
    if not contaminated.any():
        d_n = arith.exact_cycle_point_count(F.degree, n)
        found = n * int(copies.sum())
        if found != d_n:
            raise OrbitMismatchError(
                f"found {found} exact-period-{n} points, expected {d_n}")
    points = v[:, orbit[np.arange(n) < period[:, None]]]
    return CycleSet(period, mult, copies, contaminated[keep], points)
