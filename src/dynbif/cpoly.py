"""Simultaneous root finding, for coefficient vectors and for black-box
evaluators, with multiplicities read off root clusters.

Coefficients are stored ascending in a complex128 numpy array.  The drop
tolerance for trailing (leading) coefficients is 1e-14 times the largest
coefficient modulus: the double-precision noise floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from . import aberth

DROP_TOL = 1e-14
#: relative tolerance and sweep cap of roots_simultaneous
SIMULTANEOUS_TOL, SIMULTANEOUS_MAX_ITER = 1e-12, 200
#: roots_blackbox freezes points at the double-precision floor of the Aberth
#: correction (a looser one leaves roots whose images miss the period-n root
#: set), within its sweep cap
BLACKBOX_TOL, BLACKBOX_MAX_ITER = 1e-14, 3000


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

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def scale(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

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


@dataclass(frozen=True)
class RootSet:
    roots: np.ndarray
    multiplicities: np.ndarray
    cluster_radius: float

    def expanded(self) -> np.ndarray:
        """Roots repeated according to multiplicity."""
        return np.repeat(self.roots, self.multiplicities)


def _cluster(roots: np.ndarray, tol: float, newton_ratio: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, float]:
    """Single-linkage clustering of near-coincident roots.

    Two points join a cluster when their distance is at most a few times the
    sum of their Newton ratios |p/p'| plus the tolerance floor: a converged
    simple root has ratio ~ machine epsilon, while a member of an m-fold
    cluster of radius e keeps ratio ~ e/m.  Candidate pairs come from
    real-part slabs (``aberth.slab_pairs``): O(n log n) on simple roots.
    """
    n = len(roots)
    scale = 1.0 + np.abs(roots)
    w = np.minimum(np.abs(newton_ratio), 1e-3 * scale)
    w = np.where(np.isfinite(w), w, 1e-3 * scale)
    thresh = 8.0 * w + tol * scale
    q, p = aberth.slab_pairs(roots.real, roots.real, 2.0 * thresh)
    join = (q != p) & (np.abs(roots[q] - roots[p]) <= thresh[q] + thresh[p])
    parent = np.arange(n)

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in zip(q[join].tolist(), p[join].tolist()):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    # flatten the forest; a root is its group's lowest index (in any pair
    # order), so the groups come in first-member order
    while not np.array_equal(parent[parent], parent):
        parent = parent[parent]
    _, gid, mults = np.unique(parent, return_inverse=True, return_counts=True)
    starts = np.cumsum(mults) - mults
    members = np.argsort(gid, kind="stable")  # index order within a group
    centers = np.empty(len(mults), dtype=np.complex128)
    for k in set(mults.tolist()):
        # row means, so each group sums in the order of its own mean()
        g = np.flatnonzero(mults == k)
        centers[g] = roots[members[starts[g, None] + np.arange(k)]].mean(axis=1)
    spread = np.abs(roots - centers[gid])[mults[gid] > 1]
    radius = float(np.max(spread, initial=0.0))
    order2 = np.argsort(centers.real + 1e-12 * centers.imag, kind="stable")
    return centers[order2], mults[order2], radius


def roots_simultaneous(p: ComplexPolynomial) -> RootSet:
    """All complex roots by simultaneous (Ehrlich-Aberth) iteration, with
    cluster post-processing for multiple roots."""
    tol, max_iter = SIMULTANEOUS_TOL, SIMULTANEOUS_MAX_ITER
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
    return RootSet(centers, mults, radius)


def roots_blackbox(eval_fn, degree: int, init) -> RootSet:
    """Same contract as :func:`roots_simultaneous` for a polynomial of the
    given degree known only through an evaluator, from one seed per root,
    at the tolerance BLACKBOX_TOL.

    ``eval_fn(z_array) -> (p, dp)`` must be vectorized over numpy arrays
    and pointwise: the pair at z_i may depend on z_i alone, since each Aberth
    sweep evaluates only the points still moving (the final cluster pass
    evaluates all of them).  The pair may carry a common per-point
    rescaling (only the Newton ratio p/p' and the sign of p enter the
    iteration).  Used when explicit coefficients would overflow, e.g.
    iterated-map recursions.
    """
    if degree < 1 or len(init) != degree:
        raise PreconditionError(f"need degree >= 1 and one seed per root, "
                                f"got {len(init)} for degree {degree}")
    roots = aberth.aberth_solve(eval_fn, np.asarray(init, dtype=np.complex128),
                                BLACKBOX_TOL, BLACKBOX_MAX_ITER)
    v, dv = eval_fn(roots)
    v = np.asarray(v, dtype=np.complex128)
    dv = np.asarray(dv, dtype=np.complex128)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(v / dv)
    centers, mults, radius_out = _cluster(roots, BLACKBOX_TOL, ratio)
    return RootSet(centers, mults, radius_out)
