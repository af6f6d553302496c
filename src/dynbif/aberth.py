"""Ehrlich-Aberth simultaneous iteration.

The evaluator contract is vectorized and pointwise: eval_fn(z) -> (p, dp)
over a 1-d numpy array, where the pair at z_i depends on z_i alone.  p and
dp may share an arbitrary per-point scaling since only the Newton ratio
enters.  Each sweep evaluates only the points still moving: a point whose
correction fell below the tolerance is frozen and never evaluated again.
Newton sweeps without repulsion place most roots first, at O(n) cost, and
run while they pay, so the O(n^2) pairwise repulsion sum runs only on the
seeds left over.  It is the hot loop; it runs in real float64 arithmetic
over row blocks small enough to stay in cache.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergenceError, PreconditionError

# elements per temporary of the repulsion kernel (~0.5 MB of float64)
REPULSION_BLOCK = 1 << 16
# repulsion-free Newton sweeps from the seeds before the Aberth iteration
NEWTON_SWEEPS = 8
# then more while the last one froze this share of the points it moved, so
# the phase ends within NEWTON_SWEEPS + ln n / -ln(1 - NEWTON_YIELD) sweeps
NEWTON_YIELD = 1 / 8
# relative widening of a slab_pairs slab, far above rounding
SLAB_SLACK = 1e-12


def pairwise_sums(z: np.ndarray, active: np.ndarray) -> np.ndarray:
    """sum_j 1/(z_i - z_j) for every active i (0 for inactive i).

    The self term and points exactly coincident with z_i contribute 0.  Each
    term is computed as conj(d)/|d|^2 on the real and imaginary parts of
    d = z_i - z_j, over blocks of rows that hold about REPULSION_BLOCK
    elements, with every temporary preallocated once per call.
    """
    n = len(z)
    out = np.zeros(n, dtype=np.complex128)
    idx = np.flatnonzero(active)
    if idx.size == 0:
        return out
    x = np.ascontiguousarray(z.real)
    y = np.ascontiguousarray(z.imag)
    rows = max(1, REPULSION_BLOCK // n)
    shape = (min(rows, idx.size), n)
    dx, dy, q, t = (np.empty(shape) for _ in range(4))
    diag = np.arange(shape[0])
    re = np.empty(idx.size)
    im = np.empty(idx.size)
    with np.errstate(divide="ignore", over="ignore"):
        for start in range(0, idx.size, rows):
            ii = idx[start:start + rows]
            m = ii.size
            a, b, r, s = dx[:m], dy[:m], q[:m], t[:m]
            np.subtract(x[ii, None], x, out=a)
            np.subtract(y[ii, None], y, out=b)
            np.square(a, out=r)
            np.square(b, out=s)
            r += s
            r[diag[:m], ii] = 1.0  # self term: d = 0, any finite weight
            np.reciprocal(r, out=r)
            sr = np.einsum("ij,ij->i", a, r, out=re[start:start + m])
            si = np.einsum("ij,ij->i", b, r, out=im[start:start + m])
            if not (np.isfinite(sr).all() and np.isfinite(si).all()):
                # a coincident pair, |d|^2 = 0: its term is 0
                r[np.isinf(r)] = 0.0
                np.einsum("ij,ij->i", a, r, out=sr)
                np.einsum("ij,ij->i", b, r, out=si)
    out.real[idx] = re
    out.imag[idx] = -im
    return out


def initial_points_from_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """Newton-polygon (Bini) initialization: per-root radii from the upper
    convex hull of (k, log|a_k|), points spread on concentric circles with an
    irrational phase offset."""
    a = np.asarray(coeffs, dtype=np.complex128)
    n = len(a) - 1
    if n < 1:
        raise PreconditionError("degree must be >= 1")
    logs = np.full(n + 1, -np.inf)
    nz = np.abs(a) > 0
    logs[nz] = np.log(np.abs(a[nz]))
    # upper convex hull of (k, logs[k])
    hull = [0]
    for k in range(1, n + 1):
        if logs[k] == -np.inf and k != n:
            continue
        while len(hull) >= 2:
            i, j = hull[-2], hull[-1]
            # keep hull upper-convex
            if (logs[j] - logs[i]) * (k - j) <= (logs[k] - logs[j]) * (j - i):
                hull.pop()
            else:
                break
        hull.append(k)
    radii = np.empty(n)
    pos = 0
    for seg in range(len(hull) - 1):
        i, j = hull[seg], hull[seg + 1]
        r = np.exp((logs[i] - logs[j]) / (j - i))
        radii[pos : pos + (j - i)] = r
        pos += j - i
    theta = 2.0 * np.pi * np.arange(n) / n + 0.41322
    # small radial stagger avoids symmetric stalls
    stagger = 1.0 + 1e-3 * np.cos(7.1 * np.arange(n))
    return radii * stagger * np.exp(1j * theta)


def slab_pairs(key: np.ndarray, query: np.ndarray, width: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """The candidates of a proximity search along one real key: index
    arrays (q, p), grouped by q, of every query q and point p with
    |query_q - key_p| <= width_q (widened by SLAB_SLACK), cut from one sort
    of the keys by two searchsorted calls on the sorted queries.  Callers
    test their own exact predicate on them."""
    order = np.argsort(key, kind="stable")
    qo = np.argsort(query, kind="stable")
    sk, w = key[order], width[qo] * (1.0 + SLAB_SLACK)
    lo = np.searchsorted(sk, query[qo] - w, side="left")
    count = np.searchsorted(sk, query[qo] + w, side="right") - lo
    q = np.repeat(qo, count)
    pos = np.arange(len(q)) + np.repeat(lo - (np.cumsum(count) - count), count)
    return q, order[pos]


def close_points(z: np.ndarray, rho: float, rank: np.ndarray) -> np.ndarray:
    """Mask of the points with a point of lower rank (ties: lower index)
    within rho (1 + |z|), |z| the larger modulus of the pair."""
    reach = rho * (1.0 + np.abs(z))
    q, p = slab_pairs(z.real, z.real, reach)
    near = (q != p) & (np.abs(z[q] - z[p]) <= np.maximum(reach[q], reach[p]))
    # mark the higher-ranked point of each pair, found from either side
    p_first = (rank[p] < rank[q]) | ((rank[p] == rank[q]) & (p < q))
    hit = np.zeros(len(z), dtype=np.bool_)
    hit[np.where(p_first, q, p)[near]] = True
    return hit


def _sweep(eval_fn, z, active, tol, repulse):
    """One Aberth sweep (a Newton sweep without ``repulse``) over the active
    points, in place; returns the worst relative correction of the points
    still moving (0 if none)."""
    idx = np.flatnonzero(active)
    za = z[idx]
    p, dp = eval_fn(za)
    p = np.asarray(p, dtype=np.complex128)
    dp = np.asarray(dp, dtype=np.complex128)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = p / dp
    bad = ~np.isfinite(w)
    if np.any(bad):
        w[bad] = 0.02 * (1.0 + np.abs(za[bad]))
    s = pairwise_sums(z, active)[idx] if repulse else 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        corr = w / (1.0 - w * s)
    bad = ~np.isfinite(corr)
    if np.any(bad):
        corr[bad] = w[bad]
    # damp absurd steps (far-field points with huge Newton ratios)
    mag = np.abs(corr)
    limit = 0.5 * (1.0 + np.abs(za))
    big = mag > limit
    if np.any(big):
        corr[big] *= limit[big] / mag[big]
    za = za - corr
    z[idx] = za
    rel = np.abs(corr) / (1.0 + np.abs(za))
    moving = rel > tol
    active[idx] = moving
    return float(np.max(rel[moving], initial=0.0))


def aberth_solve(eval_fn, init: np.ndarray, tol: float, max_iter: int
                 ) -> np.ndarray:
    """Run Newton sweeps, then the Ehrlich-Aberth iteration, from ``init``.

    A point freezes once its correction drops below tol * (1 + |z|); each
    sweep calls ``eval_fn`` on the points not yet frozen only, so the
    evaluator must be pointwise (see the module docstring).  The points the
    Newton sweeps left moving restart from their seeds in the Aberth
    iteration, repelled by all points; so does every frozen point with a
    frozen point within sqrt(tol) * (1 + |z|) whose seed lay nearer (ties:
    lower index), the nearest seed keeping each collided root.  Multiple
    roots converge only linearly and bottom out at the double-precision
    cluster radius (~eps**(1/m)), so the loop also exits when the worst
    active correction has stopped improving at a sub-sqrt(tol) level; the
    cluster post-processing in cpoly then assigns multiplicities.
    """
    init = np.asarray(init, dtype=np.complex128)
    z = init.copy()
    n = len(z)
    active = np.ones(n, dtype=np.bool_)
    moved, sweeps = n, 0
    while moved:
        _sweep(eval_fn, z, active, tol, repulse=False)
        sweeps += 1
        left = np.count_nonzero(active)
        if sweeps >= NEWTON_SWEEPS and moved - left < NEWTON_YIELD * moved:
            break
        moved = left
    active[~active] = close_points(z[~active], tol**0.5,
                                   np.abs(z - init)[~active])
    z[active] = init[active]
    best = np.inf
    stagnant = 0
    for _ in range(max_iter):
        if not np.any(active):
            return z
        worst = _sweep(eval_fn, z, active, tol, repulse=True)
        if worst < 0.9 * best:
            best = worst
            stagnant = 0
        else:
            stagnant += 1
            if stagnant >= 15 and best < tol**0.5:
                return z
    if np.count_nonzero(active) > max(0, n // 500) and best > tol**0.5:
        raise NoConvergenceError(
            f"{np.count_nonzero(active)} of {n} points unconverged after "
            f"{max_iter} iterations (best correction {best:.2e})"
        )
    return z
