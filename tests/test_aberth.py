"""The Aberth repulsion kernel, the sorted-sweep pair search and the
ranked collision check against direct double loops, the solver's
active-only evaluation against sweeps that evaluate every point, and the
Newton phase's share of the work."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from conftest import quad_lift
from dynbif import aberth, families
from dynbif.aberth import (NEWTON_SWEEPS, NEWTON_YIELD, REPULSION_BLOCK,
                           aberth_solve, close_points, pairwise_sums,
                           slab_pairs)
from dynbif.dynamics import exact_cycles


def _loop(z, active):
    """sum_{j, z_j != z_i} 1/(z_i - z_j) for active i, one term at a time."""
    out = np.zeros(len(z), dtype=complex)
    for i in np.flatnonzero(active):
        out[i] = sum(1.0 / (z[i] - w) for w in z if w != z[i])
    return out


def _cloud(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@pytest.mark.parametrize("n", [
    7,                          # one row block holds every row
    REPULSION_BLOCK // 40 + 3,  # rows span many blocks, the last partial
])
def test_kernel_matches_loop_with_partial_mask(n):
    z = _cloud(n, n)
    active = np.random.default_rng(1).random(n) < 0.6
    got = pairwise_sums(z, active)
    want = _loop(z, active)
    assert np.all(got[~active] == 0)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


def test_coincident_points_contribute_zero():
    z = np.array([0.5 + 0.25j, 2.0 - 1.0j, 0.5 + 0.25j, -1.0 + 0.0j])
    active = np.ones(len(z), dtype=bool)
    got = pairwise_sums(z, active)
    # the pair 0, 2 coincides: neither sees the other
    assert got[0] == pytest.approx(1 / (z[0] - z[1]) + 1 / (z[0] - z[3]),
                                   rel=1e-15)
    assert got[2] == got[0]
    assert np.all(np.isfinite(got))
    assert np.allclose(got, _loop(z, active), rtol=1e-15, atol=0)


def test_no_active_points():
    z = _cloud(5, 0)
    assert np.all(pairwise_sums(z, np.zeros(5, dtype=bool)) == 0)


def _horner_pair(coeffs):
    """Pointwise evaluator of an ascending coefficient vector: (p, p')."""
    dcoeffs = coeffs[1:] * np.arange(1, len(coeffs))

    def eval_fn(z):
        p = np.full_like(z, coeffs[-1])
        for c in coeffs[-2::-1]:
            p = p * z + c
        dp = np.full_like(z, dcoeffs[-1])
        for c in dcoeffs[-2::-1]:
            dp = dp * z + c
        return p, dp

    return eval_fn


def _step(eval_fn, z, active, s):
    """The damped correction of every point, zero at the frozen ones."""
    p, dp = eval_fn(z)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = p / dp
    bad = ~np.isfinite(w)
    w[bad] = 0.02 * (1.0 + np.abs(z[bad]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        corr = w / (1.0 - w * s)
    bad = ~np.isfinite(corr)
    corr[bad] = w[bad]
    mag = np.abs(corr)
    limit = 0.5 * (1.0 + np.abs(z))
    big = mag > limit
    corr[big] *= limit[big] / mag[big]
    corr[~active] = 0.0
    return corr


def _close_pairs_loop(z, rho, rank):
    """Points with a point of lower rank (ties: lower index) within
    rho (1 + max |z|), pair by pair."""
    hit = np.zeros(len(z), dtype=bool)
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            if abs(z[i] - z[j]) <= rho * (1.0 + max(abs(z[i]), abs(z[j]))):
                hit[max((rank[i], i), (rank[j], j))[1]] = True
    return hit


def _aberth_every_point(eval_fn, init, tol, max_iter):
    """The solve as it ran before the evaluation was restricted to the
    active points: every point is evaluated in every sweep and the frozen
    points' corrections are zeroed afterwards.  Sweeps without repulsion
    come first, NEWTON_SWEEPS of them and then more while the last one
    froze at least NEWTON_YIELD of the points it moved.  The points still
    moving, and every frozen point with a frozen neighbour within
    sqrt(tol) (1 + |z|) whose seed lay nearer its point (ties: lower
    index), then restart from their seeds.  Returns the roots, the restart
    mask and the number of Newton sweeps."""
    z = np.array(init, dtype=np.complex128)
    active = np.ones(len(z), dtype=bool)
    moved, sweeps = len(z), 0
    while moved:
        corr = _step(eval_fn, z, active, 0.0)
        z = z - corr
        active &= np.abs(corr) / (1.0 + np.abs(z)) > tol
        sweeps += 1
        left = np.count_nonzero(active)
        if sweeps >= NEWTON_SWEEPS and moved - left < NEWTON_YIELD * moved:
            break
        moved = left
    restart = active.copy()
    frozen = np.flatnonzero(~active)
    restart[frozen] = _close_pairs_loop(z[frozen], tol**0.5,
                                        np.abs(z - init)[frozen])
    z = np.where(restart, init, z)
    active = restart.copy()
    best, stagnant = np.inf, 0
    for _ in range(max_iter):
        if not np.any(active):
            return z, restart, sweeps
        corr = _step(eval_fn, z, active, pairwise_sums(z, active))
        z = z - corr
        rel = np.abs(corr) / (1.0 + np.abs(z))
        active &= rel > tol
        worst = float(np.max(rel[active], initial=0.0))
        if worst < 0.9 * best:
            best, stagnant = worst, 0
        else:
            stagnant += 1
            if stagnant >= 15 and best < tol**0.5:
                return z, restart, sweeps
    raise AssertionError("the reference sweep did not converge")


def _recording(monkeypatch):
    """Record each pairwise_sums call's points and active mask."""
    sweeps = []

    def recording_sums(z, active):
        sweeps.append((z.copy(), active.copy()))
        return pairwise_sums(z, active)

    monkeypatch.setattr(aberth, "pairwise_sums", recording_sums)
    return sweeps


@pytest.mark.parametrize("degree, seed", [(64, 0), (96, 1)])
def test_frozen_points_are_not_evaluated(degree, seed, monkeypatch):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(
        degree + 1)
    init = aberth.initial_points_from_coeffs(coeffs)
    tol = 1e-12
    eval_fn = _horner_pair(coeffs)
    want, restart, newton_sweeps = _aberth_every_point(eval_fn, init, tol,
                                                       300)

    calls = []

    def recording(z):
        calls.append(z.copy())
        return eval_fn(z)

    sweeps = _recording(monkeypatch)
    got = aberth_solve(recording, init, tol, 300)
    assert np.array_equal(got, want)  # bit for bit

    # the Newton sweeps evaluate a shrinking set and never call the kernel
    newton = calls[:len(calls) - len(sweeps)]
    assert len(newton) == newton_sweeps >= NEWTON_SWEEPS
    assert len(newton[0]) == degree
    assert all(len(b) <= len(a) for a, b in zip(newton, newton[1:]))
    assert len(sweeps) > 1
    assert np.array_equal(sweeps[0][1], restart)
    assert np.array_equal(sweeps[0][0][restart], init[restart])
    frozen = ~restart
    for k, (z, active) in enumerate(sweeps):
        # each Aberth sweep evaluates exactly the points still moving
        assert np.array_equal(active, ~frozen)
        assert np.array_equal(calls[len(newton) + k], z[active])
        after = sweeps[k + 1][0] if k + 1 < len(sweeps) else got
        rel = np.abs(z - after) / (1.0 + np.abs(after))
        assert np.all(rel[frozen] == 0)
        frozen |= rel <= tol


@pytest.mark.parametrize("n, rho, seed", [
    (400, 1e-6, 0),   # only the planted pairs are close
    (300, 3e-2, 1),   # many chance pairs as well
    (50, 1.0, 2),     # nearly every point has a neighbour
])
def test_close_points_matches_pair_loop(n, rho, seed):
    rng = np.random.default_rng(seed)
    z = _cloud(n, seed) * rng.choice([0.1, 1.0, 10.0], n)
    rank = rng.choice([0.0, 1.0, 2.0], n)  # many ties
    i = rng.choice(n, 30, replace=False)
    turn = np.exp(2j * np.pi * rng.random(10))
    turn[:3] = 1j  # a vertical offset: equal real parts
    for k, f in enumerate((0.5, 2.0)):
        src, dst = i[10 * k:10 * k + 5], i[10 * k + 5:10 * k + 10]
        z[dst] = z[src] + f * rho * (1.0 + np.abs(z[src])) * turn[:5]
    z[i[20:25]] = z[i[25:30]]  # exact coincidences
    z[i[25]] = -0.0 + 0.0j
    z[i[20]] = 0.0 - 0.0j
    got = close_points(z, rho, rank)
    assert np.array_equal(got, _close_pairs_loop(z, rho, rank))
    if rho < 1e-3:
        # one point of each close pair is marked, the other keeps its place
        assert np.all(got[i[:5]] != got[i[5:10]])
        assert not got[i[10:20]].any()
        assert np.all(got[i[20:25]] != got[i[25:30]])


def test_close_points_of_few_points():
    none = np.array([], dtype=complex)
    assert close_points(none, 1e-6, none.real).shape == (0,)
    assert not close_points(np.array([1.0 + 0j]), 1e-6, np.zeros(1)).any()
    # the lower rank keeps its place; at equal rank, the lower index
    two = np.array([1.0 + 0j, 1.0 + 0j])
    assert close_points(two, 1e-6, np.zeros(2)).tolist() == [False, True]
    assert close_points(two, 1e-6, np.array([1.0, 0.5])).tolist() == [
        True, False]
    # the radius is taken at the larger modulus: 0.1 (1 + 11.15) > 1.15
    far = np.array([10.0 + 0j, 11.15 + 0j])
    assert close_points(far, 0.1, np.zeros(2)).tolist() == [False, True]
    far[1] = 11.25
    assert not close_points(far, 0.1, np.zeros(2)).any()


def test_two_seeds_on_one_root_restart(monkeypatch):
    roots = np.array([0.0, 1.0, -1.0, 2.0])
    eval_fn = _horner_pair(P.polyfromroots(roots).astype(complex))
    init = np.array([0.0, 1e-3, 1.1 + 0.05j, -0.9 - 0.05j])
    sweeps = _recording(monkeypatch)
    got = aberth_solve(eval_fn, init, 1e-12, 100)
    assert np.allclose(np.sort_complex(got), np.sort_complex(roots),
                       rtol=0, atol=1e-12)
    # Newton drives both first seeds onto 0; the seed exactly on 0 keeps
    # it, and only the other goes to the Aberth phase
    assert got[0] == 0.0
    assert all(np.array_equal(a, [False, True, False, False])
               for _, a in sweeps)
    assert sweeps and np.array_equal(sweeps[0][0][1], init[1])


def test_newton_runs_while_it_freezes_points(monkeypatch):
    # Newton on e^z - 1 moves a seed at Re z >> 1 by about 1 per sweep: the
    # seed 2 + k + 2 pi i k freezes at sweep 8 + k, so each sweep from
    # NEWTON_SWEEPS on freezes one of the points it moves and Newton places
    # every root, with no Aberth sweep
    def eval_fn(z):  # e^z - 1, scaled by e^-z
        calls.append(len(z))
        return 1.0 - np.exp(-z), np.ones_like(z)

    calls = []
    k = np.arange(6)
    sweeps = _recording(monkeypatch)
    got = aberth_solve(eval_fn, 2.0 + k + 2j * np.pi * k, 1e-12, 100)
    assert calls == [6] * 8 + [5, 4, 3, 2, 1]
    assert len(calls) > NEWTON_SWEEPS and sweeps == []
    assert np.allclose(got, 2j * np.pi * k, rtol=0, atol=1e-12)


def test_newton_places_the_seeded_roots(monkeypatch):
    sweeps = _recording(monkeypatch)
    exact_cycles(quad_lift(1.0), 10)
    assert sweeps == []
    families._quad_exact_centers.cache_clear()
    families._quad_exact_centers(12)
    # the solves of n = 8..12; below, a few restarts are a large share
    # (3 of the 4 points at n = 3)
    big = [a.mean() for z, a in sweeps if len(z) >= 128]
    assert len(big) > 5 and max(big) <= 0.25


def _slab_loop(key, query, width):
    """Pairs (q, p) with |query_q - key_p| <= width_q, pair by pair."""
    return [(q, p) for q in range(len(query)) for p in range(len(key))
            if abs(query[q] - key[p]) <= width[q]]


@pytest.mark.parametrize("n, seed", [(300, 0), (120, 1), (40, 2)])
def test_slab_pairs_match_pair_loop(n, seed):
    rng = np.random.default_rng(seed)
    z = _cloud(n, seed)
    z[n // 2:] = np.conj(z[:n - n // 2])  # conjugates: equal real parts
    key = z.real * rng.choice([0.1, 1.0, 10.0], n)
    width = rng.choice([1e-9, 1e-3, 3e-2], n)  # per-query widths
    query = key.copy()  # every query finds itself
    i = rng.choice(n, 30, replace=False)
    for k, f in enumerate((0.5, 2.0)):
        src, dst = i[10 * k:10 * k + 5], i[10 * k + 5:10 * k + 10]
        query[dst] = key[src] + f * width[dst] * rng.choice([-1, 1], 5)
    query[i[20:25]] = key[i[25:30]]  # exact coincidences
    q, p = slab_pairs(key, query, width)
    assert len(set(q.tolist())) == 1 + np.count_nonzero(np.diff(q))  # grouped
    got = list(zip(q.tolist(), p.tolist()))
    assert sorted(got) == _slab_loop(key, query, width)
    assert len(set(got)) == len(got)
    assert all((d, s) in got for d, s in zip(i[5:10], i[:5]))
    assert not any((d, s) in got for d, s in zip(i[15:20], i[10:15]))


def test_slab_pairs_of_few_points():
    none = np.array([])
    for key, query in ((none, none), (none, np.array([1.0])),
                       (np.array([1.0]), none)):
        q, p = slab_pairs(key, query, np.ones(len(query)))
        assert q.shape == p.shape == (0,)
    q, p = slab_pairs(np.array([2.0]), np.array([2.0, 2.5, 4.0]),
                      np.array([0.0, 0.5, 1.0]))
    assert q.tolist() == [0, 1] and p.tolist() == [0, 0]
    # a difference that rounds to the width is inside the slab, although
    # query - width rounds to above the key
    key, query = np.array([345.584192064786]), np.array([1690.5623474542465])
    width = query - key
    assert query - width > key
    q, _ = slab_pairs(key, query, width)
    assert q.tolist() == [0]
