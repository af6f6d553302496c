"""The Aberth repulsion kernel against a direct double loop, and the
solver's active-only evaluation against a sweep that evaluates every point."""

import numpy as np
import pytest

from dynbif import aberth
from dynbif.aberth import REPULSION_BLOCK, aberth_solve, pairwise_sums


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


def _aberth_every_point(eval_fn, init, tol, max_iter):
    """The Aberth sweep as it ran before the evaluation was restricted to
    the active points: every point is evaluated, and the frozen points'
    corrections are zeroed afterwards."""
    z = np.array(init, dtype=np.complex128)
    active = np.ones(len(z), dtype=bool)
    best, stagnant = np.inf, 0
    for _ in range(max_iter):
        p, dp = eval_fn(z)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            w = p / dp
        bad = ~np.isfinite(w)
        w[bad] = 0.02 * (1.0 + np.abs(z[bad]))
        s = pairwise_sums(z, active)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            corr = w / (1.0 - w * s)
        bad = ~np.isfinite(corr)
        corr[bad] = w[bad]
        mag = np.abs(corr)
        limit = 0.5 * (1.0 + np.abs(z))
        big = mag > limit
        corr[big] *= limit[big] / mag[big]
        corr[~active] = 0.0
        z = z - corr
        rel = np.abs(corr) / (1.0 + np.abs(z))
        active &= rel > tol
        if not np.any(active):
            return z
        worst = float(np.max(rel[active]))
        if worst < 0.9 * best:
            best, stagnant = worst, 0
        else:
            stagnant += 1
            if stagnant >= 15 and best < tol**0.5:
                return z
    raise AssertionError("the reference sweep did not converge")


@pytest.mark.parametrize("degree, seed", [(64, 0), (96, 1)])
def test_frozen_points_are_not_evaluated(degree, seed, monkeypatch):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(
        degree + 1)
    init = aberth.initial_points_from_coeffs(coeffs)
    tol = 1e-12
    eval_fn = _horner_pair(coeffs)
    want = _aberth_every_point(eval_fn, init, tol, 300)

    calls, sweeps = [], []

    def recording(z):
        calls.append(z.copy())
        return eval_fn(z)

    def recording_sums(z, active):
        sweeps.append((z.copy(), active.copy()))
        return pairwise_sums(z, active)

    monkeypatch.setattr(aberth, "pairwise_sums", recording_sums)
    got = aberth_solve(recording, init, tol, 300)
    assert np.array_equal(got, want)  # bit for bit

    assert len(calls) == len(sweeps) > 1
    assert len(calls[-1]) < len(calls[0]) == degree
    frozen = np.zeros(degree, dtype=bool)
    for k, (z, active) in enumerate(sweeps):
        # each sweep evaluates exactly the points still moving
        assert np.array_equal(active, ~frozen)
        assert np.array_equal(calls[k], z[active])
        after = sweeps[k + 1][0] if k + 1 < len(sweeps) else got
        rel = np.abs(z - after) / (1.0 + np.abs(after))
        assert np.all(rel[frozen] == 0)
        frozen |= rel <= tol
