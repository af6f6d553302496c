"""The Aberth repulsion kernel against a direct double loop."""

import numpy as np
import pytest

from dynbif.aberth import REPULSION_BLOCK, pairwise_sums


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
