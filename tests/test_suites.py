import numpy as np
import pytest

from gaugecalc.forms import TorusGrid
from gaugecalc.suites import random_fourier_scalar


def _mode_loop(rng, grid, kmax=2, amp=1.0):
    """The per-mode loop that random_fourier_scalar replaces, kept as its oracle."""
    x, y = grid.nodes()
    f = np.zeros_like(x)
    for kx in range(0, kmax + 1):
        for ky in range(-kmax, kmax + 1):
            if kx == 0 and ky <= 0:
                continue
            c, s = rng.standard_normal(2)
            ph = 2.0 * np.pi * (kx * x + ky * y)
            f += c * np.cos(ph) + s * np.sin(ph)
    peak = float(np.max(np.abs(f)))
    if peak > 0.0:
        f *= amp / peak
    return f


@pytest.mark.parametrize("n", (8, 11, 32))
@pytest.mark.parametrize("kmax", (1, 2))
def test_random_fourier_scalar_matches_mode_loop(n, kmax):
    grid = TorusGrid(n)
    rng, ref_rng = np.random.default_rng(n + kmax), np.random.default_rng(n + kmax)
    f = random_fourier_scalar(rng, grid, kmax, 0.7)
    expect = _mode_loop(ref_rng, grid, kmax, 0.7)
    assert f.shape == (n, n) and f.dtype == np.float64
    assert np.max(np.abs(f - expect)) < 1e-14
    # both draw the same numbers, so the stream continues at the same place
    assert rng.standard_normal() == ref_rng.standard_normal()
