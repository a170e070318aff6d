import numpy as np
import pytest

from gaugecalc import suites
from gaugecalc.forms import TorusGrid, _form
from gaugecalc.algebra import antihermitian_basis
from gaugecalc.suites import random_form, random_fourier_scalar, random_scalar_one_form


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


def _basis_loop(rng, grid, degree, m, kmax=2, amp=1.0):
    """The per-basis loop that random_form replaces, kept as its oracle."""
    basis = antihermitian_basis(m)
    comps = []
    for _ in range(2 if degree == 1 else 1):
        arr = np.zeros((grid.n, grid.n, m, m), dtype=complex)
        for b in basis:
            arr += random_fourier_scalar(rng, grid, kmax, amp / len(basis))[..., None, None] * b
        comps.append(arr)
    return comps


@pytest.mark.parametrize("shape", ((), (1, 4), (2, 4), (2, 9)))
def test_stacked_fields_match_the_per_matrix_product_bit_for_bit(shape):
    # the stacked X^T W Y, one small matrix product at a time, is the oracle
    for n in (11, 32, 64):
        grid = TorusGrid(n)
        live, nlive, xt, y = suites._fourier_tables(n, 2)
        ref_rng = np.random.default_rng(n)
        cs = ref_rng.standard_normal(shape + (nlive, 2))
        w = np.zeros(shape + live.shape, dtype=complex)
        w[..., live] = cs[..., 0] - 1j * cs[..., 1]
        expect = (xt @ w @ y).real
        expect *= 0.7 / np.max(np.abs(expect), axis=(-2, -1), keepdims=True)
        got = suites._fourier_fields(np.random.default_rng(n), grid, shape, 2, 0.7)
        assert got.shape == shape + (n, n) and got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("m", (1, 2, 3))
@pytest.mark.parametrize("degree", (0, 1, 2))
@pytest.mark.parametrize("kmax", (1, 2))
def test_random_form_matches_basis_loop_bit_for_bit(m, degree, kmax):
    # BLAS blocks a matmul by its size, so the grid sizes are inputs too; they
    # run in one case so that each (m, degree, kmax) keeps its case name
    for n in (11, 32, 64):
        grid = TorusGrid(n)
        rng = np.random.default_rng(m + 3 * degree)
        ref_rng = np.random.default_rng(m + 3 * degree)
        w = random_form(rng, grid, degree, m, kmax, 0.7)
        expect = _basis_loop(ref_rng, grid, degree, m, kmax, 0.7)
        assert len(w.comps) == len(expect)
        for got, ref in zip(w.comps, expect):
            assert got.tobytes() == ref.tobytes()  # signed zeros too
        assert rng.standard_normal() == ref_rng.standard_normal()


@pytest.mark.parametrize("degree", (0, 1, 2))
def test_random_form_is_plane_major_and_not_copied(degree, monkeypatch):
    given = []

    def spy(*args):
        given.append(args[2])
        return _form(*args)

    monkeypatch.setattr(suites, "_form", spy)
    w = random_form(np.random.default_rng(5), TorusGrid(8), degree, 3)
    (raw,) = given
    for c, stored in zip(raw, w.comps):
        assert np.shares_memory(c, stored)
        assert all(stored[..., i, j].flags.c_contiguous for i in range(3) for j in range(3))


def test_cached_tables_are_read_only():
    live, _, xt, y = suites._fourier_tables(8, 2)
    for table in (live, xt, y, suites._basis_table(2)):
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 0


def test_random_scalar_one_form_is_two_single_draws():
    grid = TorusGrid(8)
    rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
    w = random_scalar_one_form(rng, grid)
    for c in w.comps:
        assert np.array_equal(c[:, :, 0, 0], random_fourier_scalar(ref_rng, grid))
    assert rng.standard_normal() == ref_rng.standard_normal()
