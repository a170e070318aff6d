import numpy as np
import pytest

from gaugecalc.algebra import E1, inner
from gaugecalc.forms import TorusGrid, constant_form, exterior_d, tensor_form, scalar_form
from gaugecalc.gauge import Connection, zero_connection
from gaugecalc import gauge, spectrum
from gaugecalc.spectrum import (antihermitian_basis, eigenproblem_size, harmonic_space_dim,
                                laplacian_matrix)


def _reference_laplacian(conn, degree):
    """Dense Laplacian applied to one unit coefficient vector per column (np.roll stencils)."""
    n, m, h = conn.grid.n, conn.m, conn.grid.h
    ex, ey = conn.potential.comps

    def fwd(a, axis):
        return (np.roll(a, -1, axis=axis) - a) / h

    def bwd(a, axis):
        return (a - np.roll(a, 1, axis=axis)) / h

    def comm(a, b):
        return a @ b - b @ a

    def d0(f):
        return fwd(f, 0) + comm(ex, f), fwd(f, 1) + comm(ey, f)

    def d1(p, q):
        return fwd(q, 0) - fwd(p, 1) + comm(ex, q) - comm(ey, p)

    def delta1(p, q):
        return -(bwd(p, 0) + bwd(q, 1)) + comm(p, ex) + comm(q, ey)

    def delta2(r):
        return bwd(r, 1) + comm(ey, r), -bwd(r, 0) + comm(r, ex)

    def apply(comps):
        if degree == 0:
            return (delta1(*d0(comps[0])),)
        if degree == 1:
            dp, dq = delta2(d1(*comps))
            gp, gq = d0(delta1(*comps))
            return (dp + gp, dq + gq)
        return (d1(*delta2(comps[0])),)

    basis = antihermitian_basis(m)
    nb = m * m
    ncomp = 2 if degree == 1 else 1
    dof = ncomp * n * n * nb
    mat = np.empty((dof, dof))
    col = 0
    for c in range(ncomp):
        for j in range(n):
            for l in range(n):
                for ib in range(nb):
                    comps = [np.zeros((n, n, m, m), dtype=complex) for _ in range(ncomp)]
                    comps[c][j, l] = basis[ib]
                    mat[:, col] = np.concatenate([
                        np.einsum("xyij,aij->xya", oc, basis.conj()).real.ravel()
                        for oc in apply(comps)
                    ])
                    col += 1
    return mat


def test_antihermitian_basis_is_orthonormal():
    for m in (1, 2, 3):
        basis = antihermitian_basis(m)
        assert basis.shape == (m * m, m, m)
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                assert inner(a, b) == pytest.approx(1.0 if i == j else 0.0, abs=1e-14)


def test_harmonic_dims_scalar():
    conn = zero_connection(TorusGrid(16), 1)
    assert tuple(harmonic_space_dim(conn, k) for k in (0, 1, 2)) == (1, 2, 1)


def test_harmonic_dims_rank_two():
    conn = zero_connection(TorusGrid(16), 2)
    assert harmonic_space_dim(conn, 0) == 4
    assert harmonic_space_dim(conn, 2) == 4


def test_harmonic_dims_small_grid():
    conn = zero_connection(TorusGrid(8), 1)
    assert tuple(harmonic_space_dim(conn, k) for k in (0, 1, 2)) == (1, 2, 1)


def test_rejects_non_flat_connection():
    grid = TorusGrid(16)
    x, _ = grid.nodes()
    prof = scalar_form(grid, 1, np.zeros((16, 16)), np.sin(2.0 * np.pi * x))
    conn = Connection(tensor_form(prof, E1))
    with pytest.raises(ValueError, match="curvature norm"):
        harmonic_space_dim(conn, 1)


def test_flat_twisted_connection_counts_discrete_kernel():
    # for a constant closed potential the covariant recursion only closes on
    # the commutant of the potential, so the discrete count at this resolution
    # is the ad-kernel dimension (2 for pi dx x e1 inside u(2))
    grid = TorusGrid(16)
    conn = Connection(constant_form(grid, 1, np.pi * E1, np.zeros((2, 2))))
    assert harmonic_space_dim(conn, 0) == 2


def test_rejects_oversized_problem():
    conn = zero_connection(TorusGrid(64), 2)
    with pytest.raises(ValueError, match="exceeds the limit"):
        harmonic_space_dim(conn, 1)


def _constant_connection(grid, ax, ay):
    return Connection(constant_form(grid, 1, ax, ay))


@pytest.mark.parametrize("degree", (0, 1, 2))
@pytest.mark.parametrize("potential", ("zero", "twisted-dx", "twisted-dxdy"))
def test_laplacian_matrix_matches_stencil_reference(potential, degree):
    grid = TorusGrid(8)
    zero2 = np.zeros((2, 2))
    conn = {
        "zero": zero_connection(grid, 2),
        "twisted-dx": _constant_connection(grid, np.pi * E1, zero2),
        "twisted-dxdy": _constant_connection(grid, 0.9 * E1, 1.3 * E1),
    }[potential]
    got = laplacian_matrix(conn, degree).toarray()
    want = _reference_laplacian(conn, degree)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12


def test_harmonic_dims_rank_three():
    conn = zero_connection(TorusGrid(8), 3)
    assert tuple(harmonic_space_dim(conn, k) for k in (0, 1, 2)) == (9, 18, 9)


def _e1(m):
    """e1 of su(2) in the top-left corner of u(m); the u(1) generator i for m = 1."""
    a = np.zeros((m, m), dtype=complex)
    if m == 1:
        a[0, 0] = 1j
    else:
        a[:2, :2] = E1
    return a


def _constant_potentials(m):
    zero = np.zeros((m, m), dtype=complex)
    return {
        "zero": (zero, zero),
        "twisted-dx": (np.pi * _e1(m), zero),
        "twisted-dxdy": (0.9 * _e1(m), 1.3 * _e1(m)),
        "diagonal-pair": (np.diag(1j * np.linspace(0.3, 1.1, m)),
                          np.diag(1j * np.linspace(-0.7, 0.5, m))),
    }


# every constant case whose dense reference has at most 2048 unknowns; the
# thresholds sit between eigenvalues, so equal counts at each one mean the
# Fourier blocks reproduce the whole spectrum, not only its kernel
_ORACLE_CASES = [(n, m, k) for n in (8, 11, 16) for m in (1, 2, 3) for k in (0, 1, 2)
                 if eigenproblem_size(n, m, k) <= 2048]
_THRESHOLDS = (1e-6, 30.0, 100.0, 1e3)


@pytest.mark.parametrize("n,m,degree", _ORACLE_CASES)
def test_fourier_counts_match_dense_oracle(n, m, degree):
    grid = TorusGrid(n)
    for name, (ax, ay) in _constant_potentials(m).items():
        conn = _constant_connection(grid, ax, ay)
        evals = np.linalg.eigvalsh(laplacian_matrix(conn, degree).toarray())
        for t in _THRESHOLDS:
            assert np.min(np.abs(evals - t)) > 1e-6 * t, (name, t)
            want = int(np.count_nonzero(evals < t))
            assert harmonic_space_dim(conn, degree, threshold=t) == want, (name, t)


def test_constant_connection_skips_dense_laplacian(monkeypatch):
    def refuse(conn, degree):
        raise AssertionError("dense Laplacian built for a constant connection")

    monkeypatch.setattr(spectrum, "laplacian_matrix", refuse)
    grid = TorusGrid(16)
    assert tuple(harmonic_space_dim(zero_connection(grid, 2), k) for k in (0, 1, 2)) == (4, 8, 4)
    twisted = _constant_connection(grid, np.pi * E1, np.zeros((2, 2)))
    assert harmonic_space_dim(twisted, 0) == 2


@pytest.mark.parametrize("degree", (0, 1, 2))
def test_non_constant_flat_connection_takes_dense_path(monkeypatch, degree):
    # Ex = f(x) e1, Ey = g(y) e1 has zero discrete curvature, and d1 d0 = 0 on
    # the one-sided complex, yet it is not translation invariant
    grid = TorusGrid(8)
    x, y = grid.nodes()
    fx = 0.7 + 0.4 * np.cos(2.0 * np.pi * x)
    gy = -0.5 + 0.3 * np.sin(2.0 * np.pi * y)
    conn = Connection(tensor_form(scalar_form(grid, 1, fx, gy), E1))
    calls = []

    def counted(conn, degree):
        calls.append(degree)
        return laplacian_matrix(conn, degree)

    monkeypatch.setattr(spectrum, "laplacian_matrix", counted)
    got = harmonic_space_dim(conn, degree)
    assert calls == [degree]
    evals = np.linalg.eigvalsh(laplacian_matrix(conn, degree).toarray())
    assert got == int(np.count_nonzero(evals < 1e-6))


def test_size_is_checked_before_curvature(monkeypatch):
    def refuse(conn):
        raise AssertionError("curvature computed for an oversized problem")

    # the flatness guard lives in gauge.require_flat, which reads gauge.curvature
    monkeypatch.setattr(gauge, "curvature", refuse)
    conn = zero_connection(TorusGrid(32), 3)
    with pytest.raises(ValueError, match=r"grid 32, rank 3.*exceeds the limit"):
        harmonic_space_dim(conn, 0)


def test_refuses_flat_connection_whose_one_sided_complex_does_not_close():
    # E = d(phi) x e1 is pure gauge: its central-difference curvature is zero to
    # rounding, but the one-sided d1 d0 is not, and the count it used to give,
    # (2, 4, 2), differed from the (4, 8, 4) of the gauge-equivalent zero connection
    grid = TorusGrid(8)
    x, y = grid.nodes()
    phi = scalar_form(grid, 0, 0.3 * np.sin(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y))
    conn = Connection(tensor_form(exterior_d(phi), E1))
    gauge.require_flat(conn, "this test")
    d0, d1 = spectrum._covariant_differentials(conn)
    defect = np.abs((d1 @ d0).toarray()).max()
    assert defect > 10.0
    for degree in (0, 1, 2):
        with pytest.raises(ValueError, match="does not close") as info:
            harmonic_space_dim(conn, degree)
        assert f"{defect:.3e}" in str(info.value)
    assert tuple(harmonic_space_dim(zero_connection(grid, 2), k) for k in (0, 1, 2)) == (4, 8, 4)
