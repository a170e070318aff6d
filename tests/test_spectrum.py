import numpy as np
import pytest

from gaugecalc.algebra import (E1, E2, E3, antihermitian_basis, dagger, exp_antihermitian, inner,
                               random_antihermitian)
from gaugecalc.forms import (ANTIHERMITIAN, MatrixForm, TorusGrid, constant_form, exterior_d,
                             l2_norm, tensor_form, scalar_form)
from gaugecalc.gauge import FLAT_TOL, Connection, curvature, zero_connection
from gaugecalc import gauge, spectrum
from gaugecalc.spectrum import harmonic_space_dim, harmonic_space_dims


def _gauge_links(links, g):
    """Links g(j, l) U(j, l) g(next node)^H under the lattice gauge field g."""
    return tuple(g @ u @ dagger(np.roll(g, -1, axis=axis)) for axis, u in enumerate(links))


def _gauged(links, rng):
    """`_gauge_links` under a seeded random gauge field."""
    n, m = links[0].shape[0], links[0].shape[-1]
    x = rng.standard_normal((n, n, m, m)) + 1j * rng.standard_normal((n, n, m, m))
    return _gauge_links(links, exp_antihermitian(0.5 * (x - dagger(x))))


def _plaquette_defect(ux, uy):
    return np.abs(ux @ np.roll(uy, -1, axis=0) - uy @ np.roll(ux, -1, axis=1)).max()


def _link_laplacian(ux, uy, h, degree):
    """Dense Laplacian of the link complex in `antihermitian_basis` coordinates.

    D_x and D_y are assembled as matrices, one Ad(U) block per node, in the
    order (node, basis); d0 = [D_x; D_y], d1 = [-D_y, D_x].
    """
    n, m = ux.shape[0], ux.shape[-1]
    basis = antihermitian_basis(m)
    nb, cells = m * m, n * n

    def derivative(u, axis):
        moved = u[:, :, None] @ basis @ dagger(u)[:, :, None]
        ad = np.einsum("xybij,aij->xyab", moved, basis.conj()).real.reshape(cells, nb, nb)
        nxt = np.roll(np.arange(cells).reshape(n, n), -1, axis=axis).ravel()
        d = np.zeros((cells, nb, cells, nb))
        d[np.arange(cells), :, nxt, :] = ad
        return (d.reshape(cells * nb, cells * nb) - np.eye(cells * nb)) / h

    dx, dy = derivative(ux, 0), derivative(uy, 1)
    d0, d1 = np.vstack([dx, dy]), np.hstack([-dy, dx])
    if degree == 0:
        return d0.T @ d0
    if degree == 1:
        return d0 @ d0.T + d1.T @ d1
    return d1 @ d1.T


def _stencil_laplacian(ux, uy, h, degree):
    """Link Laplacian applied to one unit coefficient vector per column (np.roll stencils)."""
    n, m = ux.shape[0], ux.shape[-1]

    def fwd(u, f, axis):
        return (u @ np.roll(f, -1, axis=axis) @ dagger(u) - f) / h

    def bwd(u, f, axis):
        return (np.roll(dagger(u) @ f @ u, 1, axis=axis) - f) / h

    def d0(f):
        return fwd(ux, f, 0), fwd(uy, f, 1)

    def d1(p, q):
        return fwd(ux, q, 0) - fwd(uy, p, 1)

    def delta1(p, q):
        return bwd(ux, p, 0) + bwd(uy, q, 1)

    def delta2(r):
        return -bwd(uy, r, 1), bwd(ux, r, 0)

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
    # the refusal names the largest plaquette defect of the links it counts on,
    # in the same words for one degree and for all three
    grid = TorusGrid(16)
    x, _ = grid.nodes()
    prof = scalar_form(grid, 1, np.zeros((16, 16)), np.sin(2.0 * np.pi * x))
    conn = Connection(tensor_form(prof, E1))
    defect = _plaquette_defect(*gauge.links(conn))
    assert defect > FLAT_TOL
    for count in (lambda: harmonic_space_dim(conn, 1), lambda: harmonic_space_dims(conn)):
        with pytest.raises(ValueError) as info:
            count()
        assert str(info.value) == (f"the link field is not flat: largest plaquette defect "
                                   f"{defect:.3e} exceeds {FLAT_TOL:.1e}")


@pytest.mark.parametrize("n", (11, 16))
def test_all_degrees_at_once_match_the_per_degree_counts(n):
    grid = TorusGrid(n)
    cases = [(zero_connection(grid, m), (m * m, 2 * m * m, m * m)) for m in (1, 2, 3, 5, 6)]
    cases += [(_constant_connection(grid, 0.9 * E1, 1.3 * E1), (2, 4, 2)),
              (_lattice_gauged(grid), (2, 4, 2))]
    for conn, want in cases:
        assert harmonic_space_dims(conn) == want
        assert tuple(harmonic_space_dim(conn, d) for d in (0, 1, 2)) == want


@pytest.mark.parametrize("degree", (-1, 3, 0.5, "1"))
def test_per_degree_count_refuses_other_degrees(degree):
    with pytest.raises(ValueError, match="degree must be 0, 1 or 2"):
        harmonic_space_dim(zero_connection(TorusGrid(8), 1), degree)


def _log_unitary(w):
    """Principal logarithm of a stack of unitaries, through their eigendecomposition."""
    evals, v = np.linalg.eig(w)
    log = v @ (1j * np.angle(evals)[..., :, None] * np.linalg.inv(v))
    return 0.5 * (log - dagger(log))


def _commutant_dim(gx, gy):
    """Dimension of the matrices that commute with both gx and gy (row-major vec)."""
    m = len(gx)
    eye = np.eye(m)
    ops = np.vstack([np.kron(g, eye) - np.kron(eye, g.T) for g in (gx, gy)])
    return m * m - np.linalg.matrix_rank(ops, tol=1e-9)


def _lattice_gauged(grid):
    """E' = log(g U g(next node)^H) / h: exactly the gauged links of the flat
    0.9 e1 dx + 1.3 e1 dy under a smooth non-abelian g."""
    x, y = grid.nodes()
    ang = (0.8 * np.sin(2.0 * np.pi * x)[..., None, None] * E2
           + 0.5 * np.cos(2.0 * np.pi * y)[..., None, None] * E3
           + 0.3 * np.sin(2.0 * np.pi * (x + y))[..., None, None] * E1)
    base = _constant_connection(grid, 0.9 * E1, 1.3 * E1)
    links = _gauge_links(gauge.links(base), exp_antihermitian(ang))
    return Connection(MatrixForm(1, grid, tuple(_log_unitary(u) / grid.h for u in links),
                                 ANTIHERMITIAN))


@pytest.mark.parametrize("n", (16, 64))
def test_lattice_gauge_transform_of_flat_links_counts_like_its_links(n):
    # g leaves the central-difference curvature of `_lattice_gauged` far from zero;
    # the count reads only the links
    conn = _lattice_gauged(TorusGrid(n))
    assert l2_norm(curvature(conn)) > 0.1
    assert _plaquette_defect(*gauge.links(conn)) <= 1e-13
    k = _commutant_dim(*gauge.generator_holonomies(*gauge.links(conn)))
    assert k == 2
    assert tuple(harmonic_space_dim(conn, d) for d in (0, 1, 2)) == (k, 2 * k, k)


def test_counting_never_forms_the_central_curvature(monkeypatch):
    def refuse(conn):
        raise AssertionError("the central-difference curvature was formed")

    monkeypatch.setattr(Connection, "_curvature", property(refuse))
    grid = TorusGrid(16)
    zero2 = np.zeros((2, 2))
    for conn, want in ((zero_connection(grid, 2), (4, 8, 4)),
                       (_constant_connection(grid, np.pi * E1, zero2), (4, 8, 4)),
                       (_constant_connection(grid, 0.9 * E1, 1.3 * E1), (2, 4, 2))):
        assert tuple(harmonic_space_dim(conn, d) for d in (0, 1, 2)) == want


def test_flat_twisted_connection_counts_discrete_kernel():
    # pi dx x e1 has x-holonomy exp(pi e1) = -I, which is central: Ad of it is
    # the identity, so every entry of u(2) is parallel and the count is the
    # continuum (4, 8, 4) of the gauge-inequivalent zero connection
    grid = TorusGrid(16)
    conn = Connection(constant_form(grid, 1, np.pi * E1, np.zeros((2, 2))))
    assert tuple(harmonic_space_dim(conn, k) for k in (0, 1, 2)) == (4, 8, 4)


@pytest.mark.parametrize("c", (0.5, 1.3, 2.5))
def test_twisted_connection_off_the_center_counts_its_commutant(c):
    # exp(c e1) with 0 < c < pi is not central; its commutant in u(2) is 2-dimensional
    conn = Connection(constant_form(TorusGrid(16), 1, c * E1, np.zeros((2, 2))))
    assert tuple(harmonic_space_dim(conn, k) for k in (0, 1, 2)) == (2, 4, 2)


def _constant_connection(grid, ax, ay):
    return Connection(constant_form(grid, 1, ax, ay))


@pytest.mark.parametrize("degree", (0, 1, 2))
@pytest.mark.parametrize("potential", ("zero", "twisted-dx", "twisted-dxdy"))
def test_laplacian_matrix_matches_stencil_reference(potential, degree):
    # the dense oracle below, on gauged (so node-dependent) links
    grid = TorusGrid(8)
    zero2 = np.zeros((2, 2))
    conn = {
        "zero": zero_connection(grid, 2),
        "twisted-dx": _constant_connection(grid, np.pi * E1, zero2),
        "twisted-dxdy": _constant_connection(grid, 0.9 * E1, 1.3 * E1),
    }[potential]
    ux, uy = _gauged(gauge.links(conn), np.random.default_rng(degree))
    got = _link_laplacian(ux, uy, grid.h, degree)
    want = _stencil_laplacian(ux, uy, grid.h, degree)
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


def _flat_connections(grid, m):
    zero = np.zeros((m, m), dtype=complex)
    diag_x = np.diag(1j * np.linspace(0.3, 1.1, m))
    diag_y = np.diag(1j * np.linspace(-0.7, 0.5, m))
    conns = {name: _constant_connection(grid, ax, ay) for name, (ax, ay) in (
        ("zero", (zero, zero)),
        ("twisted-dx", (np.pi * _e1(m), zero)),
        ("twisted-dxdy", (0.9 * _e1(m), 1.3 * _e1(m))),
        ("diagonal-pair", (diag_x, diag_y)),
    )}
    x, y = grid.nodes()
    flat = np.zeros_like(x)
    # Ex = f(x) e1, Ey = g(y) e1 has flat links, yet it is not translation invariant
    fx = 0.7 + 0.4 * np.cos(2.0 * np.pi * x)
    gy = -0.5 + 0.3 * np.sin(2.0 * np.pi * y)
    conns["separable-abelian"] = Connection(tensor_form(scalar_form(grid, 1, fx, gy), _e1(m)))
    if m == 3:
        # Ex(x) mixes two non-commuting generators, so H_x depends on the order
        # of its links; Ey(y) is central.  Reversing that order moves the
        # degree-0 count of eigenvalues below 30 from 15 to 13 at n = 8.
        rng = np.random.default_rng(2)
        a, b = random_antihermitian(rng, 3), random_antihermitian(rng, 3)
        ex = (tensor_form(scalar_form(grid, 1, 6.0 * np.cos(2.0 * np.pi * x) + 1.0, flat), a)
              + tensor_form(scalar_form(grid, 1, 6.0 * np.sin(4.0 * np.pi * x) + 0.5, flat), b))
        ey = tensor_form(scalar_form(grid, 1, flat, 0.6 * np.cos(2.0 * np.pi * y) + 0.4),
                         1j * np.eye(3))
        conns["separable-rank3"] = Connection(ex + ey)
    return conns


# every case whose dense reference has at most 2048 unknowns
_ORACLE_CASES = [(n, m, k) for n in (8, 11, 16) for m in (1, 2, 3) for k in (0, 1, 2)
                 if (2 if k == 1 else 1) * n * n * m * m <= 2048]


@pytest.mark.parametrize("n,m,degree", _ORACLE_CASES)
def test_fourier_counts_match_dense_oracle(n, m, degree):
    # The dense reference runs on lattice-gauged links: a gauge transform
    # conjugates the link complex by an orthogonal map, so the closed-form
    # spectrum of the connection and that of its gauged links must both be
    # the whole dense spectrum, and the count is its kernel
    grid = TorusGrid(n)
    rng = np.random.default_rng(100 * n + 10 * m + degree)
    mult = 2 if degree == 1 else 1
    for name, conn in _flat_connections(grid, m).items():
        ux, uy = _gauged(gauge.links(conn), rng)
        evals = np.linalg.eigvalsh(_link_laplacian(ux, uy, grid.h, degree))
        bound = 1e-12 * np.max(evals)
        for links in (gauge.links(conn), (ux, uy)):
            # the link eigenvalues, sorted, each taken twice at degree 1
            closed = np.repeat(np.sort(spectrum._link_eigenvalues(*links, grid.h), axis=None),
                               mult)
            assert np.max(np.abs(closed - evals)) <= bound, name
        t = spectrum.KERNEL_THRESHOLD
        assert np.min(np.abs(evals - t)) > 1e-6 * t, name
        assert harmonic_space_dim(conn, degree) == int(np.count_nonzero(evals < t)), name


@pytest.mark.parametrize("degree", (0, 1, 2))
def test_non_constant_flat_connection_takes_dense_path(degree):
    # Ex = f(x) e1, Ey = g(y) e1 has flat links, yet it is not translation
    # invariant; its closed-form count must equal the kernel of the dense
    # link-complex Laplacian built from its own (ungauged) links
    grid = TorusGrid(8)
    x, y = grid.nodes()
    fx = 0.7 + 0.4 * np.cos(2.0 * np.pi * x)
    gy = -0.5 + 0.3 * np.sin(2.0 * np.pi * y)
    conn = Connection(tensor_form(scalar_form(grid, 1, fx, gy), E1))
    ux, uy = gauge.links(conn)
    evals = np.linalg.eigvalsh(_link_laplacian(ux, uy, grid.h, degree))
    want = int(np.count_nonzero(evals < 1e-6))
    assert want == (2, 4, 2)[degree]
    assert harmonic_space_dim(conn, degree) == want


def test_refuses_flat_connection_whose_link_complex_does_not_close():
    # E = d(phi) x e1 is pure gauge: its central-difference curvature is zero to
    # rounding, but the links of its node values leave every plaquette open
    grid = TorusGrid(8)
    x, y = grid.nodes()
    phi = scalar_form(grid, 0, 0.3 * np.sin(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y))
    conn = Connection(tensor_form(exterior_d(phi), E1))
    gauge.require_flat(conn, "this test")
    defect = _plaquette_defect(*gauge.links(conn))
    assert defect > 0.05
    for degree in (0, 1, 2):
        with pytest.raises(ValueError, match="plaquette defect") as info:
            harmonic_space_dim(conn, degree)
        assert f"{defect:.3e}" in str(info.value)
    assert tuple(harmonic_space_dim(zero_connection(grid, 2), k) for k in (0, 1, 2)) == (4, 8, 4)
