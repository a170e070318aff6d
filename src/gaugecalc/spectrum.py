"""Kernel dimensions of the covariant Hodge Laplacians on the torus grid.

The eigenproblem is built from a compatible pair of one-sided difference
operators: forward differences for the derivative and their exact adjoints
(backward differences) for the codifferential.  Central differences
annihilate the Nyquist checkerboard modes on even grids, which would inflate
the harmonic counts with spurious null vectors; the one-sided pair keeps the
kernel equal to the continuum harmonic space while its Laplacian is still the
standard second-order five-point stencil.

Counting is done over the real coefficient space: anti-Hermitian values are
expanded in an orthonormal basis of u(m) under Re tr(A B^H).  The covariant
differentials d0 and d1 are sparse matrices in that basis (Kronecker-product
shift stencils plus pointwise ad(E) blocks); the codifferentials are their
transposes, so the Laplacian L = d^T d + d d^T is symmetric positive
semi-definite by construction.

The count takes one of two paths, chosen from the input:

- A constant potential (every component equal to its node-(0,0) value) is
  translation invariant, so the complex splits exactly into n^2 Fourier
  modes.  Mode (p, q) has the blocks Dx = s_p I + ad(Ex), Dy = s_q I + ad(Ey)
  with the forward-difference symbol s_p = (exp(2 pi i p / n) - 1)/h, and
  d0 = [Dx; Dy], d1 = [-Dy, Dx]; the Laplacian is block diagonal with
  Hermitian blocks of size ncomp * m^2, all solved in one batched eigensolve.
  This covers the zero connection and every constant twisted connection.
- Any flat potential whose one-sided complex closes densifies the sparse
  Laplacian and solves it whole.  Flatness under the central differences of
  `gauge` does not make d1 d0 vanish here: the pure gauge d phi x e1 passes
  `require_flat`, yet max |d1 d0| is 13.6 at n = 8.  So this path also
  refuses a potential whose largest entry of d1 d0 exceeds FLAT_TOL.  On
  Fourier blocks d1 d0 is ad([Ex, Ey]), the curvature `require_flat` measures.
  This path is also the reference the Fourier blocks are tested against, and
  the only code in the package that loads scipy (`scipy.sparse`, imported
  where the sparse differentials are built).

Either way the eigenvalues below the threshold are counted.
"""

from __future__ import annotations

import numpy as np

from .gauge import FLAT_TOL, require_flat

DOF_LIMIT = 4608  # largest real eigenproblem counted (n = 24 at rank 2, degree 1)
KERNEL_THRESHOLD = 1e-6  # Laplacian eigenvalues below this count as harmonic


def antihermitian_basis(m):
    """Orthonormal basis of u(m) under Re tr(A B^H), shape (m*m, m, m)."""
    basis = []
    for j in range(m):
        t = np.zeros((m, m), dtype=complex)
        t[j, j] = 1j
        basis.append(t)
    inv = 1.0 / np.sqrt(2.0)
    for j in range(m):
        for l in range(j + 1, m):
            t = np.zeros((m, m), dtype=complex)
            t[j, l] = inv
            t[l, j] = -inv
            basis.append(t)
            t = np.zeros((m, m), dtype=complex)
            t[j, l] = 1j * inv
            t[l, j] = 1j * inv
            basis.append(t)
    return np.stack(basis)


def _ad_block(e, basis):
    """Matrix of f -> [e, f] in `basis` coordinates; leading axes of `e` are kept."""
    comm = np.einsum("...ij,bjk->...bik", e, basis) - np.einsum("bij,...jk->...bik", basis, e)
    return np.einsum("...bij,aij->...ab", comm, basis.conj()).real


def _covariant_differentials(conn):
    """Sparse covariant differentials d0: 0-forms -> 1-forms, d1: 1-forms -> 2-forms.

    Coordinates are the real u(m) coefficients of `antihermitian_basis`,
    ordered (component, x, y, basis).  Each directional derivative is a
    forward difference plus the pointwise action of ad(E); since ad(E) is
    skew for anti-Hermitian E, the transposes are the backward differences
    with the adjoint coupling, i.e. the codifferentials.
    """
    import scipy.sparse as sp

    n, h = conn.grid.n, conn.grid.h
    basis = antihermitian_basis(conn.m)
    nb = basis.shape[0]
    # periodic forward difference (S - I)/h on one axis, S the cyclic shift
    fwd = (sp.eye(n, k=1) + sp.eye(n, k=1 - n) - sp.eye(n)) / h
    eye_n, eye_b = sp.eye(n), sp.eye(nb)

    def ad_blocks(e):
        # block-diagonal matrix of f -> [e, f] at every node
        blocks = _ad_block(e, basis).reshape(n * n, nb, nb)
        return sp.bsr_matrix((blocks, np.arange(n * n), np.arange(n * n + 1)),
                             shape=(n * n * nb, n * n * nb)).tocsr()

    ex, ey = conn.potential.comps
    dx = sp.kron(sp.kron(fwd, eye_n), eye_b, format="csr") + ad_blocks(ex)
    dy = sp.kron(sp.kron(eye_n, fwd), eye_b, format="csr") + ad_blocks(ey)
    return sp.vstack([dx, dy], format="csr"), sp.hstack([-dy, dx], format="csr")


def laplacian_matrix(conn, degree):
    """Covariant Hodge Laplacian d^T d + d d^T at `degree` as a sparse matrix.

    Refuses a connection whose one-sided complex does not close (an entry of
    d1 d0 above FLAT_TOL), with the measured defect.
    """
    if degree not in (0, 1, 2):
        raise ValueError("degree must be 0, 1 or 2")
    d0, d1 = _covariant_differentials(conn)
    defect = np.abs((d1 @ d0).data).max(initial=0.0)
    if not defect <= FLAT_TOL:
        raise ValueError(f"the one-sided covariant complex does not close: max |d1 d0| "
                         f"{defect:.3e} exceeds {FLAT_TOL:.1e}")
    return _hodge_laplacian(d0, d1, degree, lambda d: d.T)


def _hodge_laplacian(d0, d1, degree, adjoint):
    """d* d + d d* at `degree` from the differentials d0, d1 and their `adjoint`."""
    if degree == 0:
        return adjoint(d0) @ d0
    if degree == 1:
        return d0 @ adjoint(d0) + adjoint(d1) @ d1
    return d1 @ adjoint(d1)


def _fourier_laplacian_blocks(conn, degree):
    """Laplacian of a constant connection as (n*n, ncomp*m*m, ncomp*m*m) Hermitian blocks.

    One block per Fourier mode (p, q); together they have the eigenvalues of
    `laplacian_matrix(conn, degree)`.
    """
    n, h = conn.grid.n, conn.grid.h
    basis = antihermitian_basis(conn.m)
    nb = basis.shape[0]
    ad_x, ad_y = (_ad_block(c[0, 0], basis) for c in conn.potential.comps)
    sigma = (np.exp(2j * np.pi * np.arange(n) / n) - 1.0) / h
    eye = np.eye(nb)
    shape = (n, n, nb, nb)
    dx = np.broadcast_to(sigma[:, None, None, None] * eye + ad_x, shape).reshape(n * n, nb, nb)
    dy = np.broadcast_to(sigma[None, :, None, None] * eye + ad_y, shape).reshape(n * n, nb, nb)
    d0 = np.concatenate([dx, dy], axis=1)
    d1 = np.concatenate([-dy, dx], axis=2)
    return _hodge_laplacian(d0, d1, degree, lambda d: d.conj().swapaxes(1, 2))


def eigenproblem_size(n, m, degree):
    """Real dimension of the degree-`degree` cochains on an n x n grid at rank m."""
    return (2 if degree == 1 else 1) * n * n * m * m


def harmonic_space_dim(conn, degree, threshold=KERNEL_THRESHOLD):
    """Number of Laplacian eigenvalues below `threshold` at the given degree.

    Only flat connections are accepted: the covariant complex is a complex
    only when the curvature vanishes, so non-flat input is rejected with the
    measured curvature norm.  The problem size is checked first, before the
    curvature is computed.  A constant potential is counted by Fourier blocks,
    any other by the dense Laplacian, which also refuses a potential whose
    one-sided complex does not close (see the module docstring).
    """
    if degree not in (0, 1, 2):
        raise ValueError("degree must be 0, 1 or 2")
    n, m = conn.grid.n, conn.m
    dof = eigenproblem_size(n, m, degree)
    if dof > DOF_LIMIT:
        raise ValueError(f"eigenproblem size {dof} (grid {n}, rank {m}, degree {degree}) "
                         f"exceeds the limit {DOF_LIMIT}; reduce the grid or the rank")
    require_flat(conn, "harmonic counting")
    if all((c == c[0, 0]).all() for c in conn.potential.comps):
        mat = _fourier_laplacian_blocks(conn, degree)
    else:
        mat = laplacian_matrix(conn, degree).toarray()
    evals = np.linalg.eigvalsh(mat)
    return int(np.count_nonzero(evals < threshold))
