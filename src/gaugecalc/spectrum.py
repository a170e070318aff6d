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
semi-definite by construction.  It is densified for the eigensolve and the
eigenvalues below the threshold are counted.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .forms import l2_norm
from .gauge import curvature


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


def _forward_difference(n, h):
    """Periodic forward difference (S - I)/h on one axis, S the cyclic shift."""
    return (sp.eye(n, k=1) + sp.eye(n, k=1 - n) - sp.eye(n)) / h


def _ad_blocks(e, basis):
    """Block-diagonal matrix of f -> [e, f] at every node, in `basis` coordinates."""
    n, nb = e.shape[0], basis.shape[0]
    comm = np.einsum("xyij,bjk->xybik", e, basis) - np.einsum("bij,xyjk->xybik", basis, e)
    blocks = np.einsum("xybij,aij->xyab", comm, basis.conj()).real.reshape(n * n, nb, nb)
    return sp.bsr_matrix((blocks, np.arange(n * n), np.arange(n * n + 1)),
                         shape=(n * n * nb, n * n * nb)).tocsr()


def _covariant_differentials(conn):
    """Sparse covariant differentials d0: 0-forms -> 1-forms, d1: 1-forms -> 2-forms.

    Coordinates are the real u(m) coefficients of `antihermitian_basis`,
    ordered (component, x, y, basis).  Each directional derivative is a
    forward difference plus the pointwise action of ad(E); since ad(E) is
    skew for anti-Hermitian E, the transposes are the backward differences
    with the adjoint coupling, i.e. the codifferentials.
    """
    grid = conn.grid
    n, h = grid.n, grid.h
    ex, ey = conn.potential.comps
    basis = antihermitian_basis(conn.m)
    fwd = _forward_difference(n, h)
    eye_n, eye_b = sp.eye(n), sp.eye(basis.shape[0])
    dx = sp.kron(sp.kron(fwd, eye_n), eye_b, format="csr") + _ad_blocks(ex, basis)
    dy = sp.kron(sp.kron(eye_n, fwd), eye_b, format="csr") + _ad_blocks(ey, basis)
    return sp.vstack([dx, dy], format="csr"), sp.hstack([-dy, dx], format="csr")


def laplacian_matrix(conn, degree):
    """Covariant Hodge Laplacian d^T d + d d^T at `degree` as a sparse matrix."""
    if degree not in (0, 1, 2):
        raise ValueError("degree must be 0, 1 or 2")
    d0, d1 = _covariant_differentials(conn)
    if degree == 0:
        return d0.T @ d0
    if degree == 1:
        return d0 @ d0.T + d1.T @ d1
    return d1 @ d1.T


def harmonic_space_dim(conn, degree, threshold=1e-6, flat_tol=1e-8, dof_limit=4608):
    """Number of Laplacian eigenvalues below `threshold` at the given degree.

    Only flat connections are accepted: the covariant complex is a complex
    only when the curvature vanishes, so non-flat input is rejected with the
    measured curvature norm.
    """
    if degree not in (0, 1, 2):
        raise ValueError("degree must be 0, 1 or 2")
    kn = l2_norm(curvature(conn))
    if kn > flat_tol:
        raise ValueError(
            f"harmonic counting needs a flat connection: curvature norm {kn:.3e} "
            f"exceeds {flat_tol:.1e}"
        )
    n, m = conn.grid.n, conn.m
    dof = (2 if degree == 1 else 1) * n * n * m * m
    if dof > dof_limit:
        raise ValueError(f"eigenproblem size {dof} exceeds the limit {dof_limit}; reduce the grid")
    evals = np.linalg.eigvalsh(laplacian_matrix(conn, degree).toarray())
    return int(np.count_nonzero(evals < threshold))
