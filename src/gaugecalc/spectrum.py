"""Kernel dimensions of the covariant Hodge Laplacians on the torus grid.

The covariant complex lives on the Wilson links U_x(j, l) = exp(h E_x(j, l))
and U_y likewise, kept on the `Connection` (`gauge.links`).  The directional
derivatives are the transports D_x f(j, l) = (Ad(U_x(j, l)) f(j+1, l) - f(j, l))/h
and D_y likewise, whose first-order term is d + [E, .].  With d0 = [D_x; D_y],
d1 = [-D_y, D_x] and the codifferentials their adjoints under the real
coefficient product Re tr(A B^H), the Laplacian is L = d^* d + d d^*.

On links the complex is exactly gauge covariant: a lattice gauge field g takes
U_x(j, l) to g(j, l) U_x(j, l) g(j+1, l)^H (U_y likewise) and acts on cochains
by the orthogonal map Ad(g), so the spectrum of L depends only on the gauge
class of the links.  A flat link field, one whose every plaquette has
U_x(j, l) U_y(j+1, l) = U_y(j, l) U_x(j, l+1), is gauge equivalent to constant
links, n-th roots of the inverses of its commuting generator holonomies
g_x = (U_x(0, 0) ... U_x(n-1, 0))^H and g_y (`gauge.generator_holonomies`).  In
their joint eigenbasis, with eigenphases a_i of g_x and b_i of g_y, the
complex splits into m^2 scalar twisted complexes, one per entry (i, j), and
each of them into n^2 Fourier modes (p, q).  There D_x and D_y are the
numbers s_x = (exp(i(2 pi p + a_i - a_j)/n) - 1)/h and s_y likewise, so L is
|s_x|^2 + |s_y|^2, once in degrees 0 and 2 and twice in degree 1.  Another
branch of the root, or the sign of the phases, only permutes p.  Counting
therefore needs one m x m eigensolve for the joint eigenbasis and none over
the grid, and one eigenvalue table per count call gives all three degrees
(`harmonic_space_dims`).
"""

from __future__ import annotations

import numpy as np

from .algebra import dagger
from .gauge import _require_flat_links, generator_holonomies, links

KERNEL_THRESHOLD = 1e-6  # eigenvalues below it count as harmonic; no flag or parameter overrides it

# weights of the Hermitian parts of g_x, i g_x (first row) and g_y, i g_y (second row)
# in the matrix whose eigenvectors are the joint eigenbasis; any weights off a
# measure-zero set do
_MIX = np.array([[1.0, np.sqrt(2.0)], [np.sqrt(3.0), np.sqrt(5.0)]])


def _link_eigenvalues(ux, uy, h):
    """Degree-0 Laplacian eigenvalues of the link field (ux, uy), as an (n, n, m, m) array.

    Entry (p, q, i, j) is the eigenvalue of Fourier mode (p, q) on the entry
    (i, j) of the joint eigenbasis of the holonomies (see the module
    docstring).  Both holonomies go through each step as one (2, m, m)
    stack.  Refuses a link field that is not flat (`gauge._require_flat_links`).
    """
    _require_flat_links(ux, uy)
    g = np.stack(generator_holonomies(ux, uy))
    gh = dagger(g)
    # g + g^H and i g + (i g)^H = i (g - g^H) are the Hermitian parts of g and i g
    mix = (_MIX[:, :, None, None] * np.stack((g + gh, 1j * (g - gh)), axis=1)).sum(axis=(0, 1))
    _, v = np.linalg.eigh(mix)
    phases = np.angle(np.diagonal(dagger(v) @ g @ v, axis1=1, axis2=2))
    n = len(ux)
    p = 2.0 * np.pi * np.arange(n)[:, None, None]
    sx, sy = 4.0 * np.sin((p + phases[:, None, :, None] - phases[:, None, None, :])
                          / (2 * n)) ** 2 / h ** 2
    return sx[:, None] + sy


def harmonic_space_dims(conn):
    """Numbers (h0, h1, h2) of Laplacian eigenvalues below KERNEL_THRESHOLD in degrees 0, 1, 2.

    One eigenvalue table serves all three degrees: each of its entries is an
    eigenvalue once in degrees 0 and 2 and twice in degree 1 (see the module
    docstring), and nothing of it is kept for a later call.  The count runs
    on the connection's kept links, and only flat links are accepted: the
    link complex is a complex only when every plaquette closes, so any other
    field is refused with its measured plaquette defect (see
    `gauge._require_flat_links`).  That is the one flatness test; the
    central-difference curvature is never formed, so a gauge transform of
    flat links counts too.
    """
    count = int(np.count_nonzero(_link_eigenvalues(*links(conn), conn.grid.h) < KERNEL_THRESHOLD))
    return count, 2 * count, count


def harmonic_space_dim(conn, degree):
    """Number of Laplacian eigenvalues below KERNEL_THRESHOLD at the given degree:
    entry `degree` of `harmonic_space_dims`.
    """
    if degree not in (0, 1, 2):
        raise ValueError("degree must be 0, 1 or 2")
    return harmonic_space_dims(conn)[degree]
