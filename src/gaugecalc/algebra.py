"""u(m) matrix algebra: brackets, ad-invariant metric, the unitary exponential.

Elements are anti-Hermitian m x m complex matrices.  The metric is
<A, B> = Re tr(A B^H); with the su(2) basis e_a = i sigma_a this gives
<e_a, e_b> = 2 delta_ab, and the brackets close as
[e_a, e_b] = -2 eps_abc e_c.
"""

from __future__ import annotations

import numpy as np

ANTIHERMITIAN_ATOL = 1e-12

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA = (SIGMA1, SIGMA2, SIGMA3)

E1 = 1j * SIGMA1
E2 = 1j * SIGMA2
E3 = 1j * SIGMA3
SU2_BASIS = (E1, E2, E3)

LEVI_CIVITA = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    LEVI_CIVITA[_i, _j, _k] = 1.0
    LEVI_CIVITA[_i, _k, _j] = -1.0


def dagger(a):
    """Conjugate transpose over the trailing two axes."""
    return np.conjugate(np.swapaxes(np.asarray(a), -1, -2))


def antihermitian_defect(a):
    """Largest entrywise magnitude of A + A^H (zero for anti-Hermitian A)."""
    a = np.asarray(a, dtype=complex)
    return float(np.max(np.abs(a + dagger(a))))


def is_antihermitian(a):
    return antihermitian_defect(a) <= ANTIHERMITIAN_ATOL


def require_antihermitian(a, what="matrix"):
    """Refuse `a` unless it is finite and anti-Hermitian to ANTIHERMITIAN_ATOL."""
    a = np.asarray(a, dtype=complex)
    if not np.isfinite(a).all():  # refused before A + A^H computes with them
        raise ValueError(f"{what} has non-finite entries")
    defect = antihermitian_defect(a)
    if defect > ANTIHERMITIAN_ATOL:
        raise ValueError(
            f"{what} is not anti-Hermitian: defect {defect:.3e} exceeds {ANTIHERMITIAN_ATOL:.1e}"
        )


def _require_matching(a, b):
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a, b


def bracket(a, b):
    """Commutator AB - BA."""
    a, b = _require_matching(a, b)
    return a @ b - b @ a


def inner(a, b):
    """Ad-invariant inner product Re tr(A B^H)."""
    a, b = _require_matching(a, b)
    return float(np.trace(a @ dagger(b)).real)


def _plane_major(a):
    """Complex (..., m, m) stack in memory order (m, m, ...); no copy if `a` has that order."""
    planes = np.moveaxis(np.asarray(a, dtype=complex), (-2, -1), (0, 1))
    return np.moveaxis(np.ascontiguousarray(planes), (0, 1), (-2, -1))


def stack_matmul(a, b):
    """Matrix product of stacks (..., m, m), broadcast over the leading axes.

    Sums one broadcast outer product per inner index; the result keeps the
    operands' memory order.  For m = 2 and 3 that is 2-8 times faster than
    `@`, which pays a per-matrix overhead at every node: most when both
    operands are plane-major (`_plane_major`), 2-3 times less with one
    node-major operand.
    """
    m = a.shape[-1]
    if b.shape[-2] != m:
        raise ValueError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    out = a[..., :, :1] * b[..., :1, :]
    for k in range(1, m):
        out += a[..., :, k:k + 1] * b[..., k:k + 1, :]
    return out


def exp_antihermitian(a):
    """Exponential of a stack (..., m, m) of anti-Hermitian matrices.

    For m = 2, A = i theta I + i (x s1 + y s2 + z s3) with coordinates read
    from both triangles, and exp(A) = e^{i theta} (cos r I + i sinc(r)
    (x s1 + y s2 + z s3)), r = |(x, y, z)|: unitary to rounding even for A
    anti-Hermitian only to ANTIHERMITIAN_ATOL.  Other ranks diagonalize -iA.
    The result is plane-major (see `_plane_major`).
    """
    a = np.asarray(a, dtype=complex)
    require_antihermitian(a, "exponent")
    if a.shape[-1] != 2:
        w, u = np.linalg.eigh(-1j * a)
        u = _plane_major(u)
        ue = np.multiply(u, np.exp(1j * w)[..., None, :], out=np.empty_like(u))
        return stack_matmul(ue, dagger(u))
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    x = 0.5 * (a01.imag + a10.imag)
    y = 0.5 * (a01.real - a10.real)
    z = 0.5 * (a00.imag - a11.imag)
    r = np.sqrt(x * x + y * y + z * z)
    phase = np.exp(0.5j * (a00.imag + a11.imag))
    s = phase * np.sinc(r / np.pi)
    c, iz = phase * np.cos(r), 1j * z * s
    out = np.array([[c + iz, s * (y + 1j * x)], [s * (1j * x - y), c - iz]])
    return np.moveaxis(out, (0, 1), (-2, -1))


def random_antihermitian(rng, m):
    """Random anti-Hermitian matrix with entries of order one."""
    x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return 0.5 * (x - dagger(x))
