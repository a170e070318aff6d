"""u(m) matrix algebra: brackets, ad-invariant metric, the unitary exponential.

Elements are anti-Hermitian m x m complex matrices.  The metric is
<A, B> = Re tr(A B^H); with the su(2) basis e_a = i sigma_a this gives
<e_a, e_b> = 2 delta_ab, and the brackets close as
[e_a, e_b] = -2 eps_abc e_c.

The stack kernels work on (..., m, m) arrays and have closed forms for the
ranks the package runs:

- `stack_matmul`: one broadcast outer product per inner index below
  MATMUL_RANK, one `np.matmul` from there on.
- `stack_bracket`: for m = 2 and 3 only the products that survive in
  AB - BA, 6 and 30 of them; other ranks take the difference of two
  `stack_matmul` products.  It is the package's one commutator: `bracket`
  validates a pair of matrices and runs it.
- `exp_antihermitian`: for m = 2 the su(2) closed form, for m = 3 the
  Cayley-Hamilton form of Morningstar and Peardon; other ranks diagonalize.
"""

from __future__ import annotations

import numpy as np

ANTIHERMITIAN_ATOL = 1e-12
UNITARY_ATOL = 1e-10  # largest |G G^H - I| up to which G^H stands in for G^-1
# smallest rank at which one np.matmul, its result made plane-major, is no slower than
# the broadcast kernel of `stack_matmul` on plane-major (n, n, m, m) stacks at n = 16, 64
# and 256 (one BLAS thread, 2 shared Xeon vCPUs; at m = 6 the kernel still wins at n = 256,
# and at m = 32, n = 64 it is about 5 times slower)
MATMUL_RANK = 7

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
    """Largest entrywise magnitude of A + A^H (zero for anti-Hermitian A, and
    for an empty stack)."""
    a = np.asarray(a, dtype=complex)
    return float(np.max(np.abs(a + dagger(a)), initial=0.0))


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


def _unitary_inverse(g, what):
    """G^H of a stack (..., m, m) of unitary matrices, as their inverses.

    Refuses `g` naming `what` and its defect, the largest |G G^H - I|, if
    that exceeds UNITARY_ATOL.
    """
    gh = dagger(g)
    defect = float(np.max(np.abs(stack_matmul(g, gh) - np.eye(g.shape[-1])), initial=0.0))
    if not defect <= UNITARY_ATOL:
        raise ValueError(f"{what} is not unitary: defect {defect:.3e}")
    return gh


def _square_matrices(matrices, what):
    """`matrices` as complex arrays; refuses any that is not square of one rank, or not finite."""
    mats = [np.asarray(mm, dtype=complex) for mm in matrices]
    shape = mats[0].shape
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 1 \
            or any(mm.shape != shape for mm in mats):
        raise ValueError(f"{what} needs square matrices of one rank m >= 1, "
                         f"got shapes {[mm.shape for mm in mats]}")
    if not all(np.isfinite(mm).all() for mm in mats):  # refused before anything computes with them
        raise ValueError(f"{what} matrices must be finite")
    return mats


def bracket(a, b):
    """Commutator AB - BA of two m x m matrices, by `stack_bracket`."""
    return stack_bracket(*_square_matrices((a, b), "bracket"))


def inner(a, b):
    """Ad-invariant inner product Re tr(A B^H)."""
    a, b = _square_matrices((a, b), "inner")
    return float(np.trace(a @ dagger(b)).real)


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


def _plane_major(a):
    """Complex (..., m, m) stack in memory order (m, m, ...); no copy if `a` has that order.

    The axes move with `transpose` on explicit axis tuples: the same views as
    `np.moveaxis`, without its per-call argument handling.
    """
    a = np.asarray(a, dtype=complex)
    lead = tuple(range(a.ndim - 2))
    planes = np.ascontiguousarray(a.transpose((a.ndim - 2, a.ndim - 1) + lead))
    return planes.transpose(tuple(i + 2 for i in lead) + (0, 1))


def stack_matmul(a, b):
    """Matrix product of stacks (..., m, m), broadcast over the leading axes.

    Below MATMUL_RANK it sums one broadcast outer product per inner index,
    and the result keeps the operands' memory order.  For m = 2 and 3 that
    is 2-8 times faster than `@`, which pays a per-matrix overhead at every
    node: most when both operands are plane-major (`_plane_major`), 2-3
    times less with one node-major operand.  From MATMUL_RANK on, where the
    m^3 products per node outweigh that overhead, it is one `np.matmul`
    with a complex plane-major result.  Plane-major operands give a
    plane-major result at every rank.  Commutators take `stack_bracket`.
    """
    m = a.shape[-1]
    if b.shape[-2] != m:
        raise ValueError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    if m >= MATMUL_RANK:
        return _plane_major(np.matmul(a, b))
    out = a[..., :, :1] * b[..., :1, :]
    for k in range(1, m):
        out += a[..., :, k:k + 1] * b[..., k:k + 1, :]
    return out


def stack_bracket(a, b):
    """Commutator AB - BA of stacks (..., m, m), broadcast over the leading axes.

    For m = 2 and 3 only the plane products that survive in AB - BA are
    formed, 6 and 30 of them in place of the 16 and 54 of two matrix
    products.  With da = a_ii - a_jj and db = b_ii - b_jj, the entry above the
    diagonal is c_ij = da b_ij - db a_ij + a_il b_lj - b_il a_lj, l the third
    index (m = 3 only), and the entry below it c_ji = db a_ji - da b_ji
    - a_li b_jl + b_li a_jl, each product the index mirror of one of c_ij
    with its factors in the same order.  On the diagonal
    c00 = a01 b10 - b01 a10 + a02 b20 - b02 a20, c11 = a12 b21 - b12 a21
    - (a01 b10 - b01 a10), and the trace vanishes: c11 = -c00 for m = 2,
    c22 = -c00 - c11 for m = 3.  Conjugation and negation are exact, and
    each mirrored product keeps its factor order (numpy's complex multiply
    need not commute bit for bit), so an exactly anti-Hermitian pair gives
    an exactly anti-Hermitian result.  It is plane-major (see `_plane_major`) and has the same bits for either
    input layout.  Other ranks return `stack_matmul(a, b) - stack_matmul(b, a)`.
    """
    m = a.shape[-1]
    if m not in (2, 3) or b.shape[-1] != m:
        return stack_matmul(a, b) - stack_matmul(b, a)
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    out = np.empty((m, m) + lead, dtype=np.result_type(a, b))
    tmp = np.empty(lead, dtype=out.dtype)
    mul = np.multiply
    for i, j in ((0, 1), (0, 2), (1, 2))[:2 * m - 3]:  # the pairs i < j
        da, db = a[..., i, i] - a[..., j, j], b[..., i, i] - b[..., j, j]
        cij, cji = out[i, j, ...], out[j, i, ...]  # views, also for leading shape ()
        mul(da, b[..., i, j], out=cij)
        cij -= mul(db, a[..., i, j], out=tmp)
        mul(db, a[..., j, i], out=cji)
        cji -= mul(da, b[..., j, i], out=tmp)
        if m == 3:
            l = 3 - i - j
            cij += mul(a[..., i, l], b[..., l, j], out=tmp)
            cij -= mul(b[..., i, l], a[..., l, j], out=tmp)
            cji -= mul(a[..., l, i], b[..., j, l], out=tmp)
            cji += mul(b[..., l, i], a[..., j, l], out=tmp)
    c00, c11 = out[0, 0, ...], out[1, 1, ...]
    mul(a[..., 0, 1], b[..., 1, 0], out=c00)
    c00 -= mul(b[..., 0, 1], a[..., 1, 0], out=tmp)
    if m == 2:
        np.negative(c00, out=c11)
    else:
        mul(a[..., 1, 2], b[..., 2, 1], out=c11)
        c11 -= mul(b[..., 1, 2], a[..., 2, 1], out=tmp)
        c11 -= c00
        c00 += mul(a[..., 0, 2], b[..., 2, 0], out=tmp)
        c00 -= mul(b[..., 0, 2], a[..., 2, 0], out=tmp)
        c22 = out[2, 2, ...]
        np.negative(np.add(c00, c11, out=c22), out=c22)
    return out.transpose(tuple(range(2, out.ndim)) + (0, 1))


def exp_antihermitian(a):
    """Exponential of a stack (..., m, m) of anti-Hermitian matrices.

    For m = 2, A = i theta I + i (x s1 + y s2 + z s3) with coordinates read
    from both triangles, and exp(A) = e^{i theta} (cos r I + i sinc(r)
    (x s1 + y s2 + z s3)), r = |(x, y, z)|: unitary to rounding even for A
    anti-Hermitian only to ANTIHERMITIAN_ATOL.  For m = 3 the closed form of
    `_exp_u3`; other ranks diagonalize -iA and multiply back by `stack_matmul`.
    The result is plane-major (see `_plane_major`).
    """
    a = np.asarray(a, dtype=complex)
    require_antihermitian(a, "exponent")
    m = a.shape[-1]
    if m == 3:
        return _exp_u3(a)
    if m != 2:
        w, u = np.linalg.eigh(-1j * a)
        u = _plane_major(u)
        uh = dagger(u)
        u *= np.exp(1j * w)[..., None, :]  # in place, once its dagger is taken
        return stack_matmul(u, uh)
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    x = 0.5 * (a01.imag + a10.imag)
    y = 0.5 * (a01.real - a10.real)
    z = 0.5 * (a00.imag - a11.imag)
    r = np.sqrt(x * x + y * y + z * z)
    phase = np.exp(0.5j * (a00.imag + a11.imag))
    s = phase * np.sinc(r / np.pi)
    c, iz = phase * np.cos(r), 1j * z * s
    out = np.array([[c + iz, s * (y + 1j * x)], [s * (1j * x - y), c - iz]])
    return out.transpose(tuple(range(2, out.ndim)) + (0, 1))


def _exp_u3(a):
    """exp(A) for a stack (..., 3, 3), by Cayley-Hamilton (Morningstar and
    Peardon, Phys. Rev. D 69, 054501 (2004)); plane-major.

    H = -i skew(A), read from both triangles, splits as theta I + Q with Q
    traceless Hermitian, and exp(A) = e^{i theta} (f0 I + f1 Q + f2 Q^2).
    With c0 = det Q = tr(Q^3)/3, c1 = tr(Q^2)/2, phi = arccos(|c0| / c0_max)
    and c0_max = 2 (c1/3)^{3/2}, the eigenvalues of Q are 2u, -u + w, -u - w
    for u = sqrt(c1/3) cos(phi/3), w = sqrt(c1) sin(phi/3); f_j = h_j /
    (9u^2 - w^2) with xi0(w) = sin(w)/w = sinc(w/pi).  For c0 < 0 the
    conjugation symmetry f_j(-c0) = (-1)^j conj(f_j(c0)) is u -> -u, so u
    takes the sign of c0.  The denominator is at least 2 c1; where c1 < 1e-32
    (|Q| < 1e-16, down to Q = 0 and its 0/0) the series I + iQ - Q^2/2
    stands in, exp(iQ) to within |Q|^3 / 6 < 1e-48.
    """
    shape = a.shape
    ap = a.reshape(-1, 3, 3).transpose(1, 2, 0)
    q = np.conjugate(ap.transpose(1, 0, 2), out=np.empty(ap.shape, dtype=complex))
    np.subtract(ap, q, out=q)
    q *= -0.5j  # H, Hermitian to the bit with a real diagonal
    theta = (q[0, 0].real + q[1, 1].real + q[2, 2].real) / 3.0
    for k in range(3):
        q[k, k] -= theta
    qt = q.transpose(2, 0, 1)
    q2 = stack_matmul(qt, qt).transpose(1, 2, 0)  # plane-major, as q
    c1 = 0.5 * (q2[0, 0].real + q2[1, 1].real + q2[2, 2].real)
    c0 = (q.real * q2.real + q.imag * q2.imag).sum(axis=(0, 1)) / 3.0
    c0_max = 2.0 * (c1 / 3.0) ** 1.5
    ratio = np.divide(np.abs(c0), c0_max, out=np.zeros_like(c1), where=c0_max > 0.0)
    phi3 = np.arccos(np.minimum(ratio, 1.0)) / 3.0
    u = np.copysign(np.sqrt(c1 / 3.0) * np.cos(phi3), c0)
    w = np.sqrt(c1) * np.sin(phi3)
    uu, ww = u * u, w * w
    e2iu, emiu = np.exp(2j * u), np.exp(-1j * u)
    cw, xi0 = np.cos(w), np.sinc(w / np.pi)
    h0 = (uu - ww) * e2iu + emiu * (8.0 * uu * cw + 2j * u * (3.0 * uu + ww) * xi0)
    h1 = 2.0 * u * e2iu - emiu * (2.0 * u * cw - 1j * (3.0 * uu - ww) * xi0)
    h2 = e2iu - emiu * (cw + 3j * u * xi0)
    small = c1 < 1e-32  # the series: f = (1, i, -1/2) over a denominator of 1
    h0, h1, h2 = np.where(small, 1.0, h0), np.where(small, 1j, h1), np.where(small, -0.5, h2)
    scale = np.exp(1j * theta) / np.where(small, 1.0, 9.0 * uu - ww)
    out = q2 * (h2 * scale)
    out += q * (h1 * scale)
    f0 = h0 * scale
    for k in range(3):
        out[k, k] += f0
    return out.reshape((3, 3) + shape[:-2]).transpose(tuple(range(2, len(shape))) + (0, 1))


def random_antihermitian(rng, m):
    """Random anti-Hermitian matrix with entries of order one."""
    x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return 0.5 * (x - dagger(x))
