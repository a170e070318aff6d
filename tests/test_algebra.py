import numpy as np
import pytest
# the package has one exponential; scipy's scaling-and-squaring is the independent oracle
from scipy.linalg import expm

from gaugecalc.algebra import (E1, E2, E3, LEVI_CIVITA, SU2_BASIS, bracket,
                               dagger, exp_antihermitian, inner,
                               is_antihermitian, random_antihermitian,
                               require_antihermitian, stack_bracket, stack_matmul)
from gaugecalc.algebra import MATMUL_RANK, SIGMA1, SIGMA3, _plane_major


def test_su2_basis_is_antihermitian_traceless():
    for e in SU2_BASIS:
        assert is_antihermitian(e)
        assert abs(np.trace(e)) == 0.0


def test_bracket_table_matches_structure_constants():
    # [e_a, e_b] = -2 eps_abc e_c, exactly (integer arithmetic)
    for a in range(3):
        for b in range(3):
            expect = sum(-2.0 * LEVI_CIVITA[a, b, c] * SU2_BASIS[c] for c in range(3))
            assert np.array_equal(bracket(SU2_BASIS[a], SU2_BASIS[b]), expect)


def test_bracket_examples():
    assert np.array_equal(bracket(E1, E2), -2.0 * E3)
    assert np.array_equal(bracket(E3, E1), -2.0 * E2)
    a = random_antihermitian(np.random.default_rng(0), 3)
    assert np.max(np.abs(bracket(a, a))) == 0.0


def test_bracket_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        bracket(E1, np.eye(3, dtype=complex) * 1j)


@pytest.mark.parametrize("fn", (bracket, inner), ids=("bracket", "inner"))
def test_bracket_and_inner_refuse_non_finite_matrices(fn):
    for bad in (np.nan, np.inf, -np.inf * 1j):
        a = E1.copy()
        a[0, 1] = bad
        for pair in ((a, E2), (E2, a)):
            with pytest.raises(ValueError, match=f"{fn.__name__} matrices must be finite"):
                fn(*pair)


def test_inner_values():
    assert inner(E1, E1) == pytest.approx(2.0, abs=1e-14)
    assert inner(E1, E2) == pytest.approx(0.0, abs=1e-14)
    assert inner(np.zeros((2, 2)), E2) == 0.0


def test_exp_antihermitian_examples():
    zero = np.zeros((2, 2))
    assert np.max(np.abs(exp_antihermitian(zero) - np.eye(2))) == 0.0
    # exp(-i pi sigma1) = cos(pi) Id - i sin(pi) sigma1 = -Id
    # exp(i pi sigma3) = diag(-1, -1)
    for a, want in ((-np.pi * 1j * SIGMA1, -np.eye(2)),
                    (1j * np.pi * SIGMA3, np.diag([-1.0, -1.0]))):
        g = exp_antihermitian(a)
        assert np.max(np.abs(g - want)) < 1e-12
        assert np.max(np.abs(g - expm(a))) < 1e-12


def test_exp_antihermitian_inverse_and_unitarity():
    rng = np.random.default_rng(1)
    for m in (2, 3, 4):
        a = random_antihermitian(rng, m)
        g = exp_antihermitian(a)
        assert np.max(np.abs(g - expm(a))) < 1e-12
        assert np.max(np.abs(g @ exp_antihermitian(-a) - np.eye(m))) < 1e-10
        assert np.max(np.abs(g @ dagger(g) - np.eye(m))) < 1e-12


def test_exp_antihermitian_batch_matches_expm():
    rng = np.random.default_rng(2)
    stack = np.stack([random_antihermitian(rng, 2) for _ in range(6)]).reshape(2, 3, 2, 2)
    batched = exp_antihermitian(stack)
    for idx in np.ndindex(2, 3):
        assert np.max(np.abs(batched[idx] - expm(stack[idx]))) < 1e-12


def _stack(rng, scale, shape):
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return scale * 0.5 * (x - dagger(x))


def _expm_each(stack):
    return np.stack([expm(a) for a in stack.reshape((-1,) + stack.shape[-2:])]).reshape(stack.shape)


@pytest.mark.parametrize("scale", (1e-9, 0.15, 1.0, 30.0))
def test_u2_exponential_matches_expm_across_scales(scale):
    stack = _stack(np.random.default_rng(3), scale, (8, 8, 2, 2))
    assert np.max(np.abs(exp_antihermitian(stack) - _expm_each(stack))) <= 1e-13


def test_u2_exponential_of_the_centre_is_exact():
    assert np.array_equal(exp_antihermitian(np.zeros((2, 2))), np.eye(2))
    assert np.array_equal(exp_antihermitian(np.zeros((8, 8, 2, 2))),
                          np.broadcast_to(np.eye(2), (8, 8, 2, 2)))
    for phi in (0.3, -1.7, np.pi, 25.0):
        assert np.array_equal(exp_antihermitian(1j * phi * np.eye(2)), np.exp(1j * phi) * np.eye(2))


def test_u2_exponential_is_unitary_inside_the_antihermitian_tolerance():
    # a real diagonal of 4e-13 passes the anti-Hermitian check; only the
    # anti-Hermitian part enters the exponential
    stack = _stack(np.random.default_rng(4), 1.0, (16, 2, 2))
    stack[:, 0, 0] += 4e-13
    stack[:, 1, 1] += 4e-13
    g = exp_antihermitian(stack)
    assert np.isfinite(g).all()
    assert np.max(np.abs(stack_matmul(g, dagger(g)) - np.eye(2))) <= 1e-15


def test_u2_exponential_single_matrix_and_grid_stack():
    rng = np.random.default_rng(5)
    single = random_antihermitian(rng, 2)
    assert exp_antihermitian(single).shape == (2, 2)
    assert np.max(np.abs(exp_antihermitian(single) - expm(single))) <= 1e-13
    stack = _stack(rng, 1.0, (16, 16, 2, 2))
    g = exp_antihermitian(stack)
    assert g.shape == stack.shape
    assert np.max(np.abs(g - _expm_each(stack))) <= 1e-13
    assert np.max(np.abs(g[3, 5] - exp_antihermitian(stack[3, 5]))) <= 1e-15


@pytest.mark.parametrize("m", (4,))
def test_exponential_above_rank_two_diagonalizes(m):
    stack = _stack(np.random.default_rng(6), 1.0, (4, 4, m, m))
    w, u = np.linalg.eigh(-1j * stack)
    assert np.array_equal(exp_antihermitian(stack),
                          stack_matmul(u * np.exp(1j * w)[..., None, :], dagger(u)))
    assert np.max(np.abs(exp_antihermitian(stack) - _expm_each(stack))) <= 1e-12


def test_u3_exponential_is_closed_form(monkeypatch):
    # the stack the rank-3 eigh pin used; m = 3 no longer diagonalizes
    stack = _stack(np.random.default_rng(6), 1.0, (4, 4, 3, 3))
    monkeypatch.setattr(np.linalg, "eigh", None)
    assert np.max(np.abs(exp_antihermitian(stack) - _expm_each(stack))) <= 1e-12


def _unit_norm_stack(rng, count):
    a = _stack(rng, 1.0, (count, 3, 3))
    return a / np.linalg.norm(a, 2, axis=(-2, -1))[:, None, None]


def _with_spectrum(rng, eigenvalues):
    """i U diag(eigenvalues) U^H for a random unitary U, exactly anti-Hermitian."""
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    a = 1j * (u * np.asarray(eigenvalues, dtype=float)) @ dagger(u)
    return 0.5 * (a - dagger(a))


@pytest.mark.parametrize("norm", (0.0, 1e-160, 1e-17, 1e-12, 1e-8, 1e-4, 1.0, 10.0, 50.0))
def test_u3_exponential_matches_expm_across_norms(norm):
    # below 1e-16 the series stands in; at 1e-160 the closed form's 1/(9u^2 - w^2) would overflow
    base = _unit_norm_stack(np.random.default_rng(7), 64)  # random spectra of 2-norm 1
    q = -1j * base - np.trace(-1j * base, axis1=-2, axis2=-1)[:, None, None] / 3 * np.eye(3)
    det = np.linalg.det(q).real  # the sign of det Q, which scaling by `norm` keeps
    assert (det > 0).any() and (det < 0).any()
    stack = norm * base
    assert np.max(np.abs(exp_antihermitian(stack) - _expm_each(stack))) <= 1e-15 * max(1.0, norm)


@pytest.mark.parametrize("eigenvalues", ((1.0, 1.0, -2.0), (-1.0, -1.0, 2.0), (0.3, 0.3, 0.3),
                                         (1e-9, 1e-9, -2e-9), (2.5, 2.5, 0.0), (1.0, 0.0, -1.0)))
def test_u3_exponential_of_repeated_and_symmetric_spectra(eigenvalues):
    # det Q < 0, > 0 and 0 (the last), and degenerate pairs where arccos is steepest
    a = _with_spectrum(np.random.default_rng(8), eigenvalues)
    assert np.max(np.abs(exp_antihermitian(a) - expm(a))) <= 1e-15


def test_u3_exponential_of_the_centre_and_of_a_stack():
    assert np.array_equal(exp_antihermitian(np.zeros((3, 3))), np.eye(3))
    assert np.array_equal(exp_antihermitian(np.zeros((8, 8, 3, 3))),
                          np.broadcast_to(np.eye(3), (8, 8, 3, 3)))
    rng = np.random.default_rng(9)
    stack = _stack(rng, 1.0, (16, 16, 3, 3))
    g = exp_antihermitian(stack)
    assert g.shape == stack.shape
    for idx in ((0, 0), (3, 5), (15, 9)):
        single = exp_antihermitian(stack[idx])
        assert single.shape == (3, 3)
        assert np.max(np.abs(g[idx] - single)) <= 1e-15


def test_u3_exponential_is_unitary_inside_the_antihermitian_tolerance():
    # as for u(2): a real diagonal of 4e-13 passes the anti-Hermitian check and
    # only the anti-Hermitian part enters the exponential
    stack = _stack(np.random.default_rng(4), 1.0, (16, 3, 3))
    for k in range(3):
        stack[:, k, k] += 4e-13
    g = exp_antihermitian(stack)
    assert np.isfinite(g).all()
    assert np.max(np.abs(stack_matmul(g, dagger(g)) - np.eye(3))) <= 4e-15


def _node_norms(x):
    return np.sqrt(np.sum(np.abs(x) ** 2, axis=(-2, -1)))


@pytest.mark.parametrize("m", (1, 2, 3, 4, 5, 6, 8, 16))
def test_stack_matmul_matches_matmul(m):
    # `@` is the oracle; the kernel sums in a different order, so agreement is
    # to rounding, per node relative to |a| |b| (Frobenius norms)
    rng = np.random.default_rng(10 + m)

    def draw(*shape):
        return rng.standard_normal(shape + (m, m)) + 1j * rng.standard_normal(shape + (m, m))

    gen = draw(257)
    planes = (_plane_major(draw(16, 16)), _plane_major(draw(16, 16)))
    cases = [(draw(16, 16), draw(16, 16)),       # an (N, N, m, m) field
             planes,                             # the layout forms keep
             (draw(128), draw(128)),             # a (c, m, m) chunk
             (gen[1::2], gen[:-1:2]),            # strided views, as RK4 passes them
             (draw(16, 16), draw()),             # a stack against one matrix
             (draw(8).real, draw(8))]            # real against complex
    for a, b in cases:
        got = stack_matmul(a, b)
        want = a @ b
        assert got.shape == want.shape and got.dtype == want.dtype
        bound = 1e-14 * _node_norms(a) * _node_norms(b)
        assert np.all(_node_norms(got - want) <= bound)
    # plane-major operands give a plane-major product at every rank
    assert _planes_contiguous(stack_matmul(*planes))


def _planes_contiguous(a):
    return all(a[..., i, j].flags.c_contiguous
               for i in range(a.shape[-2]) for j in range(a.shape[-1]))


@pytest.mark.parametrize("m", range(1, MATMUL_RANK))
def test_stack_matmul_below_matmul_rank_is_the_broadcast_kernel_bit_for_bit(m):
    rng = np.random.default_rng(50 + m)

    def draw(*shape):
        return rng.standard_normal(shape + (m, m)) + 1j * rng.standard_normal(shape + (m, m))

    node = draw(8, 8)
    for a, b in ((_plane_major(draw(8, 8)), _plane_major(draw(8, 8))),  # both plane-major
                 (node, _plane_major(draw(8, 8))),                      # mixed layouts
                 (node[1::2], node[::2]),                               # strided views
                 (draw(8, 8), draw())):                                 # against one matrix
        want = a[..., :, :1] * b[..., :1, :]
        for k in range(1, m):
            want += a[..., :, k:k + 1] * b[..., k:k + 1, :]
        got = stack_matmul(a, b)
        assert got.shape == want.shape and got.strides == want.strides
        assert got.tobytes() == want.tobytes()


def test_plane_major_reorders_once_and_then_never_copies():
    rng = np.random.default_rng(40)
    node = rng.standard_normal((8, 8, 3, 3)) + 1j * rng.standard_normal((8, 8, 3, 3))
    planes = _plane_major(node)
    assert planes.shape == node.shape and planes.dtype == complex
    assert np.array_equal(planes, node)
    assert _planes_contiguous(planes) and not _planes_contiguous(node)
    again = _plane_major(planes)
    assert np.shares_memory(again, planes) and again.strides == planes.strides
    real = _plane_major(node.real)  # real input comes back complex, same values
    assert real.dtype == complex and _planes_contiguous(real)
    assert np.array_equal(real, node.real)


def _moveaxis_plane_major(a):
    """`_plane_major` written with np.moveaxis, the oracle of its values and strides."""
    planes = np.moveaxis(np.asarray(a, dtype=complex), (-2, -1), (0, 1))
    return np.moveaxis(np.ascontiguousarray(planes), (0, 1), (-2, -1))


def _node_major(rng, ndim, sliced):
    shape = (5, 4, 3)[:ndim - 2] + (3, 3)
    if sliced:  # every axis strided and no axis contiguous
        shape = tuple(2 * k for k in shape)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return a[(slice(None, None, 2),) * ndim] if sliced else a


@pytest.mark.parametrize("ndim", (2, 3, 4, 5))
@pytest.mark.parametrize("sliced", (False, True), ids=("node-major", "sliced"))
def test_plane_major_matches_the_moveaxis_formulation(ndim, sliced):
    a = _node_major(np.random.default_rng(45 + ndim), ndim, sliced)
    got, expect = _plane_major(a), _moveaxis_plane_major(a)
    assert np.array_equal(got, expect) and got.strides == expect.strides
    if ndim > 2 or sliced:  # a contiguous (m, m) matrix is already plane-major
        assert not np.shares_memory(got, a)
    again = _plane_major(got)  # plane-major input comes back as a view
    assert np.shares_memory(again, got) and again.strides == got.strides


@pytest.mark.parametrize("m", (2, 3))
def test_stack_matmul_gives_the_same_bits_in_either_layout(m):
    rng = np.random.default_rng(41 + m)
    a, b = (rng.standard_normal((16, 16, m, m)) + 1j * rng.standard_normal((16, 16, m, m))
            for _ in range(2))
    out = stack_matmul(_plane_major(a), _plane_major(b))
    assert _planes_contiguous(out)
    assert np.array_equal(out, stack_matmul(a, b))


@pytest.mark.parametrize("m", (2, 3))
def test_exponential_is_plane_major_and_layout_blind(m):
    node = np.ascontiguousarray(_stack(np.random.default_rng(43 + m), 1.0, (16, 16, m, m)))
    g = exp_antihermitian(node)
    assert _planes_contiguous(g)
    assert np.array_equal(g, exp_antihermitian(_plane_major(node)))


def _bracket_cases(rng, m):
    def draw(*shape):
        return rng.standard_normal(shape + (m, m)) + 1j * rng.standard_normal(shape + (m, m))

    gen = draw(257)
    return [(draw(16, 16), draw(16, 16)),       # an (N, N, m, m) field
            (_plane_major(draw(16, 16)), _plane_major(draw(16, 16))),
            (gen[1::2], gen[:-1:2]),            # strided views
            (draw(16, 16), draw()),             # a stack against one matrix
            (draw(8).real, draw(8))]            # real against complex


@pytest.mark.parametrize("m", (1, 2, 3, 4))
def test_stack_bracket_matches_the_two_product_form(m):
    for a, b in _bracket_cases(np.random.default_rng(50 + m), m):
        got = stack_bracket(a, b)
        want = a @ b - b @ a
        assert got.shape == want.shape and got.dtype == want.dtype
        bound = 1e-14 * _node_norms(a) * _node_norms(b)
        assert np.all(_node_norms(got - want) <= bound)


@pytest.mark.parametrize("lead", ((), (5,), (2, 3)), ids=("unstacked", "stack", "grid"))
@pytest.mark.parametrize("m", (1, 2, 3, 4))
def test_stack_bracket_is_the_matmul_difference_at_every_leading_shape(m, lead):
    rng = np.random.default_rng(90 + m)
    a, b = (rng.standard_normal(lead + (m, m)) + 1j * rng.standard_normal(lead + (m, m))
            for _ in range(2))
    got = stack_bracket(a, b)
    want = stack_matmul(a, b) - stack_matmul(b, a)
    assert got.shape == want.shape == lead + (m, m)
    assert np.all(_node_norms(got - want) <= 1e-14 * _node_norms(a) * _node_norms(b))
    if not lead:  # `bracket` is this kernel on a validated pair
        assert bracket(a, b).tobytes() == got.tobytes()


@pytest.mark.parametrize("m", (1, 4))
def test_stack_bracket_above_and_below_rank_two_is_the_matmul_difference(m):
    for a, b in _bracket_cases(np.random.default_rng(60 + m), m):
        assert stack_bracket(a, b).tobytes() == (stack_matmul(a, b) - stack_matmul(b, a)).tobytes()


def test_rank_two_bracket_identities():
    rng = np.random.default_rng(70)
    a, b = (_stack(rng, 1.0, (32, 32, 2, 2)) for _ in range(2))
    c = stack_bracket(a, b)
    assert np.array_equal(c[..., 1, 1], -c[..., 0, 0])
    assert np.array_equal(c, -dagger(c))  # exactly anti-Hermitian, as its inputs
    assert _planes_contiguous(c)
    planes = stack_bracket(_plane_major(a), _plane_major(b))
    assert planes.tobytes() == c.tobytes()  # the same bits in either input layout
    general = rng.standard_normal((32, 2, 2)) + 1j * rng.standard_normal((32, 2, 2))
    cg = stack_bracket(general, a[0])  # any complex entries: c11 = -c00 still holds exactly
    assert np.array_equal(cg[..., 1, 1], -cg[..., 0, 0])


def test_rank_three_bracket_identities():
    rng = np.random.default_rng(71)
    a, b = (_stack(rng, 1.0, (32, 32, 3, 3)) for _ in range(2))
    c = stack_bracket(a, b)
    assert np.array_equal(c[..., 2, 2], -c[..., 0, 0] - c[..., 1, 1])  # trace zero
    assert np.array_equal(c, -dagger(c))  # exactly anti-Hermitian, as its inputs
    assert _planes_contiguous(c)
    planes = stack_bracket(_plane_major(a), _plane_major(b))
    assert planes.tobytes() == c.tobytes()  # the same bits in either input layout
    general = rng.standard_normal((32, 3, 3)) + 1j * rng.standard_normal((32, 3, 3))
    cg = stack_bracket(general, a[0])  # any complex entries: the trace still vanishes exactly
    assert np.array_equal(cg[..., 2, 2], -cg[..., 0, 0] - cg[..., 1, 1])


def test_stack_matmul_rejects_mismatched_inner_dimension():
    with pytest.raises(ValueError, match="inner dimensions"):
        stack_matmul(np.ones((4, 2, 3)), np.ones((4, 2, 2)))


def test_ad_invariance_and_jacobi():
    rng = np.random.default_rng(3)
    for m in (2, 3):
        for _ in range(25):
            a = random_antihermitian(rng, m)
            b = random_antihermitian(rng, m)
            c = random_antihermitian(rng, m)
            assert abs(inner(bracket(c, a), b) + inner(a, bracket(c, b))) < 1e-10
            jac = (bracket(a, bracket(b, c)) + bracket(b, bracket(c, a))
                   + bracket(c, bracket(a, b)))
            assert np.max(np.abs(jac)) < 1e-10


def test_antihermitian_check_rejects_hermitian():
    with pytest.raises(ValueError):
        require_antihermitian(SIGMA1)
    with pytest.raises(ValueError):
        exp_antihermitian(SIGMA1)


def test_antihermitian_check_rejects_non_finite():
    # a NaN defect must not pass as "not above the tolerance"
    for bad in (np.full((2, 2), np.nan), np.array([[np.inf * 1j, 0.0], [0.0, 0.0]])):
        with pytest.raises(ValueError, match="non-finite"):
            require_antihermitian(bad)


@pytest.mark.parametrize("m", (1, 2, 3, 4))
def test_exponential_of_an_empty_stack_is_empty(m):
    empty = np.zeros((0, m, m), dtype=complex)
    assert require_antihermitian(empty) is None
    assert exp_antihermitian(empty).shape == (0, m, m)
    assert stack_bracket(empty, empty).shape == (0, m, m)
    # a stack with a non-finite entry is still refused, whatever its rank
    for bad in (np.nan, np.inf, -np.inf * 1j):
        stack = np.zeros((2, m, m), dtype=complex)
        stack[1, 0, m - 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            exp_antihermitian(stack)
