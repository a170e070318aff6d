import numpy as np
import pytest
# the package has one exponential; scipy's scaling-and-squaring is the independent oracle
from scipy.linalg import expm

from gaugecalc.algebra import (E1, E2, E3, LEVI_CIVITA, SU2_BASIS, bracket,
                               dagger, exp_antihermitian, inner,
                               is_antihermitian, random_antihermitian,
                               require_antihermitian, stack_matmul)
from gaugecalc.algebra import SIGMA1, SIGMA3, _plane_major


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


@pytest.mark.parametrize("m", (3, 4))
def test_exponential_above_rank_two_diagonalizes(m):
    stack = _stack(np.random.default_rng(6), 1.0, (4, 4, m, m))
    w, u = np.linalg.eigh(-1j * stack)
    assert np.array_equal(exp_antihermitian(stack),
                          stack_matmul(u * np.exp(1j * w)[..., None, :], dagger(u)))
    assert np.max(np.abs(exp_antihermitian(stack) - _expm_each(stack))) <= 1e-12


def _node_norms(x):
    return np.sqrt(np.sum(np.abs(x) ** 2, axis=(-2, -1)))


@pytest.mark.parametrize("m", (1, 2, 3, 4))
def test_stack_matmul_matches_matmul(m):
    # `@` is the oracle; the kernel sums in a different order, so agreement is
    # to rounding, per node relative to |a| |b| (Frobenius norms)
    rng = np.random.default_rng(10 + m)

    def draw(*shape):
        return rng.standard_normal(shape + (m, m)) + 1j * rng.standard_normal(shape + (m, m))

    gen = draw(257)
    cases = [(draw(16, 16), draw(16, 16)),       # an (N, N, m, m) field
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


def _planes_contiguous(a):
    return all(a[..., i, j].flags.c_contiguous
               for i in range(a.shape[-2]) for j in range(a.shape[-1]))


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
