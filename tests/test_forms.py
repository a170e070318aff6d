import base64
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaugecalc import algebra
from gaugecalc.algebra import E1, E2, E3, _plane_major, random_antihermitian, stack_matmul
from gaugecalc.forms import (ANTIHERMITIAN, GENERAL, MIN_GRID, MatrixForm, TorusGrid,
                             VectorField, _ddx, _ddy, _entry_pairs, _form, constant_form,
                             exterior_d, form_from_json, form_from_record, form_to_json,
                             form_to_record, hodge_star, interior, l2_inner,
                             scalar_form, sharp, tensor_form, wedge_compose,
                             zero_form)
from gaugecalc.suites import random_form, random_scalar_one_form


def _legacy_record(w):
    """The record of `w` in the legacy layout: one list of [re, im] pairs per component."""
    return {**form_to_record(w), "components": [_entry_pairs(c) for c in w.comps]}


def _zero_scalar():
    """The zero scalar 0-form on the 8 x 8 grid, tagged general."""
    return scalar_form(TorusGrid(8), 0, np.zeros((8, 8)))


def _sine_dy_form(grid, matrix):
    x, _ = grid.nodes()
    prof = scalar_form(grid, 1, np.zeros((grid.n, grid.n)), np.sin(2.0 * np.pi * x))
    return tensor_form(prof, matrix)


def test_grid_refuses_coarse():
    with pytest.raises(ValueError):
        TorusGrid(4)
    assert TorusGrid(8).h == 0.125


def test_form_validation():
    grid = TorusGrid(8)
    with pytest.raises(ValueError):
        MatrixForm(3, grid, (np.zeros((8, 8, 2, 2)),))
    with pytest.raises(ValueError):
        MatrixForm(1, grid, (np.zeros((8, 8, 2, 2)),))  # wrong component count
    with pytest.raises(ValueError):
        # Hermitian entries cannot carry the anti-Hermitian tag
        MatrixForm(0, grid, (np.ones((8, 8, 2, 2)),), ANTIHERMITIAN)


@pytest.mark.parametrize("build", (
    lambda grid: zero_form(grid, 3, 2),
    lambda grid: scalar_form(grid, 3, np.zeros((8, 8))),
    lambda grid: constant_form(grid, 3, E1),
), ids=("zero_form", "scalar_form", "constant_form"))
def test_builders_refuse_a_bad_degree_by_value(build):
    with pytest.raises(ValueError, match="degree must be 0, 1 or 2, got 3"):
        build(TorusGrid(8))


@pytest.mark.parametrize("value_class", (ANTIHERMITIAN, GENERAL))
@pytest.mark.parametrize("bad", (np.nan, np.inf, complex(0.0, np.nan)))
def test_form_rejects_non_finite_values(value_class, bad):
    grid = TorusGrid(8)
    comps = np.zeros((8, 8, 2, 2), dtype=complex)
    comps[3, 4, 0, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        MatrixForm(0, grid, (comps,), value_class)


def test_public_builders_reject_non_finite_values():
    grid = TorusGrid(8)
    nan_field = np.full((8, 8), np.nan)
    with pytest.raises(ValueError):
        scalar_form(grid, 0, nan_field)
    with pytest.raises(ValueError):
        constant_form(grid, 0, np.nan * E1)
    x, _ = grid.nodes()
    with pytest.raises(ValueError):
        tensor_form(scalar_form(grid, 0, x), np.full((2, 2), np.inf))
    rec = _legacy_record(constant_form(grid, 0, E1))
    rec["components"][0][5] = [float("nan"), 0.0]
    with pytest.raises(ValueError):
        form_from_record(rec)


def test_tensor_form_tags_its_product_from_the_assembled_values():
    grid = TorusGrid(8)
    ones = np.ones((8, 8))
    exact = tensor_form(scalar_form(grid, 0, 3.0 * ones), E1)
    assert exact.value_class == ANTIHERMITIAN
    assert np.array_equal(exact.comps[0][2, 5], 3.0 * E1)
    # anti-Hermitian to the tolerance, but not once scaled up by the scalar
    near = E1.copy()
    near[0, 0] += 1e-13
    big = tensor_form(scalar_form(grid, 0, 1e6 * ones), near)
    assert big.value_class == GENERAL
    assert np.array_equal(big.comps[0][2, 5], 1e6 * near)
    # a scalar real to 1e-14 whose imaginary part leaves a 2e-12 defect
    tilted = tensor_form(scalar_form(grid, 0, (1.0 + 1e-14j) * ones), 100.0 * E1)
    assert tilted.value_class == GENERAL
    assert np.array_equal(tilted.comps[0][2, 5], (1.0 + 1e-14j) * (100.0 * E1))


@pytest.mark.parametrize("m", (1, 2, 3))
def test_constant_form_checks_only_its_matrices(m, monkeypatch):
    # the tag is settled by the m x m checks; the broadcast components are not scanned again
    grid = TorusGrid(16)
    rng = np.random.default_rng(20 + m)
    mats = [random_antihermitian(rng, m) for _ in range(2)]
    shapes = []
    defect = algebra.antihermitian_defect
    monkeypatch.setattr(algebra, "antihermitian_defect",
                        lambda a: shapes.append(np.shape(a)) or defect(a))
    w = constant_form(grid, 1, *mats)
    assert shapes == [(m, m), (m, m)]
    assert w.value_class == ANTIHERMITIAN
    monkeypatch.undo()
    checked = MatrixForm(1, grid, tuple(np.broadcast_to(mm, (16, 16, m, m)) for mm in mats),
                         ANTIHERMITIAN)
    assert all(c.tobytes() == c0.tobytes() and c.strides == c0.strides
               for c, c0 in zip(w.comps, checked.comps))
    assert constant_form(grid, 0, mats[0] + np.eye(m)).value_class == GENERAL


def test_constant_form_refuses_non_square_matrices():
    grid = TorusGrid(8)
    for bad in ((np.zeros((2, 3)),), (np.zeros(2),), (np.zeros((2, 2, 2)),),
                (np.zeros((2, 2)), np.zeros((3, 3)))):
        with pytest.raises(ValueError, match="square"):
            constant_form(grid, len(bad) - 1, *bad)


def test_tensor_form_refuses_non_square_matrices():
    grid = TorusGrid(8)
    scalar = scalar_form(grid, 0, np.ones((8, 8)))
    for bad in (np.zeros((2, 3)), np.zeros(2), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match="square"):
            tensor_form(scalar, bad)


def test_form_from_record_rejects_hermitian_values():
    grid = TorusGrid(8)
    rec = form_to_record(constant_form(grid, 0, E1))
    assert rec["value_class"] == ANTIHERMITIAN
    rec["components"] = [[[1.0, 0.0]] * (8 * 8 * 4)]  # the all-ones Hermitian matrix
    with pytest.raises(ValueError):
        form_from_record(rec)
    rec["value_class"] = GENERAL
    assert form_from_record(rec).value_class == GENERAL


def test_operators_tag_only_what_they_preserve():
    grid = TorusGrid(8)
    a = constant_form(grid, 1, E1, E2)
    general = MatrixForm(1, grid, a.comps)
    assert exterior_d(a).value_class == ANTIHERMITIAN
    assert hodge_star(a).value_class == ANTIHERMITIAN
    assert (a + a).value_class == (a - a).value_class == (-a).value_class == ANTIHERMITIAN
    assert (2.5 * a).value_class == ANTIHERMITIAN
    assert (1j * a).value_class == GENERAL
    assert (a + general).value_class == GENERAL
    assert wedge_compose(a, a).value_class == GENERAL


def test_exterior_d_constant_is_zero():
    grid = TorusGrid(16)
    w = constant_form(grid, 0, 0.3 * E1 + 1.1 * E2)
    assert exterior_d(w).max_abs() == 0.0


def test_exterior_d_matches_discrete_closed_form():
    # central difference of a sampled sine is exactly cos * sin(2 pi h)/h
    grid = TorusGrid(32)
    x, _ = grid.nodes()
    w = _sine_dy_form(grid, E1)
    dw = exterior_d(w)
    ref = np.cos(2.0 * np.pi * x) * (np.sin(2.0 * np.pi * grid.h) / grid.h)
    got = dw.comps[0][:, :, 0, 0] / 1j  # e1 = i sigma1 has entries on the off-diagonal
    assert np.max(np.abs(dw.comps[0] - ref[..., None, None] * E1)) < 1e-12


def test_exterior_d_second_order_convergence():
    errs = []
    for n in (32, 64, 128):
        grid = TorusGrid(n)
        x, _ = grid.nodes()
        w = scalar_form(grid, 1, np.zeros((n, n)), np.sin(2.0 * np.pi * x))
        got = exterior_d(w).comps[0][:, :, 0, 0].real
        errs.append(float(np.max(np.abs(got - 2.0 * np.pi * np.cos(2.0 * np.pi * x)))))
    assert 3.6 <= errs[0] / errs[1] <= 4.4
    assert 3.6 <= errs[1] / errs[2] <= 4.4


def _roll_ddx(arr, h):
    return (np.roll(arr, -1, axis=0) - np.roll(arr, 1, axis=0)) / (2.0 * h)


def _roll_ddy(arr, h):
    return (np.roll(arr, -1, axis=1) - np.roll(arr, 1, axis=1)) / (2.0 * h)


@pytest.mark.parametrize("n", (MIN_GRID, 11, 64))  # 1/(2h) is inexact at n = 11
@pytest.mark.parametrize("m", (1, 2, 3))
def test_differences_match_the_rolled_formula_bit_for_bit(n, m):
    rng = np.random.default_rng(n + m)
    node = rng.standard_normal((n, n, m, m)) + 1j * rng.standard_normal((n, n, m, m))
    node[:3, :3] = 0.0
    node[2, :3] = node[:3, 2] = complex(-0.0, -0.0)  # -0.0 - 0.0 keeps its sign
    strided = np.empty((n, 2 * n, m, m), dtype=complex)[:, ::2]
    strided[...] = node
    h = 1.0 / n
    for arr in (node, _plane_major(node), strided):  # node-major, plane-major, strided
        kept = arr.copy()
        for fast, slow in ((_ddx, _roll_ddx), (_ddy, _roll_ddy)):
            got, want = fast(arr, h), slow(node, h)
            assert np.array_equal(got, want)
            for part in (np.real, np.imag):
                assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))
            assert np.array_equal(arr, kept)


def test_exterior_d_matches_the_rolled_formula_bit_for_bit():
    grid = TorusGrid(16)
    rng = np.random.default_rng(14)
    h = grid.h
    f = random_form(rng, grid, 0, 2)
    (f0,) = f.comps
    dx, dy = exterior_d(f).comps
    assert np.array_equal(dx, _roll_ddx(f0, h)) and np.array_equal(dy, _roll_ddy(f0, h))
    w = random_form(rng, grid, 1, 2)
    p, q = w.comps
    (d1,) = exterior_d(w).comps
    assert np.array_equal(d1, _roll_ddx(q, h) - _roll_ddy(p, h))


def test_d_compose_is_zero():
    grid = TorusGrid(32)
    rng = np.random.default_rng(5)
    for _ in range(5):
        f = random_form(rng, grid, 0, 2)
        assert exterior_d(exterior_d(f)).max_abs() < 1e-12


def test_exterior_d_rejects_top_degree():
    grid = TorusGrid(8)
    with pytest.raises(ValueError):
        exterior_d(zero_form(grid, 2, 2))


def test_hodge_star_table():
    grid = TorusGrid(16)
    x, _ = grid.nodes()
    f = scalar_form(grid, 1, np.sin(2.0 * np.pi * x), np.zeros((16, 16)))
    sf = hodge_star(f)
    # *(f dx) = f dy
    assert np.array_equal(sf.comps[1], f.comps[0])
    assert np.max(np.abs(sf.comps[0])) == 0.0
    # *(w x e3) is the constant 0-form with coefficient e3
    two = constant_form(grid, 2, E3)
    back = hodge_star(two)
    assert back.degree == 0
    assert np.array_equal(back.comps[0], two.comps[0])


def test_hodge_star_involution_signs():
    grid = TorusGrid(16)
    rng = np.random.default_rng(6)
    for degree, sign in ((0, 1.0), (1, -1.0), (2, 1.0)):
        w = random_form(rng, grid, degree, 2)
        ss = hodge_star(hodge_star(w))
        assert (ss - sign * w).max_abs() < 1e-14


def test_hodge_star_isometry():
    grid = TorusGrid(16)
    rng = np.random.default_rng(7)
    for degree in (0, 1, 2):
        a = random_form(rng, grid, degree, 2)
        b = random_form(rng, grid, degree, 2)
        assert abs(l2_inner(hodge_star(a), hodge_star(b)) - l2_inner(a, b)) < 1e-12


def test_wedge_su2_example():
    # (sin(2 pi x) dx x e1 + sin(2 pi y) dy x e2)^2 = -2 sin sin dx^dy x e3
    grid = TorusGrid(32)
    x, y = grid.nodes()
    e = tensor_form(scalar_form(grid, 1, np.sin(2.0 * np.pi * x), np.zeros((32, 32))), E1) \
        + tensor_form(scalar_form(grid, 1, np.zeros((32, 32)), np.sin(2.0 * np.pi * y)), E2)
    ee = wedge_compose(e, e)
    ref = -2.0 * np.sin(2.0 * np.pi * x)[..., None, None] \
        * np.sin(2.0 * np.pi * y)[..., None, None] * E3
    assert np.max(np.abs(ee.comps[0] - ref)) < 1e-13
    assert ee.value_class == GENERAL


def test_wedge_scalar_square_vanishes():
    grid = TorusGrid(16)
    alpha = random_scalar_one_form(np.random.default_rng(8), grid)
    assert wedge_compose(alpha, alpha).max_abs() == 0.0


def test_wedge_with_zero_form_is_pointwise_product():
    grid = TorusGrid(16)
    rng = np.random.default_rng(9)
    f = random_form(rng, grid, 0, 2)
    w = random_form(rng, grid, 1, 2)
    fw = wedge_compose(f, w)
    for c_out, c_in in zip(fw.comps, w.comps):
        assert np.max(np.abs(c_out - stack_matmul(f.comps[0], c_in))) == 0.0


def test_wedge_rejects_degree_overflow():
    grid = TorusGrid(8)
    with pytest.raises(ValueError):
        wedge_compose(zero_form(grid, 1, 2), zero_form(grid, 2, 2))


def test_sharp_and_interior():
    grid = TorusGrid(16)
    n = grid.n
    ones = np.ones((n, n))
    zeros = np.zeros((n, n))
    v = sharp(scalar_form(grid, 1, ones, zeros))
    assert np.array_equal(v.vx, ones) and np.array_equal(v.vy, zeros)
    # i_{d/dx}(dx^dy) = dy
    w = scalar_form(grid, 2, ones)
    iv = interior(v, w)
    assert np.array_equal(iv.comps[1][:, :, 0, 0].real, ones)
    assert np.max(np.abs(iv.comps[0])) == 0.0
    # i_{(a,b)}(h dx^dy) = h (a dy - b dx)
    rng = np.random.default_rng(10)
    a, b, hfield = rng.standard_normal((3, n, n))
    v2 = VectorField(grid, a, b)
    out = interior(v2, scalar_form(grid, 2, hfield))
    assert np.max(np.abs(out.comps[0][:, :, 0, 0].real + b * hfield)) < 1e-14
    assert np.max(np.abs(out.comps[1][:, :, 0, 0].real - a * hfield)) < 1e-14
    # double contraction of a 2-form vanishes
    assert interior(v2, out).max_abs() < 1e-12


def test_sharp_rejects_matrix_values():
    grid = TorusGrid(8)
    with pytest.raises(ValueError):
        sharp(zero_form(grid, 1, 2))
    with pytest.raises(ValueError):
        sharp(zero_form(grid, 0, 1))


def test_interior_rejects_zero_forms():
    grid = TorusGrid(8)
    v = VectorField(grid, np.ones((8, 8)), np.zeros((8, 8)))
    with pytest.raises(ValueError):
        interior(v, zero_form(grid, 0, 2))


def test_l2_inner_values():
    grid = TorusGrid(32)
    x, _ = grid.nodes()
    zeros = np.zeros((32, 32))
    dx_e1 = tensor_form(scalar_form(grid, 1, np.ones((32, 32)), zeros), E1)
    dy_e1 = tensor_form(scalar_form(grid, 1, zeros, np.ones((32, 32))), E1)
    assert l2_inner(dx_e1, dx_e1) == pytest.approx(2.0, abs=1e-12)
    assert l2_inner(dx_e1, dy_e1) == 0.0
    # int sin^2 = 1/2 exactly under the periodic trapezoid rule, times <e1,e1> = 2
    s = tensor_form(scalar_form(grid, 1, np.sin(2.0 * np.pi * x), zeros), E1)
    assert l2_inner(s, s) == pytest.approx(1.0, abs=1e-10)


def test_l2_inner_rejects_mismatch():
    g1, g2 = TorusGrid(8), TorusGrid(16)
    with pytest.raises(ValueError):
        l2_inner(zero_form(g1, 1, 2), zero_form(g2, 1, 2))
    with pytest.raises(ValueError):
        l2_inner(zero_form(g1, 1, 2), zero_form(g1, 2, 2))


def test_contraction_pairing_identity():
    grid = TorusGrid(16)
    rng = np.random.default_rng(11)
    for _ in range(50):
        lam = random_scalar_one_form(rng, grid)
        v = sharp(lam)
        xi = random_form(rng, grid, 1, 2)
        zeta = random_form(rng, grid, 2, 2)
        lhs = l2_inner(wedge_compose(lam, xi), zeta)
        rhs = l2_inner(xi, interior(v, zeta))
        assert abs(lhs - rhs) < 1e-10


def test_summation_by_parts():
    grid = TorusGrid(32)
    rng = np.random.default_rng(12)
    for _ in range(10):
        f = random_form(rng, grid, 0, 2)
        w = random_form(rng, grid, 1, 2)
        delta = -hodge_star(exterior_d(hodge_star(w)))
        assert abs(l2_inner(exterior_d(f), w) - l2_inner(f, delta)) < 1e-12


def test_serialization_roundtrip_bit_exact():
    grid = TorusGrid(16)
    rng = np.random.default_rng(13)
    for degree in (0, 1, 2):
        w = random_form(rng, grid, degree, 2)
        back = form_from_record(form_to_record(w))
        assert back.degree == w.degree and back.value_class == w.value_class
        for a, b in zip(w.comps, back.comps):
            assert np.array_equal(a, b)
        back2 = form_from_json(form_to_json(w))
        for a, b in zip(w.comps, back2.comps):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("key, bad", (("n", 8.9), ("n", True), ("n", "8"), ("m", 2.5),
                                      ("m", False), ("degree", 1.7), ("degree", "1"),
                                      ("degree", None), ("n", float("nan"))))
def test_form_record_refuses_non_integer_sizes(key, bad):
    rec = form_to_record(zero_form(TorusGrid(8), 1, 2))
    rec[key] = bad
    with pytest.raises(ValueError, match=f"record key '{key}' must be a finite integer"):
        form_from_record(rec)


def test_form_record_accepts_integral_sizes():
    w = zero_form(TorusGrid(8), 1, 2)
    rec = form_to_record(w)
    assert type(rec["n"]) is int and type(rec["m"]) is int and type(rec["degree"]) is int
    back = form_from_record({**rec, "n": 8.0, "m": np.int64(2), "degree": 1.0})
    assert (back.grid.n, back.m, back.degree) == (8, 2, 1)


@pytest.mark.parametrize("m", (0, -1))
def test_form_record_refuses_a_rank_below_one(m):
    rec = {"degree": 0, "n": 8, "m": m, "value_class": "general", "components": [[]]}
    with pytest.raises(ValueError, match=f"record key 'm' must be at least 1, got {m}"):
        form_from_record(rec)


@pytest.mark.parametrize("key", ("n", "m", "degree"))
def test_form_record_refuses_a_huge_size_with_a_value_error(key):
    # an int beyond the float range is an integer, so it reaches the shape checks
    rec = form_to_record(zero_form(TorusGrid(8), 1, 2))
    with pytest.raises(ValueError):
        form_from_record({**rec, key: 10 ** 400})


def test_form_refuses_a_rank_below_one():
    with pytest.raises(ValueError, match="rank m >= 1"):
        MatrixForm(0, TorusGrid(8), (np.zeros((8, 8, 0, 0)),), GENERAL)


@pytest.mark.parametrize("bad", (["a", 1], [1, "2"], [1, 2, 3], [1], [], [True, 1],
                                 [1.0, False], [1, None], [1 + 2j, 0], [[1, 2], 3],
                                 "ab", 5, None, {"re": 1, "im": 2}, [10 ** 400, 0]))
def test_form_record_refuses_entries_that_are_not_pairs_of_real_numbers(bad):
    rec = _legacy_record(_zero_scalar())
    rec["components"][0][5] = bad
    with pytest.raises(ValueError, match="record key 'components'"):
        form_from_record(rec)


@pytest.mark.parametrize("bad", (5, None, "ab"))
def test_form_record_refuses_components_that_are_not_entry_lists(bad):
    rec = form_to_record(_zero_scalar())
    with pytest.raises(ValueError, match="record key 'components'"):
        form_from_record({**rec, "components": bad})


def test_form_record_reads_integers_and_numpy_reals_as_entries():
    rec = _legacy_record(_zero_scalar())
    entries = rec["components"][0]
    entries[0], entries[1], entries[2] = [3, -1], (np.float64(0.5), np.int64(2)), [2 ** 60, 0.25]
    (c,) = form_from_record(rec).comps
    assert c.ravel()[:3].tolist() == [3 - 1j, 0.5 + 2j, complex(2 ** 60, 0.25)]


def _planes_contiguous(a):
    return all(a[..., i, j].flags.c_contiguous
               for i in range(a.shape[-2]) for j in range(a.shape[-1]))


def _node_major(w):
    """The same form with C-ordered (node-major) components, built past the constructor."""
    return _form(w.degree, w.grid, tuple(np.ascontiguousarray(c) for c in w.comps),
                 w.value_class)


@pytest.mark.parametrize("m", (1, 2, 3))
def test_builders_store_components_plane_major(m):
    grid = TorusGrid(8)
    rng = np.random.default_rng(50 + m)
    node = rng.standard_normal((8, 8, m, m)) + 1j * rng.standard_normal((8, 8, m, m))
    x, _ = grid.nodes()
    mat = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    built = {
        "MatrixForm": MatrixForm(1, grid, (node, 2.0 * node)),
        "zero_form": zero_form(grid, 1, m),
        "constant_form": constant_form(grid, 1, mat, 2.0 * mat),
        "tensor_form": tensor_form(scalar_form(grid, 1, x, 2.0 * x), mat),
        "form_from_record": form_from_record(form_to_record(MatrixForm(0, grid, (node,)))),
    }
    for name, w in built.items():
        assert all(_planes_contiguous(c) for c in w.comps), name
    assert np.array_equal(built["MatrixForm"].comps[0], node)
    assert np.array_equal(built["form_from_record"].comps[0], node)
    assert np.array_equal(built["constant_form"].comps[1][5, 6], 2.0 * mat)
    assert np.array_equal(built["tensor_form"].comps[1][5, 6], 2.0 * x[5, 6] * mat)


def test_plane_major_components_are_not_copied():
    grid = TorusGrid(8)
    planes = _plane_major(random_form(np.random.default_rng(55), grid, 0, 2).comps[0])
    w = MatrixForm(0, grid, (planes,), ANTIHERMITIAN)
    assert np.shares_memory(w.comps[0], planes)
    # re-validating an operator's result (as Connection builders do) copies nothing
    d = exterior_d(w)
    again = MatrixForm(1, grid, d.comps, ANTIHERMITIAN)
    assert all(np.shares_memory(c, c0) for c, c0 in zip(again.comps, d.comps))


@pytest.mark.parametrize("m", (2, 3))
def test_form_operators_keep_plane_major_and_ignore_the_layout(m):
    grid = TorusGrid(16)
    rng = np.random.default_rng(56 + m)
    f, a, b = (random_form(rng, grid, k, m) for k in (0, 1, 1))
    s = random_scalar_one_form(rng, grid)
    ops = {
        "d0": lambda f, a, b, s: exterior_d(f),
        "d1": lambda f, a, b, s: exterior_d(a),
        "wedge11": lambda f, a, b, s: wedge_compose(a, b),
        "wedge01": lambda f, a, b, s: wedge_compose(f, a),
        "wedge10": lambda f, a, b, s: wedge_compose(a, f),
        "wedge_scalar": lambda f, a, b, s: wedge_compose(s, a),
        "sum": lambda f, a, b, s: a - 2.0 * b,
    }
    nodes = [_node_major(w) for w in (f, a, b, s)]
    for name, op in ops.items():
        got = op(f, a, b, s)
        assert all(_planes_contiguous(c) for c in got.comps), name
        for c, c_node in zip(got.comps, op(*nodes).comps):
            assert np.array_equal(c, c_node), name


@settings(max_examples=30, deadline=None)
@given(degree=st.sampled_from((0, 1, 2)), n=st.integers(MIN_GRID, 12), m=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_serialization_roundtrip_property(degree, n, m, seed):
    w = random_form(np.random.default_rng(seed), TorusGrid(n), degree, m)
    back = form_from_json(form_to_json(w))
    assert (back.degree, back.grid, back.m, back.value_class) == (degree, w.grid, m, w.value_class)
    for a, b in zip(w.comps, back.comps):
        assert np.array_equal(a, b)


def test_serialization_rejects_missing_keys():
    grid = TorusGrid(8)
    rec = form_to_record(zero_form(grid, 1, 1))
    del rec["components"]
    with pytest.raises(ValueError):
        form_from_record(rec)


def _per_entry_pairs(a):
    """The per-entry formula that `_entry_pairs` replaces, kept as its oracle."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(a).ravel(order="C")]


def test_entry_pairs_match_the_per_entry_formula():
    node = np.random.default_rng(8).standard_normal((8, 8, 2, 2, 2)).view(complex)[..., 0]
    node[1, 2, 0, 1] = complex(-0.0, -0.0)
    plane = _plane_major(node)
    assert not plane.flags.c_contiguous
    for a in (node, plane, np.broadcast_to(E1, (8, 8, 2, 2)), E2, np.float64(-0.0)):
        pairs = _entry_pairs(a)
        assert pairs == _per_entry_pairs(a)
        assert all(type(v) is float for pair in pairs for v in pair)
    k = np.ravel_multi_index((1, 2, 0, 1), node.shape)
    assert [np.copysign(1.0, v) for v in _entry_pairs(plane)[k]] == [-1.0, -1.0]


@pytest.mark.parametrize("text", ("5", "null", '"abc"',
                                  json.dumps(["degree", "n", "m", "value_class", "components"])))
def test_form_json_refuses_a_record_that_is_not_a_mapping(text):
    with pytest.raises(ValueError, match="form record must be a mapping"):
        form_from_json(text)


def _bits(a):
    """The raw 64-bit words of a complex array, in row-major order of its shape."""
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


_PLANTED = (-0.0, 5e-324, 1.7e308, -1.7e308)  # signed zero, a subnormal, near the float limit


@settings(max_examples=40, deadline=None)
@given(degree=st.sampled_from((0, 1, 2)), n=st.integers(MIN_GRID, 13), m=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_binary_record_round_trips_every_bit(degree, n, m, seed):
    rng = np.random.default_rng(seed)
    comps = []
    for _ in range((1, 2, 1)[degree]):
        flat = rng.standard_normal(2 * n * n * m * m)
        flat[rng.choice(flat.size, len(_PLANTED), replace=False)] = _PLANTED
        comps.append(flat.view(complex).reshape(n, n, m, m))
    w = MatrixForm(degree, TorusGrid(n), tuple(comps), GENERAL)
    rec = form_to_record(w)
    assert all(isinstance(c, str) for c in rec["components"])
    for back in (form_from_record(rec), form_from_json(form_to_json(w))):
        assert (back.degree, back.grid.n, back.m, back.value_class) == (degree, n, m, GENERAL)
        for a, b, c in zip(w.comps, back.comps, comps):
            assert np.array_equal(_bits(b), _bits(a)) and np.array_equal(_bits(b), _bits(c))


def test_binary_record_is_little_endian_complex128_in_row_major_order():
    grid = TorusGrid(8)
    node = np.random.default_rng(60).standard_normal((8, 8, 2, 2, 2)).view(complex)[..., 0]
    w = MatrixForm(0, grid, (node,), GENERAL)
    assert not w.comps[0].flags.c_contiguous  # stored plane-major, written row-major
    (text,) = form_to_record(w)["components"]
    assert base64.b64decode(text) == node.astype("<c16").tobytes()
    assert text == base64.b64encode(node.astype("<c16").tobytes()).decode("ascii")


_LEGACY_TEXT = (
    '{"degree": 0, "n": 8, "m": 1, "value_class": "general", "components": [['
    '[-4.0, 0.0], [-0.0, 5e-324], [1.7e+308, -1.7e+308], '
    '[-3.625, 0.30000000000000004], [-3.5, 0.4], [-3.375, 0.5], '
    '[-3.25, 0.6000000000000001], [-3.125, 0.7000000000000001], [-3.0, 0.8], '
    '[-2.875, 0.9], [-2.75, 1.0], [-2.625, 1.1], [-2.5, 1.2000000000000002], '
    '[-2.375, 1.3], [-2.25, 1.4000000000000001], [-2.125, 1.5], [-2.0, 1.6], '
    '[-1.875, 1.7000000000000002], [-1.75, 1.8], [-1.625, 1.9000000000000001], '
    '[-1.5, 2.0], [-1.375, 2.1], [-1.25, 2.2], [-1.125, 2.3000000000000003], '
    '[-1.0, 2.4000000000000004], [-0.875, 2.5], [-0.75, 2.6], [-0.625, 2.7], '
    '[-0.5, 2.8000000000000003], [-0.375, 2.9000000000000004], [-0.25, 3.0], '
    '[-0.125, 3.1], [0.0, 3.2], [0.125, 3.3000000000000003], '
    '[0.25, 3.4000000000000004], [0.375, 3.5], [0.5, 3.6], [0.625, 3.7], '
    '[0.75, 3.8000000000000003], [0.875, 3.9000000000000004], [1.0, 4.0], '
    '[1.125, 4.1000000000000005], [1.25, 4.2], [1.375, 4.3], [1.5, 4.4], '
    '[1.625, 4.5], [1.75, 4.6000000000000005], [1.875, 4.7], '
    '[2.0, 4.800000000000001], [2.125, 4.9], [2.25, 5.0], '
    '[2.375, 5.1000000000000005], [2.5, 5.2], [2.625, 5.300000000000001], '
    '[2.75, 5.4], [2.875, 5.5], [3.0, 5.6000000000000005], [3.125, 5.7], '
    '[3.25, 5.800000000000001], [3.375, 5.9], [3.5, 6.0], '
    '[3.625, 6.1000000000000005], [3.75, 6.2], [3.875, 6.300000000000001]]]}'
)


def test_legacy_json_text_loads_bit_for_bit():
    k = np.arange(64)
    expected = np.empty((8, 8, 1, 1), dtype=complex)
    expected.real.flat, expected.imag.flat = (k - 32) / 8, 0.1 * k
    expected[0, 1], expected[0, 2] = complex(-0.0, 5e-324), complex(1.7e308, -1.7e308)
    w = form_from_json(_LEGACY_TEXT)
    assert (w.degree, w.grid.n, w.m, w.value_class) == (0, 8, 1, GENERAL)
    assert np.array_equal(_bits(w.comps[0]), _bits(expected))
    # written again, it is the binary record of the same bits
    again = form_from_json(form_to_json(w))
    assert np.array_equal(_bits(again.comps[0]), _bits(expected))


def _binary_record():
    return form_to_record(_zero_scalar())


@pytest.mark.parametrize("edit", (
    lambda text: text[:10] + "!" + text[11:],  # outside the alphabet
    lambda text: text[:10] + "-" + text[11:],  # the URL-safe alphabet
    lambda text: text[:10] + "\n" + text[10:],  # whitespace
    lambda text: text[:10] + "é" + text[11:],  # not ASCII
    lambda text: text.rstrip("="),  # padding missing
    lambda text: text + "=",  # padding in excess
    lambda text: text[:-4] + "A=A=",  # padding inside the last quantum
    lambda text: text[:4] + "====" + text[8:],  # padding inside the text
))
def test_binary_record_refuses_text_that_is_not_padded_base64(edit):
    rec = _binary_record()
    assert rec["components"][0].endswith("==")  # 1024 bytes leave one byte in the last quantum
    rec["components"][0] = edit(rec["components"][0])
    with pytest.raises(ValueError, match="record key 'components'"):
        form_from_record(rec)


@pytest.mark.parametrize("raw", (b"", b"\0" * 16 * 63, b"\0" * (16 * 64 - 1),
                                 b"\0" * (16 * 64 + 1), b"\0" * 16 * 65, b"\0" * 16 * 4 * 64))
def test_binary_record_refuses_a_wrong_byte_count(raw):
    rec = {**_binary_record(), "components": [base64.b64encode(raw).decode("ascii")]}
    with pytest.raises(ValueError, match="component entry count .*record key 'components'"):
        form_from_record(rec)


@pytest.mark.parametrize("bad", (5, 1.5, None, True, {"re": 1, "im": 2}, b"AAAA"))
def test_form_record_refuses_an_entry_that_is_neither_text_nor_a_list(bad):
    rec = _binary_record()
    with pytest.raises(ValueError, match="record key 'components'"):
        form_from_record({**rec, "components": [bad]})


def test_binary_record_refuses_non_finite_and_falsely_tagged_values():
    rec = _binary_record()
    nan = np.zeros((8, 8, 1, 1), dtype=complex)
    nan[3, 4] = complex(0.0, np.nan)
    with pytest.raises(ValueError, match="finite"):
        form_from_record({**rec, "components": [base64.b64encode(nan.tobytes()).decode()]})
    ones = base64.b64encode(np.ones((8, 8, 2, 2), dtype=complex).tobytes()).decode()
    with pytest.raises(ValueError, match="anti-Hermitian"):
        form_from_record({**rec, "m": 2, "value_class": ANTIHERMITIAN, "components": [ones]})


@pytest.mark.parametrize("m", (1, 2, 3))
def test_decoded_components_are_writable_and_plane_major(m):
    grid = TorusGrid(9)
    w = random_form(np.random.default_rng(70 + m), grid, 1, m)
    back = form_from_json(form_to_json(w))
    for c, c0 in zip(back.comps, w.comps):
        assert c.flags.writeable and c.dtype == np.dtype(complex) and c.dtype.isnative
        assert _planes_contiguous(c) and not np.shares_memory(c, c0)
        c[0, 0] += 1.0  # the decoded buffer is its own
        assert not np.array_equal(c, c0)
