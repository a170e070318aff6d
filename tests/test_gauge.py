import json

import numpy as np
import pytest

import gaugecalc
from gaugecalc import gauge
from gaugecalc.algebra import (E1, E2, E3, antihermitian_defect, bracket,
                               dagger, exp_antihermitian)
from gaugecalc.forms import (ANTIHERMITIAN, GENERAL, MatrixForm, TorusGrid, _form,
                             _entry_pairs, constant_form, exterior_d, form_from_json,
                             form_from_record, form_to_json, form_to_record,
                             hodge_star, l2_inner, l2_norm, scalar_form,
                             tensor_form, wedge_compose, zero_form)
from gaugecalc.curves import ConnectionCurve, curve_jets, ym_curve_report
from gaugecalc.gauge import (FLAT_TOL, Connection, codifferential, codifferential_flat,
                             covariant_d, curvature, gauge_transform,
                             require_flat, residual_report,
                             wedge_action, wedge_action_adjoint,
                             yang_mills_functional, yang_mills_residual,
                             yang_mills_residual_covariant, zero_connection)
from gaugecalc.spectrum import harmonic_space_dim
from gaugecalc.suites import random_form, random_fourier_scalar


def _sine_dy_connection(grid, matrix):
    x, _ = grid.nodes()
    prof = scalar_form(grid, 1, np.zeros((grid.n, grid.n)), np.sin(2.0 * np.pi * x))
    return Connection(tensor_form(prof, matrix))


def test_connection_requires_antihermitian_one_form():
    grid = TorusGrid(8)
    with pytest.raises(ValueError):
        Connection(zero_form(grid, 0, 2))
    with pytest.raises(ValueError):
        Connection(MatrixForm(1, grid, zero_form(grid, 1, 2).comps, GENERAL))


def test_curvature_zero_cases():
    grid = TorusGrid(16)
    assert l2_norm(curvature(zero_connection(grid, 2))) == 0.0
    conn = Connection(constant_form(grid, 1, np.pi * E1, np.zeros((2, 2))))
    assert l2_norm(curvature(conn)) == 0.0


def test_curvature_of_sine_field():
    grid = TorusGrid(64)
    x, _ = grid.nodes()
    conn = _sine_dy_connection(grid, E1)
    k = curvature(conn)
    # exact discrete derivative of the sampled sine
    ref = (np.sin(2.0 * np.pi * grid.h) / grid.h) * np.cos(2.0 * np.pi * x)
    assert np.max(np.abs(k.comps[0] - ref[..., None, None] * E1)) < 1e-12
    # second-order agreement with the continuum 2 pi cos
    cont = 2.0 * np.pi * np.cos(2.0 * np.pi * x)
    assert np.max(np.abs(k.comps[0] - cont[..., None, None] * E1)) < 5e-2


def test_curvature_two_potential_decomposition():
    grid = TorusGrid(16)
    rng = np.random.default_rng(20)
    for _ in range(5):
        ea = random_form(rng, grid, 1, 2)
        eb = random_form(rng, grid, 1, 2)
        lhs = curvature(Connection(ea + eb)) - curvature(Connection(ea))
        rhs = (exterior_d(eb) + wedge_compose(ea, eb) + wedge_compose(eb, ea)
               + wedge_compose(eb, eb))
        assert (lhs - rhs).max_abs() < 1e-10


def test_covariant_d_flat_base_is_exterior_d():
    grid = TorusGrid(16)
    rng = np.random.default_rng(21)
    conn = zero_connection(grid, 2)
    w = random_form(rng, grid, 1, 2)
    assert (covariant_d(conn, w) - exterior_d(w)).max_abs() == 0.0


def test_covariant_d_commuting_directions():
    grid = TorusGrid(16)
    rng = np.random.default_rng(22)
    alpha = scalar_form(grid, 1, random_fourier_scalar(rng, grid),
                        random_fourier_scalar(rng, grid))
    conn = Connection(tensor_form(alpha, E1))
    d0 = tensor_form(scalar_form(grid, 0, random_fourier_scalar(rng, grid)), E1)
    assert (covariant_d(conn, d0) - exterior_d(d0)).max_abs() < 1e-14


def test_covariant_d_single_term_formula():
    # d(beta x h) + (eta^beta) x [e, h] for E = eta x e on a 1-form beta x h
    grid = TorusGrid(16)
    rng = np.random.default_rng(23)
    eta = scalar_form(grid, 1, random_fourier_scalar(rng, grid),
                      random_fourier_scalar(rng, grid))
    beta = scalar_form(grid, 1, random_fourier_scalar(rng, grid),
                       random_fourier_scalar(rng, grid))
    conn = Connection(tensor_form(eta, E1))
    d_form = tensor_form(beta, E2)
    got = covariant_d(conn, d_form)
    wedge = wedge_compose(eta, beta).comps[0][:, :, 0, 0]
    expect = exterior_d(d_form).comps[0] + wedge[..., None, None] * bracket(E1, E2)
    assert np.max(np.abs(got.comps[0] - expect)) < 1e-13


def test_covariant_d_rejects_two_forms():
    grid = TorusGrid(8)
    with pytest.raises(ValueError):
        covariant_d(zero_connection(grid, 2), zero_form(grid, 2, 2))


def test_codifferential_flat_cases():
    grid = TorusGrid(16)
    conn = zero_connection(grid, 2)
    # constant 2-form
    assert l2_norm(codifferential(conn, constant_form(grid, 2, E1))) == 0.0
    # divergence-free 1-form sin(2 pi y) dx
    _, y = grid.nodes()
    w = tensor_form(scalar_form(grid, 1, np.sin(2.0 * np.pi * y),
                                np.zeros((16, 16))), E1)
    assert l2_norm(codifferential(conn, w)) == 0.0
    with pytest.raises(ValueError):
        codifferential(conn, zero_form(grid, 0, 2))


def _with_negative_zeros(w):
    w = _copy(w)
    for c in w.comps:
        c[:2, :3] = complex(-0.0, -0.0)
        c[2, :3] = complex(-0.0, 0.0)
    return w


def _same_bits(a, b):
    parts = [(part(x), part(y)) for x, y in zip(a.comps, b.comps)
             for part in (np.real, np.imag)]
    return (a.degree == b.degree and a.value_class == b.value_class
            and all(np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))
                    for x, y in parts))


def _copy(w):
    return _form(w.degree, w.grid, tuple(c.copy(order="K") for c in w.comps), w.value_class)


@pytest.mark.parametrize("degree", (1, 2))
def test_codifferentials_match_the_composed_star_formula_bit_for_bit(degree):
    grid = TorusGrid(11)
    rng = np.random.default_rng(60 + degree)
    conn = Connection(random_form(rng, grid, 1, 2))
    w = _with_negative_zeros(random_form(rng, grid, degree, 2))
    kept_w, kept_e = _copy(w), _copy(conn.potential)
    assert _same_bits(codifferential(conn, w),
                      -hodge_star(covariant_d(conn, hodge_star(w))))
    assert _same_bits(codifferential_flat(w), -hodge_star(exterior_d(hodge_star(w))))
    # the one negation is made in place in an intermediate, never in an input
    assert _same_bits(w, kept_w) and _same_bits(conn.potential, kept_e)
    # d of a 1-form of -0.0 entries: each sign of zero survives -*
    zero = _with_negative_zeros(zero_form(grid, 1, 2))
    assert _same_bits(codifferential_flat(exterior_d(zero)),
                      -hodge_star(exterior_d(hodge_star(exterior_d(zero)))))


def test_residual_report_computes_the_curvature_once(monkeypatch):
    grid = TorusGrid(16)
    conn = Connection(random_form(np.random.default_rng(33), grid, 1, 2))
    # E^E is squared only where the curvature is formed; other readers take the kept one
    calls, square = [], gauge._square
    monkeypatch.setattr(gauge, "_square", lambda e: calls.append(e) or square(e))
    rep = residual_report(conn)
    assert len(calls) == 1
    k = curvature(conn)
    assert rep == {
        "ym_value": l2_inner(k, k),
        "residual_l2": l2_norm(yang_mills_residual(conn)),
        "residual_covariant_l2": l2_norm(yang_mills_residual_covariant(conn)),
        "curvature_l2": l2_norm(k),
        "flat": False,
    }


def test_curvature_is_formed_once_and_kept_read_only():
    grid = TorusGrid(16)
    e = random_form(np.random.default_rng(35), grid, 1, 2)
    conn = Connection(e)
    k = curvature(conn)
    assert curvature(conn) is k
    (kc,) = k.comps
    with pytest.raises(ValueError, match="read-only"):
        kc += 1.0
    (fresh,) = (exterior_d(e) + gauge._square(e)).comps
    assert kc.tobytes() == fresh.tobytes() and k.value_class == ANTIHERMITIAN


def test_links_are_formed_once_and_kept_read_only():
    grid = TorusGrid(16)
    e = random_form(np.random.default_rng(36), grid, 1, 2)
    conn = Connection(e)
    links = gauge.links(conn)
    assert gauge.links(conn) is links
    for u, c in zip(links, e.comps):
        with pytest.raises(ValueError, match="read-only"):
            u += 1.0
        assert u.tobytes() == exp_antihermitian(grid.h * c).tobytes()


def test_generator_holonomies_are_the_ordered_link_products():
    # g_x = (U_x(0, 0) ... U_x(n-1, 0))^H: later links act first after the dagger
    grid = TorusGrid(8)
    ux, uy = gauge.links(Connection(random_form(np.random.default_rng(37), grid, 1, 2)))
    gx, gy = gauge.generator_holonomies(ux, uy)
    want_x, want_y = np.eye(2), np.eye(2)
    for j in range(grid.n):
        want_x = dagger(ux[j, 0]) @ want_x
        want_y = dagger(uy[0, j]) @ want_y
    assert np.max(np.abs(gx - want_x)) <= 1e-14 and np.max(np.abs(gy - want_y)) <= 1e-14


def test_one_connection_squares_its_potential_once(monkeypatch):
    grid = TorusGrid(16)
    conn = Connection(constant_form(grid, 1, 0.7 * E1, 0.4 * E1))  # flat, with E^E formed
    calls = []
    square = gauge._square
    monkeypatch.setattr(gauge, "_square", lambda e: calls.append(e) or square(e))
    curvature(conn)
    yang_mills_functional(conn)
    yang_mills_residual_covariant(conn)
    require_flat(conn, "this test")
    residual_report(conn)
    counts = [harmonic_space_dim(conn, degree) for degree in (0, 1, 2)]
    assert len(calls) == 1 and calls[0] is conn.potential
    assert counts == [2, 4, 2]


def test_codifferential_is_exact_adjoint():
    grid = TorusGrid(32)
    rng = np.random.default_rng(24)
    for _ in range(25):
        conn = Connection(random_form(rng, grid, 1, 2, amp=0.8))
        eta = random_form(rng, grid, 0, 2)
        om1 = random_form(rng, grid, 1, 2)
        om2 = random_form(rng, grid, 2, 2)
        assert abs(l2_inner(covariant_d(conn, eta), om1)
                   - l2_inner(eta, codifferential(conn, om1))) < 1e-10
        assert abs(l2_inner(covariant_d(conn, om1), om2)
                   - l2_inner(om1, codifferential(conn, om2))) < 1e-10


def test_wedge_action_adjoint_formula():
    grid = TorusGrid(16)
    rng = np.random.default_rng(25)
    # [c, e] = 0 kills the adjoint
    alpha = scalar_form(grid, 1, random_fourier_scalar(rng, grid),
                        random_fourier_scalar(rng, grid))
    e_form = tensor_form(alpha, E1)
    hw = random_fourier_scalar(rng, grid)
    same_dir = tensor_form(scalar_form(grid, 2, hw), E1)
    assert wedge_action_adjoint(e_form, same_dir).max_abs() < 1e-14
    # E = alpha x e1 against h w x e2 gives 2 i_{alpha#}(h w) x e3
    other = tensor_form(scalar_form(grid, 2, hw), E2)
    got = wedge_action_adjoint(e_form, other)
    a1 = alpha.comps[0][:, :, 0, 0].real
    a2 = alpha.comps[1][:, :, 0, 0].real
    expect_dx = (-a2 * hw)[..., None, None] * (2.0 * E3)
    expect_dy = (a1 * hw)[..., None, None] * (2.0 * E3)
    assert np.max(np.abs(got.comps[0] - expect_dx)) < 1e-13
    assert np.max(np.abs(got.comps[1] - expect_dy)) < 1e-13


def test_wedge_action_adjointness():
    grid = TorusGrid(16)
    rng = np.random.default_rng(26)
    for _ in range(25):
        e_form = random_form(rng, grid, 1, 2)
        beta = random_form(rng, grid, 1, 2)
        gamma = random_form(rng, grid, 2, 2)
        lhs = l2_inner(wedge_action(e_form, beta), gamma)
        rhs = l2_inner(beta, wedge_action_adjoint(e_form, gamma))
        assert abs(lhs - rhs) < 1e-10


def _rel_gap(got, want):
    scale = max(want.max_abs(), 1.0)
    return max(float(np.max(np.abs(c - w))) for c, w in zip(got.comps, want.comps)) / scale


@pytest.mark.parametrize("m", (1, 2, 3))
def test_bracket_terms_match_the_wedge_products(m):
    # the bracket kernels against E^D - (-1)^k D^E written with wedge_compose
    grid = TorusGrid(16)
    rng = np.random.default_rng(80 + m)
    e, f, w, k = (random_form(rng, grid, degree, m) for degree in (1, 0, 1, 2))
    (ex, ey), (r,) = e.comps, k.comps
    adjoint = _form(1, grid, (ey @ r - r @ ey, r @ ex - ex @ r), ANTIHERMITIAN)
    cases = [(wedge_action(e, f), wedge_compose(e, f) - wedge_compose(f, e)),
             (wedge_action(e, w), wedge_compose(e, w) + wedge_compose(w, e)),
             (curvature(Connection(e)) - exterior_d(e), wedge_compose(e, e)),
             (wedge_action_adjoint(e, k), adjoint)]
    for got, want in cases:
        assert got.degree == want.degree
        assert _rel_gap(got, want) <= 1e-14
        if m > 1:  # the rank-2 and 3 kernels keep brackets of exact anti-Hermitian values exact
            assert all(np.array_equal(c, -dagger(c)) for c in got.comps)


def test_wedge_action_refuses_a_form_of_another_grid_or_rank():
    # a scalar form commutes with every matrix, so its action would be zero
    grid = TorusGrid(16)
    rng = np.random.default_rng(90)
    e = random_form(rng, grid, 1, 2)
    alpha = scalar_form(grid, 1, random_fourier_scalar(rng, grid), random_fourier_scalar(rng, grid))
    for w in (alpha, scalar_form(grid, 0, random_fourier_scalar(rng, grid)),
              random_form(rng, TorusGrid(8), 0, 2), random_form(rng, grid, 0, 3)):
        with pytest.raises(ValueError, match="mismatched grid or rank"):
            wedge_action(e, w)


def test_wedge_action_adjoint_validation():
    grid = TorusGrid(8)
    with pytest.raises(ValueError):
        wedge_action_adjoint(zero_form(grid, 2, 2), zero_form(grid, 2, 2))
    bad = MatrixForm(2, grid, (np.ones((8, 8, 2, 2)),))
    with pytest.raises(ValueError):
        wedge_action_adjoint(zero_form(grid, 1, 2), bad)


def test_ym_functional_values():
    grid = TorusGrid(64)
    assert yang_mills_functional(zero_connection(grid, 2)) == 0.0
    conn = _sine_dy_connection(grid, E1)
    # the discrete value is (sin(2 pi h)/h)^2 exactly; it converges to 4 pi^2
    disc = (np.sin(2.0 * np.pi * grid.h) / grid.h) ** 2
    ym = yang_mills_functional(conn)
    assert ym == pytest.approx(disc, rel=1e-10)
    assert ym == pytest.approx(4.0 * np.pi ** 2, rel=5e-3)
    err_64 = abs(ym - 4.0 * np.pi ** 2)
    grid32 = TorusGrid(32)
    err_32 = abs(yang_mills_functional(_sine_dy_connection(grid32, E1))
                 - 4.0 * np.pi ** 2)
    assert 3.6 <= err_32 / err_64 <= 4.4


def test_ym_residual_vanishes_on_closed_constant_potentials():
    grid = TorusGrid(32)
    assert l2_norm(yang_mills_residual(zero_connection(grid, 2))) == 0.0
    for lam in (0.5, 1.0, 2.0):
        conn = Connection(constant_form(grid, 1, np.pi * (E1 + lam * E2),
                                        np.zeros((2, 2))))
        assert l2_norm(yang_mills_residual(conn)) < 1e-10
    # closed but non-constant: pi dx + d(f) in a single algebra direction
    rng = np.random.default_rng(27)
    f = scalar_form(grid, 0, random_fourier_scalar(rng, grid))
    alpha = exterior_d(f)
    closed = scalar_form(grid, 1,
                         np.pi + alpha.comps[0][:, :, 0, 0].real,
                         alpha.comps[1][:, :, 0, 0].real)
    conn = Connection(tensor_form(closed, E1 + 0.5 * E2))
    assert l2_norm(yang_mills_residual(conn)) < 1e-10


def test_ym_residual_two_paths_agree():
    grid = TorusGrid(32)
    rng = np.random.default_rng(28)
    for _ in range(5):
        conn = Connection(random_form(rng, grid, 1, 2, amp=0.7))
        diff = yang_mills_residual(conn) - yang_mills_residual_covariant(conn)
        assert l2_norm(diff) < 1e-10


def test_first_variation_matches_pairing():
    grid = TorusGrid(32)
    rng = np.random.default_rng(29)
    eps = 1e-5
    for _ in range(10):
        e = random_form(rng, grid, 1, 2, amp=0.8)
        b = random_form(rng, grid, 1, 2, amp=0.8)
        conn = Connection(e)
        fd = (yang_mills_functional(Connection(e + eps * b))
              - yang_mills_functional(Connection(e + (-eps) * b))) / (2.0 * eps)
        analytic = 2.0 * l2_inner(covariant_d(conn, b), curvature(conn))
        assert fd == pytest.approx(analytic, rel=1e-6)


def test_gauge_transform_identity_and_validation():
    grid = TorusGrid(16)
    rng = np.random.default_rng(30)
    conn = Connection(random_form(rng, grid, 1, 2))
    g_id = np.tile(np.eye(2, dtype=complex), (16, 16, 1, 1))
    out = gauge_transform(conn, g_id)
    assert (out.potential - conn.potential).max_abs() == 0.0
    with pytest.raises(ValueError):
        gauge_transform(conn, 2.0 * g_id)
    g_nan = g_id.copy()
    g_nan[2, 3, 0, 0] = np.nan
    with pytest.raises(ValueError):
        gauge_transform(conn, g_nan)


def test_gauge_transform_takes_dg_from_the_one_exterior_derivative(monkeypatch):
    # the central stencil lives in forms: dG is exterior_d of G as a 0-form
    grid = TorusGrid(16)
    rng = np.random.default_rng(36)
    conn = Connection(random_form(rng, grid, 1, 2, amp=0.6))
    g = exp_antihermitian(random_form(rng, grid, 0, 2, amp=0.2).comps[0])
    calls = []

    def counting(w):
        calls.append(w.degree)
        return exterior_d(w)

    monkeypatch.setattr(gauge, "exterior_d", counting)
    gauge_transform(conn, g)
    assert calls == [0]


def test_pure_gauge_field_is_flat_to_second_order():
    norms = []
    for n in (32, 64):
        grid = TorusGrid(n)
        x, y = grid.nodes()
        theta = 0.3 * np.sin(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y)
        g = exp_antihermitian(theta[..., None, None] * E1)
        conn = gauge_transform(zero_connection(grid, 2), g)
        assert conn.potential.max_abs() > 0.1  # a genuinely nonzero potential
        norms.append(l2_norm(curvature(conn)))
    assert norms[0] < 0.1
    assert 3.2 <= norms[0] / norms[1] <= 4.8


def test_ym_gauge_invariance():
    grid = TorusGrid(64)
    rng = np.random.default_rng(31)
    e = random_form(rng, grid, 1, 2, kmax=1, amp=0.6)
    theta = random_form(rng, grid, 0, 2, kmax=1, amp=0.15)
    g = exp_antihermitian(theta.comps[0])
    conn = Connection(e)
    ym0 = yang_mills_functional(conn)
    transformed = gauge_transform(conn, g)
    assert yang_mills_functional(transformed) == pytest.approx(ym0, rel=5e-4)
    # curvature conjugates: K' ~ G K G^H up to the O(h^2) derivative error
    k0 = curvature(conn)
    k1 = curvature(transformed)
    conj = MatrixForm(2, grid, (g @ k0.comps[0] @ dagger(g),), ANTIHERMITIAN)
    assert l2_norm(k1 - conj) / l2_norm(k0) < 5e-3


def _planes_contiguous(a):
    return all(a[..., i, j].flags.c_contiguous
               for i in range(a.shape[-2]) for j in range(a.shape[-1]))


@pytest.mark.parametrize("m", (2, 3))
def test_gauge_operators_keep_plane_major_and_ignore_the_layout(m):
    grid = TorusGrid(16)
    rng = np.random.default_rng(60 + m)
    e = random_form(rng, grid, 1, m, kmax=1, amp=0.6)
    g = exp_antihermitian(random_form(rng, grid, 0, m, kmax=1, amp=0.15).comps[0])
    node_e = _form(1, grid, tuple(np.ascontiguousarray(c) for c in e.comps), ANTIHERMITIAN)
    node_g = np.ascontiguousarray(g)
    assert not _planes_contiguous(node_e.comps[0]) and not _planes_contiguous(node_g)
    ops = {
        "curvature": lambda e, g: curvature(Connection(e)),
        "residual": lambda e, g: yang_mills_residual(Connection(e)),
        "residual_covariant": lambda e, g: yang_mills_residual_covariant(Connection(e)),
        "gauge_transform": lambda e, g: gauge_transform(Connection(e), g).potential,
    }
    for name, op in ops.items():
        got = op(e, g)
        assert all(_planes_contiguous(c) for c in got.comps), name
        for c, c_node in zip(got.comps, op(node_e, node_g).comps):
            assert np.array_equal(c, c_node), name
    # a node-major gauge field is reordered once, at the gauge transform
    moved = gauge_transform(Connection(e), node_g).potential
    assert all(_planes_contiguous(c) for c in moved.comps)
    want = gauge_transform(Connection(e), g).potential
    assert all(np.array_equal(c, c0) for c, c0 in zip(moved.comps, want.comps))


def test_residual_report_record():
    grid = TorusGrid(16)
    rep = residual_report(zero_connection(grid, 2))
    assert rep["flat"] is True
    assert rep["ym_value"] == 0.0
    assert set(rep) == {"ym_value", "residual_l2", "residual_covariant_l2",
                        "curvature_l2", "flat"}


# A connection is saved as the record of its potential and loaded by Connection.
def test_connection_record_roundtrip():
    grid = TorusGrid(16)
    rng = np.random.default_rng(32)
    conn = Connection(random_form(rng, grid, 1, 2))
    back = Connection(form_from_json(form_to_json(conn.potential)))
    for a, b in zip(conn.potential.comps, back.potential.comps):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("n, m", ((9, 3), (8, 1)))
def test_connection_record_round_trips_through_json_text_bit_for_bit(n, m):
    conn = Connection(random_form(np.random.default_rng(34 + m), TorusGrid(n), 1, m))
    rec = form_to_record(conn.potential)
    assert all(isinstance(c, str) for c in rec["components"])
    legacy = {**rec, "components": [_entry_pairs(c) for c in conn.potential.comps]}
    # an older connection record nests the potential's record under "potential"
    older = {"grid": n, "m": m, "potential": legacy}
    for back in (Connection(form_from_json(json.dumps(rec))),
                 Connection(form_from_json(json.dumps(legacy))),
                 Connection(form_from_record(json.loads(json.dumps(older))["potential"]))):
        assert (back.grid, back.m, back.potential.value_class) == (conn.grid, m, ANTIHERMITIAN)
        for a, b in zip(conn.potential.comps, back.potential.comps):
            assert np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                                  np.ascontiguousarray(b).view(np.uint64))


def test_connection_record_rejects_hermitian_values():
    grid = TorusGrid(8)
    herm = form_to_json(MatrixForm(1, grid, (np.ones((8, 8, 2, 2)), np.zeros((8, 8, 2, 2)))))
    assert json.loads(herm)["value_class"] == GENERAL
    with pytest.raises(ValueError, match="connection potential must carry anti-Hermitian"):
        Connection(form_from_json(herm))


def test_validated_connection_is_never_rescanned(monkeypatch):
    grid = TorusGrid(16)
    rng = np.random.default_rng(33)
    conn = Connection(random_form(rng, grid, 1, 2, amp=0.8))
    eta = random_form(rng, grid, 0, 2)
    g = exp_antihermitian(random_form(rng, grid, 0, 2, amp=0.2).comps[0])
    calls = []

    def counting(a):
        calls.append(1)
        return antihermitian_defect(a)

    for name in ("algebra", "forms", "gauge", "curves"):
        module = getattr(gaugecalc, name)
        if hasattr(module, "antihermitian_defect"):
            monkeypatch.setattr(module, "antihermitian_defect", counting)
    k = curvature(conn)
    covariant_d(conn, eta)
    codifferential(conn, k)
    yang_mills_residual(conn)
    yang_mills_residual_covariant(conn)
    gauge_transform(conn, g)
    assert calls == []


def test_antihermitian_tags_stay_true():
    # operators tag without checking; the values must still pass the check
    grid = TorusGrid(16)
    rng = np.random.default_rng(34)
    conn = Connection(random_form(rng, grid, 1, 2, amp=0.8))
    eta = random_form(rng, grid, 0, 2)
    om1 = random_form(rng, grid, 1, 2)
    g = exp_antihermitian(random_form(rng, grid, 0, 2, amp=0.2).comps[0])
    k = curvature(conn)
    outputs = (k, covariant_d(conn, eta), covariant_d(conn, om1),
               codifferential(conn, k), codifferential(conn, om1),
               wedge_action(conn.potential, om1), wedge_action_adjoint(conn.potential, k),
               yang_mills_residual(conn), yang_mills_residual_covariant(conn),
               hodge_star(k),
               gauge_transform(conn, g).potential)
    for w in outputs:
        assert w.value_class == ANTIHERMITIAN
        assert max(antihermitian_defect(c) for c in w.comps) <= 1e-12


def test_flatness_guards_share_require_flat():
    # the guards of the central complex share require_flat; the harmonic count,
    # which runs on links, refuses by the largest plaquette defect of those links
    grid = TorusGrid(16)
    conn = _sine_dy_connection(grid, E1)
    kn = l2_norm(curvature(conn))
    assert kn > FLAT_TOL
    jets = curve_jets(ConnectionCurve(lambda t: t * constant_form(grid, 1, E1, E2)))
    for guarded in (lambda: ym_curve_report(jets, conn),
                    lambda: require_flat(conn, "this check")):
        with pytest.raises(ValueError, match="curvature norm") as info:
            guarded()
        assert f"{kn:.3e}" in str(info.value) and f"{FLAT_TOL:.1e}" in str(info.value)
    ux, uy = gauge.links(conn)
    defect = np.abs(ux @ np.roll(uy, -1, axis=0) - uy @ np.roll(ux, -1, axis=1)).max()
    assert defect > FLAT_TOL
    with pytest.raises(ValueError, match="plaquette defect") as info:
        harmonic_space_dim(conn, 1)
    assert f"{defect:.3e}" in str(info.value) and f"{FLAT_TOL:.1e}" in str(info.value)
    require_flat(zero_connection(grid, 2), "the zero connection")


def test_connection_record_refuses_a_record_that_is_not_a_mapping():
    with pytest.raises(ValueError, match="form record must be a mapping"):
        Connection(form_from_json("5"))


@pytest.mark.parametrize("bad", (None, 7))
def test_connection_record_refuses_a_potential_that_is_not_a_mapping(bad):
    # an older connection record loads through the record of its potential
    older = {"grid": 8, "m": 2, "potential": bad}
    with pytest.raises(ValueError, match="form record must be a mapping"):
        Connection(form_from_record(older["potential"]))
