import numpy as np
import pytest

import gaugecalc
from gaugecalc.algebra import (E1, E2, E3, antihermitian_defect, bracket,
                               dagger, exp_antihermitian)
from gaugecalc.forms import (ANTIHERMITIAN, GENERAL, MatrixForm, TorusGrid,
                             constant_form, exterior_d, form_to_record,
                             hodge_star, l2_inner, l2_norm, scalar_form,
                             tensor_form, wedge_compose, zero_form)
from gaugecalc.curves import ConnectionCurve, curve_jets, ym_curve_report
from gaugecalc.gauge import (FLAT_TOL, Connection, codifferential,
                             connection_from_record, connection_to_record,
                             covariant_d, curvature, gauge_transform,
                             laplacian_apply, require_flat, residual_report,
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
        Connection(zero_form(grid, 1, 2, value_class="general"))


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


def test_laplacian_cases():
    grid = TorusGrid(32)
    conn = zero_connection(grid, 2)
    # constants are harmonic
    assert laplacian_apply(conn, constant_form(grid, 0, E2)).max_abs() == 0.0
    # discrete plane-wave eigenvalue (sin(2 pi h)/h)^2
    x, _ = grid.nodes()
    w = tensor_form(scalar_form(grid, 0, np.sin(2.0 * np.pi * x)), E1)
    lw = laplacian_apply(conn, w)
    lam = (np.sin(2.0 * np.pi * grid.h) / grid.h) ** 2
    assert (lw - lam * w).max_abs() < 1e-10
    # the wide stencil carries a (2 pi h)^2 / 3 relative defect, 1.3% at N = 32
    assert lam == pytest.approx((2.0 * np.pi) ** 2, rel=2e-2)
    # constant-coefficient 1-forms are harmonic
    for comps in ((E3, np.zeros((2, 2))), (np.zeros((2, 2)), E3)):
        one = constant_form(grid, 1, *comps)
        assert laplacian_apply(conn, one).max_abs() == 0.0


def test_residual_report_record():
    grid = TorusGrid(16)
    rep = residual_report(zero_connection(grid, 2))
    assert rep["flat"] is True
    assert rep["ym_value"] == 0.0
    assert set(rep) == {"ym_value", "residual_l2", "residual_covariant_l2",
                        "curvature_l2", "flat", "flat_tol"}


def test_connection_record_roundtrip():
    grid = TorusGrid(16)
    rng = np.random.default_rng(32)
    conn = Connection(random_form(rng, grid, 1, 2))
    back = connection_from_record(connection_to_record(conn))
    for a, b in zip(conn.potential.comps, back.potential.comps):
        assert np.array_equal(a, b)


def test_connection_record_rejects_hermitian_values():
    grid = TorusGrid(8)
    rec = connection_to_record(zero_connection(grid, 2))
    herm = form_to_record(MatrixForm(1, grid, (np.ones((8, 8, 2, 2)), np.zeros((8, 8, 2, 2)))))
    assert herm["value_class"] == GENERAL
    with pytest.raises(ValueError):
        connection_from_record({**rec, "potential": herm})


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
               hodge_star(k), laplacian_apply(conn, om1),
               gauge_transform(conn, g).potential)
    for w in outputs:
        assert w.value_class == ANTIHERMITIAN
        assert max(antihermitian_defect(c) for c in w.comps) <= 1e-12


def test_flatness_guards_share_require_flat():
    grid = TorusGrid(16)
    conn = _sine_dy_connection(grid, E1)
    kn = l2_norm(curvature(conn))
    assert kn > FLAT_TOL
    jets = curve_jets(ConnectionCurve(lambda t: t * constant_form(grid, 1, E1, E2)))
    for guarded in (lambda: harmonic_space_dim(conn, 1), lambda: ym_curve_report(jets, conn),
                    lambda: require_flat(conn, "this check")):
        with pytest.raises(ValueError, match="curvature norm") as info:
            guarded()
        assert f"{kn:.3e}" in str(info.value) and f"{FLAT_TOL:.1e}" in str(info.value)
    require_flat(conn, "a looser check", flat_tol=2.0 * kn)
    require_flat(zero_connection(grid, 2), "the zero connection")
