import numpy as np
import pytest

from gaugecalc import algebra, curves, forms
from gaugecalc.algebra import E1, E2, E3
from gaugecalc.curves import (ConnectionCurve, curve_jets, flat_curve_report,
                              gauge_orbit_curve, harmonic_projection,
                              su2_potential, su2_ym_conditions, torus_family,
                              torus_family_report, ym_curve_report)
from gaugecalc.forms import (ANTIHERMITIAN, MatrixForm, TorusGrid, constant_form,
                             exterior_d, l2_norm, scalar_form, tensor_form)
from gaugecalc.gauge import FLAT_TOL, Connection, zero_connection
from gaugecalc.suites import random_form, random_scalar_one_form

GRID = TorusGrid(32)


def _zero_scalar_one_form(grid):
    z = np.zeros((grid.n, grid.n))
    return scalar_form(grid, 1, z, z)


def test_curve_must_start_at_zero():
    pot = constant_form(GRID, 1, E1, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ConnectionCurve(lambda t: pot)


def test_curve_connection_rejects_hermitian_values():
    herm = MatrixForm(1, GRID, (np.ones((32, 32, 2, 2)), np.zeros((32, 32, 2, 2))))
    curve = ConnectionCurve(lambda t: t * herm)
    with pytest.raises(ValueError):
        curve.connection(0.5)


def test_su2_potential_rejects_complex_coefficients():
    z = np.zeros((32, 32))
    alpha = scalar_form(GRID, 1, 1j * np.ones((32, 32)), z)
    with pytest.raises(ValueError):
        su2_potential(alpha, _zero_scalar_one_form(GRID), _zero_scalar_one_form(GRID))


@pytest.mark.parametrize("m", (1, 2, 3))
def test_derived_forms_are_not_checked_again(m, monkeypatch):
    # random forms are anti-Hermitian by construction, and a curve's potentials carry the tag
    calls = []
    defect = algebra.antihermitian_defect
    monkeypatch.setattr(algebra, "antihermitian_defect", lambda a: calls.append(a) or defect(a))
    rng = np.random.default_rng(m)
    made = [random_form(rng, GRID, degree, m) for degree in (0, 1, 2)]
    curve = ConnectionCurve(lambda t: t * made[1])
    conn = curve.connection(0.5)
    assert calls == []
    assert conn.potential.value_class == ANTIHERMITIAN
    for w in made:  # the tags given without a check are true
        assert w.value_class == ANTIHERMITIAN
        MatrixForm(w.degree, GRID, w.comps, ANTIHERMITIAN)


def test_su2_potential_validates_only_in_its_tensor_forms(monkeypatch):
    rng = np.random.default_rng(44)
    coeffs = [random_scalar_one_form(rng, GRID) for _ in range(3)]
    inside, validated = [], []
    post_init = MatrixForm.__post_init__

    def validate(self):
        validated.append(bool(inside))
        post_init(self)

    def traced_tensor_form(*args):
        inside.append(1)
        try:
            return forms.tensor_form(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(MatrixForm, "__post_init__", validate)
    monkeypatch.setattr(curves, "tensor_form", traced_tensor_form)
    ansatz = su2_potential(*coeffs)
    assert validated == [True, True, True]
    assert ansatz.connection.potential.value_class == ANTIHERMITIAN


def test_jets_exact_on_quadratic_families():
    rng = np.random.default_rng(40)
    a = random_form(rng, GRID, 1, 2)
    b = random_form(rng, GRID, 1, 2)
    jets = curve_jets(ConnectionCurve(lambda t: t * a + (t * t) * b))
    assert (jets.e1 - a).max_abs() < 1e-12
    assert (jets.e2 - b).max_abs() < 1e-12
    # linear family: E2 = 0 and C_E = A^A
    jets_lin = curve_jets(ConnectionCurve(lambda t: t * a))
    assert jets_lin.e2.max_abs() < 1e-12
    from gaugecalc.forms import wedge_compose
    assert (jets_lin.c_e - wedge_compose(a, a)).max_abs() < 1e-10


def test_jets_t_small_validation():
    rng = np.random.default_rng(41)
    a = random_form(rng, GRID, 1, 2)
    curve = ConnectionCurve(lambda t: t * a)
    with pytest.raises(ValueError):
        curve_jets(curve, 0.2)
    with pytest.raises(ValueError):
        curve_jets(curve, 1e-7)


def test_jets_of_torus_family():
    # E(t) = t pi dx x (e1 + lam e2) - t^2 lam pi dx x e2 is quadratic in t, so
    # the stencils are exact, and its constant dx coefficients give C_E = 0
    lam = 0.7
    jets = curve_jets(ConnectionCurve(lambda t: torus_family(GRID, lam, t).connection.potential))
    zero = np.zeros((2, 2))
    assert (jets.e1 - constant_form(GRID, 1, np.pi * (E1 + lam * E2), zero)).max_abs() < 1e-9
    assert (jets.e2 - constant_form(GRID, 1, -lam * np.pi * E2, zero)).max_abs() < 1e-9
    assert jets.c_e.max_abs() == 0.0


def test_flat_curve_reports():
    pot = constant_form(GRID, 1, np.pi * E1, np.zeros((2, 2)))
    curve = ConnectionCurve(lambda t: t * pot)
    rep = flat_curve_report(curve, (0.0, 0.5, 1.0))
    assert rep["all_flat"] is True
    assert rep["c_e_l2"] < 1e-6
    # the record echoes the flatness tolerance and the jet step that ran
    assert (rep["flat_tol"], rep["t_small"]) == (FLAT_TOL, 1e-3)
    # colinear two-term family stays flat with vanishing obstruction
    pot2 = constant_form(GRID, 1, np.zeros((2, 2)), np.pi * E1)
    curve2 = ConnectionCurve(lambda t: t * pot + (t * t) * pot2)
    rep2 = flat_curve_report(curve2, (0.0, 0.3, 1.0))
    assert rep2["all_flat"] is True
    assert rep2["c_e_l2"] < 1e-6


def test_non_flat_curve_is_reported_not_hidden():
    x, _ = GRID.nodes()
    prof = scalar_form(GRID, 1, np.zeros((32, 32)), np.sin(2.0 * np.pi * x))
    pot = tensor_form(prof, E1)
    rep = flat_curve_report(ConnectionCurve(lambda t: t * pot), (0.0, 0.5, 1.0))
    assert rep["all_flat"] is False
    assert rep["rows"][0]["flat"] is True
    assert rep["rows"][1]["curvature_l2"] > 1e-3


def test_gauge_orbit_linear_jet_matches_discrete_differential():
    x, _ = GRID.nodes()
    a1 = tensor_form(scalar_form(GRID, 0, np.sin(2.0 * np.pi * x)), E1)
    a2 = tensor_form(scalar_form(GRID, 0, np.zeros((32, 32))), E1)
    jets = curve_jets(gauge_orbit_curve(a1, a2))
    # E1 = -dA1 with the same grid derivative, to stencil accuracy
    assert (jets.e1 + exterior_d(a1)).max_abs() < 1e-6
    # and the grid derivative itself converges to -2 pi cos(2 pi x) dx at O(h^2)
    cont = -2.0 * np.pi * np.cos(2.0 * np.pi * x)
    assert np.max(np.abs(jets.e1.comps[0] - cont[..., None, None] * E1)) < 5e-2


def test_gauge_orbit_invariants():
    x, y = GRID.nodes()
    a1 = tensor_form(scalar_form(GRID, 0, 0.01 * np.sin(2.0 * np.pi * x)), E1) \
        + tensor_form(scalar_form(GRID, 0, 0.01 * np.cos(2.0 * np.pi * y)), E2)
    a2 = tensor_form(scalar_form(GRID, 0, 0.01 * np.sin(2.0 * np.pi * y)), E3)
    jets = curve_jets(gauge_orbit_curve(a1, a2), t_small=1e-5)
    assert l2_norm(harmonic_projection(jets.e1)) < 1e-6
    assert l2_norm(jets.c_e) < 1e-6
    # the t^2 coefficient matches -dA2 - [A1, dA1]/2 up to the O(h^2)
    # product-rule defect of the grid derivative
    from gaugecalc.forms import wedge_compose
    da1 = exterior_d(a1)
    comm = 0.5 * (wedge_compose(a1, da1) - wedge_compose(da1, a1))
    expect = -1.0 * exterior_d(a2) - comm
    assert (jets.e2 - expect).max_abs() < 1e-4


def test_ym_curve_report_flags():
    base = zero_connection(GRID, 2)
    # constant closed family: every diagnostic vanishes
    pot = constant_form(GRID, 1, np.pi * E1, np.zeros((2, 2)))
    rep = ym_curve_report(curve_jets(ConnectionCurve(lambda t: t * pot)), base)
    assert rep["grad_e1_l2"] < 1e-10
    assert rep["delta_ce_l2"] < 1e-10
    assert rep["grad_star_ce_l2"] < 1e-10
    # closed-but-divergent profile: d E1 = 0 while delta E1 != 0 is reported
    x, _ = GRID.nodes()
    prof = scalar_form(GRID, 1, np.sin(2.0 * np.pi * x), np.zeros((32, 32)))
    pot2 = tensor_form(prof, E1)
    rep2 = ym_curve_report(curve_jets(ConnectionCurve(lambda t: t * pot2)), base)
    assert rep2["grad_e1_l2"] < 1e-10
    assert rep2["delta_e1_l2"] > 0.1


def test_ym_curve_report_needs_flat_base():
    x, _ = GRID.nodes()
    prof = scalar_form(GRID, 1, np.zeros((32, 32)), np.sin(2.0 * np.pi * x))
    non_flat = Connection(tensor_form(prof, E1))
    pot = constant_form(GRID, 1, np.pi * E1, np.zeros((2, 2)))
    jets = curve_jets(ConnectionCurve(lambda t: t * pot))
    with pytest.raises(ValueError):
        ym_curve_report(jets, non_flat)


def test_su2_potential_and_h():
    zeros = np.zeros((32, 32))
    alpha = scalar_form(GRID, 1, np.pi * np.ones((32, 32)), zeros)
    ansatz = su2_potential(alpha, _zero_scalar_one_form(GRID), _zero_scalar_one_form(GRID))
    assert all(np.max(np.abs(h)) == 0.0 for h in ansatz.h)
    x, _ = GRID.nodes()
    alpha2 = scalar_form(GRID, 1, zeros, np.sin(2.0 * np.pi * x))
    ansatz2 = su2_potential(alpha2, _zero_scalar_one_form(GRID), _zero_scalar_one_form(GRID))
    ref = (np.sin(2.0 * np.pi * GRID.h) / GRID.h) * np.cos(2.0 * np.pi * x)
    assert np.max(np.abs(ansatz2.h[0] - ref)) < 1e-12


def test_su2_conditions_colinear_constants_are_stationary():
    zeros = np.zeros((32, 32))
    alpha = scalar_form(GRID, 1, np.pi * np.ones((32, 32)), zeros)
    beta = 0.5 * alpha
    cond = su2_ym_conditions(su2_potential(alpha, beta, _zero_scalar_one_form(GRID)))
    assert max(cond["stationarity_l2"]) < 1e-12
    assert max(cond["wedge_l2"]) < 1e-12
    assert cond["general_residual_l2"] < 1e-12


def test_su2_conditions_report_nonstationary_profile():
    zeros = np.zeros((32, 32))
    x, _ = GRID.nodes()
    alpha = scalar_form(GRID, 1, zeros, np.sin(2.0 * np.pi * x))
    cond = su2_ym_conditions(su2_potential(alpha, _zero_scalar_one_form(GRID),
                                           _zero_scalar_one_form(GRID)))
    assert cond["stationarity_l2"][0] > 0.1  # *dh1 != 0: not stationary
    assert cond["cross_check_l2"] < 1e-8


def test_su2_two_paths_agree_on_proportional_fields():
    rng = np.random.default_rng(42)
    for _ in range(20):
        alpha = random_scalar_one_form(rng, GRID)
        lam_b, lam_c = rng.standard_normal(2)
        cond = su2_ym_conditions(su2_potential(alpha, lam_b * alpha, lam_c * alpha))
        assert cond["cross_check_l2"] < 1e-8


def test_stokes_mean_of_d():
    rng = np.random.default_rng(44)
    for _ in range(10):
        alpha = random_scalar_one_form(rng, GRID)
        mean = np.mean(exterior_d(alpha).comps[0][:, :, 0, 0])
        assert abs(complex(mean)) < 1e-12


def test_substituted_smooth_family_is_flat_and_stationary():
    # the ansatz built directly from the smooth form pi dx is flat and
    # stationary at every t, coincides with torus_family, and has endpoint
    # holonomy exp(-t pi (e1 + ...))
    zeros = np.zeros((32, 32))
    alpha_smooth = scalar_form(GRID, 1, np.pi * np.ones((32, 32)), zeros)
    lam = 1.0
    for t in (0.0, 0.3, 1.0):
        beta = (lam * t * (1.0 - t)) * alpha_smooth
        ansatz = su2_potential(t * alpha_smooth, beta, _zero_scalar_one_form(GRID))
        cond = su2_ym_conditions(ansatz)
        assert cond["general_residual_l2"] < 1e-10
        from gaugecalc.gauge import curvature
        assert l2_norm(curvature(ansatz.connection)) < 1e-10
        family = torus_family(GRID, lam, t).connection.potential
        assert l2_norm(family - ansatz.connection.potential) < 1e-12
    # holonomy of the endpoint around the x generator is exp(-pi e1) = -Id
    from gaugecalc.holonomy import AnalyticTorusPotential, parallel_transport, torus_loop
    pot = AnalyticTorusPotential(lambda x, y: np.pi * E1,
                                 lambda x, y: np.zeros((2, 2), dtype=complex), 2)
    g = parallel_transport(pot, torus_loop((1, 0)), 1000)
    assert np.max(np.abs(g + np.eye(2))) < 1e-8


def test_torus_family_report_structure():
    # the torus-curve oracle: every sample is flat and Yang-Mills, the t = 0 end
    # has trivial holonomy and the t = 1 end has x-holonomy exp(-pi e1) = -I
    ts = [i / 10 for i in range(11)]
    rep = torus_family_report(1.0, ts, n=32, steps=200)
    assert [r["t"] for r in rep.rows] == ts
    for row in rep.rows:
        assert row["residual_l2"] <= 1e-10
        assert row["curvature_l2"] <= 1e-10
        assert row["flat"] is True
        assert row["cross_check_l2"] < 1e-8
    eye = np.eye(2)
    holo = rep.endpoint_holonomies
    assert np.max(np.abs(holo["t0"]["x_generator"] - eye)) <= 1e-8
    assert np.max(np.abs(holo["t0"]["y_generator"] - eye)) <= 1e-8
    assert np.max(np.abs(holo["t1"]["x_generator"] + eye)) <= 1e-8
    assert np.max(np.abs(holo["t1"]["y_generator"] - eye)) <= 1e-8
    assert len(rep.csv_rows()) == 11
    record = rep.to_record()
    assert len(record["rows"]) == 11
    assert "seam" not in record
