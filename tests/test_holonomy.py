import cmath

import numpy as np
import pytest

from gaugecalc.algebra import E1, E2, E3, dagger, inner, mat_exp
from gaugecalc.forms import TorusGrid, constant_form, scalar_form, tensor_form
from gaugecalc.gauge import Connection, zero_connection
from gaugecalc import holonomy
from gaugecalc.holonomy import (AnalyticTorusPotential, GaugeConjugatedPotential,
                                GridPotential, MeromorphicPotential,
                                aharonov_bohm_monodromy, aharonov_casher_phase,
                                circle_path, concat_paths,
                                monodromy_representation, parallel_transport,
                                reverse_path, segment_path, torus_circle,
                                torus_loop, wilson_loop, wong_evolve)

ZERO2 = np.zeros((2, 2), dtype=complex)


def _const_potential(ax_mat, ay_mat=None):
    ay_mat = ZERO2 if ay_mat is None else ay_mat
    return AnalyticTorusPotential(lambda x, y: ax_mat, lambda x, y: ay_mat, 2)


def test_zero_potential_transports_to_identity():
    grid = TorusGrid(16)
    g = parallel_transport(zero_connection(grid, 2), torus_loop((1, 0)), 200)
    assert np.max(np.abs(g - np.eye(2))) < 1e-14


def test_constant_potential_closed_form():
    # E = pi dx x e1 around the x generator: g = exp(-pi i sigma1) = -Id
    grid = TorusGrid(32)
    conn = Connection(constant_form(grid, 1, np.pi * E1, ZERO2))
    g = parallel_transport(conn, torus_loop((1, 0)), 1000)
    assert np.max(np.abs(g + np.eye(2))) < 1e-8
    # same through the analytic route
    g2 = parallel_transport(_const_potential(np.pi * E1), torus_loop((1, 0)), 1000)
    assert np.max(np.abs(g2 + np.eye(2))) < 1e-10


def test_transport_is_fourth_order():
    pot = _const_potential(0.8 * E1 + 0.3 * E2)
    loop = torus_loop((1, 0))
    oracle = mat_exp(-(0.8 * E1 + 0.3 * E2))
    e1 = np.max(np.abs(parallel_transport(pot, loop, 100) - oracle))
    e2 = np.max(np.abs(parallel_transport(pot, loop, 200) - oracle))
    assert e1 / e2 >= 14.0


def test_transport_unitarity_and_reversal():
    pot = _const_potential(0.8 * E1 + 0.3 * E2, 0.2 * E3)
    loop = torus_circle((0.4, 0.6), 0.25, 1)
    g = parallel_transport(pot, loop, 1000)
    assert np.max(np.abs(dagger(g) @ g - np.eye(2))) < 1e-8
    grev = parallel_transport(pot, reverse_path(loop), 1000)
    assert np.max(np.abs(grev @ g - np.eye(2))) < 1e-8


def test_transport_rejects_too_few_steps():
    grid = TorusGrid(16)
    with pytest.raises(ValueError):
        parallel_transport(zero_connection(grid, 2), torus_loop((1, 0)), 50)


def test_transport_refuses_more_than_max_steps_before_allocating(monkeypatch):
    def refuse(potential, path, steps):
        raise AssertionError("pole clearance sampled for an oversized transport")

    monkeypatch.setattr(holonomy, "_require_pole_clearance", refuse)
    pot = MeromorphicPotential(lambda z: np.array([[-0.5 / z]], dtype=complex), (0j,), 1)
    with pytest.raises(ValueError, match=str(holonomy.MAX_STEPS)):
        parallel_transport(pot, circle_path(0j, 1.0, 1), holonomy.MAX_STEPS + 1)
    # the default step count grows with the winding number
    with pytest.raises(ValueError, match=str(holonomy.MAX_STEPS)):
        aharonov_bohm_monodromy(0.5, 10 ** 9)


def test_grid_potential_interpolation_consistency():
    # a grid-sampled smooth potential transports close to its analytic twin
    grid = TorusGrid(64)
    x, _ = grid.nodes()
    prof = scalar_form(grid, 1, np.zeros((64, 64)), np.sin(2.0 * np.pi * x))
    conn = Connection(tensor_form(prof, E1))
    pot = AnalyticTorusPotential(lambda xx, yy: ZERO2,
                                 lambda xx, yy: np.sin(2.0 * np.pi * xx) * E1, 2)
    loop = torus_circle((0.5, 0.5), 0.3, 1)
    g_grid = parallel_transport(GridPotential(conn), loop, 1000)
    g_exact = parallel_transport(pot, loop, 1000)
    assert np.max(np.abs(g_grid - g_exact)) < 5e-3  # bilinear interpolation floor


def test_wilson_loop_requires_closed_path():
    grid = TorusGrid(16)
    seg = segment_path((0.0, 0.0), (0.5, 0.0))
    with pytest.raises(ValueError):
        wilson_loop(zero_connection(grid, 2), seg)


def test_wilson_loop_values():
    grid = TorusGrid(16)
    _, tr = wilson_loop(zero_connection(grid, 2), torus_loop((1, 0)), 200)
    assert abs(tr - 2.0) < 1e-12
    conn = Connection(constant_form(grid, 1, np.pi * E1, ZERO2))
    _, tr2 = wilson_loop(conn, torus_loop((1, 0)), 1000)
    assert abs(tr2 + 2.0) < 1e-8


def test_wilson_loop_gauge_invariance():
    base = _const_potential(np.pi * E1)

    def gmap(x, y):
        return mat_exp(0.4 * np.sin(2.0 * np.pi * x) * E2)

    def dgmap(x, y):
        gx = 0.4 * 2.0 * np.pi * np.cos(2.0 * np.pi * x) * (E2 @ gmap(x, y))
        return gx, ZERO2

    conj = GaugeConjugatedPotential(base, gmap, dgmap)
    _, tr0 = wilson_loop(base, torus_loop((1, 0)), 1000)
    _, tr1 = wilson_loop(conj, torus_loop((1, 0)), 1000)
    assert abs(tr1 - tr0) < 1e-6


def test_aharonov_bohm_values():
    rec = aharonov_bohm_monodromy(0.0, 1)
    assert abs(rec.monodromy - 1.0) < 1e-12
    rec = aharonov_bohm_monodromy(0.5, 1)
    assert abs(rec.monodromy + 1.0) < 1e-8
    for k, n in ((0.37, 2), (-1.2, -1), (0.37 + 0.0j, 1)):
        rec = aharonov_bohm_monodromy(k, n)
        assert abs(rec.monodromy - cmath.exp(2j * cmath.pi * k * n)) < 1e-8
    # flux identification k = -flux / (2 pi)
    rec = aharonov_bohm_monodromy(0.25, 1)
    assert rec.flux == pytest.approx(-2.0 * np.pi * 0.25)


def test_aharonov_bohm_complex_k():
    k = 0.3 + 0.2j
    rec = aharonov_bohm_monodromy(k, 1)
    assert abs(rec.monodromy - cmath.exp(2j * cmath.pi * k)) < 1e-8


def test_meromorphic_pole_guard():
    pot = MeromorphicPotential(lambda z: np.array([[1.0 / z]]), (0j,), 1)
    with pytest.raises(ValueError, match="pole"):
        parallel_transport(pot, circle_path(0j, 1e-7, 1), 1000)
    # a loop that passes through the pole is rejected as well
    with pytest.raises(ValueError, match="pole"):
        parallel_transport(pot, circle_path(1.0 + 0j, 1.0, 1), 1000)


def test_monodromy_representation_composition():
    k = 0.23
    pot = MeromorphicPotential(lambda z: np.array([[-k / z]], dtype=complex), (0j,), 1)
    loops = [circle_path(0j, 1.0, 1), circle_path(0j, 1.0, 2)]
    m1, m2 = monodromy_representation(pot, loops, 2000)
    assert abs(m1[0, 0] - cmath.exp(2j * cmath.pi * k)) < 1e-8
    assert abs(m2[0, 0] - cmath.exp(4j * cmath.pi * k)) < 1e-8
    # concatenation transports as the product of the factors
    both = parallel_transport(pot, concat_paths(loops[0], loops[0]), 2000)
    assert np.max(np.abs(both - m1 @ m1)) < 1e-6
    assert np.max(np.abs(m2 - m1 @ m1)) < 1e-6


def test_monodromy_diagonal_potential():
    k1, k2 = 0.31, -0.62
    pot = MeromorphicPotential(
        lambda z: np.array([[-k1 / z, 0.0], [0.0, -k2 / z]], dtype=complex), (0j,), 2)
    (g,) = monodromy_representation(pot, [circle_path(0j, 1.0, 1)], 1000)
    assert abs(g[0, 0] - cmath.exp(2j * cmath.pi * k1)) < 1e-8
    assert abs(g[1, 1] - cmath.exp(2j * cmath.pi * k2)) < 1e-8
    assert abs(g[0, 1]) < 1e-12 and abs(g[1, 0]) < 1e-12


def test_monodromy_zero_potential():
    pot = MeromorphicPotential(lambda z: np.zeros((2, 2), dtype=complex), (), 2)
    mats = monodromy_representation(pot, [circle_path(0j, 1.0, n) for n in (1, 2)], 200)
    for g in mats:
        assert np.max(np.abs(g - np.eye(2))) < 1e-12


def test_wong_constant_field_oracle():
    # A(xdot) = e3 constant, I0 = e1: I(t) = cos(2t) e1 + sin(2t) e2
    pot = _const_potential(E3)
    path = segment_path((0.0, 0.0), (1.0, 0.0))
    ts, traj = wong_evolve(pot, path, E1, 1000)
    worst = 0.0
    for t, i_t in zip(ts[::50], traj[::50]):
        expect = np.cos(2.0 * t) * E1 + np.sin(2.0 * t) * E2
        worst = max(worst, float(np.max(np.abs(i_t - expect))))
    assert worst < 1e-8


def test_wong_zero_field_is_constant():
    pot = _const_potential(ZERO2)
    _, traj = wong_evolve(pot, torus_loop((1, 0)), E2, 200)
    assert np.max(np.abs(traj[-1] - E2)) == 0.0


def test_wong_norm_conservation_and_ad_consistency():
    pot = _const_potential(0.8 * E1 + 0.3 * E2, 0.2 * E3)
    path = torus_circle((0.5, 0.5), 0.2, 1)
    ts, traj = wong_evolve(pot, path, E1, 1000)
    norms = np.array([inner(i, i) for i in traj])
    assert np.max(np.abs(norms - norms[0])) < 1e-9
    _, gtraj = parallel_transport(pot, path, 1000, trajectory=True)
    for g, i_t in zip(gtraj[::100], traj[::100]):
        assert np.max(np.abs(g @ E1 @ dagger(g) - i_t)) < 1e-7


def test_wong_flat_contractible_loop_trivial_shift():
    # flat potential pi dx x e1; a contractible loop gives a trivial shift
    pot = _const_potential(np.pi * E1)
    path = torus_circle((0.5, 0.5), 0.2, 1)
    _, traj = wong_evolve(pot, path, E2, 1000)
    assert np.max(np.abs(traj[-1] - E2)) < 1e-7


def test_wong_rejects_hermitian_spin():
    pot = _const_potential(E3)
    with pytest.raises(ValueError):
        wong_evolve(pot, torus_loop((1, 0)), np.eye(2, dtype=complex), 200)


def test_aharonov_casher_phase():
    rec = aharonov_casher_phase(0.0)
    assert np.max(np.abs(rec.phase - np.eye(2))) == 0.0
    rec = aharonov_casher_phase(1.0)
    assert np.max(np.abs(rec.phase + np.eye(2))) < 1e-12
    rec = aharonov_casher_phase(0.25)
    expect = np.diag([np.exp(1j * np.pi * 0.25), np.exp(-1j * np.pi * 0.25)])
    assert np.max(np.abs(rec.phase - expect)) < 1e-12
    assert rec.deviation < 1e-8


def test_path_constructors():
    loop = torus_loop((2, -1), (0.25, 0.5))
    assert loop.closed and loop.winding == (2, -1)
    p0 = loop.position(0.0)
    p1 = loop.position(1.0)
    assert np.max(np.abs((p1 - p0 + 0.5) % 1.0 - 0.5)) < 1e-12
    circ = circle_path(1j, 2.0, -3)
    assert circ.closed and circ.winding == -3
    assert abs(circ.position(0.0) - circ.position(1.0)) < 1e-12
    seg = segment_path(0j, 1.0 + 1j)
    assert not seg.closed
    with pytest.raises(ValueError):
        concat_paths(segment_path(0j, 1j), segment_path(5j, 6j))
