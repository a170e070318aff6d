import cmath
import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from scipy.linalg import expm

from gaugecalc.algebra import (E1, E2, E3, dagger, exp_antihermitian, inner,
                               random_antihermitian, stack_matmul)
from gaugecalc.forms import (ANTIHERMITIAN, MatrixForm, TorusGrid, constant_form, scalar_form,
                            tensor_form)
from gaugecalc.gauge import Connection, zero_connection
from gaugecalc import holonomy
from gaugecalc.holonomy import (AnalyticTorusPotential, GaugeConjugatedPotential,
                                GridPotential, MeromorphicPotential, ParametricPath,
                                _pole_potential, _trajectory, aharonov_bohm_monodromy,
                                aharonov_casher_phase, circle_path, concat_paths,
                                parallel_transport, require_closed, reverse_path, segment_path,
                                torus_circle, torus_loop, wilson_loop, wong_evolve)

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
    oracle = expm(-(0.8 * E1 + 0.3 * E2))
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


@pytest.mark.parametrize("steps", (1000.9, 150.5, np.nan, np.inf, "1000", True))
def test_library_step_counts_refuse_non_integers(steps):
    # refused, not truncated, with a message that names the step count
    pot = _const_potential(E1)
    for run in (lambda: parallel_transport(pot, torus_loop((1, 0)), steps),
                lambda: _trajectory(pot, torus_loop((1, 0)), steps),
                lambda: wong_evolve(pot, torus_loop((1, 0)), E2, steps),
                lambda: aharonov_bohm_monodromy(0.5, 1, steps)):
        with pytest.raises(ValueError, match=f"step count must be a finite integer, got {steps!r}"):
            run()


def test_library_step_counts_accept_integral_floats():
    pot = _const_potential(0.8 * E1 + 0.3 * E2)
    loop = torus_loop((1, 0))
    g = parallel_transport(pot, loop, 1000.0)
    assert np.array_equal(g, parallel_transport(pot, loop, 1000))
    rec = aharonov_bohm_monodromy(0.5, 1, np.float64(150.0))
    assert rec.steps == 150 and rec == aharonov_bohm_monodromy(0.5, 1, 150)


class _Recording:
    """Wraps a potential and records the stacked positions of every `along` call."""

    def __init__(self, base):
        self.base = base
        self.m = base.m
        self.positions = []

    def along(self, pos, vel):
        self.positions.append(pos)
        return self.base.along(pos, vel)


class _Refusing:
    m = 2

    def along(self, pos, vel):
        raise AssertionError("potential sampled for an oversized transport")


def test_transport_refuses_more_than_max_steps_before_allocating(monkeypatch):
    with pytest.raises(ValueError, match=str(holonomy.MAX_STEPS)):
        parallel_transport(_Refusing(), torus_loop((1, 0)), holonomy.MAX_STEPS + 1)
    with pytest.raises(ValueError, match=str(holonomy.MAX_STEPS)):
        wong_evolve(_Refusing(), torus_loop((1, 0)), E1, holonomy.MAX_STEPS + 1)
    # the default step count grows with the winding number
    monkeypatch.setattr(MeromorphicPotential, "along", _Refusing.along)
    with pytest.raises(ValueError, match=str(holonomy.MAX_STEPS)):
        aharonov_bohm_monodromy(0.5, 10 ** 9)


@pytest.mark.parametrize("winding", (2, -2))
def test_ab_monodromy_refuses_over_the_cap_naming_steps_per_turn_and_winding(monkeypatch,
                                                                             winding):
    # the refusal names what the caller passed and their product, not only the total
    monkeypatch.setattr(MeromorphicPotential, "along", _Refusing.along)
    with pytest.raises(ValueError) as info:
        aharonov_bohm_monodromy(0.5, winding, 600000)
    message = str(info.value)
    assert str(holonomy.MAX_STEPS) in message and "600000 per turn" in message
    assert f"winding {winding}" in message and "= 1200000" in message


@pytest.mark.parametrize("winding", (3, -3, 0))
def test_ab_monodromy_refuses_fewer_than_min_steps_per_turn(monkeypatch, winding):
    # 50 steps per turn is refused, before sampling, even where the total
    # reaches MIN_STEPS; MIN_STEPS per turn is accepted
    assert aharonov_bohm_monodromy(0.5, winding, holonomy.MIN_STEPS).steps == (
        holonomy.MIN_STEPS * max(1, abs(winding)))
    monkeypatch.setattr(MeromorphicPotential, "along", _Refusing.along)
    with pytest.raises(ValueError) as info:
        aharonov_bohm_monodromy(0.5, winding, 50)
    message = str(info.value)
    assert f"at least {holonomy.MIN_STEPS} steps per turn" in message
    assert f"got 50 per turn at winding {winding}" in message


def test_max_steps_bounds_the_total_of_a_multi_piece_path():
    loop = torus_loop((1, 0))
    three = concat_paths(loop, loop, loop)
    steps = holonomy.MAX_STEPS // 3 + 1  # within the bound for one piece
    expect = f"{holonomy.MAX_STEPS} steps in all.* 3 piece"
    with pytest.raises(ValueError, match=expect):
        parallel_transport(_Refusing(), three, steps)
    with pytest.raises(ValueError, match=expect):
        _trajectory(_Refusing(), three, steps)
    with pytest.raises(ValueError, match=expect):
        wong_evolve(_Refusing(), three, E1, steps)


_TRANSPORTS = pytest.mark.parametrize("transport", (
    lambda pot, path, steps: parallel_transport(pot, path, steps),
    lambda pot, path, steps: _trajectory(pot, path, steps),
    lambda pot, path, steps: wong_evolve(pot, path, E1, steps)),
    ids=("final", "trajectory", "wong"))


def _assert_samples_each_node_once(transport, steps, pieces):
    # x = t along each piece, so the sampled x are the sampled times; each
    # piece samples its own 2 steps + 1 nodes, the junction once per side
    pot = _Recording(_const_potential(0.8 * E1 + 0.3 * E2))
    transport(pot, concat_paths(*[torus_loop((1, 0))] * pieces), steps)
    ts = np.concatenate([p[..., 0] for p in pot.positions])
    assert len(ts) == pieces * (2 * steps + 1)
    nodes = np.tile(np.linspace(0.0, 1.0, 2 * steps + 1), pieces)
    assert np.max(np.abs(ts - nodes)) < 1e-15


@_TRANSPORTS
@pytest.mark.parametrize("steps", (100, 257))
def test_transport_samples_each_node_once(transport, steps):
    _assert_samples_each_node_once(transport, steps, 1)


@_TRANSPORTS
@pytest.mark.parametrize("steps", (100, 257))
def test_transport_samples_each_node_of_each_piece_once(transport, steps):
    _assert_samples_each_node_once(transport, steps, 2)


def _counting(fn, calls):
    """`fn`, appending the shape of its first argument to `calls` at each call."""
    def counted(*args):
        calls.append(np.shape(args[0]))
        return fn(*args)
    return counted


@pytest.fixture
def no_per_point_samples(monkeypatch):
    def per_point(*args):
        raise AssertionError("a coefficient was sampled point by point")

    monkeypatch.setattr(holonomy, "_samples", per_point)


def _blocks(steps, m):
    """Blocks of a transport of `steps` steps per piece at rank m: one
    `along` call each, of _CHUNK * max(1, 32 // m^2) steps or what is left."""
    return math.ceil(steps / (holonomy._CHUNK * max(1, 32 // m ** 2)))


@_TRANSPORTS
@pytest.mark.parametrize("steps", (100, 257, 2500))
def test_stacked_coefficients_are_called_once_per_chunk(no_per_point_samples, transport, steps):
    # each piece makes one call per block of whole 128-step chunks (1024
    # steps at rank 2), and the calls see its 2 steps + 1 nodes
    blocks = _blocks(steps, 2)
    calls = []
    poles = _pole_potential((0.5j, -0.5j), (E1, 0.3 * E3))
    mero = dataclasses.replace(poles, coefficient=_counting(poles.coefficient, calls))
    transport(mero, _lasso_path(2.0 + 0j, 0.5j, 0.25), steps)
    assert len(calls) == 3 * blocks
    assert sum(map(math.prod, calls)) == 3 * (2 * steps + 1)

    def rotation(x, y):
        return exp_antihermitian(np.multiply.outer(x + y, E2))

    g_calls, dg_calls = [], []
    base = GridPotential(Connection(constant_form(TorusGrid(8), 1, 0.8 * E1, 0.3 * E2)))
    conj = GaugeConjugatedPotential(
        base, _counting(rotation, g_calls),
        _counting(lambda x, y: (E2 @ rotation(x, y),) * 2, dg_calls))
    transport(conj, concat_paths(torus_loop((1, 0)), torus_loop((0, 1))), steps)
    assert len(g_calls) == len(dg_calls) == 2 * blocks
    assert sum(map(math.prod, g_calls)) == 2 * (2 * steps + 1)


def test_aharonov_bohm_and_casher_sample_in_stacks(no_per_point_samples, monkeypatch):
    calls = []

    def counting_poles(poles, residues):
        pot = _pole_potential(poles, residues)
        return dataclasses.replace(pot, coefficient=_counting(pot.coefficient, calls))

    monkeypatch.setattr(holonomy, "_pole_potential", counting_poles)
    rec = aharonov_bohm_monodromy(0.37, 2, 150)  # 150 steps per turn, 300 in all
    assert abs(rec.monodromy - cmath.exp(2j * cmath.pi * 0.74)) < 1e-6
    assert len(calls) == _blocks(300, 1) == 1
    assert sum(map(math.prod, calls)) == 2 * 300 + 1
    calls.clear()
    rec = aharonov_bohm_monodromy(0.37, 3, 1777)  # 5331 steps in all: two blocks at rank 1
    assert abs(rec.monodromy - cmath.exp(2j * cmath.pi * 1.11)) < 1e-6
    assert len(calls) == _blocks(5331, 1) == 2
    assert sum(map(math.prod, calls)) == 2 * 5331 + 1
    calls.clear()
    assert aharonov_casher_phase(0.25, 1000).deviation < 1e-8
    assert len(calls) == _blocks(1000, 2) == 1
    assert sum(map(math.prod, calls)) == 2 * 1000 + 1


def _chunked_maps(potential, pieces, steps):
    """The one-step maps chunk by chunk, each chunk of up to 128 steps sampled
    in one `along` call: the reference that block sampling must match bit for bit."""
    h = 1.0 / steps
    for piece in pieces:
        end = None
        for i0 in range(0, steps, 128):
            i1 = min(i0 + 128, steps)
            first = 0 if end is None else 2 * i0 + 1
            ts = np.arange(first, 2 * i1 + 1) / (2 * steps)
            a = np.asarray(potential.along(piece.position(ts), piece.velocity(ts)), dtype=complex)
            if end is not None:
                a = np.concatenate((end, a))
            end = a[-1:]
            yield holonomy._step_maps(-a, h)


def _chunked_compose(d):
    """Deviation of (I + d[-1]) ... (I + d[0]) by the pairwise tree of one chunk."""
    while len(d) > 1:
        later, earlier = d[1::2], d[:-1:2]
        pairs = later + earlier + stack_matmul(later, earlier)
        d = pairs if len(d) % 2 == 0 else np.concatenate((pairs, d[-1:]))
    return d[0]


def _chunked_transports(potential, path, i0, steps):
    """The chunk-by-chunk oracle of `parallel_transport`, `_trajectory` and `wong_evolve`."""
    maps = list(_chunked_maps(potential, holonomy._pieces(path), steps))
    final = np.eye(potential.m, dtype=complex) + _chunked_compose(
        np.stack([_chunked_compose(d) for d in maps]))
    traj = [np.eye(potential.m, dtype=complex)]
    for dn in (d for chunk in maps for d in chunk):
        traj.append(traj[-1] + dn @ traj[-1])
    traj = np.array(traj)
    spins = traj.copy()
    for b in range(0, len(spins), holonomy._WONG_BLOCK):
        g = spins[b:b + holonomy._WONG_BLOCK]
        g[...] = g @ i0 @ np.linalg.inv(g)
    spins[0] = i0
    return final, traj, spins


def _same_bits(a, b):
    """Equal shapes and equal bytes, so -0.0 differs from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _random_grid(m, seed):
    rng = np.random.default_rng(seed)
    comps = tuple(random_antihermitian(rng, m) * rng.standard_normal((8, 8, 1, 1))
                  + random_antihermitian(rng, m) for _ in range(2))
    return GridPotential(Connection(MatrixForm(1, TorusGrid(8), comps, ANTIHERMITIAN)))


def _rotation(x, y):
    return exp_antihermitian(np.multiply.outer(np.sin(2 * np.pi * x) + y, E2))


_TRIANGLE = concat_paths(segment_path((0.1, 0.2), (0.6, 0.3)),
                         segment_path((0.6, 0.3), (0.4, 0.9)),
                         segment_path((0.4, 0.9), (0.1, 0.2)))
_RESIDUES3 = (random_antihermitian(np.random.default_rng(7), 3),
              random_antihermitian(np.random.default_rng(8), 3))
_BLOCK_CASES = {  # each builds (potential, path, spin at the potential's rank)
    # rank 2 grid potential on a contractible circle
    "grid-m2-circle": lambda: (_random_grid(2, 3), torus_circle((0.4, 0.6), 0.3, 1), E1),
    # rank 3 grid potential along a winding loop
    "grid-m3-loop": lambda: (_random_grid(3, 4), torus_loop((1, 2), (0.1, 0.3)),
                             _RESIDUES3[0]),
    # per-point analytic coefficients on a 3-piece path
    "analytic-m2-triangle": lambda: (AnalyticTorusPotential(
        lambda x, y: np.cos(2 * np.pi * y) * E1 + x * E3,
        lambda x, y: np.sin(2 * np.pi * x) * E2, 2), _TRIANGLE, E3),
    # the Aharonov-Bohm potential, rank 1, three turns
    "pole-m1-ab": lambda: (_pole_potential((0j,), ([[-0.37 - 0.1j]],)),
                           circle_path(0j, 1.0, 3), np.array([[1j]])),
    # two rank-3 poles, a 3-piece lasso around one of them
    "poles-m3-lasso": lambda: (_pole_potential((0.5j, -0.5j), _RESIDUES3),
                               _lasso_path(2.0 + 0j, 0.5j, 0.25), _RESIDUES3[1]),
    # a gauge change of frame of a grid potential
    "conjugated-m2-circle": lambda: (GaugeConjugatedPotential(
        _random_grid(2, 5), _rotation,
        lambda x, y: (2 * np.pi * np.cos(2 * np.pi * x)[..., None, None] * (E2 @ _rotation(x, y)),
                      E2 @ _rotation(x, y))), torus_circle((0.5, 0.5), 0.2, 2), E1),
}


@pytest.mark.parametrize("case", _BLOCK_CASES)
@pytest.mark.parametrize("steps", (100, 127, 128, 129, 1023, 1024, 1025, 5000))
def test_block_transports_keep_the_bits_of_chunk_by_chunk_transports(case, steps):
    # blocks regroup the sampling and the step maps, not the arithmetic: the
    # 128-step pairwise trees, the tree over them and every trajectory state
    # keep their bits, signed zeros included
    pot, path, i0 = _BLOCK_CASES[case]()
    final, traj, spins = _chunked_transports(pot, path, i0, steps)
    assert _same_bits(parallel_transport(pot, path, steps), final)
    assert _same_bits(_trajectory(pot, path, steps)[1], traj)
    assert _same_bits(wong_evolve(pot, path, i0, steps)[1], spins)


def test_transport_names_the_path_time_of_a_non_finite_node_on_a_later_piece():
    # the second piece runs y = t at x = 1; its first node with y > 0.3 is
    # t = 0.305, path time (1 + 0.305) / 2
    pot = AnalyticTorusPotential(lambda x, y: E1,
                                 lambda x, y: np.full((2, 2), np.nan) if y > 0.3 else E2, 2)
    path = concat_paths(torus_loop((1, 0)), torus_loop((0, 1), (1.0, 0.0)))
    with pytest.raises(ValueError, match=f"not finite at t = {(1 + 0.305) / 2}$"):
        parallel_transport(pot, path, 100)


def test_transport_names_the_first_non_finite_node():
    # x = t along this loop; nodes are j / 200, so the first with x > 0.3 is 0.305
    pot = AnalyticTorusPotential(lambda x, y: np.full((2, 2), np.nan) if x > 0.3 else E1,
                                 lambda x, y: ZERO2, 2)
    for run in (lambda: parallel_transport(pot, torus_loop((1, 0)), 100),
                lambda: wong_evolve(pot, torus_loop((1, 0)), E2, 100)):
        with pytest.raises(ValueError, match=r"not finite at t = 0\.305$"):
            run()


def test_transport_names_the_first_non_finite_node_of_a_later_block():
    # 3000 steps at rank 2 sample blocks of 1024 steps, nodes j / 6000; the
    # first with x > 0.6 is j = 3601, in the second block, and the third block
    # is never sampled
    seen = []

    def ax(x, y):
        seen.append(x)
        return np.full((2, 2), np.nan) if x > 0.6 else E1

    pot = AnalyticTorusPotential(ax, lambda x, y: ZERO2, 2)
    for run in (lambda: parallel_transport(pot, torus_loop((1, 0)), 3000),
                lambda: _trajectory(pot, torus_loop((1, 0)), 3000)):
        seen.clear()
        with pytest.raises(ValueError, match=f"not finite at t = {3601 / 6000}$"):
            run()
        assert len(seen) == 2 * 2048 + 1 and max(seen) == 4096 / 6000


def _counting_potential(ax, ay=lambda x, y: E3):
    """An analytic potential with coefficients `ax`, `ay`, and a record of the calls of each."""
    calls = {"ax": [], "ay": []}
    return AnalyticTorusPotential(_counting(ax, calls["ax"]), _counting(ay, calls["ay"]), 2), calls


@_TRANSPORTS
@pytest.mark.parametrize("steps", (100, 257))
@pytest.mark.parametrize("axis", (0, 1))
def test_a_loop_along_one_axis_samples_only_its_coefficient(transport, steps, axis):
    # the reverse runs at velocity -0.0 on the other axis, which is zero too
    winding = (1, 0) if axis == 0 else (0, 1)
    moved, still = ("ax", "ay") if axis == 0 else ("ay", "ax")
    loop = torus_loop(winding, (0.3, 0.6))
    back = reverse_path(loop)
    assert np.signbit(back.velocity(0.5)[1 - axis])
    for path, pieces in ((loop, 1), (back, 1), (concat_paths(loop, back), 2)):
        pot, calls = _counting_potential(lambda x, y: E1 * np.cos(x), lambda x, y: E2 * y)
        transport(pot, path, steps)
        assert len(calls[moved]) == pieces * (2 * steps + 1)
        assert calls[still] == []


@_TRANSPORTS
def test_a_circle_samples_both_coefficients(transport):
    pot, calls = _counting_potential(lambda x, y: E1 * x)
    transport(pot, torus_circle((0.4, 0.6), 0.25, 1), 100)
    assert len(calls["ax"]) == len(calls["ay"]) == 201


@_TRANSPORTS
def test_a_zero_length_path_samples_nothing_and_transports_to_identity(transport):
    pot, calls = _counting_potential(lambda x, y: E1)
    out = transport(pot, segment_path((0.3, 0.4), (0.3, 0.4)), 100)
    assert calls == {"ax": [], "ay": []}
    if isinstance(out, tuple):  # a trajectory: every state is the first
        out = out[1]
        assert np.array_equal(out, np.broadcast_to(out[0], out.shape))
    else:
        assert np.array_equal(out, np.eye(2))


def test_a_non_finite_coefficient_is_refused_only_on_an_axis_the_path_moves_along():
    nan = np.full((2, 2), np.nan)
    pot = AnalyticTorusPotential(lambda x, y: nan, lambda x, y: E2, 2)
    for loop in (torus_loop((1, 0)), reverse_path(torus_loop((1, 0)))):
        with pytest.raises(ValueError, match="potential sample is not finite at t = 0.0$"):
            parallel_transport(pot, loop, 100)
    # along y the x coefficient is never evaluated, so its NaN is not seen
    g = parallel_transport(pot, torus_loop((0, 1)), 100)
    assert np.array_equal(g, parallel_transport(_const_potential(ZERO2, E2), torus_loop((0, 1)),
                                                100))


def test_torus_potentials_skip_the_still_axis_bit_for_bit():
    # with a zero y velocity every potential returns vel_x times its x
    # coefficient alone, and a NaN y coefficient is never read
    rng = np.random.default_rng(11)
    comps = tuple(random_antihermitian(rng, 2) * rng.standard_normal((8, 8, 1, 1))
                  for _ in range(2))
    grid = GridPotential(Connection(MatrixForm(1, TorusGrid(8), comps, ANTIHERMITIAN)))
    pos = rng.uniform(-2.0, 2.0, (5, 2))
    vel = np.stack([rng.standard_normal(5), np.zeros(5)], axis=-1)
    full = grid.along(pos, np.stack([vel[:, 0], np.ones(5)], axis=-1))
    only_y = grid.along(pos, np.stack([np.zeros(5), np.ones(5)], axis=-1))
    x_part = grid.along(pos, vel)
    assert np.array_equal(x_part, vel[:, 0, None, None] * grid.along(pos, np.array([1.0, 0.0])))
    assert np.array_equal(x_part + only_y, full)
    grid._comps = np.stack((comps[0], np.full_like(comps[1], np.nan)))
    assert np.array_equal(grid.along(pos, vel), x_part)

    def gmap(x, y):
        return exp_antihermitian(np.multiply.outer(x, E2))

    def dgmap(x, y):
        return E2 @ gmap(x, y), np.full((2, 2), np.nan)

    conj = GaugeConjugatedPotential(_const_potential(E1, E3), gmap, dgmap)
    still = GaugeConjugatedPotential(_const_potential(E1, E3), gmap,
                                     lambda x, y: (dgmap(x, y)[0], ZERO2))
    assert np.isfinite(conj.along(pos, vel)).all()
    assert np.array_equal(conj.along(pos, vel), still.along(pos, vel))
    resting = conj.along(pos, np.zeros((5, 2)))
    assert resting.shape == (5, 2, 2) and not resting.any()


_PATHS = {
    "torus_loop": torus_loop((2, -1), (0.25, 0.5)),
    "torus_circle": torus_circle((0.4, 0.6), 0.25, -2),
    "circle_path": circle_path(1j, 2.0, 3),
    "segment_plane": segment_path(0j, 1.0 + 1j),
    "segment_torus": segment_path((0.1, 0.2), (0.7, -0.4)),
    "reverse": reverse_path(torus_circle((0.4, 0.6), 0.25, 1)),
    "concat": concat_paths(torus_loop((1, 0)), torus_loop((0, 1))),
}


@pytest.mark.parametrize("name", tuple(_PATHS))
def test_paths_take_arrays_of_times(name):
    ts = np.linspace(0.0, 1.0, 9)
    for fn in (f for piece in holonomy._pieces(_PATHS[name])
               for f in (piece.position, piece.velocity)):
        stacked = fn(ts)
        single = np.array([fn(float(t)) for t in ts])
        assert stacked.shape == single.shape
        assert np.max(np.abs(stacked - single)) <= 1e-15 * max(1.0, np.max(np.abs(single)))
        assert fn(ts.reshape(3, 3)).shape == ts.reshape(3, 3).shape + single.shape[1:]


def test_potentials_take_stacks_of_points():
    rng = np.random.default_rng(5)
    comps = tuple(random_antihermitian(rng, 2) * rng.standard_normal((8, 8, 1, 1))
                  for _ in range(2))
    grid = GridPotential(Connection(MatrixForm(1, TorusGrid(8), comps, ANTIHERMITIAN)))
    analytic = AnalyticTorusPotential(lambda x, y: np.sin(2.0 * np.pi * y) * E1,
                                      lambda x, y: np.cos(2.0 * np.pi * x) * E3, 2)
    conj = GaugeConjugatedPotential(
        analytic, lambda x, y: exp_antihermitian(np.multiply.outer(x, E2)),
        lambda x, y: (E2 @ exp_antihermitian(np.multiply.outer(x, E2)), ZERO2))
    pos, vel = rng.uniform(-2.0, 2.0, (4, 3, 2)), rng.standard_normal((4, 3, 2))
    for pot in (grid, analytic, conj):
        stacked = pot.along(pos, vel)
        assert stacked.shape == (4, 3, 2, 2)
        single = np.array([[pot.along(p, v) for p, v in zip(ps, vs)] for ps, vs in zip(pos, vel)])
        if pot is grid:  # the grid gather is the per-point formula, bit for bit
            assert np.array_equal(stacked, single)
        else:
            assert np.max(np.abs(stacked - single)) < 1e-14

    def coefficient(z):
        out = np.zeros(np.shape(z) + (2, 2), dtype=complex)
        out[..., 0, 0], out[..., 0, 1], out[..., 1, 1] = 1.0 / z, z, -1.0 / z
        return out

    mero = MeromorphicPotential(coefficient, (0j,), 2)
    z = pos[..., 0] + 1j * pos[..., 1]
    w = vel[..., 0] + 1j * vel[..., 1]
    single = np.array([[mero.along(a, b) for a, b in zip(za, wa)] for za, wa in zip(z, w)])
    assert np.max(np.abs(mero.along(z, w) - single)) < 1e-14


def test_pole_guard_names_the_first_point_near_a_pole():
    pot = MeromorphicPotential(lambda z: np.array([[1.0 / z]]), (3.0 + 0j, 1j), 1)
    zs = np.array([0.0, 1j + 1e-7, 3.0 + 2e-7, 1j])
    with pytest.raises(ValueError, match=r"pole at 1j: distance 1\.000e-07"):
        pot.along(zs, np.ones(4))


def test_pole_guard_checks_half_step_nodes_through_wrappers():
    # with 101 steps the closest approach, t = 1/2, is a half-step node; the
    # step ends stay at least 5e-3 from the pole
    steps = 101
    seg = segment_path(-1.0 + 5e-7j, 1.0 + 5e-7j)
    ends = np.array([seg.position(i / steps) for i in range(steps + 1)])
    assert np.min(np.abs(ends)) > 5e-3
    pot = MeromorphicPotential(lambda z: np.array([[1.0 / z]]), (0j,), 1)
    with pytest.raises(ValueError, match="pole at 0j"):
        parallel_transport(pot, seg, steps)
    with pytest.raises(ValueError, match="pole at 0j"):
        parallel_transport(_Recording(pot), seg, steps)


def test_grid_potential_matches_bilinear_reference():
    rng = np.random.default_rng(3)
    comps = [random_antihermitian(rng, 2) * rng.standard_normal((8, 8, 1, 1))
             + random_antihermitian(rng, 2) for _ in range(2)]
    pot = GridPotential(Connection(MatrixForm(1, TorusGrid(8), tuple(comps), ANTIHERMITIAN)))
    for x, y in ((0.0, 0.0), (0.3, 0.71), (0.99, -0.2), (2.125, 0.5), (1.0 - 1e-17, 0.0)):
        fx, fy = (x % 1.0) * 8, (y % 1.0) * 8
        j, l = int(fx), int(fy)
        tx, ty = fx - j, fy - l
        j1, l1 = (j + 1) % 8, (l + 1) % 8
        j, l = j % 8, l % 8
        expect = sum(v * ((1 - tx) * (1 - ty) * c[j, l] + tx * (1 - ty) * c[j1, l]
                          + (1 - tx) * ty * c[j, l1] + tx * ty * c[j1, l1])
                     for v, c in zip((0.7, -1.3), comps))
        assert np.array_equal(pot.along(np.array([x, y]), np.array([0.7, -1.3])), expect)


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
        return exp_antihermitian(np.multiply.outer(0.4 * np.sin(2.0 * np.pi * x), E2))

    def dgmap(x, y):
        gx = 0.4 * 2.0 * np.pi * np.cos(2.0 * np.pi * x)[..., None, None] * (E2 @ gmap(x, y))
        return gx, ZERO2

    conj = GaugeConjugatedPotential(base, gmap, dgmap)
    _, tr0 = wilson_loop(base, torus_loop((1, 0)), 1000)
    _, tr1 = wilson_loop(conj, torus_loop((1, 0)), 1000)
    assert abs(tr1 - tr0) < 1e-6


def test_gauge_conjugated_potential_refuses_a_non_unitary_frame():
    # G^H stands in for G^-1: with G = 2I the x-loop trace would read +2, not -2
    base = _const_potential(np.pi * E1)

    def frame(scale):
        return lambda x, y: scale * np.broadcast_to(np.eye(2), np.shape(x) + (2, 2))

    conj = GaugeConjugatedPotential(base, frame(2.0), lambda x, y: (ZERO2, ZERO2))
    with pytest.raises(ValueError, match=r"gauge map is not unitary: defect 3\.000e\+00"):
        wilson_loop(conj, torus_loop((1, 0)), 1000)
    near = GaugeConjugatedPotential(base, frame(1.0 + 1e-11), lambda x, y: (ZERO2, ZERO2))
    _, tr = wilson_loop(near, torus_loop((1, 0)), 1000)  # inside UNITARY_ATOL
    assert abs(tr + 2.0) < 1e-8


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


def test_aharonov_bohm_steps_count_per_turn():
    # 150 steps per turn around the twofold circle is one 300-step transport
    rec = aharonov_bohm_monodromy(0.37, 2, 150)
    g = parallel_transport(_pole_potential((0j,), ([[-0.37]],)), circle_path(0j, 1.0, 2), 300)
    assert rec == holonomy.MonodromyRecord(300, complex(g[0, 0]), -2.0 * np.pi * 0.37)


def test_aharonov_bohm_complex_k():
    k = 0.3 + 0.2j
    rec = aharonov_bohm_monodromy(k, 1)
    assert abs(rec.monodromy - cmath.exp(2j * cmath.pi * k)) < 1e-8


def test_meromorphic_pole_guard():
    pot = _pole_potential((0j,), ([[1.0]],))
    with pytest.raises(ValueError, match="pole"):
        parallel_transport(pot, circle_path(0j, 1e-7, 1), 1000)
    # a loop that passes through the pole is rejected as well
    with pytest.raises(ValueError, match="pole"):
        parallel_transport(pot, circle_path(1.0 + 0j, 1.0, 1), 1000)


def test_a_per_point_coefficient_is_refused_by_the_stacked_shape():
    # called with a stack of points, this coefficient returns (1, 1, S), which
    # broadcasts against the velocities instead of failing where it is built
    pot = MeromorphicPotential(lambda z: np.array([[1.0 / z]]), (0j,), 1)
    for run in (lambda: parallel_transport(pot, circle_path(0j, 1.0, 1), 100),
                lambda: _trajectory(pot, circle_path(0j, 1.0, 1), 100),
                lambda: wong_evolve(pot, circle_path(0j, 1.0, 1), np.array([[1j]]), 100)):
        with pytest.raises(ValueError, match=r"\(\.\.\., m, m\) like their points, "
                                             r"\(201, 1, 1\), got \(201, 1, 201\)"):
            run()


def test_monodromy_representation_composition():
    k = 0.23
    pot = _pole_potential((0j,), ([[-k]],))
    loops = [circle_path(0j, 1.0, 1), circle_path(0j, 1.0, 2)]
    # a path run after another composes on the left: T(p, then q) = T(q) T(p)
    m1, m2 = (wilson_loop(pot, loop, 2000)[0] for loop in loops)
    assert abs(m1[0, 0] - cmath.exp(2j * cmath.pi * k)) < 1e-8
    assert abs(m2[0, 0] - cmath.exp(4j * cmath.pi * k)) < 1e-8
    # concatenation transports as the product of the factors
    both = parallel_transport(pot, concat_paths(loops[0], loops[0]), 2000)
    assert np.max(np.abs(both - m1 @ m1)) < 1e-6
    assert np.max(np.abs(m2 - m1 @ m1)) < 1e-6


def test_monodromy_diagonal_potential():
    k1, k2 = 0.31, -0.62
    pot = _pole_potential((0j,), (np.diag([-k1, -k2]),))
    g, _ = wilson_loop(pot, circle_path(0j, 1.0, 1), 1000)
    assert abs(g[0, 0] - cmath.exp(2j * cmath.pi * k1)) < 1e-8
    assert abs(g[1, 1] - cmath.exp(2j * cmath.pi * k2)) < 1e-8
    assert abs(g[0, 1]) < 1e-12 and abs(g[1, 0]) < 1e-12


def _lasso_path(base, pole, radius):
    """From `base` straight to pole + radius, once around the pole, and back."""
    there = segment_path(base, pole + radius)
    return concat_paths(there, circle_path(pole, radius, 1), reverse_path(there))


def _lasso(pot, base, pole, radius, steps):
    return parallel_transport(pot, _lasso_path(base, pole, radius), steps)


def test_monodromy_around_a_simple_pole_with_commuting_residues():
    # for diagonal residues every sample commutes, so a loop around p1 alone
    # picks up exp(-2 pi i R1) whatever the other pole and the path to it
    r1 = np.diag([0.31 + 0.2j, -0.57])
    r2 = np.diag([1.3, 0.45 - 0.1j])
    p1 = 0.4 + 0.3j
    pot = _pole_potential((p1, -0.7 - 0.2j), (r1, r2))
    expect = np.diag(np.exp(-2j * np.pi * np.diag(r1)))
    assert np.max(np.abs(parallel_transport(pot, circle_path(p1, 0.5, 1), 2000) - expect)) < 1e-8
    assert np.max(np.abs(_lasso(pot, 2.0 + 0j, p1, 0.25, 2000) - expect)) < 1e-8


def test_lasso_transport_is_fourth_order():
    # each kink of the lasso is sampled from both sides, so it costs no order
    r1 = np.diag([0.31 + 0.2j, -0.57])
    r2 = np.diag([1.3, 0.45 - 0.1j])
    p1 = 0.4 + 0.3j
    pot = _pole_potential((p1, -0.7 - 0.2j), (r1, r2))
    expect = np.diag(np.exp(-2j * np.pi * np.diag(r1)))
    e1 = np.max(np.abs(_lasso(pot, 2.0 + 0j, p1, 0.25, 1000) - expect))
    e2 = np.max(np.abs(_lasso(pot, 2.0 + 0j, p1, 0.25, 2000) - expect))
    assert e1 / e2 >= 14.0


def test_local_monodromies_compose_to_the_enclosing_circle():
    # lassos from the base point 2 to the poles at +-i/2; the circle |z| = 2,
    # based at 2, is the upper lasso followed by the lower one, and traversing
    # `first` then `second` transports as g(second) g(first)
    r_up = np.array([[0.2, 0.5 - 0.1j], [0.3j, -0.35]])
    r_down = np.array([[-0.15 + 0.1j, 0.4], [-0.25, 0.3]])
    up, down = 0.5j, -0.5j
    pot = _pole_potential((up, down), (r_up, r_down))
    g_up = _lasso(pot, 2.0 + 0j, up, 0.25, 2000)
    g_down = _lasso(pot, 2.0 + 0j, down, 0.25, 2000)
    g_big = parallel_transport(pot, circle_path(0j, 2.0, 1), 2000)
    assert np.max(np.abs(g_big - g_down @ g_up)) < 1e-10
    # the residues do not commute, so the order of the factors matters
    assert np.max(np.abs(g_big - g_up @ g_down)) > 1e-2


def _noncommuting_poles():
    r_up = np.array([[0.2, 0.5 - 0.1j], [0.3j, -0.35]])
    r_down = np.array([[-0.15 + 0.1j, 0.4], [-0.25, 0.3]])
    return _pole_potential((0.5j, -0.5j), (r_up, r_down))


def test_concatenation_transports_as_the_product_of_its_parts():
    # T(a then b) = T(b) T(a) for two kinked lassos with non-commuting
    # monodromies: the pieces take the same steps either way
    pot = _noncommuting_poles()
    a = _lasso_path(2.0 + 0j, 0.5j, 0.25)
    b = _lasso_path(2.0 + 0j, -0.5j, 0.25)
    g_a, g_b = (wilson_loop(pot, loop, 500)[0] for loop in (a, b))
    assert np.max(np.abs(g_b @ g_a - g_a @ g_b)) > 1e-2
    both = parallel_transport(pot, concat_paths(a, b), 500)
    assert len(concat_paths(a, b)) == 6
    assert np.max(np.abs(both - g_b @ g_a)) < 1e-13


def test_multi_piece_trajectories_end_at_the_final_transport():
    pot = _noncommuting_poles()
    path = concat_paths(segment_path(2.0 + 0j, 1.0 + 1j), segment_path(1.0 + 1j, -1.0 + 0.2j))
    steps = 300
    ts, traj = _trajectory(pot, path, steps)
    assert traj.shape == (2 * steps + 1, 2, 2)
    assert np.array_equal(ts, np.linspace(0.0, 1.0, 2 * steps + 1))
    assert np.max(np.abs(traj[-1] - parallel_transport(pot, path, steps))) < 1e-13
    # the state at the junction is the transport along the first piece
    first = parallel_transport(pot, path[0], steps)
    assert np.max(np.abs(traj[steps] - first)) < 1e-13
    spin = np.array([[0.3j, 0.2 + 0.1j], [-0.2 + 0.1j, -0.3j]])
    ts_w, spins = wong_evolve(pot, path, spin, steps)
    assert spins.shape == (2 * steps + 1, 2, 2) and np.array_equal(ts_w, ts)


def test_wong_keeps_an_abelian_spin_at_complex_k():
    # at rank 1 the commutator vanishes, so I(t) = I0 although |g| = exp(-2 pi Im k t)
    k = 0.23 + 0.11j
    pot = _pole_potential((0j,), ([[-k]],))
    _, traj = wong_evolve(pot, circle_path(0j, 1.0, 1), np.array([[1j]]), 1000)
    assert np.max(np.abs(traj - 1j)) < 1e-14


def test_wong_conjugates_by_the_inverse_of_a_non_unitary_transport():
    pot = _noncommuting_poles()
    path = circle_path(0j, 1.0, 1)
    spin = np.array([[0.3j, 0.2 + 0.1j], [-0.2 + 0.1j, -0.3j]])
    ts, spins = wong_evolve(pot, path, spin, 400)
    ts_g, gtraj = _trajectory(pot, path, 400)
    assert np.array_equal(ts, ts_g)
    assert np.max(np.abs(spins - gtraj @ spin @ np.linalg.inv(gtraj))) < 1e-12
    # a similarity keeps the eigenvalues; conjugating by g^H would not
    # (the final spin has entries near 100, so its eigenvalues hold to about 1e-12 of that)
    eig = [sorted(np.linalg.eigvals(i), key=lambda v: v.imag) for i in (spins[-1], spin)]
    assert np.max(np.abs(np.subtract(*eig))) < 1e-10
    assert np.max(np.abs(spins[-1] - gtraj[-1] @ spin @ dagger(gtraj[-1]))) > 0.1


def test_monodromy_zero_potential():
    pot = MeromorphicPotential(lambda z: np.zeros((2, 2), dtype=complex), (), 2)
    mats = [wilson_loop(pot, circle_path(0j, 1.0, n), 200)[0] for n in (1, 2)]
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
    _, gtraj = _trajectory(pot, path, 1000)
    for g, i_t in zip(gtraj[::100], traj[::100]):
        assert np.max(np.abs(g @ E1 @ dagger(g) - i_t)) < 1e-7
    # without the dy term the transport is g(t) = exp(-(x(t) - x(0)) C) in closed form
    c = 0.8 * E1 + 0.3 * E2
    ts, traj = wong_evolve(_const_potential(c), path, E1, 1000)
    for t, i_t in zip(ts[::100], traj[::100]):
        g = expm(-(path.position(t)[0] - path.position(0.0)[0]) * c)
        assert np.max(np.abs(g @ E1 @ dagger(g) - i_t)) < 1e-12


def test_wong_flat_contractible_loop_trivial_shift():
    # flat potential pi dx x e1; a contractible loop gives a trivial shift
    pot = _const_potential(np.pi * E1)
    path = torus_circle((0.5, 0.5), 0.2, 1)
    _, traj = wong_evolve(pot, path, E2, 1000)
    assert np.max(np.abs(traj[-1] - E2)) < 1e-7


def test_wong_does_not_call_parallel_transport(monkeypatch):
    # the spin transport runs its own trajectory, so the final-only transport is not reached
    def refuse(*args, **kwargs):
        raise AssertionError("wong_evolve called parallel_transport")

    monkeypatch.setattr(holonomy, "parallel_transport", refuse)
    ts, traj = wong_evolve(_const_potential(E3), torus_loop((1, 0)), E1, 200)
    assert traj.shape == (201, 2, 2) and ts[-1] == 1.0


def test_wong_trajectory_peak_memory_is_the_trajectory():
    # every state goes straight into one (steps + 1, m, m) array, with no
    # per-step copies held on the side
    steps = 20000
    tracemalloc.start()
    try:
        _, traj = wong_evolve(_const_potential(E3), torus_loop((1, 0)), E1, steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.shape == (steps + 1, 2, 2)
    assert peak < 2 * traj.nbytes


@pytest.mark.parametrize("spin", (np.array([[1j]]), 1j * np.eye(3), E1[0]),
                         ids=("1x1", "3x3", "1-d"))
def test_wong_refuses_a_spin_of_another_shape_before_sampling(spin):
    # _Refusing is rank 2 and fails if sampled
    got = re.escape(str(spin.shape))
    with pytest.raises(ValueError, match=rf"shape \(2, 2\).*got shape {got}"):
        wong_evolve(_Refusing(), torus_loop((1, 0)), spin, 100)


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
    assert [f.name for f in dataclasses.fields(ParametricPath)] == ["position", "velocity"]
    loop = torus_loop((2, -1), (0.25, 0.5))
    p0 = loop.position(0.0)
    p1 = loop.position(1.0)
    assert np.array_equal(p1 - p0, [2.0, -1.0])
    require_closed(loop)
    circ = circle_path(1j, 2.0, -3)
    assert abs(circ.position(0.0) - circ.position(1.0)) < 1e-12
    require_closed(circ)
    back = reverse_path(circ)
    assert back.position(0.0) == circ.position(1.0)
    assert back.velocity(0.25) == -circ.velocity(0.75)
    seg = segment_path(0j, 1.0 + 1j)
    assert seg.position(0.0) == 0j and seg.position(1.0) == 1.0 + 1j
    with pytest.raises(ValueError, match="endpoints"):
        require_closed(seg)
    back_seg = reverse_path(seg)
    both = concat_paths(seg, back_seg)
    assert both == (seg, back_seg)
    require_closed(both)
    assert concat_paths(both, seg) == (seg, back_seg, seg)
    # reversed pieces in reverse order: back along back_seg is seg, and so on
    ts = np.linspace(0.0, 1.0, 5)
    back = reverse_path(both)
    assert isinstance(back, tuple) and len(back) == 2
    for got, want in zip(back, (seg, back_seg)):
        for fn in ("position", "velocity"):
            assert np.max(np.abs(getattr(got, fn)(ts) - getattr(want, fn)(ts))) < 1e-15
    with pytest.raises(ValueError, match="concatenation point"):
        concat_paths(segment_path(0j, 1j), segment_path(5j, 6j))
    with pytest.raises(ValueError, match="concatenation point"):
        concat_paths(both, segment_path(5j, 6j))


def test_a_path_needs_at_least_one_piece():
    pot = _const_potential(0.8 * E1)
    with pytest.raises(ValueError, match="at least one piece"):
        concat_paths()
    for use in (lambda path: parallel_transport(pot, path, 100), require_closed,
                lambda path: wilson_loop(pot, path, 100)):
        with pytest.raises(ValueError, match="at least one piece"):
            use(())


@pytest.mark.parametrize("build", (
    lambda w: torus_loop((w, 0)), lambda w: torus_loop((1, w)),
    lambda w: torus_circle((0.5, 0.5), 0.2, w), lambda w: circle_path(0j, 1.0, w),
    lambda w: aharonov_bohm_monodromy(0.5, w, 100)),
    ids=("torus-wx", "torus-wy", "torus-circle", "circle-path", "aharonov-bohm"))
@pytest.mark.parametrize("winding", (1.5, -0.25, np.nan, np.inf))
def test_library_windings_refuse_non_integers(build, winding):
    # int() used to truncate them: torus_loop((1.5, 0)) was the wx = 1 loop
    with pytest.raises(ValueError, match=f"winding .*{winding!r}"):
        build(winding)


def test_library_windings_accept_integral_floats():
    ts = np.linspace(0.0, 1.0, 7)
    for got, want in ((torus_loop((2.0, -1.0)), torus_loop((2, -1))),
                      (torus_circle(winding=np.float64(3.0)), torus_circle(winding=3)),
                      (circle_path(winding=-2.0), circle_path(winding=-2))):
        assert np.array_equal(got.velocity(ts), want.velocity(ts))
    rec = aharonov_bohm_monodromy(0.5, 2.0, 200)
    assert rec.steps == 400
    assert rec == aharonov_bohm_monodromy(0.5, 2, 200)


@pytest.mark.parametrize("kind", ("analytic", "grid"))
def test_an_l_path_composes_its_legs_in_path_order(kind):
    # A = 0.8 e1 on dx along the first leg, B = 0.6 e3 on dy along the second:
    # transport is exp(-B) exp(-A), which these non-commuting legs tell apart
    # from the reversed product
    a, b = 0.8 * E1, 0.6 * E3
    pot = (_const_potential(a, b) if kind == "analytic"
           else Connection(constant_form(TorusGrid(8), 1, a, b)))
    path = concat_paths(segment_path((0, 0), (1, 0)), segment_path((1, 0), (1, 1)))
    g = parallel_transport(pot, path, 1000)
    assert np.max(np.abs(g - expm(-b) @ expm(-a))) < 1e-12
    assert np.max(np.abs(g - expm(-a) @ expm(-b))) > 0.1


def test_transport_of_a_non_constant_non_commuting_potential_is_unitary_at_100_steps():
    # the coefficients vary along the loop and do not commute, so RK4 is not exact here;
    # a structure-preserving step would bring the defect to rounding level
    pot = AnalyticTorusPotential(
        lambda x, y: math.sin(2 * math.pi * y) * E1 + 0.7 * math.cos(2 * math.pi * x) * E2,
        lambda x, y: 0.9 * math.cos(2 * math.pi * x) * E3 + 0.4 * E1, 2)
    g = parallel_transport(pot, torus_circle((0.5, 0.5), 0.3, 1), 100)
    assert np.max(np.abs(g - np.eye(2))) > 0.5  # a holonomy far from the identity
    assert np.max(np.abs(dagger(g) @ g - np.eye(2))) <= 1e-8
