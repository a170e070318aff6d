"""Parallel transport along parametric paths.

Transport solves dv/dt + A(xdot(t)) v = 0 for the fundamental matrix g with
v(1) = g v(0), using the classical fourth-order one-step scheme.  A path is
one smooth piece or a tuple of pieces (`concat_paths`); a transport of `steps`
steps per piece samples A(xdot) once at each piece's 2*steps + 1 nodes
t = j / (2 steps).  Within a piece the end sample of one step starts the
next; a kink is sampled once from each side and keeps the order.  The work
is batched over nodes: paths and potentials take stacks of times and points,
and each block of a piece samples its nodes in one `along` call and
evaluates the RK4 polynomial of each of its steps as one stack of one-step
maps I + D.  A block is whole 128-step chunks: 4096 steps at rank 1, 1024
at rank 2, 384 at rank 3, 256 at rank 4 and one chunk from rank 5 on, so
it holds at most about as many samples as one chunk at rank 6.
`parallel_transport` composes the maps of each chunk by a pairwise tree on
the deviations D, a block's full chunks as one batch of trees, and the
chunks by one more tree; the spin transport applies the maps in turn to
keep every state.

Pieces map an array of times to stacked points: torus points as (..., 2)
arrays (coordinates taken mod 1), plane points as complex (...) arrays.
A scalar time gives one point.  Potentials expose `m` and
`along(pos, vel)`, which takes stacked positions and velocities and returns
the stacked (..., m, m) samples of A(xdot).  Potentials come in four
classes: grid connections (`GridPotential`, evaluated along the path by
bilinear interpolation, which limits the observable order to two), analytic
torus potentials (`AnalyticTorusPotential`, closed-form coefficients, full
fourth-order accuracy), meromorphic potentials on the punctured plane
(`MeromorphicPotential`, a rational dz-coefficient with a finite pole list;
its `along` refuses any point within 1e-6 of a pole, so every sampled node
keeps that margin) and gauge-conjugated potentials
(`GaugeConjugatedPotential`, a closed-form unitary change of frame of a
base potential along a torus path).  The coefficient callables of
meromorphic and gauge-conjugated potentials take stacks: `coefficient(z)`
and `g(x, y)` / `dg(x, y)` get arrays of shape (...) and return
(..., m, m), so each is called once per block.  Only
`AnalyticTorusPotential` still calls its `ax`/`ay` once per point, with
scalar arguments, through `_samples`.  A torus potential samples only the
axes a block moves along: a coefficient whose velocity component is zero at
every node of the block is not evaluated, so a loop along x never calls `ay`.

A path is closed when its endpoints match (torus points mod 1); Wilson loops
and monodromies require that.

Spin transport (the Wong equation dI/dt + [A(xdot), I] = 0) is solved by
I(t) = g(t) I(0) g(t)^{-1} on the same transport trajectory; the inverse, not
g^H, keeps it exact for gl(m) potentials, whose transport is not unitary.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, starmap
from typing import Callable

import numpy as np

from .algebra import (E3, SIGMA3, _unitary_inverse, exp_antihermitian,
                      require_antihermitian, stack_matmul)
from .forms import _integer
from .gauge import Connection

_POLE_MARGIN = 1e-6
_CHUNK = 128  # RK4 steps whose one-step maps one pairwise tree composes
MIN_STEPS = 100  # fewest RK4 steps a transport takes
MAX_STEPS = 10 ** 6  # most RK4 steps a transport takes: 0.3-5 s at 0.3-5 us per step
_WONG_BLOCK = 512  # trajectory states a spin transport conjugates at once


@dataclass(frozen=True)
class ParametricPath:
    """One smooth piece of a path: a curve on [0,1] with explicit velocity.

    `position` and `velocity` take a time or an array of times and return
    stacked points: torus points as (..., 2) arrays (coordinates taken mod 1)
    or complex plane points as (...) arrays; a kinked path is a tuple of pieces.
    """

    position: Callable
    velocity: Callable


def _same_point(p, q, tol):
    """Plane points, or torus points compared mod 1."""
    if isinstance(p, complex) or np.iscomplexobj(p):
        return abs(complex(q) - complex(p)) <= tol
    d = np.asarray(q, dtype=float) - np.asarray(p, dtype=float)
    return bool(np.all(np.abs(d - np.round(d)) <= tol))


def _pieces(path):
    """The smooth pieces of `path`, a `ParametricPath` or a non-empty tuple of them."""
    if path == ():
        raise ValueError("a path needs at least one piece")
    return path if isinstance(path, tuple) else (path,)


def require_closed(path):
    pieces = _pieces(path)
    if not _same_point(pieces[0].position(0.0), pieces[-1].position(1.0), 1e-12):
        raise ValueError("a closed path is required: its endpoints do not match")


def _constant(value, t):
    """`value` at every time of `t`: the value itself for a scalar time."""
    return value if np.ndim(t) == 0 else np.broadcast_to(value, np.shape(t) + np.shape(value))


def _torus_line(p0, d):
    """Torus path p0 + t d."""
    return ParametricPath(lambda t: p0 + np.multiply.outer(t, d), lambda t: _constant(d, t))


def torus_loop(winding=(1, 0), base=(0.0, 0.0)):
    """Straight loop winding (wx, wy) times around the torus generators."""
    return _torus_line(np.array([float(base[0]), float(base[1])]),
                       np.array([float(_integer(w, "winding")) for w in winding[:2]]))


def torus_circle(center=(0.5, 0.5), radius=0.2, winding=1):
    """Contractible circular loop inside the fundamental square."""
    cx, cy = float(center[0]), float(center[1])
    r, w = float(radius), _integer(winding, "winding")

    def position(t):
        ph = 2.0 * np.pi * w * t
        return np.stack([cx + r * np.cos(ph), cy + r * np.sin(ph)], axis=-1)

    def velocity(t):
        ph = 2.0 * np.pi * w * t
        return 2.0 * np.pi * w * r * np.stack([-np.sin(ph), np.cos(ph)], axis=-1)

    return ParametricPath(position, velocity)


def circle_path(center=0j, radius=1.0, winding=1):
    """Circle in the punctured plane, traversed `winding` times."""
    c = complex(center)
    r = float(radius)
    w = _integer(winding, "winding")

    def position(t):
        return c + r * np.exp(2j * np.pi * w * t)

    def velocity(t):
        return 2j * np.pi * w * r * np.exp(2j * np.pi * w * t)

    return ParametricPath(position, velocity)


def segment_path(start, end):
    """Straight segment from `start` to `end`."""
    if isinstance(start, complex) or isinstance(end, complex):
        z0, z1 = complex(start), complex(end)
        return ParametricPath(lambda t: z0 + t * (z1 - z0), lambda t: _constant(z1 - z0, t))
    p0 = np.asarray(start, dtype=float)
    return _torus_line(p0, np.asarray(end, dtype=float) - p0)


def reverse_path(path):
    """`path` backwards, piece by piece in reverse order; a piece stays a piece."""
    back = tuple(ParametricPath(lambda t, p=p: p.position(1.0 - t),
                                lambda t, p=p: np.negative(p.velocity(1.0 - t)))
                 for p in reversed(_pieces(path)))
    return back if _pieces(path) is path else back[0]


def concat_paths(*paths):
    """The path traversing `paths` in turn: the tuple of their smooth pieces."""
    pieces = tuple(piece for path in paths for piece in _pieces(path))
    for first, second in zip(pieces, pieces[1:]):
        if not _same_point(first.position(1.0), second.position(0.0), 1e-9):
            raise ValueError("paths do not share the concatenation point")
    return _pieces(pieces)


def _samples(fn, *coords):
    """fn called once per point, with one Python scalar per coordinate stack of
    `coords` (all of one shape), and its values stacked like them.

    Only `AnalyticTorusPotential` samples this way: the `transport` benchmark
    workload builds one from a scalar-only callable, and it moves to stacks
    together with that callable.
    """
    vals = np.array(list(starmap(fn, zip(*(np.ravel(c).tolist() for c in coords)))),
                    dtype=complex)
    return vals.reshape(np.shape(coords[0]) + vals.shape[1:])


def _torus_xy(pos):
    """The x and y stacks of the torus points `pos`, taken mod 1."""
    xy = np.asarray(pos, dtype=float) % 1.0
    return xy[..., 0], xy[..., 1]


def _along_axes(vel, sample, m):
    """vel_x sample(0) + vel_y sample(1) over the axes the stacked velocities move along.

    `sample(i)` returns the (..., m, m) coefficients of axis i.  An axis whose
    velocity is zero at every point is not sampled; with both skipped the
    result is the zero stack (..., m, m).
    """
    vel = np.asarray(vel)
    terms = [vel[..., i, None, None] * sample(i) for i in (0, 1) if vel[..., i].any()]
    if not terms:
        return np.zeros(vel.shape[:-1] + (m, m), dtype=complex)
    return terms[0] + terms[1] if len(terms) == 2 else terms[0]


class GridPotential:
    """Grid connection evaluated along paths by bilinear interpolation."""

    def __init__(self, conn):
        self.m = conn.m
        self._n = conn.grid.n
        self._comps = np.stack(conn.potential.comps)

    def along(self, pos, vel):
        n = self._n
        f = (np.asarray(pos, dtype=float) % 1.0) * n
        lo = f.astype(np.intp)  # f >= 0, so this truncates as int() does
        t = (f - lo)[..., None, None]
        tx, ty = t[..., 0, :, :], t[..., 1, :, :]
        j0, l0 = lo[..., 0] % n, lo[..., 1] % n
        j1, l1 = (j0 + 1) % n, (l0 + 1) % n
        w00, w10, w01, w11 = (1 - tx) * (1 - ty), tx * (1 - ty), (1 - tx) * ty, tx * ty

        def sample(i):
            # corners gathered one at a time: a block never holds all four
            c = self._comps[i]
            return w00 * c[j0, l0] + w10 * c[j1, l0] + w01 * c[j0, l1] + w11 * c[j1, l1]

        return _along_axes(vel, sample, self.m)


class AnalyticTorusPotential:
    """Torus potential with closed-form dx and dy coefficients.

    `ax(x, y)` and `ay(x, y)` are called once per point with float scalars
    and return (m, m) matrices (see `_samples`); the coefficient of an axis
    the path does not move along is not sampled.
    """

    def __init__(self, ax, ay, m):
        self.ax = ax
        self.ay = ay
        self.m = int(m)

    def along(self, pos, vel):
        x, y = _torus_xy(pos)
        return _along_axes(vel, lambda i: _samples((self.ax, self.ay)[i], x, y), self.m)


@dataclass(frozen=True)
class MeromorphicPotential:
    """Rational dz-coefficient on the plane minus a finite pole list.

    `coefficient(z)` takes complex points of any shape (...) and returns
    (..., m, m).
    """

    coefficient: Callable
    poles: tuple
    m: int

    def along(self, pos, vel):
        z = np.asarray(pos, dtype=complex)
        dist = np.abs(z.reshape(-1, 1) - np.array(self.poles, dtype=complex))
        near = dist <= _POLE_MARGIN
        if near.any():
            i, k = np.unravel_index(np.argmax(near), near.shape)
            raise ValueError(f"path approaches the pole at {complex(self.poles[k])}: "
                             f"distance {dist[i, k]:.3e} <= {_POLE_MARGIN:.1e}")
        return np.asarray(vel)[..., None, None] * self.coefficient(z)


class GaugeConjugatedPotential:
    """Transport-side unitary change of frame along a torus path.

    A'(t) = G A G^{-1} - (dG along the path) G^{-1}, with G and its partial
    derivatives given in closed form, so the transported frames are exactly
    conjugate at the continuum level.  `g(x, y)` takes float coordinates of
    any shape (...) and returns (..., m, m); `dg(x, y)` returns the pair
    (dG/dx, dG/dy), each broadcastable to (..., m, m).  G^H stands in for
    G^-1, so `along` refuses samples of G that are not unitary to
    `algebra.UNITARY_ATOL`.
    """

    def __init__(self, base, g, dg):
        self.base = base
        self.g = g
        self.dg = dg
        self.m = base.m

    def along(self, pos, vel):
        a = self.base.along(pos, vel)
        x, y = _torus_xy(pos)
        gm = self.g(x, y)
        gi = _unitary_inverse(gm, "gauge map")
        gdot = _along_axes(vel, self.dg(x, y).__getitem__, self.m)
        return stack_matmul(stack_matmul(gm, a), gi) - stack_matmul(gdot, gi)


def _pole_potential(poles, residues):
    """sum_k R_k / (z - p_k) dz: a simple pole with (m, m) residue R_k at each p_k."""
    p = np.array(poles, dtype=complex)
    res = np.array(residues, dtype=complex)

    def coefficient(z):
        d = np.asarray(z)[..., None] - p
        return (res / d[..., None, None]).sum(axis=-3)

    return MeromorphicPotential(coefficient, tuple(p.tolist()), res.shape[-1])


def _as_potential(potential):
    if isinstance(potential, Connection):
        return GridPotential(potential)
    if hasattr(potential, "along") and hasattr(potential, "m"):
        return potential
    raise TypeError("unsupported potential type for transport")


def _step_maps(gen, h):
    """Deviations D = P - I of the RK4 one-step maps P of y' = M y.

    `gen` stacks M at the 2c + 1 nodes of c consecutive steps of length h
    (start, middle, end of each step; the end of one is the start of the
    next).  The stages K1 = M0, K2 = Mh (I + h/2 K1), K3 = Mh (I + h/2 K2),
    K4 = M1 (I + h K3) are RK4's stages applied to I, so
    D = h/6 (K1 + 2 K2 + 2 K3 + K4)
      = h/6 (M0 + 4 Mh + M1) + h^2/6 (Mh M0 + Mh^2 + M1 Mh)
        + h^3/12 (Mh^2 M0 + M1 Mh^2) + h^4/24 M1 Mh^2 M0,
    evaluated nested, with the identity never added.
    """
    m0, mh, m1 = gen[:-1:2], gen[1::2], gen[2::2]
    k2 = mh + 0.5 * h * stack_matmul(mh, m0)
    k3 = mh + 0.5 * h * stack_matmul(mh, k2)
    k4 = m1 + h * stack_matmul(m1, k3)
    return h / 6.0 * (m0 + 2.0 * (k2 + k3) + k4)


def _compose(d):
    """Deviation of the product, latest first, of the maps I + D along the step
    axis of `d` (its third from last), one pairwise tree per leading index.

    (I + D1)(I + D0) = I + (D1 + D0 + D1 D0); carrying deviations instead of
    the maps keeps the identity out of every rounding.
    """
    while d.shape[-3] > 1:
        later, earlier = d[..., 1::2, :, :], d[..., :-1:2, :, :]
        pairs = later + earlier + stack_matmul(later, earlier)
        if d.shape[-3] % 2:
            pairs = np.concatenate((pairs, d[..., -1:, :, :]), axis=-3)
        d = pairs
    return d[..., 0, :, :]


def _rk4(potential, pieces, steps):
    """RK4 for y' = -A(xdot) y on [0, 1] per piece.

    Yields, block by block in step order, the stacked deviations D = P - I of
    the one-step maps.  A block is _CHUNK * max(1, 32 // m^2) steps of a
    piece, or what is left of it: whole chunks whose samples hold about as
    many matrix entries as one chunk's at rank 6.  Each block samples its new
    nodes in one call; its start sample is the previous block's end sample.
    """
    h = 1.0 / steps
    block = _CHUNK * max(1, 32 // potential.m ** 2)
    for k, piece in enumerate(pieces):
        end = None
        for i0 in range(0, steps, block):
            i1 = min(i0 + block, steps)
            first = 0 if end is None else 2 * i0 + 1
            ts = np.arange(first, 2 * i1 + 1) / (2 * steps)
            a = np.asarray(potential.along(piece.position(ts), piece.velocity(ts)), dtype=complex)
            shape = ts.shape + (potential.m, potential.m)
            if a.shape != shape:
                raise ValueError(f"potential samples must be stacked as (..., m, m) like their "
                                 f"points, {shape}, got {a.shape}")
            finite = np.isfinite(a).all(axis=(-2, -1))
            if not finite.all():
                t = (k + ts[np.argmin(finite)]) / len(pieces)
                raise ValueError(f"potential sample is not finite at t = {t}")
            if end is not None:
                a = np.concatenate((end, a))
            end = a[-1:]
            yield _step_maps(-a, h)


def _one_step_maps(potential, path, steps):
    """The potential, the step total and the lazy RK4 maps of `steps` steps per piece."""
    pieces = _pieces(path)
    steps = _integer(steps, "step count")
    if not MIN_STEPS <= steps <= MAX_STEPS // len(pieces):
        raise ValueError(f"transport needs {MIN_STEPS} to {MAX_STEPS} steps in all and at least "
                         f"{MIN_STEPS} per piece, got {steps} on each of {len(pieces)} piece(s)")
    potential = _as_potential(potential)
    return potential, len(pieces) * steps, _rk4(potential, pieces, steps)


def parallel_transport(potential, path, steps=1000):
    """Fundamental solution of dv/dt + A(xdot(t)) v = 0 over [0, 1]."""
    potential, _, maps = _one_step_maps(potential, path, steps)
    m = potential.m
    chunks = []  # the composed deviation of each chunk, in step order
    for d in maps:
        full = len(d) - len(d) % _CHUNK
        if full:
            chunks.append(_compose(d[:full].reshape(-1, _CHUNK, m, m)))
        if full < len(d):
            chunks.append(_compose(d[full:])[None])
    return np.eye(m, dtype=complex) + _compose(np.concatenate(chunks))


def _trajectory(potential, path, steps):
    """The times and the transport after every step of `parallel_transport`, in one array."""
    potential, total, maps = _one_step_maps(potential, path, steps)
    traj = np.empty((total + 1, potential.m, potential.m), dtype=complex)
    traj[0] = np.eye(potential.m)
    tmp = np.empty_like(traj[0])
    for dn, prev, new in zip(chain.from_iterable(maps), traj, traj[1:]):
        np.matmul(dn, prev, out=tmp)
        np.add(prev, tmp, out=new)
    return np.linspace(0.0, 1.0, len(traj)), traj


def wilson_loop(potential, path, steps=1000):
    """Transport around a closed path and its gauge-invariant trace."""
    require_closed(path)
    g = parallel_transport(potential, path, steps)
    return g, complex(np.trace(g))


@dataclass(frozen=True)
class MonodromyRecord:
    steps: int
    monodromy: complex
    flux: complex  # identification k = -flux / (2 pi)


def aharonov_bohm_monodromy(k, winding=1, steps=1000):
    """Monodromy of dh + h beta = 0 with beta = (-k/z) dz around the n-fold circle.

    `steps` counts per turn; the record holds the total, steps * max(1, |n|).
    Fewer than MIN_STEPS per turn are refused naming the per-turn count, and a
    total above MAX_STEPS naming both factors.  The analytic
    continuation multiplies solutions by exp(2 pi i k n); the returned record
    carries the transported value and the flux identification.
    """
    k = complex(k)
    winding = _integer(winding, "winding")
    per_turn = _integer(steps, "step count")
    if per_turn < MIN_STEPS:
        raise ValueError(f"an Aharonov-Bohm transport takes at least {MIN_STEPS} steps per "
                         f"turn, got {per_turn} per turn at winding {winding}")
    steps = per_turn * max(1, abs(winding))
    if steps > MAX_STEPS:
        raise ValueError(f"an Aharonov-Bohm transport takes at most {MAX_STEPS} steps in all, "
                         f"got {per_turn} per turn at winding {winding}: "
                         f"steps * max(1, |winding|) = {steps}")
    pot = _pole_potential((0j,), ([[-k]],))
    g = parallel_transport(pot, circle_path(0j, 1.0, winding), steps)
    return MonodromyRecord(steps, complex(g[0, 0]), -2.0 * np.pi * k)


def wong_evolve(potential, path, i0, steps=1000):
    """Spin transport dI/dt + [A(xdot), I] = 0; returns times and the trajectory.

    I_n = g_n I0 g_n^{-1} on the transport trajectory, conjugated in place; the
    spin must be anti-Hermitian of shape (m, m) at the potential's rank m.
    """
    i0 = np.asarray(i0, dtype=complex)
    potential = _as_potential(potential)
    m = potential.m
    if i0.shape != (m, m):
        raise ValueError(f"spin variable must have shape {(m, m)} at the potential's rank "
                         f"{m}, got shape {i0.shape}")
    require_antihermitian(i0, "spin variable")
    ts, traj = _trajectory(potential, path, steps)
    for b in range(0, len(traj), _WONG_BLOCK):
        g = traj[b:b + _WONG_BLOCK]
        g[...] = g @ i0 @ np.linalg.inv(g)
    traj[0] = i0  # g_0 = I, so the first state is the spin as given, signed zeros too
    return ts, traj


@dataclass(frozen=True)
class SpinPhaseRecord:
    phase: np.ndarray
    transport: np.ndarray
    deviation: float


def aharonov_casher_phase(lam, steps=1000):
    """Phase exp(i pi lam sigma3) and its realization as a pole transport.

    The diagonal potential (-lam/2) sigma3 dz/z has unit-circle monodromy
    diag(e^{i pi lam}, e^{-i pi lam}), matching the direct exponential.
    """
    lam = float(lam)
    phase = exp_antihermitian(np.pi * lam * E3)
    pot = _pole_potential((0j,), (-0.5 * lam * SIGMA3,))
    g = parallel_transport(pot, circle_path(0j, 1.0, 1), steps)
    deviation = float(np.max(np.abs(g - phase)))
    return SpinPhaseRecord(phase, g, deviation)

