"""Parallel transport along parametric paths.

Transport solves dv/dt + A(xdot(t)) v = 0 for the fundamental matrix g with
v(1) = g v(0), using the classical fourth-order one-step scheme.  Potentials
come in three flavours: grid connections (evaluated along the path by
bilinear interpolation, which limits the observable order to two), analytic
torus potentials (closed-form coefficients, full fourth-order accuracy) and
meromorphic potentials on the punctured plane (a rational dz-coefficient with
a finite pole list; paths must keep a margin of 1e-6 from every pole).

Spin transport integrates the adjoint equation dI/dt + [A(xdot), I] = 0 with
the same scheme; it is consistent with I(t) = g(t) I(0) g(t)^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import SIGMA3, dagger, mat_exp, require_antihermitian

_POLE_MARGIN = 1e-6
MIN_STEPS = 100  # fewest RK4 steps a transport takes
MAX_STEPS = 10 ** 6  # most RK4 steps a transport takes, about a minute at ~57 us per step


@dataclass(frozen=True)
class ParametricPath:
    """Curve on [0,1] with explicit velocity; positions are torus points
    (length-2 arrays, coordinates taken mod 1) or complex plane points."""

    position: Callable
    velocity: Callable
    closed: bool = False
    winding: object = None


def _same_point(p, q, tol):
    """Plane points, or torus points compared mod 1."""
    if isinstance(p, complex) or np.iscomplexobj(p):
        return abs(complex(q) - complex(p)) <= tol
    d = np.asarray(q, dtype=float) - np.asarray(p, dtype=float)
    return bool(np.all(np.abs((d + 0.5) % 1.0 - 0.5) <= tol))


def _endpoints_match(path, tol=1e-12):
    return _same_point(path.position(0.0), path.position(1.0), tol)


def require_closed(path):
    if not path.closed:
        raise ValueError("a closed path is required")
    if not _endpoints_match(path):
        raise ValueError("path is marked closed but its endpoints do not match")


def torus_loop(winding=(1, 0), base=(0.0, 0.0)):
    """Straight loop winding (wx, wy) times around the torus generators."""
    wx, wy = int(winding[0]), int(winding[1])
    x0, y0 = float(base[0]), float(base[1])
    vel = np.array([float(wx), float(wy)])
    return ParametricPath(
        position=lambda t: np.array([x0 + wx * t, y0 + wy * t]),
        velocity=lambda t: vel,
        closed=True,
        winding=(wx, wy),
    )


def torus_circle(center=(0.5, 0.5), radius=0.2, winding=1):
    """Contractible circular loop inside the fundamental square."""
    cx, cy = float(center[0]), float(center[1])
    r, w = float(radius), int(winding)

    def position(t):
        ph = 2.0 * np.pi * w * t
        return np.array([cx + r * np.cos(ph), cy + r * np.sin(ph)])

    def velocity(t):
        ph = 2.0 * np.pi * w * t
        return 2.0 * np.pi * w * r * np.array([-np.sin(ph), np.cos(ph)])

    return ParametricPath(position, velocity, closed=True, winding=(0, 0))


def circle_path(center=0j, radius=1.0, winding=1):
    """Circle in the punctured plane, traversed `winding` times."""
    c = complex(center)
    r = float(radius)
    w = int(winding)

    def position(t):
        return c + r * np.exp(2j * np.pi * w * t)

    def velocity(t):
        return 2j * np.pi * w * r * np.exp(2j * np.pi * w * t)

    return ParametricPath(position, velocity, closed=True, winding=w)


def segment_path(start, end):
    """Straight segment; open unless the endpoints coincide."""
    if isinstance(start, complex) or isinstance(end, complex):
        z0, z1 = complex(start), complex(end)
        return ParametricPath(lambda t: z0 + t * (z1 - z0),
                              lambda t: z1 - z0, closed=(z0 == z1))
    p0 = np.asarray(start, dtype=float)
    p1 = np.asarray(end, dtype=float)
    d = p1 - p0
    return ParametricPath(lambda t: p0 + t * d, lambda t: d,
                          closed=bool(np.all(d == 0.0)))


def reverse_path(path):
    winding = path.winding
    if isinstance(winding, tuple):
        winding = tuple(-w for w in winding)
    elif winding is not None:
        winding = -winding

    def velocity(t):
        v = path.velocity(1.0 - t)
        return -v if np.isscalar(v) else -np.asarray(v)

    return ParametricPath(lambda t: path.position(1.0 - t), velocity,
                          closed=path.closed, winding=winding)


def concat_paths(first, second, tol=1e-9):
    """Concatenation traversing `first` then `second` at doubled speed."""
    if not _same_point(first.position(1.0), second.position(0.0), tol):
        raise ValueError("paths do not share the concatenation point")

    def position(t):
        return first.position(2.0 * t) if t < 0.5 else second.position(2.0 * t - 1.0)

    def velocity(t):
        v = first.velocity(2.0 * t) if t < 0.5 else second.velocity(2.0 * t - 1.0)
        return 2.0 * v

    closed = _endpoints_match(ParametricPath(position, velocity))
    return ParametricPath(position, velocity, closed=closed)


class GridPotential:
    """Grid connection evaluated along paths by bilinear interpolation."""

    def __init__(self, conn):
        self.conn = conn
        self.m = conn.m
        self._n = conn.grid.n
        self._comps = conn.potential.comps

    def _interp(self, comp, x, y):
        n = self._n
        fx = (x % 1.0) * n
        fy = (y % 1.0) * n
        j0 = int(fx) % n
        l0 = int(fy) % n
        j1 = (j0 + 1) % n
        l1 = (l0 + 1) % n
        tx = fx - int(fx)
        ty = fy - int(fy)
        return ((1 - tx) * (1 - ty) * comp[j0, l0] + tx * (1 - ty) * comp[j1, l0]
                + (1 - tx) * ty * comp[j0, l1] + tx * ty * comp[j1, l1])

    def along(self, pos, vel):
        x, y = float(pos[0]), float(pos[1])
        ax = self._interp(self._comps[0], x, y)
        ay = self._interp(self._comps[1], x, y)
        return vel[0] * ax + vel[1] * ay


class AnalyticTorusPotential:
    """Torus potential with closed-form dx and dy coefficients."""

    def __init__(self, ax, ay, m):
        self.ax = ax
        self.ay = ay
        self.m = int(m)

    def along(self, pos, vel):
        x, y = float(pos[0]) % 1.0, float(pos[1]) % 1.0
        return vel[0] * np.asarray(self.ax(x, y), dtype=complex) \
            + vel[1] * np.asarray(self.ay(x, y), dtype=complex)


@dataclass(frozen=True)
class MeromorphicPotential:
    """Rational dz-coefficient on the plane minus a finite pole list."""

    coefficient: Callable
    poles: tuple
    m: int

    def along(self, pos, vel):
        z = complex(pos)
        return complex(vel) * np.asarray(self.coefficient(z), dtype=complex)


class GaugeConjugatedPotential:
    """Transport-side unitary change of frame along a torus path.

    A'(t) = G A G^{-1} - (dG along the path) G^{-1}, with G and its partial
    derivatives given in closed form, so the transported frames are exactly
    conjugate at the continuum level.
    """

    def __init__(self, base, g, dg):
        self.base = base
        self.g = g
        self.dg = dg
        self.m = base.m

    def along(self, pos, vel):
        a = self.base.along(pos, vel)
        x, y = float(pos[0]) % 1.0, float(pos[1]) % 1.0
        gm = np.asarray(self.g(x, y), dtype=complex)
        gx, gy = self.dg(x, y)
        gdot = vel[0] * np.asarray(gx, dtype=complex) + vel[1] * np.asarray(gy, dtype=complex)
        gi = dagger(gm)
        return gm @ a @ gi - gdot @ gi


def _as_potential(potential):
    from .gauge import Connection

    if isinstance(potential, Connection):
        return GridPotential(potential)
    if hasattr(potential, "along") and hasattr(potential, "m"):
        return potential
    raise TypeError("unsupported potential type for transport")


def _require_pole_clearance(potential, path, steps):
    if not isinstance(potential, MeromorphicPotential) or not potential.poles:
        return
    ts = np.linspace(0.0, 1.0, 2 * steps + 1)
    zs = np.array([complex(path.position(t)) for t in ts])
    for pole in potential.poles:
        dist = float(np.min(np.abs(zs - complex(pole))))
        if dist <= _POLE_MARGIN:
            raise ValueError(
                f"path approaches the pole at {complex(pole)}: min distance "
                f"{dist:.3e} <= {_POLE_MARGIN:.1e}"
            )


def _transport_setup(potential, path, steps):
    """Checked step count and potential, and the sampler t -> A(xdot(t))."""
    steps = int(steps)
    if not MIN_STEPS <= steps <= MAX_STEPS:
        raise ValueError(f"transport needs {MIN_STEPS} to {MAX_STEPS} steps, got {steps}")
    potential = _as_potential(potential)
    _require_pole_clearance(potential, path, steps)

    def a_fn(t):
        mat = potential.along(path.position(t), path.velocity(t))
        if not np.all(np.isfinite(mat)):
            raise ValueError(f"potential sample is not finite at t = {t}")
        return mat

    return potential, a_fn, steps


def _rk4(a_fn, y0, steps, rhs, collect=False):
    dt = 1.0 / steps
    y = np.array(y0, dtype=complex)
    out = [y.copy()] if collect else None
    for i in range(steps):
        t0 = i * dt
        a0 = a_fn(t0)
        ah = a_fn(t0 + 0.5 * dt)
        a1 = a_fn(t0 + dt)
        k1 = rhs(a0, y)
        k2 = rhs(ah, y + 0.5 * dt * k1)
        k3 = rhs(ah, y + 0.5 * dt * k2)
        k4 = rhs(a1, y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if collect:
            out.append(y.copy())
    return (np.array(out), y) if collect else y


def _transport_rhs(a, g):
    return -(a @ g)


def parallel_transport(potential, path, steps=1000, trajectory=False):
    """Fundamental solution of dv/dt + A(xdot(t)) v = 0 over [0, 1]."""
    potential, a_fn, steps = _transport_setup(potential, path, steps)
    g0 = np.eye(potential.m, dtype=complex)
    if trajectory:
        traj, _ = _rk4(a_fn, g0, steps, _transport_rhs, collect=True)
        return np.linspace(0.0, 1.0, steps + 1), traj
    return _rk4(a_fn, g0, steps, _transport_rhs)


def wilson_loop(potential, path, steps=1000):
    """Transport around a closed path and its gauge-invariant trace."""
    require_closed(path)
    g = parallel_transport(potential, path, steps)
    return g, complex(np.trace(g))


@dataclass(frozen=True)
class MonodromyRecord:
    k: complex
    winding: int
    steps: int
    monodromy: complex
    flux: complex  # identification k = -flux / (2 pi)


def aharonov_bohm_monodromy(k, winding=1, steps=None):
    """Monodromy of dh + h beta = 0 with beta = (-k/z) dz around the n-fold circle.

    The analytic continuation multiplies solutions by exp(2 pi i k n); the
    returned record carries the transported value and the flux identification.
    """
    k = complex(k)
    winding = int(winding)
    if steps is None:
        steps = max(MIN_STEPS, 1000 * abs(winding))
    pot = MeromorphicPotential(lambda z: np.array([[-k / z]], dtype=complex), (0j,), 1)
    g = parallel_transport(pot, circle_path(0j, 1.0, winding), steps)
    return MonodromyRecord(k, winding, int(steps), complex(g[0, 0]), -2.0 * np.pi * k)


def _wong_rhs(a, i):
    return -(a @ i - i @ a)


def wong_evolve(potential, path, i0, steps=1000):
    """Spin transport dI/dt + [A(xdot), I] = 0; returns times and the trajectory.

    The algebra norm of I is conserved along the flow, and the trajectory
    matches the conjugated transport I(t) = g(t) I(0) g(t)^{-1}.
    """
    i0 = np.asarray(i0, dtype=complex)
    require_antihermitian(i0, "spin variable")
    _, a_fn, steps = _transport_setup(potential, path, steps)
    traj, _ = _rk4(a_fn, i0, steps, _wong_rhs, collect=True)
    return np.linspace(0.0, 1.0, steps + 1), traj


@dataclass(frozen=True)
class SpinPhaseRecord:
    lam: float
    phase: np.ndarray
    transport: np.ndarray
    deviation: float


def aharonov_casher_phase(lam, steps=1000):
    """Phase exp(i pi lam sigma3) and its realization as a pole transport.

    The diagonal potential (-lam/2) sigma3 dz/z has unit-circle monodromy
    diag(e^{i pi lam}, e^{-i pi lam}), matching the direct exponential.
    """
    lam = float(lam)
    phase = mat_exp(1j * np.pi * lam * SIGMA3)
    pot = MeromorphicPotential(lambda z: (-0.5 * lam / z) * SIGMA3, (0j,), 2)
    g = parallel_transport(pot, circle_path(0j, 1.0, 1), steps)
    deviation = float(np.max(np.abs(g - phase)))
    return SpinPhaseRecord(lam, phase, g, deviation)


def monodromy_representation(potential, loops, steps=1000):
    """Transport matrix per generator loop.

    Traversing `first` then `second` composes as g(second) g(first); the
    concatenation check in the verification suite uses that order.
    """
    mats = []
    for loop in loops:
        require_closed(loop)
        mats.append(parallel_transport(potential, loop, steps))
    return mats
