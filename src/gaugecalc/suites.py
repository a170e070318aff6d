"""Seeded invariant suites behind the `verify` command.

Each check reduces to a single measured number compared against a bound.
Random fields are band-limited trigonometric combinations so that the
discretization floor of each identity sits well below its bound; the
amplitudes below are sized accordingly.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import (E1, E2, E3, LEVI_CIVITA, SU2_BASIS, antihermitian_basis,
                      dagger, exp_antihermitian, inner, random_antihermitian,
                      stack_bracket)
from .curves import (ConnectionCurve, curve_jets, flat_curve_report,
                     gauge_orbit_curve, harmonic_projection, su2_potential,
                     su2_ym_conditions, ym_curve_report)
from .forms import (ANTIHERMITIAN, TorusGrid, _form, constant_form,
                    exterior_d, form_from_json, form_to_json, hodge_star,
                    interior, l2_inner, l2_norm, scalar_form, sharp,
                    tensor_form, wedge_compose)
from .gauge import (Connection, codifferential, codifferential_flat, covariant_d, curvature,
                    gauge_transform, wedge_action, wedge_action_adjoint,
                    yang_mills_functional, yang_mills_residual,
                    yang_mills_residual_covariant, zero_connection)
from .holonomy import (MIN_STEPS, AnalyticTorusPotential, GaugeConjugatedPotential,
                       _pole_potential, aharonov_bohm_monodromy,
                       aharonov_casher_phase, circle_path, concat_paths,
                       parallel_transport, reverse_path, segment_path, torus_circle,
                       torus_loop, wilson_loop, wong_evolve)
from .spectrum import harmonic_space_dims


# u(2) coefficients a, b of the constant 1-form a dx + b dy of the closed-form checks
_CONSTANT_COEFFS = (0.7 * E1 - 0.4 * E3 + 0.25j * np.eye(2), 0.5 * E2 + 1.1 * E3)


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    bound: float
    kind: str = "max"  # "max": value <= bound; "min": value >= bound

    @property
    def passed(self):
        if self.kind == "min":
            return bool(self.value >= self.bound)
        return bool(self.value <= self.bound)


@lru_cache(maxsize=None)
def _fourier_tables(n, kmax):
    """Read-only live-mode mask and 1-D tables X^T, Y of `_fourier_fields` at grid size n."""
    kx = np.arange(kmax + 1)
    ky = np.arange(-kmax, kmax + 1)
    live = (kx[:, None] > 0) | (ky[None, :] > 0)
    ax = np.arange(n) / n
    x = np.exp(2j * np.pi * np.outer(kx, ax))
    y = np.exp(2j * np.pi * np.outer(ky, ax))
    for table in (live, x, y):
        table.flags.writeable = False
    return live, int(live.sum()), x.T, y


def _fourier_fields(rng, grid, shape, kmax=2, amp=1.0):
    """Band-limited random scalar fields, stacked as shape + (n, n), each of max amplitude `amp`.

    f = sum c cos(2 pi (kx x + ky y)) + s sin(...) over the half-plane of
    modes 0 <= kx <= kmax, |ky| <= kmax (kx = 0 only for ky > 0), with (c, s)
    drawn per mode in order of kx, then ky, field after field in row-major
    order; summed as Re(X^T W Y), where W = c - i s and X, Y are the 1-D
    tables exp(2 pi i k x).  The mode mask and X, Y depend only on (n, kmax)
    and are cached read-only per pair (`_fourier_tables`).
    """
    live, nlive, xt, y = _fourier_tables(grid.n, kmax)
    cs = rng.standard_normal(shape + (nlive, 2))
    w = np.zeros(shape + live.shape, dtype=complex)
    w[..., live] = cs[..., 0] - 1j * cs[..., 1]
    # the second product as one 2-D matmul over the stacked rows of X^T W
    f = ((xt @ w).reshape(-1, y.shape[0]) @ y).real.reshape(shape + (grid.n, grid.n))
    peak = np.max(np.abs(f), axis=(-2, -1), keepdims=True)
    f *= amp / np.where(peak > 0.0, peak, 1.0)  # a zero field stays zero
    return f


def random_fourier_scalar(rng, grid, kmax=2, amp=1.0):
    """Band-limited random scalar field with max amplitude `amp` (see `_fourier_fields`)."""
    return _fourier_fields(rng, grid, (), kmax, amp)


@lru_cache(maxsize=None)
def _basis_table(m):
    """Read-only (m*m, m*m) table T[i*m + j, b] = e_b[i, j] of the u(m) basis e_b."""
    table = np.ascontiguousarray(antihermitian_basis(m).reshape(m * m, m * m).T)
    table.flags.writeable = False
    return table


def random_form(rng, grid, degree, m, kmax=2, amp=1.0):
    """Random anti-Hermitian form with band-limited coefficients, one field per
    component and u(m) basis element, stored plane-major.

    The entries are one matmul of the u(m) basis table, cached read-only per
    m (`_basis_table`), against the fields of each component as (m*m, n*n).
    """
    n, nb = grid.n, m * m
    fields = _fourier_fields(rng, grid, (2 if degree == 1 else 1, nb), kmax, amp / nb)
    planes = _basis_table(m) @ fields.reshape(-1, nb, n * n)
    # Each real and imaginary part of an entry has one nonzero basis term, so
    # the sums are exact; a part with none can sum to -0.0, which + 0.0 turns
    # into the +0.0 of a per-basis sum.
    planes += 0.0
    planes = planes.reshape(-1, m, m, n, n)
    return _form(degree, grid, tuple(c.transpose(2, 3, 0, 1) for c in planes), ANTIHERMITIAN)


def random_scalar_one_form(rng, grid):
    return scalar_form(grid, 1, *_fourier_fields(rng, grid, (2,)))


# ---------------------------------------------------------------------------
# algebra

def algebra_suite(rng):
    """Every bracket is `stack_bracket`, the kernel of the gauge operators, run once per
    bracket term on a stack: the 9 basis pairs, then per rank its 25 draws (a, b, c)."""
    checks = []
    pairs = [(a, b) for a in range(3) for b in range(3)]
    left = np.array([SU2_BASIS[a] for a, _ in pairs])
    right = np.array([SU2_BASIS[b] for _, b in pairs])
    expect = np.array([sum(-2.0 * LEVI_CIVITA[a, b, c] * SU2_BASIS[c] for c in range(3))
                       for a, b in pairs])
    worst = float(np.max(np.abs(stack_bracket(left, right) - expect)))
    checks.append(Check("su2-structure-constants", worst, 1e-14))

    ad, jac, invd, unit = 0.0, 0.0, 0.0, 0.0
    draws = {2: [], 3: []}
    for _ in range(25):
        for m, abc in draws.items():
            abc.append([random_antihermitian(rng, m) for _ in range(3)])
    for m, abc in draws.items():
        a, b, c = (np.array(x) for x in zip(*abc))
        ca, cb = stack_bracket(c, a), stack_bracket(c, b)
        # <[c, a], b> + <a, [c, b]> per draw, with <x, y> = Re tr(x y^H)
        ad = max(ad, float(np.max(np.abs(np.einsum("kij,kij->k", ca, b.conj()).real
                                         + np.einsum("kij,kij->k", a, cb.conj()).real))))
        jac = max(jac, float(np.max(np.abs(
            stack_bracket(a, stack_bracket(b, c)) + stack_bracket(b, ca)
            + stack_bracket(c, stack_bracket(a, b))))))
        # the draws and their negatives in one stack
        g, g_inv = np.split(exp_antihermitian(np.concatenate((a, np.negative(a)))), 2)
        invd = max(invd, float(np.max(np.abs(g @ g_inv - np.eye(m)))))
        unit = max(unit, float(np.max(np.abs(g @ dagger(g) - np.eye(m)))))
    checks.append(Check("ad-invariance", ad, 1e-10))
    checks.append(Check("jacobi-identity", jac, 1e-10))
    checks.append(Check("exp-inverse", invd, 1e-10))
    checks.append(Check("exp-unitarity", unit, 1e-12))
    return checks


# ---------------------------------------------------------------------------
# forms

def forms_suite(rng, n):
    grid = TorusGrid(n)
    checks = []

    dd = 0.0
    for _ in range(10):
        f = random_form(rng, grid, 0, 2)
        dd = max(dd, exterior_d(exterior_d(f)).max_abs())
    checks.append(Check("d-compose-zero", dd, 1e-12))

    iso, sign = 0.0, 0.0
    for degree in (0, 1, 2):
        a = random_form(rng, grid, degree, 2)
        b = random_form(rng, grid, degree, 2)
        iso = max(iso, abs(l2_inner(hodge_star(a), hodge_star(b)) - l2_inner(a, b)))
        ss = hodge_star(hodge_star(a))
        ref = a if degree != 1 else -a
        sign = max(sign, (ss - ref).max_abs())
    checks.append(Check("star-isometry", iso, 1e-12))
    checks.append(Check("star-star-sign", sign, 1e-14))

    pair = 0.0
    for _ in range(50):
        lam = random_scalar_one_form(rng, grid)
        v = sharp(lam)
        xi0 = random_form(rng, grid, 0, 2)
        zeta1 = random_form(rng, grid, 1, 2)
        pair = max(pair, abs(l2_inner(wedge_compose(lam, xi0), zeta1)
                             - l2_inner(xi0, interior(v, zeta1))))
        xi1 = random_form(rng, grid, 1, 2)
        zeta2 = random_form(rng, grid, 2, 2)
        pair = max(pair, abs(l2_inner(wedge_compose(lam, xi1), zeta2)
                             - l2_inner(xi1, interior(v, zeta2))))
    checks.append(Check("contraction-pairing", pair, 1e-10))

    sbp = 0.0
    for _ in range(10):
        f = random_form(rng, grid, 0, 2)
        w = random_form(rng, grid, 1, 2)
        sbp = max(sbp, abs(l2_inner(exterior_d(f), w) - l2_inner(f, codifferential_flat(w))))
    checks.append(Check("summation-by-parts", sbp, 1e-12))

    errs = []
    for nn in (32, 64, 128):
        g = TorusGrid(nn)
        x, _ = g.nodes()
        w = scalar_form(g, 1, np.zeros((nn, nn)), np.sin(2.0 * np.pi * x))
        exact = 2.0 * np.pi * np.cos(2.0 * np.pi * x)
        got = exterior_d(w).comps[0][:, :, 0, 0].real
        errs.append(float(np.max(np.abs(got - exact))))
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    checks.append(Check("d-order-ratio-low", min(ratios), 3.6, kind="min"))
    checks.append(Check("d-order-ratio-high", max(ratios), 4.4))

    w = random_form(rng, grid, 1, 2)
    back = form_from_json(form_to_json(w))
    exact = 0.0 if all(np.array_equal(a, b) for a, b in zip(w.comps, back.comps)) else 1.0
    checks.append(Check("serialization-roundtrip", exact, 0.0))

    # on the unit torus |a dx + b dy|^2 is |a|^2 + |b|^2, Frobenius norms
    a, b = _CONSTANT_COEFFS
    w = constant_form(grid, 1, a, b)
    checks.append(Check("l2-closed-form", abs(l2_inner(w, w) - inner(a, a) - inner(b, b)), 1e-12))
    return checks


# ---------------------------------------------------------------------------
# gauge

def gauge_suite(rng, n):
    grid = TorusGrid(n)
    checks = []

    adj1, adj2, wadj = 0.0, 0.0, 0.0
    for _ in range(25):
        conn = Connection(random_form(rng, grid, 1, 2, amp=0.8))
        eta0 = random_form(rng, grid, 0, 2)
        om1 = random_form(rng, grid, 1, 2)
        om2 = random_form(rng, grid, 2, 2)
        adj1 = max(adj1, abs(l2_inner(covariant_d(conn, eta0), om1)
                             - l2_inner(eta0, codifferential(conn, om1))))
        adj2 = max(adj2, abs(l2_inner(covariant_d(conn, om1), om2)
                             - l2_inner(om1, codifferential(conn, om2))))
        wadj = max(wadj, abs(l2_inner(wedge_action(conn.potential, om1), om2)
                             - l2_inner(om1, wedge_action_adjoint(conn.potential, om2))))
    checks.append(Check("covariant-adjointness-deg1", adj1, 1e-10))
    checks.append(Check("covariant-adjointness-deg2", adj2, 1e-10))
    checks.append(Check("wedge-action-adjointness", wadj, 1e-10))

    decomp = 0.0
    for _ in range(5):
        ea = random_form(rng, grid, 1, 2)
        eb = random_form(rng, grid, 1, 2)
        ka = curvature(Connection(ea))
        kab = curvature(Connection(ea + eb))
        rhs = (exterior_d(eb) + wedge_compose(ea, eb) + wedge_compose(eb, ea)
               + wedge_compose(eb, eb))
        decomp = max(decomp, (kab - ka - rhs).max_abs())
    checks.append(Check("curvature-decomposition", decomp, 1e-10))

    # second-derivative identity: d_E(d_E D) must equal [K, D] up to the
    # O(h^2) product-rule defect of the central differences
    worst_ratio = 0.0
    for _ in range(5):
        e = random_form(rng, grid, 1, 2, kmax=1, amp=0.3)
        conn = Connection(e)
        d0 = random_form(rng, grid, 0, 2, kmax=1, amp=0.5)
        k = curvature(conn)
        resid = covariant_d(conn, covariant_d(conn, d0)) \
            - (wedge_compose(k, d0) - wedge_compose(d0, k))
        bound = 10.0 * grid.h ** 2 * (l2_norm(e) + 1.0) ** 3
        worst_ratio = max(worst_ratio, l2_norm(resid) / bound)
    checks.append(Check("curvature-consistency-ratio", worst_ratio, 1.0))

    resid = 0.0
    for cx, cy, mat in ((np.pi, 0.0, E1), (0.7, -0.3, E1 + 0.5 * E2), (0.0, 1.1, E3)):
        conn = Connection(constant_form(grid, 1, cx * mat, cy * mat))
        resid = max(resid, l2_norm(yang_mills_residual(conn)))
    checks.append(Check("residual-closed-constants", resid, 1e-10))

    twopath = 0.0
    for _ in range(5):
        conn = Connection(random_form(rng, grid, 1, 2, amp=0.6))
        twopath = max(twopath, l2_norm(yang_mills_residual(conn)
                                       - yang_mills_residual_covariant(conn)))
    checks.append(Check("residual-two-path", twopath, 1e-10))

    fv = 0.0
    eps = 1e-5
    for _ in range(10):
        e = random_form(rng, grid, 1, 2, amp=0.8)
        b = random_form(rng, grid, 1, 2, amp=0.8)
        conn = Connection(e)
        plus = yang_mills_functional(Connection(e + eps * b))
        minus = yang_mills_functional(Connection(e + (-eps) * b))
        fd = (plus - minus) / (2.0 * eps)
        db, k = covariant_d(conn, b), curvature(conn)
        analytic = 2.0 * l2_inner(db, k)
        # a random b can make |analytic| tiny: floor it at its Cauchy-Schwarz scale
        scale = 2.0 * l2_norm(db) * l2_norm(k)
        fv = max(fv, abs(fd - analytic) / max(abs(analytic), 1e-3 * scale, 1e-12))
    checks.append(Check("first-variation-relative", fv, 1e-6))

    ggrid = TorusGrid(64)
    grng = np.random.default_rng(rng.integers(2 ** 32))
    e = random_form(grng, ggrid, 1, 2, kmax=1, amp=0.6)
    theta = random_form(grng, ggrid, 0, 2, kmax=1, amp=0.15)
    g = exp_antihermitian(theta.comps[0])
    conn = Connection(e)
    ym0 = yang_mills_functional(conn)
    ym1 = yang_mills_functional(gauge_transform(conn, g))
    checks.append(Check("ym-gauge-invariance-relative", abs(ym1 - ym0) / ym0, 5e-4))

    # the zero connection, and two twisted fields against the dimension k of the
    # commutant of their transport holonomies, which H*(T^2, P) gives as (k, 2k, k)
    sgrid = TorusGrid(16)
    got = [*harmonic_space_dims(zero_connection(sgrid, 1)),
           harmonic_space_dims(zero_connection(sgrid, 2))[0]]
    want = [1, 2, 1, 4]
    for ax, ay in ((np.pi * E1, np.zeros((2, 2))), (0.9 * E1, 1.3 * E1)):
        conn = Connection(constant_form(sgrid, 1, ax, ay))
        k = _commutant_dim([parallel_transport(conn, torus_loop(w), MIN_STEPS)
                            for w in ((1, 0), (0, 1))])
        got.extend(harmonic_space_dims(conn))
        want.extend((k, 2 * k, k))
    checks.append(Check("harmonic-dims", float(sum(g != w for g, w in zip(got, want))), 0.0))
    return checks


def _commutant_dim(mats):
    """Real dimension of the commutant of the m x m matrices `mats` in u(m).

    Singular values of X -> ([X, g] for g in mats) below 1e-6 count as zero:
    far above the error of a transported holonomy, far below order one.
    """
    basis = antihermitian_basis(mats[0].shape[-1])
    comm = np.concatenate([basis @ g - g @ basis for g in mats], axis=1).reshape(len(basis), -1)
    sing = np.linalg.svd(np.concatenate([comm.real, comm.imag], axis=1), compute_uv=False)
    return int(np.count_nonzero(sing < 1e-6))


# ---------------------------------------------------------------------------
# curves

def curves_suite(rng, n):
    grid = TorusGrid(n)
    checks = []

    stencil = 0.0
    for _ in range(5):
        a = random_form(rng, grid, 1, 2)
        b = random_form(rng, grid, 1, 2)
        curve = ConnectionCurve(lambda t, a=a, b=b: t * a + (t * t) * b)
        jets = curve_jets(curve)
        stencil = max(stencil, (jets.e1 - a).max_abs(), (jets.e2 - b).max_abs())
    checks.append(Check("jet-stencil-exactness", stencil, 1e-12))

    flat_ce = 0.0
    for mat in (np.pi * E1, 0.4 * E1 + 0.8 * E2):
        pot = constant_form(grid, 1, mat, 0.3 * mat)
        curve = ConnectionCurve(lambda t, pot=pot: t * pot + (t * t) * (0.5 * pot))
        rep = flat_curve_report(curve, (0.0, 0.25, 0.5, 1.0))
        if not rep["all_flat"]:
            flat_ce = max(flat_ce, 1.0)
        flat_ce = max(flat_ce, rep["c_e_l2"])
    checks.append(Check("flat-curve-ce", flat_ce, 1e-6))

    # one commuting orbit (exact cancellations) and one small noncommuting one;
    # t_small = 1e-5 pushes the O(t) stencil truncation of C_E below the bound
    x, y = grid.nodes()
    a1c = tensor_form(scalar_form(grid, 0, 0.1 * np.sin(2.0 * np.pi * x)), E1)
    a2c = tensor_form(scalar_form(grid, 0, 0.1 * np.cos(2.0 * np.pi * y)), E1)
    a1n = tensor_form(scalar_form(grid, 0, 0.01 * np.sin(2.0 * np.pi * x)), E1) \
        + tensor_form(scalar_form(grid, 0, 0.01 * np.cos(2.0 * np.pi * y)), E2)
    a2n = tensor_form(scalar_form(grid, 0, 0.01 * np.sin(2.0 * np.pi * y)), E3)
    orbit_proj, orbit_ce = 0.0, 0.0
    for a1, a2 in ((a1c, a2c), (a1n, a2n)):
        jets = curve_jets(gauge_orbit_curve(a1, a2), t_small=1e-5)
        orbit_proj = max(orbit_proj, l2_norm(harmonic_projection(jets.e1)))
        orbit_ce = max(orbit_ce, l2_norm(jets.c_e))
    checks.append(Check("gauge-orbit-harmonic-projection", orbit_proj, 1e-6))
    checks.append(Check("gauge-orbit-ce", orbit_ce, 1e-6))

    # a constant-coefficient form is its own harmonic projection
    w = constant_form(grid, 1, *_CONSTANT_COEFFS)
    checks.append(Check("harmonic-projection-constant",
                        (harmonic_projection(w) - w).max_abs(), 1e-12))

    base = zero_connection(grid, 2)
    pot = constant_form(grid, 1, 0.9 * E1, -0.4 * E1)
    jets = curve_jets(ConnectionCurve(lambda t: t * pot))
    checks.append(Check("ym-curve-grad-e1", ym_curve_report(jets, base)["grad_e1_l2"], 1e-8))

    agree = 0.0
    for _ in range(20):
        alpha = random_scalar_one_form(rng, grid)
        lam_b, lam_c = rng.standard_normal(2)
        ansatz = su2_potential(alpha, lam_b * alpha, lam_c * alpha)
        agree = max(agree, su2_ym_conditions(ansatz)["cross_check_l2"])
    checks.append(Check("su2-two-path-agreement", agree, 1e-8))

    stokes = 0.0
    for _ in range(10):
        alpha = random_scalar_one_form(rng, grid)
        mean = np.mean(exterior_d(alpha).comps[0][:, :, 0, 0])
        stokes = max(stokes, abs(complex(mean)))
    checks.append(Check("stokes-mean-d", stokes, 1e-12))
    return checks


# ---------------------------------------------------------------------------
# holonomy

def holonomy_suite(rng):
    checks = []

    # bilinear interpolation of a constant is the constant, so this grid
    # connection keeps the scheme's fourth order
    c = 0.8 * E1 + 0.3 * E2
    const = Connection(constant_form(TorusGrid(8), 1, c, np.zeros((2, 2))))
    loop = torus_loop((1, 0))
    oracle = exp_antihermitian(-c)
    e100 = float(np.max(np.abs(parallel_transport(const, loop, 100) - oracle)))
    e200 = float(np.max(np.abs(parallel_transport(const, loop, 200) - oracle)))
    checks.append(Check("transport-order-ratio", e100 / max(e200, 1e-300), 14.0, kind="min"))

    g = parallel_transport(const, loop, 1000)
    checks.append(Check("transport-unitarity",
                        float(np.max(np.abs(dagger(g) @ g - np.eye(2)))), 1e-8))

    grev = parallel_transport(const, reverse_path(loop), 1000)
    checks.append(Check("transport-reversal",
                        float(np.max(np.abs(grev @ g - np.eye(2)))), 1e-8))

    # an L path along dx, then dy, with non-commuting constant legs A dx + B dy:
    # its transport is exp(-B) exp(-A), the legs' exponentials in path order
    a, b = 0.8 * E1, 0.6 * E3
    ell = concat_paths(segment_path((0.0, 0.0), (1.0, 0.0)), segment_path((1.0, 0.0), (1.0, 1.0)))
    g_ell = parallel_transport(Connection(constant_form(TorusGrid(8), 1, a, b)), ell, MIN_STEPS)
    checks.append(Check("transport-path-order", float(np.max(np.abs(
        g_ell - exp_antihermitian(-b) @ exp_antihermitian(-a)))), 1e-9))

    k = 0.23 + 0.11j
    pot = _pole_potential((0j,), ([[-k]],))
    loops = [circle_path(0j, 1.0, 1), circle_path(0j, 1.0, 2)]
    # a path run after another composes on the left: T(p, then q) = T(q) T(p)
    m1, m2 = (wilson_loop(pot, loop, 2000)[0] for loop in loops)
    both = parallel_transport(pot, concat_paths(loops[0], loops[0]), 1000)
    homo = float(np.max(np.abs(both - m1 @ m1)))
    homo = max(homo, float(np.max(np.abs(m2 - m1 @ m1))))
    checks.append(Check("loop-homomorphism", homo, 1e-6))

    ab = 0.0
    for kk, wind in ((0.5, 1), (0.37, 2), (-1.2, -1)):
        rec = aharonov_bohm_monodromy(kk, wind)
        ab = max(ab, abs(rec.monodromy - np.exp(2j * np.pi * kk * wind)))
    checks.append(Check("ab-monodromy", ab, 1e-8))

    ac = max(aharonov_casher_phase(lam).deviation for lam in (0.0, 0.25, 1.0))
    checks.append(Check("ac-agreement", ac, 1e-8))

    circle = torus_circle((0.5, 0.5), 0.2, 1)
    ts, traj = wong_evolve(const, circle, E1, 1000)
    norms = np.einsum("tij,tij->t", traj, traj.conj()).real
    checks.append(Check("wong-conservation", float(np.max(np.abs(norms - norms[0]))), 1e-9))
    # along C dx the transport is g(t) = exp(-(x(t) - x(0)) C), in closed form
    shift = circle.position(ts[::100])[:, 0] - circle.position(0.0)[0]
    gm = exp_antihermitian(-shift[:, None, None] * c)
    ad_dev = float(np.max(np.abs(gm @ E1 @ dagger(gm) - traj[::100])))
    checks.append(Check("wong-ad-consistency", ad_dev, 1e-7))

    base = AnalyticTorusPotential(lambda x, y: np.pi * E1,
                                  lambda x, y: np.zeros((2, 2), dtype=complex), 2)

    def gmap(x, y):
        # exp(th e2) = cos(th) + sin(th) e2, since e2^2 = -1
        th = 0.4 * np.sin(2.0 * np.pi * x)[..., None, None]
        return np.cos(th) * np.eye(2) + np.sin(th) * E2

    def dgmap(x, y):
        gx = 0.4 * 2.0 * np.pi * np.cos(2.0 * np.pi * x)[..., None, None] * (E2 @ gmap(x, y))
        return gx, np.zeros((2, 2), dtype=complex)

    conj = GaugeConjugatedPotential(base, gmap, dgmap)
    _, tr0 = wilson_loop(base, torus_loop((1, 0)), 1000)
    _, tr1 = wilson_loop(conj, torus_loop((1, 0)), 1000)
    checks.append(Check("wilson-gauge-invariance", abs(tr1 - tr0), 1e-6))
    return checks


SUITES = (
    ("algebra", lambda rng, n: algebra_suite(rng)),
    ("forms", forms_suite),
    ("gauge", gauge_suite),
    ("curves", curves_suite),
    ("holonomy", lambda rng, n: holonomy_suite(rng)),
)


def run_verify(seed, grid_n):
    """Run every invariant suite with a fixed seed; returns (checks, all_passed).

    A suite that raises is recorded as the failed check `<suite>-suite`
    (value 1, bound 0), its exception goes to stderr, and the other suites
    still run.
    """
    rng = np.random.default_rng(seed)
    checks = []
    for name, fn in SUITES:
        try:
            checks.extend(fn(rng, grid_n))
        except Exception as exc:
            print(f"gaugecalc: suite {name} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            checks.append(Check(f"{name}-suite", 1.0, 0.0))
    return checks, all(c.passed for c in checks)
