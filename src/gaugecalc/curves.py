"""Perturbation analysis of connection curves and the su(2) torus family.

A connection curve is a family t -> E(t) of potentials with E(0) = 0.  Its
leading jets E1 = lim E(t)/t and E2 = lim (E(t) - t E1)/t^2 are extracted with
two-point Richardson stencils that are exact on families quadratic in t, and
the obstruction 2-form C_E = d E2 + E1^E1 is assembled from them.

The su(2) ansatz machinery evaluates the stationarity conditions of a
potential alpha x e1 + beta x e2 + gamma x e3 with scalar 1-form coefficients
along two independent code paths (the general residual and the reduced scalar
equations) so they can be cross-checked against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import SU2_BASIS, exp_antihermitian
from .forms import (ANTIHERMITIAN, MatrixForm, TorusGrid, _form, exterior_d,
                    hodge_star, interior, l2_norm, scalar_form, sharp,
                    tensor_form, wedge_compose)
from .gauge import (FLAT_TOL, Connection, codifferential, covariant_d, curvature,
                    gauge_transform, require_flat, yang_mills_residual, zero_connection)
from .holonomy import AnalyticTorusPotential, parallel_transport, torus_loop


class ConnectionCurve:
    """Family t -> potential 1-form starting at the zero potential."""

    def __init__(self, sampler):
        start = sampler(0.0)
        if l2_norm(start) > 1e-12:
            raise ValueError("connection curve must start at the zero potential")
        self.sampler = sampler
        self.grid = start.grid
        self.m = start.m

    def potential(self, t):
        return self.sampler(float(t))

    def connection(self, t):
        return Connection(MatrixForm(1, self.grid, self.potential(t).comps, ANTIHERMITIAN))


@dataclass(frozen=True)
class PerturbationJets:
    e1: MatrixForm
    e2: MatrixForm
    c_e: MatrixForm


def curve_jets(curve, t_small=1e-3):
    """Leading jets from samples at t_small and 2 t_small.

    E1 = [4 E(t) - E(2t)] / (2t) and E2 = [E(2t) - 2 E(t)] / (2t^2); both are
    exact on families t A + t^2 B and carry O(t^2) and O(t) errors otherwise.
    """
    t = float(t_small)
    if not 0.0 < t <= 0.1:
        raise ValueError("t_small must lie in (0, 0.1]")
    if t < 1e-6:
        raise ValueError("t_small below 1e-6 loses the stencil to cancellation")
    ea = curve.potential(t)
    eb = curve.potential(2.0 * t)
    e1 = (4.0 * ea - eb) * (1.0 / (2.0 * t))
    e2 = (eb - 2.0 * ea) * (1.0 / (2.0 * t * t))
    c_e = exterior_d(e2) + wedge_compose(e1, e1)
    return PerturbationJets(e1, e2, c_e)


def harmonic_projection(w):
    """Projection onto constant-coefficient forms.

    These span the harmonic space of the trivial flat base: the difference
    operators are translation invariant, so the node-mean of each component is
    the discrete harmonic representative.
    """
    means = tuple(np.broadcast_to(c.mean(axis=(0, 1)), c.shape).copy() for c in w.comps)
    return _form(w.degree, w.grid, means, w.value_class)


def ym_curve_report(jets, base):
    """Jet diagnostics against a flat base connection.

    Reports the norms that vanish for curves of stationary points: the
    covariant derivative and codifferential of E1, harmonicity measures of
    C_E, and the harmonic projection of E1.  On a surface the harmonicity of
    the top-degree C_E reduces to its codifferential; the derivative of its
    star dual is listed alongside (the two agree through the star isometry).
    """
    require_flat(base, "jet diagnostics")
    return {
        "grad_e1_l2": l2_norm(covariant_d(base, jets.e1)),
        "delta_e1_l2": l2_norm(codifferential(base, jets.e1)),
        "delta_ce_l2": l2_norm(codifferential(base, jets.c_e)),
        "grad_star_ce_l2": l2_norm(covariant_d(base, hodge_star(jets.c_e))),
        "harmonic_e1_l2": l2_norm(harmonic_projection(jets.e1)),
        "ce_l2": l2_norm(jets.c_e),
    }


def flat_curve_report(curve, sample_ts, flat_tol=FLAT_TOL, t_small=1e-3):
    """Check flatness along the curve and report the obstruction norm ||C_E||."""
    rows = []
    for t in sample_ts:
        kn = l2_norm(curvature(curve.connection(t)))
        rows.append({"t": float(t), "curvature_l2": kn, "flat": bool(kn <= flat_tol)})
    jets = curve_jets(curve, t_small)
    return {
        "rows": rows,
        "all_flat": all(r["flat"] for r in rows),
        "c_e_l2": l2_norm(jets.c_e),
        "flat_tol": float(flat_tol),
        "t_small": float(t_small),
    }


def gauge_orbit_curve(a1, a2):
    """Curve of gauge transforms of the trivial flat connection.

    G_t = exp(t A1 + t^2 A2) pointwise; E(t) is the transformed potential.
    The jets of such a curve satisfy E1 = -d A1 up to stencil error, and C_E
    vanishes.
    """
    for a in (a1, a2):
        if a.degree != 0:
            raise ValueError("gauge generators must be 0-forms")
        if a.value_class != ANTIHERMITIAN:
            raise ValueError("gauge generators must carry anti-Hermitian values")
    if a1.grid != a2.grid or a1.m != a2.m:
        raise ValueError("gauge generators have mismatched grid or rank")
    base = zero_connection(a1.grid, a1.m)
    f1 = a1.comps[0]
    f2 = a2.comps[0]

    def sampler(t):
        g = exp_antihermitian(t * f1 + (t * t) * f2)
        return gauge_transform(base, g).potential

    return ConnectionCurve(sampler)


@dataclass(frozen=True)
class Su2Ansatz:
    """Potential alpha x e1 + beta x e2 + gamma x e3 with its scalar data."""

    connection: Connection
    alpha: MatrixForm
    beta: MatrixForm
    gamma: MatrixForm
    h: tuple


def su2_potential(alpha, beta, gamma):
    """Assemble the su(2) ansatz and the functions h_a with d(form_a) = h_a w."""
    forms = (alpha, beta, gamma)
    for f in forms:
        if f.degree != 1 or f.m != 1:
            raise ValueError("ansatz coefficients must be scalar 1-forms")
    if len({f.grid for f in forms}) != 1:
        raise ValueError("ansatz coefficients must share a grid")
    e = (tensor_form(alpha, SU2_BASIS[0]) + tensor_form(beta, SU2_BASIS[1])
         + tensor_form(gamma, SU2_BASIS[2]))
    h = tuple(exterior_d(f).comps[0][:, :, 0, 0].real for f in forms)
    return Su2Ansatz(Connection(MatrixForm(1, e.grid, e.comps, ANTIHERMITIAN)),
                     alpha, beta, gamma, h)


def decompose_su2(conn):
    """Recover scalar ansatz coefficients from a rank-2 connection, or reject."""
    if conn.m != 2:
        raise ValueError("su(2) decomposition needs a rank-2 connection")
    grid = conn.grid
    coeffs = []
    for comp in conn.potential.comps:
        cs = [np.einsum("xyij,ij->xy", comp, e.conj()).real / 2.0 for e in SU2_BASIS]
        recon = sum(c[..., None, None] * e for c, e in zip(cs, SU2_BASIS))
        if float(np.max(np.abs(comp - recon))) > 1e-10:
            raise ValueError("potential is not in the scalar su(2) ansatz span")
        coeffs.append(cs)
    forms = tuple(scalar_form(grid, 1, coeffs[0][a], coeffs[1][a]) for a in range(3))
    return forms


def su2_ym_conditions(ansatz):
    """Scalar stationarity residuals of the ansatz plus the general cross-check.

    For cyclic (a, b, c) the residual is
        *dh_a - 2 (i_{form_b}(h_c w) - i_{form_c}(h_b w)),
    and the full residual 1-form is -(sum_a residual_a x e_a), which must agree
    with the general machinery whenever E^E = 0.
    """
    grid = ansatz.connection.grid
    forms = (ansatz.alpha, ansatz.beta, ansatz.gamma)
    hw = tuple(scalar_form(grid, 2, ha) for ha in ansatz.h)
    residuals = []
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        star_dh = hodge_star(exterior_d(scalar_form(grid, 0, ansatz.h[a])))
        res = star_dh - 2.0 * (interior(sharp(forms[b]), hw[c])
                               - interior(sharp(forms[c]), hw[b]))
        residuals.append(res)
    wedges = (wedge_compose(forms[1], forms[2]),
              wedge_compose(forms[2], forms[0]),
              wedge_compose(forms[0], forms[1]))
    assembled = -(tensor_form(residuals[0], SU2_BASIS[0])
                  + tensor_form(residuals[1], SU2_BASIS[1])
                  + tensor_form(residuals[2], SU2_BASIS[2]))
    general = yang_mills_residual(ansatz.connection)
    return {
        "stationarity_l2": tuple(l2_norm(r) for r in residuals),
        "wedge_l2": tuple(l2_norm(w) for w in wedges),
        "ansatz_residual_l2": l2_norm(assembled),
        "general_residual_l2": l2_norm(general),
        "cross_check_l2": l2_norm(general - assembled),
    }


def seam_family_form(grid):
    """The 1-form sin(pi x) dy + cos(pi y) dx sampled at the nodes.

    The dx coefficient cos(pi y) does not match across the y identification
    (cos 0 = 1 against cos pi = -1); it is sampled as-is, without smoothing,
    and the resulting seam artifacts are reported downstream.
    """
    x, y = grid.nodes()
    return scalar_form(grid, 1, np.cos(np.pi * y), np.sin(np.pi * x))


def torus_family_curve(grid, lam=1.0):
    """Curve E_t = t a~ x (e1 + lam (1 - t) e2) built on the seam family form a~."""
    at = seam_family_form(grid)
    zero = scalar_form(grid, 1, np.zeros((grid.n, grid.n)), np.zeros((grid.n, grid.n)))

    def sampler(t):
        alpha = t * at
        beta = (lam * t * (1.0 - t)) * at
        return su2_potential(alpha, beta, zero).connection.potential

    return ConnectionCurve(sampler)


def _family_endpoint_potential(lam, t):
    mmat = SU2_BASIS[0] + lam * (1.0 - t) * SU2_BASIS[1]

    def ax(x, y):
        return (t * np.cos(np.pi * y)) * mmat

    def ay(x, y):
        return (t * np.sin(np.pi * x)) * mmat

    return AnalyticTorusPotential(ax, ay, 2)


@dataclass(frozen=True)
class ClaimReport:
    """Per-t residual and flatness data for the torus family, plus diagnostics.

    All entries are measurements: flatness claims at the endpoints are
    reported with their computed norms, never asserted.
    """

    lam: float
    n: int
    flat_tol: float
    rows: tuple
    jet_summary: dict
    endpoint_holonomies: dict
    seam: dict

    def csv_rows(self):
        return [(r["t"], r["curvature_l2"], r["residual_l2"]) for r in self.rows]

    def to_record(self):
        return {
            "lambda": self.lam,
            "n": self.n,
            "flat_tol": self.flat_tol,
            "rows": list(self.rows),
            "jet_summary": self.jet_summary,
            "endpoint_holonomies": {
                key: {gen: _matrix_entries(mat) for gen, mat in val.items()}
                for key, val in self.endpoint_holonomies.items()
            },
            "seam": self.seam,
        }


def _matrix_entries(mat):
    return [[float(z.real), float(z.imag)] for z in np.asarray(mat).ravel(order="C")]


def torus_family_report(lam, ts, n=64, steps=1000, flat_tol=FLAT_TOL, t_small=1e-3):
    """Evaluate the torus family at the sample times and collect every claim."""
    grid = TorusGrid(n)
    at = seam_family_form(grid)
    zero = scalar_form(grid, 1, np.zeros((n, n)), np.zeros((n, n)))
    rows = []
    for t in ts:
        t = float(t)
        ansatz = su2_potential(t * at, (lam * t * (1.0 - t)) * at, zero)
        cond = su2_ym_conditions(ansatz)
        kn = l2_norm(curvature(ansatz.connection))
        rows.append({
            "t": t,
            "curvature_l2": kn,
            "residual_l2": cond["general_residual_l2"],
            "ansatz_residual_l2": cond["ansatz_residual_l2"],
            "cross_check_l2": cond["cross_check_l2"],
            "stationarity_l2": list(cond["stationarity_l2"]),
            "wedge_l2": list(cond["wedge_l2"]),
            "flat": bool(kn <= flat_tol),
        })
    jets = curve_jets(torus_family_curve(grid, lam), t_small)
    jet_summary = ym_curve_report(jets, zero_connection(grid, 2))
    holo = {}
    for label, t_end in (("t0", 0.0), ("t1", 1.0)):
        pot = _family_endpoint_potential(lam, t_end)
        holo[label] = {
            "x_generator": parallel_transport(pot, torus_loop((1, 0)), steps),
            "y_generator": parallel_transport(pot, torus_loop((0, 1)), steps),
        }
    dx_coeff = at.comps[0][:, :, 0, 0].real
    k1 = curvature(su2_potential(at, zero, zero).connection).comps[0]
    kmag = np.abs(k1).max(axis=(2, 3))
    seam_rows = np.concatenate([kmag[:, :1], kmag[:, -1:]], axis=1)
    interior_rows = kmag[:, 1:-1]
    seam = {
        "dx_coefficient_jump": float(np.max(np.abs(dx_coeff[:, 0] - dx_coeff[:, -1]))),
        "curvature_max_at_seam": float(seam_rows.max()),
        "curvature_max_interior": float(interior_rows.max()),
    }
    return ClaimReport(float(lam), n, float(flat_tol), tuple(rows), jet_summary, holo, seam)
