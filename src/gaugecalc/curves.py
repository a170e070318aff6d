"""Perturbation analysis of connection curves and the su(2) torus family.

A connection curve is a family t -> E(t) of potentials with E(0) = 0.  Its
leading jets E1 = lim E(t)/t and E2 = lim (E(t) - t E1)/t^2 are extracted with
two-point Richardson stencils that are exact on families quadratic in t, and
the obstruction 2-form C_E = d E2 + E1^E1 is assembled from them.

The su(2) ansatz machinery evaluates the stationarity conditions of a
potential alpha x e1 + beta x e2 + gamma x e3 with scalar 1-form coefficients
along two independent code paths (the general residual and the reduced scalar
equations) so they can be cross-checked against each other.

The torus family E_t = t pi dx x (e1 + lam (1 - t) e2) is that ansatz with
constant coefficients.  It is flat and Yang-Mills at every t and joins two
vacua that no gauge transform relates: E_0 = 0, with trivial holonomy, and
E_1 = pi dx x e1, whose x-holonomy is exp(-pi e1) = -I.
`torus_family_report` collects its per-t residuals, its jets at t = 0 and
the link-product holonomies of its two ends (`gauge.generator_holonomies`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import SU2_BASIS, exp_antihermitian
from .forms import (ANTIHERMITIAN, MatrixForm, TorusGrid, _form, _tensor_sum, exterior_d,
                    hodge_star, interior, l2_norm, scalar_form, sharp, wedge_compose)
from .gauge import (Connection, _flatness, codifferential, covariant_d,
                    curvature, gauge_transform, generator_holonomies, links, require_flat,
                    yang_mills_residual, zero_connection)

T_SMALL = 1e-3  # default jet stencil step of curve_jets


class ConnectionCurve:
    """Family t -> potential 1-form starting at the zero potential."""

    def __init__(self, sampler):
        start = sampler(0.0)
        if l2_norm(start) > 1e-12:
            raise ValueError("connection curve must start at the zero potential")
        self.sampler = sampler

    def potential(self, t):
        return self.sampler(float(t))

    def connection(self, t):
        return Connection(self.potential(t))


@dataclass(frozen=True)
class PerturbationJets:
    e1: MatrixForm
    e2: MatrixForm
    c_e: MatrixForm


def curve_jets(curve, t_small=T_SMALL):
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
    """Projection onto constant-coefficient forms: the node mean of each component.

    Constant forms are harmonic for the central differences, but on an even
    grid they are not all of the discrete harmonic space.  The alternating
    modes (the doublers) are harmonic too: at N = 8, w = (-1)^i dx with i
    the x-index has |dw| = |delta w| = 0 and L2 norm 1, yet its node mean,
    and so its projection here, is 0.  The mean is therefore the harmonic
    part only in the continuum sense and only at the trivial base; ROADMAP
    item 13 (Hodge decomposition on links) replaces it.
    """
    means = tuple(np.full_like(c, c.mean(axis=(0, 1))) for c in w.comps)
    return _form(w.degree, w.grid, means, w.value_class)


def ym_curve_report(jets, base):
    """Jet diagnostics against a flat base connection.

    Reports the norms that vanish for curves of stationary points: the
    covariant derivative and codifferential of E1, harmonicity measures of
    C_E, and the harmonic projection of E1.  On a surface the harmonicity of
    the top-degree C_E reduces to its codifferential.
    """
    require_flat(base, "jet diagnostics")
    return {
        "grad_e1_l2": l2_norm(covariant_d(base, jets.e1)),
        "delta_e1_l2": l2_norm(codifferential(base, jets.e1)),
        "delta_ce_l2": l2_norm(codifferential(base, jets.c_e)),
        "harmonic_e1_l2": l2_norm(harmonic_projection(jets.e1)),
        "ce_l2": l2_norm(jets.c_e),
    }


def flat_curve_report(curve, sample_ts):
    """Check flatness along the curve and report the obstruction norm ||C_E||."""
    rows = []
    for t in sample_ts:
        kn, flat = _flatness(curvature(curve.connection(t)))
        rows.append({"t": float(t), "curvature_l2": kn, "flat": flat})
    jets = curve_jets(curve)
    return {
        "rows": rows,
        "all_flat": all(r["flat"] for r in rows),
        "c_e_l2": l2_norm(jets.c_e),
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
    e = _tensor_sum(forms, SU2_BASIS)
    h = tuple(exterior_d(f).comps[0][:, :, 0, 0].real for f in forms)
    return Su2Ansatz(Connection(e), alpha, beta, gamma, h)


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
    assembled = -_tensor_sum(residuals, SU2_BASIS)
    general = yang_mills_residual(ansatz.connection)
    return {
        "stationarity_l2": tuple(l2_norm(r) for r in residuals),
        "wedge_l2": tuple(l2_norm(w) for w in wedges),
        "ansatz_residual_l2": l2_norm(assembled),
        "general_residual_l2": l2_norm(general),
        "cross_check_l2": l2_norm(general - assembled),
    }


def torus_family(grid, lam, t):
    """The su(2) ansatz of E_t = t pi dx x (e1 + lam (1 - t) e2).

    Its coefficients are constant multiples of dx, so dE_t = 0 and
    E_t ^ E_t = 0: every E_t is flat and Yang-Mills on any grid.  The curve
    runs from the vacuum E_0 = 0 to the vacuum E_1 = pi dx x e1, whose
    x-holonomy exp(-pi e1) = -I is central and so not gauge equivalent to I.
    """
    zero = np.zeros((grid.n, grid.n))
    pi_dx = scalar_form(grid, 1, np.full_like(zero, np.pi), zero)
    return su2_potential(t * pi_dx, (lam * t * (1.0 - t)) * pi_dx,
                         scalar_form(grid, 1, zero, zero))


@dataclass(frozen=True)
class ClaimReport:
    """Per-t residual and flatness data of the torus family, its jets and the
    generator holonomies of its ends: measured values, never asserted.  The
    CLI lays them out as a report.
    """

    rows: tuple
    jet_summary: dict
    endpoint_holonomies: dict


def torus_family_report(lam, ts, n):
    """Evaluate the torus family at the sample times and collect every claim.

    A row is flat under the central flatness rule (`gauge._flatness`).  The
    endpoint holonomies are link products of the family's own grid
    connections; the links of the constant E_x dx multiply to exp(-E_x)
    around x and to I around y, up to rounding.
    """
    grid = TorusGrid(n)
    rows = []
    for t in ts:
        t = float(t)
        ansatz = torus_family(grid, lam, t)
        cond = su2_ym_conditions(ansatz)
        kn, flat = _flatness(curvature(ansatz.connection))
        rows.append({
            "t": t,
            "curvature_l2": kn,
            "residual_l2": cond["general_residual_l2"],
            "ansatz_residual_l2": cond["ansatz_residual_l2"],
            "cross_check_l2": cond["cross_check_l2"],
            "stationarity_l2": list(cond["stationarity_l2"]),
            "wedge_l2": list(cond["wedge_l2"]),
            "flat": flat,
        })
    curve = ConnectionCurve(lambda t: torus_family(grid, lam, t).connection.potential)
    jet_summary = ym_curve_report(curve_jets(curve), zero_connection(grid, 2))
    holo = {label: dict(zip(("x_generator", "y_generator"),
                            generator_holonomies(*links(curve.connection(t_end)))))
            for label, t_end in (("t0", 0.0), ("t1", 1.0))}
    return ClaimReport(tuple(rows), jet_summary, holo)
