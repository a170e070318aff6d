"""Connections on the trivial Hermitian bundle over the torus grid.

A connection is stored as the trivial flat derivative d plus an anti-Hermitian
potential 1-form E, so the curvature is K = dE + E^E.  The codifferential is
-*d_E* with the covariant derivative inside; on this grid it is the exact L2
adjoint of the covariant derivative (the central differences are skew-adjoint
and the pointwise bracket terms are adjoint through the ad-invariance of
Re tr(A B^H)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import dagger
from .forms import (ANTIHERMITIAN, MatrixForm, _combine_class, _ddx, _ddy,
                    _form, exterior_d, form_from_record, form_to_record,
                    hodge_star, l2_inner, l2_norm, wedge_compose, zero_form)

FLAT_TOL = 1e-8  # curvature L2 norm up to which a connection counts as flat


@dataclass(frozen=True)
class Connection:
    """Trivialized gauge field: flat base d plus anti-Hermitian potential 1-form."""

    potential: MatrixForm

    def __post_init__(self):
        if self.potential.degree != 1:
            raise ValueError("connection potential must be a 1-form")
        if self.potential.value_class != ANTIHERMITIAN:
            raise ValueError("connection potential must carry anti-Hermitian values")

    @property
    def grid(self):
        return self.potential.grid

    @property
    def m(self):
        return self.potential.m


def zero_connection(grid, m):
    return Connection(zero_form(grid, 1, m))


def _square(e):
    """E^E = [Ex, Ey] dx^dy, anti-Hermitian for an anti-Hermitian potential."""
    return _form(2, e.grid, wedge_compose(e, e).comps, ANTIHERMITIAN)


def curvature(conn):
    """Curvature 2-form K = dE + E^E of the trivialized connection."""
    e = conn.potential
    return exterior_d(e) + _square(e)


def require_flat(conn, what, flat_tol=FLAT_TOL):
    """Raise ValueError with the measured curvature norm unless `conn` is flat for `what`."""
    kn = l2_norm(curvature(conn))
    if not kn <= flat_tol:
        raise ValueError(f"flat connection required for {what}: curvature norm {kn:.3e} "
                         f"exceeds {flat_tol:.1e}")


def wedge_action(e_form, w):
    """Left/right wedge by a potential 1-form: D -> E^D - (-1)^k D^E."""
    if w.degree >= 2:
        raise ValueError("wedge action is defined on degrees 0 and 1")
    ew = wedge_compose(e_form, w)
    we = wedge_compose(w, e_form)
    out = ew - we if w.degree % 2 == 0 else ew + we
    # a bracket of two anti-Hermitian forms is anti-Hermitian
    return _form(out.degree, out.grid, out.comps,
                 _combine_class(e_form.value_class, w.value_class))


def covariant_d(conn, w):
    """Covariant exterior derivative dD + E^D - (-1)^k D^E."""
    if w.degree >= 2:
        raise ValueError("covariant derivative of a top-degree form is not defined here")
    return exterior_d(w) + wedge_action(conn.potential, w)


def codifferential(conn, w):
    """Covariant codifferential -*d_E(*w); exact L2 adjoint of covariant_d."""
    if w.degree == 0:
        raise ValueError("codifferential of a 0-form is not defined")
    return -hodge_star(covariant_d(conn, hodge_star(w)))


def codifferential_flat(w):
    """Codifferential of the trivial flat base, -*d(*w)."""
    if w.degree == 0:
        raise ValueError("codifferential of a 0-form is not defined")
    return -hodge_star(exterior_d(hodge_star(w)))


def wedge_action_adjoint(e_form, w):
    """L2 adjoint of the degree-1 wedge action, mapping 2-forms to 1-forms.

    Pointwise, with E = Ex dx + Ey dy and w = R dx^dy:
    the dx component is [Ey, R], the dy component is [R, Ex].
    """
    if e_form.degree != 1 or w.degree != 2:
        raise ValueError("adjoint wedge action maps 2-forms to 1-forms against a 1-form potential")
    if e_form.grid != w.grid or e_form.m != w.m:
        raise ValueError("potential and form have mismatched grid or rank")
    if e_form.value_class != ANTIHERMITIAN or w.value_class != ANTIHERMITIAN:
        raise ValueError("adjoint wedge action needs anti-Hermitian inputs")
    ex, ey = e_form.comps
    (r,) = w.comps
    return _form(1, w.grid, (ey @ r - r @ ey, r @ ex - ex @ r), ANTIHERMITIAN)


def yang_mills_functional(conn):
    """Squared L2 norm of the curvature."""
    k = curvature(conn)
    return l2_inner(k, k)


def yang_mills_residual(conn):
    """Stationarity residual delta(dE) + delta(E^E) + adjoint terms.

    The flat-base codifferential is used throughout; the residual vanishes
    exactly at stationary points of the Yang-Mills functional.
    """
    e = conn.potential
    de = exterior_d(e)
    ee = _square(e)
    return (codifferential_flat(de) + codifferential_flat(ee)
            + wedge_action_adjoint(e, de) + wedge_action_adjoint(e, ee))


def yang_mills_residual_covariant(conn):
    """Covariant form of the residual, delta_E(K); agrees with the flat form."""
    return codifferential(conn, curvature(conn))


def residual_report(conn, flat_tol=FLAT_TOL):
    """Structured record {ym_value, residual_l2, curvature_l2, flat}."""
    k = curvature(conn)
    kn = l2_norm(k)
    return {
        "ym_value": l2_inner(k, k),
        "residual_l2": l2_norm(yang_mills_residual(conn)),
        "residual_covariant_l2": l2_norm(yang_mills_residual_covariant(conn)),
        "curvature_l2": kn,
        "flat": bool(kn <= flat_tol),
        "flat_tol": float(flat_tol),
    }


def _skew(a):
    return 0.5 * (a - dagger(a))


def gauge_transform(conn, g):
    """Change of unitary frame: E -> G E G^-1 - (dG) G^-1.

    Central differences break the product rule, so the raw (dG) G^-1 picks up
    a spurious Hermitian O(h^2) part; only its skew part is kept, which is the
    symmetrized discretization of the same continuum quantity.
    """
    g = np.asarray(g, dtype=complex)
    n, m = conn.grid.n, conn.m
    if g.shape != (n, n, m, m):
        raise ValueError(f"gauge field must have shape ({n}, {n}, {m}, {m})")
    gh = dagger(g)
    unit_defect = float(np.max(np.abs(g @ gh - np.eye(m))))
    if not unit_defect <= 1e-10:
        raise ValueError(f"gauge field is not unitary: defect {unit_defect:.3e}")
    h = conn.grid.h
    ex, ey = conn.potential.comps
    new_x = g @ ex @ gh - _skew(_ddx(g, h) @ gh)
    new_y = g @ ey @ gh - _skew(_ddy(g, h) @ gh)
    # conjugation and the skew part keep the values anti-Hermitian
    return Connection(_form(1, conn.grid, (new_x, new_y), ANTIHERMITIAN))


def laplacian_apply(conn, w):
    """Hodge Laplacian delta d + d delta with undefined boundary terms dropped."""
    if w.degree == 0:
        return codifferential(conn, covariant_d(conn, w))
    if w.degree == 1:
        return (codifferential(conn, covariant_d(conn, w))
                + covariant_d(conn, codifferential(conn, w)))
    return covariant_d(conn, codifferential(conn, w))


def connection_to_record(conn):
    return {"grid": conn.grid.n, "m": conn.m, "potential": form_to_record(conn.potential)}


def connection_from_record(rec):
    required = {"grid", "m", "potential"}
    missing = required - set(rec)
    if missing:
        raise ValueError(f"connection record is missing keys: {sorted(missing)}")
    pot = form_from_record(rec["potential"])
    if pot.grid.n != int(rec["grid"]) or pot.m != int(rec["m"]):
        raise ValueError("connection record is inconsistent with its potential")
    return Connection(MatrixForm(pot.degree, pot.grid, pot.comps, ANTIHERMITIAN))
