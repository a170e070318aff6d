"""Connections on the trivial Hermitian bundle over the torus grid.

A connection is stored as the trivial flat derivative d plus an anti-Hermitian
potential 1-form E, so the curvature is K = dE + E^E.  The codifferential is
-*d_E* with the covariant derivative inside; on this grid it is the exact L2
adjoint of the covariant derivative (the central differences are skew-adjoint
and the pointwise bracket terms are adjoint through the ad-invariance of
Re tr(A B^H)).

The pointwise terms are brackets, each one `algebra.stack_bracket`: the
curvature's E^E = [Ex, Ey] dx^dy; the wedge action [E, f] = ([Ex, f],
[Ey, f]) on a 0-form f and [Ex, Wy] - [Ey, Wx] on a 1-form W; and its
adjoint ([Ey, R], [R, Ex]) on a 2-form R dx^dy.  Both refuse a form whose
grid or rank differs from the potential's.

A `Connection` is frozen, so it has one curvature and one link field:
`curvature` forms K and `links` the Wilson links U = exp(h E) on the first
request, and each is kept on the connection with read-only arrays.  The
functional, the covariant residual and the residual report read that one K.
Both flatness rules live here, each against FLAT_TOL: `_flatness` tests a K
(read by `require_flat`, the residual report and the curve reports of
`curves`), and `_require_flat_links` tests the plaquettes of a link field
(read by the harmonic counts of `spectrum`).  The harmonic counts and the
generator holonomies of the torus family read the links.

A connection is saved as the record of its potential, `form_to_json(conn.potential)`,
and loaded as `Connection(form_from_json(text))`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .algebra import (_plane_major, _unitary_inverse, dagger, exp_antihermitian,
                      stack_bracket, stack_matmul)
from .forms import (ANTIHERMITIAN, GENERAL, MatrixForm, _combine_class, _form, _neg_star,
                    exterior_d, hodge_star, l2_inner, l2_norm, zero_form)

# curvature L2 norm, or largest plaquette defect of the links, up to which a field
# counts as flat; no flag or parameter overrides it
FLAT_TOL = 1e-8


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

    @cached_property
    def _curvature(self):
        # formed on the first request and kept: the arrays are made read-only,
        # so no caller can change the value every later request returns
        e = self.potential
        k = exterior_d(e) + _square(e)
        for c in k.comps:
            c.flags.writeable = False
        return k

    @cached_property
    def _links(self):
        links = tuple(exp_antihermitian(self.grid.h * c) for c in self.potential.comps)
        for u in links:
            u.flags.writeable = False
        return links


def zero_connection(grid, m):
    return Connection(zero_form(grid, 1, m))


def _square(e):
    """E^E = [Ex, Ey] dx^dy, anti-Hermitian for an anti-Hermitian potential."""
    return _form(2, e.grid, (stack_bracket(*e.comps),), ANTIHERMITIAN)


def curvature(conn):
    """Curvature 2-form K = dE + E^E of the trivialized connection.

    It is formed once per `Connection` and kept on it, with read-only arrays.
    """
    return conn._curvature


def _flatness(k):
    """(L2 norm of the curvature `k`, whether it is at most FLAT_TOL): the one flatness rule."""
    kn = l2_norm(k)
    return kn, bool(kn <= FLAT_TOL)


def require_flat(conn, what):
    """Raise ValueError with the measured curvature norm unless `conn` is flat for `what`."""
    kn, flat = _flatness(curvature(conn))
    if not flat:
        raise ValueError(f"flat connection required for {what}: curvature norm {kn:.3e} "
                         f"exceeds {FLAT_TOL:.1e}")


def links(conn):
    """Wilson links (U_x, U_y) = (exp(h E_x), exp(h E_y)), formed once per `Connection` and
    kept on it with read-only arrays.  U_x(j, l) joins node (j, l) to (j+1, l), U_y(j, l) to
    (j, l+1) (K. G. Wilson, Phys. Rev. D 10, 2445 (1974)).
    """
    return conn._links


def _next_node(u, axis):
    """The link field `u` read at the next node along `axis`: u(j+1, l) for axis 0, u(j, l+1)
    for axis 1.  The interior and the wrapped row (or column) are slice copies into one
    output in u's memory order: the shift of `np.roll` without its per-call argument handling.
    """
    out = np.empty_like(u)
    if axis == 0:
        out[:-1], out[-1] = u[1:], u[0]
    else:
        out[:, :-1], out[:, -1] = u[:, 1:], u[:, 0]
    return out


def _require_flat_links(ux, uy):
    """Refuse the link field (ux, uy) unless its largest plaquette defect
    |U_x(j, l) U_y(j+1, l) - U_y(j, l) U_x(j, l+1)| is at most FLAT_TOL: the one link
    flatness rule.
    """
    defect = np.abs(stack_matmul(ux, _next_node(uy, 0))
                    - stack_matmul(uy, _next_node(ux, 1))).max()
    if not defect <= FLAT_TOL:
        raise ValueError(f"the link field is not flat: largest plaquette defect {defect:.3e} "
                         f"exceeds {FLAT_TOL:.1e}")


def generator_holonomies(ux, uy):
    """Transports (g_x, g_y) of the link field (ux, uy) around the generator loops through
    node (0, 0), as ordered link products in `parallel_transport`'s convention:
    g_x = (U_x(0, 0) ... U_x(n-1, 0))^H, and g_y likewise along y.
    """
    return tuple(dagger(reduce(np.matmul, u)) for u in (ux[:, 0], uy[0, :]))


def wedge_action(e_form, w):
    """Left/right wedge by a potential 1-form: D -> E^D - (-1)^k D^E."""
    if w.degree >= 2:
        raise ValueError("wedge action is defined on degrees 0 and 1")
    if e_form.grid != w.grid or e_form.m != w.m:
        raise ValueError("potential and form have mismatched grid or rank")
    if w.degree == 0:
        (f,) = w.comps
        comps = tuple(stack_bracket(c, f) for c in e_form.comps)
    else:
        (ex, ey), (wx, wy) = e_form.comps, w.comps
        comps = (stack_bracket(ex, wy) - stack_bracket(ey, wx),)
    # a bracket of two anti-Hermitian forms is anti-Hermitian
    return _form(w.degree + 1, w.grid, comps,
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
    return _neg_star(covariant_d(conn, hodge_star(w)))


def codifferential_flat(w):
    """Codifferential of the trivial flat base, -*d(*w)."""
    if w.degree == 0:
        raise ValueError("codifferential of a 0-form is not defined")
    return _neg_star(exterior_d(hodge_star(w)))


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
    return _form(1, w.grid, (stack_bracket(ey, r), stack_bracket(r, ex)), ANTIHERMITIAN)


def yang_mills_functional(conn):
    """Squared L2 norm of the curvature."""
    k = curvature(conn)
    return l2_inner(k, k)


def yang_mills_residual(conn):
    """Stationarity residual delta(dE) + delta(E^E) + adjoint terms.

    The flat-base codifferential is used throughout; the residual vanishes
    exactly at stationary points of the Yang-Mills functional.  dE and E^E
    are formed here, apart from the kept curvature, so that this path and
    `yang_mills_residual_covariant` share no intermediate; E^E takes the
    bracket directly, so `_square` runs once per connection, for its
    curvature.
    """
    e = conn.potential
    de = exterior_d(e)
    ee = _form(2, e.grid, (stack_bracket(*e.comps),), ANTIHERMITIAN)
    return (codifferential_flat(de) + codifferential_flat(ee)
            + wedge_action_adjoint(e, de) + wedge_action_adjoint(e, ee))


def yang_mills_residual_covariant(conn):
    """Covariant form of the residual, delta_E(K); agrees with the flat form."""
    return codifferential(conn, curvature(conn))


def residual_report(conn):
    """Structured record {ym_value, residual_l2, curvature_l2, flat}, flat at FLAT_TOL."""
    k = curvature(conn)
    kn, flat = _flatness(k)
    return {
        "ym_value": yang_mills_functional(conn),
        "residual_l2": l2_norm(yang_mills_residual(conn)),
        "residual_covariant_l2": l2_norm(codifferential(conn, k)),  # the covariant residual
        "curvature_l2": kn,
        "flat": flat,
    }


def _skew(a):
    return 0.5 * (a - dagger(a))


def gauge_transform(conn, g):
    """Change of unitary frame: E -> G E G^-1 - (dG) G^-1.

    Central differences break the product rule, so the raw (dG) G^-1 picks up
    a spurious Hermitian O(h^2) part; only its skew part is kept, which is the
    symmetrized discretization of the same continuum quantity.  dG is the
    exterior derivative of G as a 0-form (`forms.exterior_d`).
    """
    g = np.asarray(g, dtype=complex)
    n, m = conn.grid.n, conn.m
    if g.shape != (n, n, m, m):
        raise ValueError(f"gauge field must have shape ({n}, {n}, {m}, {m})")
    g = _plane_major(g)
    gh = _unitary_inverse(g, "gauge field")
    # (dG) G^-1 per direction; the dG are dropped once multiplied, which bounds peak memory
    ax, ay = [stack_matmul(dg, gh)
              for dg in exterior_d(_form(0, conn.grid, (g,), GENERAL)).comps]
    ex, ey = conn.potential.comps
    new_x = stack_matmul(stack_matmul(g, ex), gh) - _skew(ax)
    new_y = stack_matmul(stack_matmul(g, ey), gh) - _skew(ay)
    # conjugation and the skew part keep the values anti-Hermitian
    return Connection(_form(1, conn.grid, (new_x, new_y), ANTIHERMITIAN))

