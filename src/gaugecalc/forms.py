"""Matrix-valued differential forms on a uniform periodic grid over [0,1)^2.

The underlying surface is the unit square with opposite edges identified and
the flat metric dx^2 + dy^2; the volume form is w = dx^dy.  Grid functions
are sampled at the nodes (j/N, l/N).  A degree-k form stores its components
at the nodes: one array for k = 0, the (dx, dy) pair for k = 1 and the
dx^dy coefficient for k = 2, each of shape (N, N, m, m) and stored in memory
order (m, m, N, N): each entry c[..., i, j] is one C-contiguous N x N plane,
on which `stack_matmul` runs fastest.  The constructor puts components into
that order (no copy if they have it already), and the operators keep it.

The exterior derivative uses second-order central differences with periodic
wrap.  The difference operators commute and are skew-adjoint on the periodic
grid, so d(d(.)) = 0 and summation by parts hold exactly (to rounding), which
the operator-adjointness checks in this package rely on.

Values are checked once, where they enter.  The entry points are the
MatrixForm constructor and the builders that take user arrays or arguments
(`scalar_form`, `tensor_form`, `constant_form`, `zero_form`) and
`form_from_record`: each refuses a bad degree or layout, non-finite
components and a false ANTIHERMITIAN tag.  A form whose tag is established
is never checked again.  Forms the package derives from checked forms (the
operators here and in `gauge`, the seeded random forms of `suites`) are built
with the unchecked `_form`, tagged ANTIHERMITIAN only where the operation
preserves it: d, the star, sums and real multiples, brackets, conjugation.
"""

from __future__ import annotations

import contextlib
import itertools
import json

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .algebra import _plane_major, is_antihermitian, require_antihermitian, stack_matmul

ANTIHERMITIAN = "antihermitian"
GENERAL = "general"
MIN_GRID = 8  # fewest nodes per axis a grid may have

_NCOMPS = {0: 1, 1: 2, 2: 1}
_REAL = (int, float, np.integer, np.floating)  # the number types a record may hold


@dataclass(frozen=True)
class TorusGrid:
    """Uniform N x N node grid; coarser than MIN_GRID nodes per axis is refused."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < MIN_GRID:
            raise ValueError(f"grid needs at least {MIN_GRID} nodes per axis, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def h(self):
        return 1.0 / self.n

    def nodes(self):
        ax = np.arange(self.n) / self.n
        return np.meshgrid(ax, ax, indexing="ij")


def _ncomps(degree):
    """Component count of a degree-`degree` form; refuses any degree but 0, 1 and 2."""
    if degree not in _NCOMPS:
        raise ValueError(f"degree must be 0, 1 or 2, got {degree}")
    return _NCOMPS[degree]


def _combine_class(a, b):
    return ANTIHERMITIAN if a == ANTIHERMITIAN and b == ANTIHERMITIAN else GENERAL


@dataclass(frozen=True)
class MatrixForm:
    """Degree-k form with m x m complex matrix coefficients at the grid nodes."""

    degree: int
    grid: TorusGrid
    comps: tuple
    value_class: str = GENERAL

    def __post_init__(self):
        ncomps = _ncomps(self.degree)
        comps = tuple(np.asarray(c, dtype=complex) for c in self.comps)
        if len(comps) != ncomps:
            raise ValueError(f"degree {self.degree} needs {ncomps} components, got {len(comps)}")
        n = self.grid.n
        shape = comps[0].shape
        if len(shape) != 4 or shape[:2] != (n, n) or shape[2] != shape[3] or shape[2] < 1:
            raise ValueError(f"component shape {shape} does not match an (N, N, m, m) layout "
                             f"with N={n} and rank m >= 1")
        for c in comps[1:]:
            if c.shape != shape:
                raise ValueError("components have inconsistent shapes")
        comps = tuple(map(_plane_major, comps))
        if self.value_class not in (ANTIHERMITIAN, GENERAL):
            raise ValueError(f"unknown value class {self.value_class!r}")
        for c in comps:  # one finiteness pass per component, inside the tag check if tagged
            if self.value_class == ANTIHERMITIAN:
                require_antihermitian(c, "form tagged anti-Hermitian")
            elif not np.isfinite(c).all():
                raise ValueError("form components must be finite")
        object.__setattr__(self, "comps", comps)

    @property
    def m(self):
        return self.comps[0].shape[2]

    def max_abs(self):
        return max(float(np.max(np.abs(c))) for c in self.comps)

    def _pointwise(self, other, op):
        if not isinstance(other, MatrixForm):
            raise TypeError("expected a MatrixForm")
        if self.degree != other.degree or self.grid != other.grid or self.m != other.m:
            raise ValueError("forms have mismatched degree, grid or rank")
        return _form(self.degree, self.grid, tuple(map(op, self.comps, other.comps)),
                     _combine_class(self.value_class, other.value_class))

    def __add__(self, other):
        return self._pointwise(other, np.add)

    def __sub__(self, other):
        return self._pointwise(other, np.subtract)

    def __neg__(self):
        return _form(self.degree, self.grid, tuple(-c for c in self.comps),
                     self.value_class)

    def __mul__(self, scalar):
        real = isinstance(scalar, (int, float, np.integer, np.floating))
        if not real and not isinstance(scalar, (complex, np.complexfloating)):
            return NotImplemented
        vc = self.value_class if real else GENERAL
        return _form(self.degree, self.grid, tuple(scalar * c for c in self.comps), vc)

    __rmul__ = __mul__


def _form(degree, grid, comps, value_class):
    """Unvalidated MatrixForm; the caller guarantees the layout and the value class."""
    w = object.__new__(MatrixForm)
    w.__dict__.update(degree=degree, grid=grid, comps=comps, value_class=value_class)
    return w


@dataclass(frozen=True)
class VectorField:
    """Real vector field (x- and y-components) at the grid nodes."""

    grid: TorusGrid
    vx: np.ndarray
    vy: np.ndarray

    def __post_init__(self):
        n = self.grid.n
        vx = np.asarray(self.vx, dtype=float)
        vy = np.asarray(self.vy, dtype=float)
        if vx.shape != (n, n) or vy.shape != (n, n):
            raise ValueError(f"vector field components must have shape ({n}, {n})")
        if not (np.all(np.isfinite(vx)) and np.all(np.isfinite(vy))):
            raise ValueError("vector field has non-finite entries")
        object.__setattr__(self, "vx", vx)
        object.__setattr__(self, "vy", vy)


def zero_form(grid, degree, m, value_class=ANTIHERMITIAN):
    comps = tuple(np.zeros((m, m, grid.n, grid.n), dtype=complex).transpose(2, 3, 0, 1)
                  for _ in range(_ncomps(degree)))
    return MatrixForm(degree, grid, comps, value_class)


def scalar_form(grid, degree, *coeffs):
    """Scalar-valued (m = 1) form from real coefficient arrays."""
    ncomps = _ncomps(degree)
    if len(coeffs) != ncomps:
        raise ValueError(f"degree {degree} needs {ncomps} coefficient arrays")
    comps = []
    for c in coeffs:
        arr = np.asarray(c, dtype=complex)
        if arr.shape != (grid.n, grid.n):
            raise ValueError(f"coefficient array must have shape ({grid.n}, {grid.n})")
        comps.append(arr[..., None, None])
    return MatrixForm(degree, grid, tuple(comps), GENERAL)


def tensor_form(scalar, matrix):
    """Tensor product (scalar form) x (constant matrix)."""
    if scalar.m != 1:
        raise ValueError("tensor_form expects a scalar-valued form on the left")
    matrix = np.asarray(matrix, dtype=complex)
    if not np.isfinite(matrix).all():  # refused before the products compute with it
        raise ValueError("tensor_form matrix must be finite")
    scal_real = all(float(np.max(np.abs(c.imag))) <= 1e-14 for c in scalar.comps)
    vc = ANTIHERMITIAN if scal_real and is_antihermitian(matrix) else GENERAL
    comps = tuple((matrix[..., None, None] * c[:, :, 0, 0]).transpose(2, 3, 0, 1)
                  for c in scalar.comps)
    return MatrixForm(scalar.degree, scalar.grid, comps, vc)


def constant_form(grid, degree, *matrices):
    """Form with node-independent matrix coefficients."""
    ncomps = _ncomps(degree)
    if len(matrices) != ncomps:
        raise ValueError(f"degree {degree} needs {ncomps} coefficient matrices")
    mats = [np.asarray(mm, dtype=complex) for mm in matrices]
    if not all(np.isfinite(mm).all() for mm in mats):  # refused before the tag test
        raise ValueError("constant_form matrices must be finite")
    comps = tuple(np.broadcast_to(mm, (grid.n, grid.n) + mm.shape) for mm in mats)
    vc = ANTIHERMITIAN if all(is_antihermitian(mm) for mm in mats) else GENERAL
    return MatrixForm(degree, grid, comps, vc)


def _ddx(arr, h):
    # interior and the two wrapped rows go into one output: no shifted copies
    out = np.empty_like(arr)
    np.subtract(arr[2:], arr[:-2], out=out[1:-1])
    np.subtract(arr[1], arr[-1], out=out[0])
    np.subtract(arr[0], arr[-2], out=out[-1])
    out /= 2.0 * h
    return out


def _ddy(arr, h):
    return _ddx(arr.swapaxes(0, 1), h).swapaxes(0, 1)


def exterior_d(w):
    """Exterior derivative; rejects top-degree input."""
    if w.degree >= 2:
        raise ValueError("exterior derivative of a top-degree form is not defined here")
    h = w.grid.h
    if w.degree == 0:
        (f,) = w.comps
        return _form(1, w.grid, (_ddx(f, h), _ddy(f, h)), w.value_class)
    p, q = w.comps
    k = _ddx(q, h)
    k -= _ddy(p, h)
    return _form(2, w.grid, (k,), w.value_class)


def hodge_star(w):
    """Flat-metric star: *1 = dx^dy, *dx = dy, *dy = -dx, *(dx^dy) = 1."""
    if w.degree == 0:
        return _form(2, w.grid, w.comps, w.value_class)
    if w.degree == 1:
        p, q = w.comps
        return _form(1, w.grid, (-q, p), w.value_class)
    return _form(0, w.grid, w.comps, w.value_class)


def _coeff_product(a, b):
    # matrix product of coefficients; an m = 1 factor acts as a scalar
    if a.shape[2] == 1 and b.shape[2] > 1:
        return a[:, :, 0, 0][..., None, None] * b
    if b.shape[2] == 1 and a.shape[2] > 1:
        return a * b[:, :, 0, 0][..., None, None]
    return stack_matmul(a, b)


def wedge_compose(a, b):
    """Wedge of the form parts with matrix composition of the coefficients."""
    if a.grid != b.grid:
        raise ValueError("forms live on different grids")
    if a.m != b.m and 1 not in (a.m, b.m):
        raise ValueError(f"coefficient ranks {a.m} and {b.m} are incompatible")
    total = a.degree + b.degree
    if total > 2:
        raise ValueError(f"wedge degree {a.degree} + {b.degree} exceeds the surface dimension")
    if a.degree == 0:
        (f,) = a.comps
        comps = tuple(_coeff_product(f, c) for c in b.comps)
        return _form(total, a.grid, comps, GENERAL)
    if b.degree == 0:
        (f,) = b.comps
        comps = tuple(_coeff_product(c, f) for c in a.comps)
        return _form(total, a.grid, comps, GENERAL)
    # 1-form wedge 1-form
    p, q = a.comps
    r, s = b.comps
    return _form(2, a.grid, (_coeff_product(p, s) - _coeff_product(q, r),), GENERAL)


def sharp(w):
    """Musical isomorphism on real scalar 1-forms (identity components, flat metric)."""
    if w.degree != 1:
        raise ValueError("sharp expects a 1-form")
    if w.m != 1:
        raise ValueError("sharp expects scalar-valued coefficients")
    p = w.comps[0][:, :, 0, 0]
    q = w.comps[1][:, :, 0, 0]
    if max(float(np.max(np.abs(p.imag))), float(np.max(np.abs(q.imag)))) > 1e-12:
        raise ValueError("sharp expects real coefficients")
    return VectorField(w.grid, p.real, q.real)


def interior(v, w):
    """Contraction in the first slot: i_v(P dx + Q dy) = vx P + vy Q, etc."""
    if not isinstance(v, VectorField):
        raise TypeError("expected a VectorField")
    if v.grid != w.grid:
        raise ValueError("vector field and form live on different grids")
    if w.degree == 0:
        raise ValueError("cannot contract a 0-form")
    vx = v.vx[..., None, None]
    vy = v.vy[..., None, None]
    if w.degree == 1:
        p, q = w.comps
        return _form(0, w.grid, (vx * p + vy * q,), w.value_class)
    (r,) = w.comps
    return _form(1, w.grid, (-vy * r, vx * r), w.value_class)


def l2_inner(a, b):
    """Discrete L2 pairing: h^2 sum over nodes of (form inner) * Re tr(A B^H)."""
    if a.degree != b.degree or a.grid != b.grid or a.m != b.m:
        raise ValueError("l2_inner needs forms of equal degree, grid and rank")
    total = 0.0
    for ca, cb in zip(a.comps, b.comps):
        total += float(np.einsum("xyij,xyij->", ca, cb.conj()).real)
    return a.grid.h ** 2 * total


def l2_norm(a):
    return float(np.sqrt(max(l2_inner(a, a), 0.0)))


def form_to_record(w):
    """Structured record with [re, im] entry lists (row-major); round-trips exactly."""
    return {
        "degree": w.degree,
        "n": w.grid.n,
        "m": w.m,
        "value_class": w.value_class,
        "components": [_entry_pairs(c) for c in w.comps],
    }


def _entry_pairs(a):
    """[re, im] float pairs of the entries of `a` in row-major order of its shape."""
    return np.ascontiguousarray(a, dtype=complex).view(float).reshape(-1, 2).tolist()


def _integer(value, name):
    """`value` as an int; integral floats such as 2.0 are accepted, bools and strings are not."""
    if (isinstance(value, bool) or not isinstance(value, _REAL)
            or not (isinstance(value, (int, np.integer)) or float(value).is_integer())):
        raise ValueError(f"a {name} must be a finite integer, got {value!r}")
    return int(value)


def _mapping(value, name):
    """`value` if it is a mapping, such as a decoded JSON object; refuses it naming `name`."""
    if not isinstance(value, Mapping):
        raise ValueError(f"a {name} must be a mapping (a JSON object), got {type(value).__name__}")
    return value


def _entries(entries):
    """A component's [re, im] pairs as complex numbers; refuses bools and non-numbers."""
    if isinstance(entries, (list, tuple)) and set(map(type, entries)) <= {list, tuple} \
            and set(map(len, entries)) <= {2}:
        flat = list(itertools.chain.from_iterable(entries))
        if all(issubclass(k, _REAL) and not issubclass(k, bool) for k in set(map(type, flat))):
            with contextlib.suppress(OverflowError):  # an int beyond the float range
                return np.array(flat, dtype=float).view(complex)
    raise ValueError("a record key 'components' entry is not a pair of real numbers [re, im]")


def form_from_record(rec):
    required = {"degree", "n", "m", "value_class", "components"}
    missing = required - set(_mapping(rec, "form record"))
    if missing:
        raise ValueError(f"form record is missing keys: {sorted(missing)}")
    grid = TorusGrid(_integer(rec["n"], "record key 'n'"))
    n, m = grid.n, _integer(rec["m"], "record key 'm'")
    if m < 1:
        raise ValueError(f"a record key 'm' must be at least 1, got {m}")
    if not isinstance(rec["components"], (list, tuple)):
        raise ValueError("a record key 'components' must be a list of component entry lists")
    comps = []
    for entries in rec["components"]:
        flat = _entries(entries)
        if flat.size != n * n * m * m:
            raise ValueError("component entry count does not match the declared shape")
        comps.append(flat.reshape(n, n, m, m))
    degree = _integer(rec["degree"], "record key 'degree'")
    return MatrixForm(degree, grid, tuple(comps), rec["value_class"])


def form_to_json(w):
    return json.dumps(form_to_record(w), sort_keys=True)


def form_from_json(text):
    return form_from_record(json.loads(text))
