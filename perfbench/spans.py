"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of every gaugecalc module from the
outside, so the package itself carries no tracing code.  A wrapped call
records one span: which function, its parent span, start and end time, and
for selected functions a size (bytes, steps or dof) and the rank of its
first form argument.  Spans stay in memory in flat arrays; `summarize`
derives self times and the per-layer metrics, and `save` writes the raw
spans out at the end of the run.

`install` replaces every binding of a wrapped function, including the names
other gaugecalc modules re-bound at import (`gaugecalc.gauge.exterior_d` is
`gaugecalc.forms.exterior_d`) and the function objects held in
`gaugecalc.suites.SUITES`.  It also wraps `MatrixForm.__post_init__` (span
`forms.validate`), the potential classes' `along` (span `holonomy.along`) and
`numpy.linalg.eigvalsh` (span `spectrum.eigvalsh`, which only the spectrum
module calls).  `uninstall` puts every original back; an untraced run never
installs anything.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("algebra", "forms", "gauge", "curves", "spectrum", "holonomy", "suites", "cli")
POTENTIAL_CLASSES = ("GridPotential", "AnalyticTorusPotential", "MeromorphicPotential",
                     "GaugeConjugatedPotential")
SERIALIZE = ("forms.form_to_json", "forms.form_from_json", "forms.form_to_record",
             "forms.form_from_record")
TRANSPORT = ("holonomy.parallel_transport", "holonomy.wong_evolve")
RANDOM_FIELDS = ("suites.random_form", "suites.random_fourier_scalar",
                 "suites.random_scalar_one_form")
ORIGINAL = "__perfbench_original__"


class SpanRecorder:
    """In-memory spans: function id, parent index, times, size and rank."""

    def __init__(self):
        self.labels = []
        self._ids = {}
        self.fid = array("l")
        self.parent = array("l")
        self.t0 = array("d")
        self.t1 = array("d")
        self.size = array("d")
        self.rank = array("l")
        self._stack = []

    def label_id(self, label):
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
        return self._ids[label]

    def record(self, label, parent, t0, t1, size=0.0, rank=0):
        """Append one span; returns its index."""
        self.fid.append(self.label_id(label))
        self.parent.append(parent)
        self.t0.append(t0)
        self.t1.append(t1)
        self.size.append(size)
        self.rank.append(rank)
        return len(self.fid) - 1

    def wrap(self, label, fn, sizer=None):
        """Wrapper of `fn` that records a span named `label` per call."""
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.record(label, stack[-1] if stack else -1, 0.0, 0.0)
            stack.append(i)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.t0[i] = start
                self.t1[i] = end
            if sizer is not None:
                self.size[i], self.rank[i] = sizer(args, kwargs, out)
            return out

        setattr(traced, ORIGINAL, fn)
        return traced

    def arrays(self):
        """Spans as numpy arrays: fid, parent, duration, self time, size, rank."""
        fid = np.asarray(self.fid, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.t1) - np.asarray(self.t0)
        return fid, parent, dur, self_times(parent, dur), np.asarray(self.size), \
            np.asarray(self.rank, dtype=np.int64)

    def save(self, path):
        fid, parent, dur, self_s, size, rank = self.arrays()
        np.savez(path, labels=np.array(self.labels), fid=fid, parent=parent,
                 t0=np.asarray(self.t0), t1=np.asarray(self.t1), size=size, rank=rank)


def self_times(parent, dur):
    """Duration minus the summed durations of each span's direct children."""
    parent = np.asarray(parent)
    dur = np.asarray(dur, dtype=float)
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    return dur - child


def _nbytes(obj):
    comps = getattr(obj, "comps", None)
    if comps is not None:
        return sum(c.nbytes for c in comps)
    potential = getattr(obj, "potential", None)
    if potential is not None:
        return _nbytes(potential)
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj)
    return 0


def _rank(args):
    for a in args:
        m = getattr(a, "m", None)
        if isinstance(m, int):
            return m
    return 0


def bytes_sizer(args, kwargs, out):
    """Input plus output nbytes of the arrays a call touches, and its rank."""
    return float(_nbytes(args) + _nbytes(tuple(kwargs.values())) + _nbytes(out)), _rank(args)


def text_sizer(args, kwargs, out):
    text = out if isinstance(out, str) else args[0]
    return float(len(text.encode())), 0


def param_sizer(fn, name, scale=None):
    """Size taken from the bound argument `name` (defaults applied)."""
    sig = inspect.signature(fn)

    def sizer(args, kwargs, out):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        value = bound.arguments[name]
        return float(scale(bound.arguments) if scale else value), 0

    return sizer


def _dof(arguments):
    conn, degree = arguments["conn"], arguments["degree"]
    return (2 if degree == 1 else 1) * conn.grid.n ** 2 * conn.m ** 2


def _sizer_for(label, fn):
    if label in SERIALIZE[:2]:
        return text_sizer
    if label in TRANSPORT:
        return param_sizer(fn, "steps")
    if label == "spectrum.harmonic_space_dim":
        return param_sizer(fn, "conn", scale=_dof)
    if label.split(".")[0] in ("forms", "gauge"):
        return bytes_sizer
    return None


def public_functions(module):
    """Public functions defined in `module`, by name."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


class Installation:
    """Records every attribute it replaces so `uninstall` can restore it."""

    def __init__(self):
        self.patches = []

    def replace(self, owner, attr, new):
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        while self.patches:
            owner, attr, old = self.patches.pop()
            setattr(owner, attr, old)


def install(recorder):
    """Wrap every traced gaugecalc function; returns the Installation."""
    package = importlib.import_module("gaugecalc")
    modules = {name: importlib.import_module(f"gaugecalc.{name}") for name in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for name, fn in public_functions(module).items():
            label = f"{layer}.{name}"
            wrappers[id(fn)] = recorder.wrap(label, fn, _sizer_for(label, fn))
    inst = Installation()
    for module in (package, *modules.values()):
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and id(value) in wrappers:
                inst.replace(module, attr, wrappers[id(value)])
    suites = modules["suites"]
    inst.replace(suites, "SUITES", tuple(
        (name, recorder.wrap(f"suites.suite.{name}", wrappers.get(id(fn), fn)))
        for name, fn in suites.SUITES))
    form_cls = modules["forms"].MatrixForm
    inst.replace(form_cls, "__post_init__",
                 recorder.wrap("forms.validate", form_cls.__post_init__))
    for cls_name in POTENTIAL_CLASSES:
        cls = getattr(modules["holonomy"], cls_name)
        inst.replace(cls, "along", recorder.wrap("holonomy.along", cls.along))
    inst.replace(np.linalg, "eigvalsh", recorder.wrap("spectrum.eigvalsh", np.linalg.eigvalsh))
    return inst


@contextlib.contextmanager
def installed(recorder):
    """Context in which every traced function records into `recorder`."""
    inst = install(recorder)
    try:
        yield inst
    finally:
        inst.uninstall()


def wrapped_bindings():
    """Every (owner, attribute) that currently holds a recorder wrapper."""
    owners = [importlib.import_module("gaugecalc"), np.linalg]
    owners += [importlib.import_module(f"gaugecalc.{name}") for name in LAYERS]
    holonomy = importlib.import_module("gaugecalc.holonomy")
    owners += [importlib.import_module("gaugecalc.forms").MatrixForm]
    owners += [getattr(holonomy, c) for c in POTENTIAL_CLASSES]
    found = [(o, a) for o in owners for a, v in vars(o).items() if hasattr(v, ORIGINAL)]
    suites = importlib.import_module("gaugecalc.suites")
    found += [(suites.SUITES, n) for n, fn in suites.SUITES if hasattr(fn, ORIGINAL)]
    return found


def summarize(recorder, passes):
    """Per-layer metrics per traced pass, from the recorded spans."""
    fid, parent, dur, self_s, size, rank = recorder.arrays()
    labels = recorder.labels
    index = {label: i for i, label in enumerate(labels)}
    layer_of = np.array([label.split(".")[0] for label in labels] or [""])

    def select(*names):
        ids = [index[n] for n in names if n in index]
        return np.isin(fid, ids)

    def in_layer(layer):
        return np.isin(fid, np.flatnonzero(layer_of == layer))

    def per_pass(x):
        return float(x) / passes

    def mean_ms(name, m):
        sel = select(name) & (parent < 0) & (rank == m)
        return 1000.0 * float(dur[sel].mean()) if sel.any() else 0.0

    out = {}
    for layer in ("forms", "gauge", "algebra", "curves", "holonomy", "spectrum"):
        sel = in_layer(layer)
        out[f"{layer}.calls"] = per_pass(sel.sum())
        out[f"{layer}.self_s"] = per_pass(self_s[sel].sum())
    for label in ("forms.validate", "algebra.antihermitian_defect"):
        out[f"{label}.calls"] = per_pass(select(label).sum())
    for label in ("forms.validate", "algebra.antihermitian_defect", "forms.exterior_d",
                  "forms.wedge_compose", "gauge.wedge_action_adjoint", "gauge.gauge_transform",
                  "algebra.exp_antihermitian", "curves.su2_ym_conditions"):
        out[f"{label}.self_s"] = per_pass(self_s[select(label)].sum())
    out["gauge.residual_ms.m2"] = mean_ms("gauge.yang_mills_residual", 2)
    out["gauge.residual_ms.m3"] = mean_ms("gauge.yang_mills_residual", 3)
    out["gauge.curvature_ms.m2"] = mean_ms("gauge.curvature", 2)
    serialize = select(*SERIALIZE)
    for layer in ("forms", "gauge"):
        out[f"{layer}.bytes_computed"] = per_pass(size[in_layer(layer) & ~serialize].sum())
    out["forms.serialize.self_s"] = per_pass(self_s[serialize].sum())
    out["forms.serialize.bytes"] = per_pass(size[select(*SERIALIZE[:2])].sum())
    transport = select(*TRANSPORT)
    steps = size[transport].sum()
    out["holonomy.steps"] = per_pass(steps)
    out["holonomy.potential_evals"] = per_pass(select("holonomy.along").sum())
    out["holonomy.us_per_step"] = 1e6 * float(dur[transport].sum()) / steps if steps else 0.0
    out["spectrum.dof"] = per_pass(size[select("spectrum.harmonic_space_dim")].sum())
    eig = per_pass(dur[select("spectrum.eigvalsh")].sum())
    out["spectrum.eigensolve_s"] = eig
    out["spectrum.assembly_s"] = out["spectrum.self_s"] - eig
    for suite in ("algebra", "forms", "gauge", "curves", "holonomy"):
        out[f"suites.{suite}_s"] = per_pass(dur[select(f"suites.suite.{suite}")].sum())
    fields = select(*RANDOM_FIELDS)
    outer = fields & ~np.isin(parent, np.flatnonzero(fields))
    out["suites.random_form_s"] = per_pass(dur[outer].sum())
    out["cli.self_s"] = per_pass(self_s[in_layer("cli")].sum())
    return out
