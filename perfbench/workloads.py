"""Workload inputs, passes and output checks of the gaugecalc benchmark.

Every workload is a closed loop: one caller in one process runs a pass,
checks its outputs and starts the next pass.  Inputs are generated here with
numpy from the workload seed and reach the package only through its public
constructors (`MatrixForm`, `Connection`, `constant_form`, the potential
classes), so a change to the package's own test-field generators cannot
change them.  Package functions are looked up on their module at call time,
so a traced run sees the wrappers the span recorder installs.

Each check compares one measured number with a bound taken from the
package's own invariant suite of the same name (see `gaugecalc.suites`).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

# su(2) basis e_a = i sigma_a, built here so inputs do not depend on the package
E1 = np.array([[0.0, 1j], [1j, 0.0]])
E2 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
E3 = np.array([[1j, 0.0], [0.0, -1j]])
SU2 = np.stack([E1, E2, E3])

# bounds of the checks in gaugecalc.suites with the same names
RESIDUAL_TWO_PATH = 1e-10
YM_GAUGE_INVARIANCE = 5e-4
SU2_TWO_PATH = 1e-8
TRANSPORT_UNITARITY = 1e-8
TRANSPORT_REVERSAL = 1e-8
AB_MONODROMY = 1e-8
AC_AGREEMENT = 1e-8
WONG_CONSERVATION = 1e-9


def err_ratio(value, bound, kind="max"):
    """Headroom of one check: error over bound, at most 1 when it passes.

    A `max` check passes when value <= bound and gives value / bound; a zero
    bound (an exact check) gives 0 when the value is 0 and infinity otherwise.
    A `min` check passes when value >= bound and gives bound / value.
    A NaN value gives NaN, which never passes.
    """
    value, bound = float(value), float(bound)
    if math.isnan(value):
        return math.nan
    if kind == "min":
        return bound / value if value > 0.0 else math.inf
    if bound == 0.0:
        return 0.0 if value == 0.0 else math.inf
    return value / bound


@dataclass
class Tally:
    """Checked outputs of a run: how many, how many failed, worst headroom."""

    attempted: int = 0
    failed: int = 0
    max_ratio: float = 0.0
    failures: dict = field(default_factory=dict)

    def check(self, name, value, bound, kind="max"):
        ratio = err_ratio(value, bound, kind)
        self.attempted += 1
        if not ratio <= 1.0:
            self.fail(name)
        if not ratio <= self.max_ratio:
            self.max_ratio = math.inf if math.isnan(ratio) else ratio

    def exact(self, name, ok):
        self.check(name, 0.0 if ok else 1.0, 0.0)

    def fail(self, name):
        self.failed += 1
        self.failures[name] = self.failures.get(name, 0) + 1

    @property
    def fail_ratio(self):
        return self.failed / self.attempted if self.attempted else 1.0


def band_limited(rng, n, kmax, amp, count):
    """`count` real trigonometric polynomials on the n x n node grid.

    Frequencies run over |kx|, |ky| <= kmax with standard normal complex
    weights; each field is scaled to peak magnitude `amp`.
    """
    k = np.arange(-kmax, kmax + 1)
    waves = np.exp(2j * np.pi * np.outer(k, np.arange(n) / n))
    w = rng.standard_normal((count, k.size, k.size)) \
        + 1j * rng.standard_normal((count, k.size, k.size))
    f = (waves.T @ w @ waves).real
    return f * (amp / np.max(np.abs(f), axis=(1, 2), keepdims=True))


def antihermitian_field(rng, n, m, kmax, amp):
    """Band-limited (n, n, m, m) field with exactly anti-Hermitian values."""
    f = band_limited(rng, n, kmax, amp, 2 * m * m)
    x = (f[: m * m] + 1j * f[m * m:]).transpose(1, 2, 0).reshape(n, n, m, m)
    return 0.5 * (x - np.conj(np.swapaxes(x, -1, -2)))


def _max_abs(a):
    return float(np.max(np.abs(a)))


class Workload:
    """Seeded inputs plus one pass of operations over them.

    `sizes` records the problem size (grid, rank, dof, steps) and the number
    of package operations a pass makes; it depends on the workload only,
    never on the seed.
    """

    name = ""

    def __init__(self, gc, seed):
        self.gc = gc
        self.rng = np.random.default_rng(seed)

    def run_pass(self, tally):
        """Run every operation once, check each output, return pass stats."""
        raise NotImplementedError


class Verify(Workload):
    """`gaugecalc verify --grid 32` in process, as users run it."""

    name = "verify"

    def __init__(self, gc, seed):
        super().__init__(gc, seed)
        self.argv = ["verify", "--seed", str(int(seed)), "--grid", "32",
                     "--format", "structured-record"]
        self.first_report = None
        self.sizes = {"grid": [32], "rank": [2], "dof": 2 * 32 * 32 * 4,
                      "steps": None, "operations": 1}

    def run_pass(self, tally):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.gc.cli.main(list(self.argv))
        text = out.getvalue()
        tally.exact("verify-exit-code", code == 0)
        checks = json.loads(text)["checks"]
        for c in checks:
            tally.check(c["name"], c["value"], c["bound"], c["kind"])
        if self.first_report is None:
            self.first_report = text
        tally.exact("report-bytes-identical", text == self.first_report)
        return {"checks": len(checks), "report_bytes": len(text.encode())}


class Fields(Workload):
    """Array kernels of forms, gauge and curves on seeded connections."""

    name = "fields"
    SHAPES = ((256, 2), (256, 2), (128, 3))
    TORUS_GRID = 128
    TORUS_TS = (0.0, 0.5, 1.0)
    JSON_GRID = 64

    def __init__(self, gc, seed):
        super().__init__(gc, seed)
        forms, gauge = gc.forms, gc.gauge
        ah = forms.ANTIHERMITIAN
        self.cases = []
        for n, m in self.SHAPES:
            grid = forms.TorusGrid(n)
            pot = forms.MatrixForm(1, grid, (antihermitian_field(self.rng, n, m, 2, 0.6),
                                             antihermitian_field(self.rng, n, m, 2, 0.6)), ah)
            theta = forms.MatrixForm(0, grid, (antihermitian_field(self.rng, n, m, 1, 0.15),), ah)
            self.cases.append((gauge.Connection(pot), theta))
        self.lam = float(self.rng.uniform(0.5, 1.5))
        grid = forms.TorusGrid(self.JSON_GRID)
        self.json_form = forms.MatrixForm(
            1, grid, (antihermitian_field(self.rng, self.JSON_GRID, 2, 2, 1.0),
                      antihermitian_field(self.rng, self.JSON_GRID, 2, 2, 1.0)), ah)
        self.sizes = {
            "grid": [n for n, _ in self.SHAPES] + [self.TORUS_GRID, self.JSON_GRID],
            "rank": [m for _, m in self.SHAPES],
            "dof": sum(2 * n * n * m * m for n, m in self.SHAPES),
            "steps": 4 * 1000,
            "operations": 7 * len(self.SHAPES) + 3,
        }

    def run_pass(self, tally):
        gc = self.gc
        for conn, theta in self.cases:
            k = gc.gauge.curvature(conn)
            ym = gc.gauge.yang_mills_functional(conn)
            tally.exact("curvature-ym-consistency", ym == gc.forms.l2_inner(k, k))
            flat = gc.gauge.yang_mills_residual(conn)
            cov = gc.gauge.yang_mills_residual_covariant(conn)
            tally.check("residual-two-path", gc.forms.l2_norm(flat - cov), RESIDUAL_TWO_PATH)
            g = gc.algebra.exp_antihermitian(theta.comps[0])
            moved = gc.gauge.yang_mills_functional(gc.gauge.gauge_transform(conn, g))
            tally.check("ym-gauge-invariance-relative", abs(moved - ym) / ym,
                        YM_GAUGE_INVARIANCE)
        report = gc.curves.torus_family_report(self.lam, self.TORUS_TS, n=self.TORUS_GRID)
        for row in report.rows:
            tally.check("su2-two-path-agreement", row["cross_check_l2"], SU2_TWO_PATH)
        for gens in report.endpoint_holonomies.values():
            for mat in gens.values():
                tally.check("transport-unitarity",
                            _max_abs(mat.conj().T @ mat - np.eye(2)), TRANSPORT_UNITARITY)
        text = gc.forms.form_to_json(self.json_form)
        back = gc.forms.form_from_json(text)
        tally.exact("serialization-roundtrip",
                    back.value_class == self.json_form.value_class
                    and all(np.array_equal(a, b)
                            for a, b in zip(self.json_form.comps, back.comps)))
        return {}


class Transport(Workload):
    """Closed-loop parallel transport: the per-step Python loop of holonomy."""

    name = "transport"
    STEPS = 1000
    GRID = 64
    WINDINGS = (1, -1, 2, -2)
    AC_COUNT = 2

    def __init__(self, gc, seed):
        super().__init__(gc, seed)
        hol, forms = gc.holonomy, gc.forms
        rng = self.rng
        cx, cy = 0.3 * rng.standard_normal((2, 3, 3, 3)) \
            + 0.3j * rng.standard_normal((2, 3, 3, 3))
        self.smooth = hol.AnalyticTorusPotential(_trig_su2(cx), _trig_su2(cy), 2)
        grid = forms.TorusGrid(self.GRID)
        pot = forms.MatrixForm(1, grid, (antihermitian_field(rng, self.GRID, 2, 2, 0.8),
                                         antihermitian_field(rng, self.GRID, 2, 2, 0.8)),
                               forms.ANTIHERMITIAN)
        self.grid_conn = gc.gauge.Connection(pot)
        x0, y0, x1, y1 = rng.uniform(0.0, 1.0, 4)
        center = tuple(rng.uniform(0.3, 0.7, 2))
        self.loops = (hol.torus_loop((1, 0), (x0, y0)), hol.torus_loop((0, 1), (x1, y1)),
                      hol.torus_circle(center, 0.2, 1))
        self.ab_k = tuple(float(k) for k in rng.uniform(-1.2, 1.2, len(self.WINDINGS)))
        self.ac_lam = tuple(float(v) for v in rng.uniform(0.0, 1.0, self.AC_COUNT))
        spin = rng.standard_normal(3)
        self.i0 = np.tensordot(spin / np.linalg.norm(spin), SU2, axes=1)
        transports = 2 * 2 * len(self.loops)
        self.sizes = {
            "grid": [self.GRID], "rank": [2, 1], "dof": 2 * self.GRID ** 2 * 4,
            "steps": self.STEPS * (transports + self.AC_COUNT + 1)
            + sum(max(100, 1000 * abs(w)) for w in self.WINDINGS),
            "operations": transports + len(self.WINDINGS) + self.AC_COUNT + 1,
        }

    def run_pass(self, tally):
        hol = self.gc.holonomy
        eye = np.eye(2)
        for potential in (self.smooth, self.grid_conn):
            for loop in self.loops:
                g = hol.parallel_transport(potential, loop, self.STEPS)
                back = hol.parallel_transport(potential, hol.reverse_path(loop), self.STEPS)
                tally.check("transport-unitarity", _max_abs(g.conj().T @ g - eye),
                            TRANSPORT_UNITARITY)
                tally.check("transport-reversal", _max_abs(back @ g - eye), TRANSPORT_REVERSAL)
        for k, winding in zip(self.ab_k, self.WINDINGS):
            rec = hol.aharonov_bohm_monodromy(k, winding)
            tally.check("ab-monodromy", abs(rec.monodromy - np.exp(2j * np.pi * k * winding)),
                        AB_MONODROMY)
        for lam in self.ac_lam:
            rec = hol.aharonov_casher_phase(lam, self.STEPS)
            expect = np.diag([np.exp(1j * np.pi * lam), np.exp(-1j * np.pi * lam)])
            tally.check("ac-agreement", _max_abs(rec.transport - expect), AC_AGREEMENT)
        _, traj = hol.wong_evolve(self.smooth, self.loops[2], self.i0, self.STEPS)
        norms = np.einsum("tij,tij->t", traj, traj.conj()).real
        tally.check("wong-conservation", _max_abs(norms - norms[0]), WONG_CONSERVATION)
        return {}


def _trig_su2(coeffs):
    """Closed-form su(2) coefficient sum_a f_a(x, y) e_a on the torus.

    `coeffs` has shape (3, 3, 3): per generator, complex weights of the
    modes exp(2 pi i (kx x + ky y)) with kx, ky in {-1, 0, 1}.
    """
    k = np.array([-1.0, 0.0, 1.0])

    def coefficient(x, y):
        wx = np.exp(2j * np.pi * k * x)
        wy = np.exp(2j * np.pi * k * y)
        f = (wx @ coeffs @ wy).real
        return f[0] * E1 + f[1] * E2 + f[2] * E3

    return coefficient


class Spectrum(Workload):
    """Dense harmonic counting, as `gaugecalc spectrum --grid 16 --rank 2` runs it."""

    name = "spectrum"
    GRID = 16
    RANK = 2

    def __init__(self, gc, seed):
        super().__init__(gc, seed)
        forms, gauge = gc.forms, gc.gauge
        grid = forms.TorusGrid(self.GRID)
        zero = np.zeros((self.GRID, self.GRID, self.RANK, self.RANK), dtype=complex)
        self.zero = gauge.Connection(forms.MatrixForm(1, grid, (zero, zero),
                                                      forms.ANTIHERMITIAN))
        # c e1 dx is flat; the one-sided complex counts 2 harmonic 0-forms for it
        self.c = float(self.rng.uniform(0.5, 2.5))
        self.twisted = gauge.Connection(forms.constant_form(grid, 1, self.c * E1,
                                                            np.zeros((2, 2), dtype=complex)))
        m2, cells = self.RANK ** 2, self.GRID ** 2
        self.expected = ((self.zero, 0, m2), (self.zero, 1, 2 * m2),
                         (self.zero, 2, m2), (self.twisted, 0, 2))
        self.sizes = {"grid": [self.GRID], "rank": [self.RANK],
                      "dof": sum((2 if d == 1 else 1) * cells * m2 for _, d, _ in self.expected),
                      "steps": None, "operations": len(self.expected)}

    def run_pass(self, tally):
        for conn, degree, want in self.expected:
            got = self.gc.spectrum.harmonic_space_dim(conn, degree)
            tally.check(f"harmonic-dim-deg{degree}", abs(got - want), 0.0)
        return {}


WORKLOADS = {w.name: w for w in (Verify, Fields, Transport, Spectrum)}
