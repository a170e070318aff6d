"""Tests of the benchmark's own machinery: checks, spans and workload inputs."""

import math
import os
import sys
import tracemalloc

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))
sys.path.insert(0, os.path.join(HERE, ".."))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def gc():
    return run.load_package()


class SmallSpectrum(workloads.Spectrum):
    """The spectrum workload on an 8 x 8 grid, fast enough for a unit test."""

    GRID = 8


class SmallFields(workloads.Fields):
    """The fields workload on 16 x 16 and 8 x 8 grids."""

    SHAPES = ((16, 2), (16, 2), (8, 3))
    TORUS_GRID = 16
    JSON_GRID = 8


class SmallTransport(workloads.Transport):
    """The transport workload at 100 steps per transport."""

    STEPS = 100


def test_self_time_of_nested_spans():
    rec = spans.SpanRecorder()
    a = rec.record("gauge.curvature", -1, 0.0, 10.0)
    b = rec.record("forms.exterior_d", a, 1.0, 4.0)
    rec.record("forms.validate", b, 2.0, 3.0)
    rec.record("forms.wedge_compose", a, 5.0, 9.0)
    rec.record("holonomy.along", -1, 20.0, 21.5)
    _, _, dur, self_s, _, _ = rec.arrays()
    assert dur.tolist() == [10.0, 3.0, 1.0, 4.0, 1.5]
    assert self_s.tolist() == [3.0, 2.0, 1.0, 4.0, 1.5]
    out = spans.summarize(rec, passes=2)
    assert out["forms.self_s"] == pytest.approx((2.0 + 1.0 + 4.0) / 2)
    assert out["gauge.self_s"] == pytest.approx(3.0 / 2)
    assert out["forms.calls"] == 1.5
    assert out["forms.validate.calls"] == 0.5
    assert out["holonomy.potential_evals"] == 0.5


def test_headroom_of_max_min_and_exact_checks():
    assert workloads.err_ratio(2e-9, 1e-8) == pytest.approx(0.2)
    assert workloads.err_ratio(0.0, 0.0) == 0.0
    assert workloads.err_ratio(1e-300, 0.0) == math.inf
    assert workloads.err_ratio(4.0, 3.6, "min") == pytest.approx(0.9)
    assert workloads.err_ratio(3.0, 3.6, "min") == pytest.approx(1.2)
    assert workloads.err_ratio(0.0, 3.6, "min") == math.inf
    assert math.isnan(workloads.err_ratio(math.nan, 1.0))


def test_tally_counts_failures_and_worst_headroom():
    tally = workloads.Tally()
    tally.check("near", 9e-9, 1e-8)
    tally.check("order", 4.0, 3.6, "min")
    tally.exact("exact", True)
    assert (tally.attempted, tally.failed) == (3, 0)
    assert tally.max_ratio == pytest.approx(0.9)
    tally.check("broken", math.nan, 1.0)
    tally.exact("mismatch", False)
    assert (tally.attempted, tally.failed) == (5, 2)
    assert tally.max_ratio == math.inf
    assert tally.fail_ratio == pytest.approx(0.4)


def test_planted_wrong_output_counts_as_failure(gc, monkeypatch):
    work = SmallSpectrum(gc, 3)
    clean = workloads.Tally()
    work.run_pass(clean)
    assert clean.attempted == 4 and clean.failed == 0
    real = gc.spectrum.harmonic_space_dim
    monkeypatch.setattr(gc.spectrum, "harmonic_space_dim",
                        lambda conn, degree: real(conn, degree) + (degree == 1))
    planted = workloads.Tally()
    work.run_pass(planted)
    assert planted.failed == 1 and planted.failures == {"harmonic-dim-deg1": 1}


def test_raising_pass_counts_as_failure(gc):
    class Raising(workloads.Workload):
        def run_pass(self, tally):
            raise ValueError("planted")

    tally = workloads.Tally()
    times, refs = run.run_passes(Raising(gc, 0), tally, 0.0, {})
    assert len(times) == len(refs) == 1 and tally.failures == {"pass-raised": 1}


def test_reference_work_allocates_only_on_first_call():
    run.reference_work()
    tracemalloc.start()
    try:
        run.reference_work()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # ufunc buffers only; one 256 x 256 field is 4 MB


def test_verify_report_mismatch_counts_as_failure(gc, monkeypatch):
    work = workloads.Verify(gc, 5)
    work.first_report = "a different report"
    monkeypatch.setattr(gc.cli, "main", lambda argv: print('{"checks": []}') or 0)
    tally = workloads.Tally()
    work.run_pass(tally)
    assert tally.failures == {"report-bytes-identical": 1}


def _inputs(work):
    if isinstance(work, workloads.Verify):
        return [np.array(work.argv[2], dtype=float)]
    if isinstance(work, workloads.Fields):
        return [c for conn, theta in work.cases for c in conn.potential.comps + theta.comps]
    if isinstance(work, workloads.Transport):
        return list(work.grid_conn.potential.comps) + [np.array(work.ab_k), work.i0]
    return [np.array(work.c)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_new_seed_changes_inputs(gc, name):
    one = workloads.WORKLOADS[name](gc, 1)
    two = workloads.WORKLOADS[name](gc, 2)
    again = workloads.WORKLOADS[name](gc, 1)
    assert not all(np.array_equal(a, b) for a, b in zip(_inputs(one), _inputs(two)))
    assert all(np.array_equal(a, b) for a, b in zip(_inputs(one), _inputs(again)))


def _traced_calls(work):
    """Calls per traced function in one pass of `work`."""
    rec = spans.SpanRecorder()
    with spans.installed(rec):
        work.run_pass(workloads.Tally())
    return dict(zip(rec.labels, np.bincount(rec.arrays()[0]).tolist()))


@pytest.mark.parametrize("cls", [SmallSpectrum, SmallFields, SmallTransport])
def test_new_seed_keeps_traced_operation_count(gc, cls):
    one, two = (_traced_calls(cls(gc, seed)) for seed in (1, 2))
    assert one and one == two


def test_untraced_run_carries_no_wrappers(gc):
    tally = workloads.Tally()
    SmallSpectrum(gc, 4).run_pass(tally)
    assert tally.failed == 0
    assert spans.wrapped_bindings() == []


def test_install_wraps_rebound_names_and_uninstall_restores(gc):
    before = {name: dict(vars(getattr(gc, name))) for name in spans.LAYERS}
    suites_before = gc.suites.SUITES
    rec = spans.SpanRecorder()
    inst = spans.install(rec)
    try:
        bound = {(getattr(o, "__name__", None), a) for o, a in spans.wrapped_bindings()}
        assert ("gaugecalc.gauge", "exterior_d") in bound
        assert ("gaugecalc.forms", "exterior_d") in bound
        assert ("gaugecalc", "curvature") in bound
        assert ("gaugecalc.cli", "run_verify") in bound
        assert ("MatrixForm", "__post_init__") in bound
        assert ("GridPotential", "along") in bound
        assert ("numpy.linalg", "eigvalsh") in bound
        assert all(hasattr(fn, spans.ORIGINAL) for _, fn in gc.suites.SUITES)
        assert gc.gauge.exterior_d is gc.forms.exterior_d
    finally:
        inst.uninstall()
    assert spans.wrapped_bindings() == []
    assert gc.suites.SUITES is suites_before
    for name in spans.LAYERS:
        now = vars(getattr(gc, name))
        assert all(now[k] is v for k, v in before[name].items())
