import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaugecalc import cli, gauge, spectrum
from gaugecalc.algebra import inner
from gaugecalc.cli import CliError, build_family, build_loop, main, parse_params
from gaugecalc.forms import TorusGrid
from gaugecalc.holonomy import MAX_STEPS, MIN_STEPS, wong_evolve


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_small_grid_passes(tmp_path):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    assert main(["verify", "--grid", "16", "--seed", "7", "--out", str(out1)]) == 0
    assert main(["verify", "--grid", "16", "--seed", "7", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert "version: 0.1.0" in text
    assert "seed: 7" in text
    assert "tolerances" in text


def test_verify_structured_record(tmp_path, capsys):
    code, out, _ = _run(capsys, ["verify", "--grid", "16", "--seed", "3",
                                 "--format", "structured-record"])
    assert code == 0
    record = json.loads(out)
    assert record["passed"] is True
    assert record["seed"] == 3
    assert all(c["passed"] for c in record["checks"])
    # the tolerance table is exactly the bounds of the checks that ran
    assert record["tolerances"] == {c["name"]: c["bound"] for c in record["checks"]}
    assert record["config"] == {"format": "structured-record", "grid": 16, "seed": 3}


def test_ab_command(capsys):
    code, out, _ = _run(capsys, ["ab", "--k", "0.5", "--winding", "1",
                                 "--format", "structured-record"])
    assert code == 0
    record = json.loads(out)
    re, im = record["monodromy"]
    assert abs(re + 1.0) < 1e-8 and abs(im) < 1e-8
    assert record["deviation"] < 1e-8
    assert record["tolerances"] == {}
    assert set(record["config"]) == {"format", "k", "seed", "steps", "winding"}


def test_ab_transport_steps_follow_steps_flag(capsys):
    for winding, want in ((1, 300), (-2, 600), (0, 300)):
        code, out, _ = _run(capsys, ["ab", "--steps", "300", "--winding", str(winding),
                                     "--format", "structured-record"])
        assert code == 0
        record = json.loads(out)
        assert record["config"]["steps"] == 300
        assert record["transport_steps"] == want
    code, _, err = _run(capsys, ["ab", "--steps", "7"])
    assert code == 1 and "--steps" in err


def test_torus_curve_command(capsys):
    code, out, _ = _run(capsys, ["torus-curve", "--lambda", "1.0", "--samples", "11",
                                 "--grid", "32", "--steps", "200",
                                 "--format", "structured-record"])
    assert code == 0
    record = json.loads(out)
    rows = record["report"]["rows"]
    assert len(rows) == 11
    assert rows[0]["t"] == 0.0
    assert rows[0]["flat"] is True
    assert rows[0]["curvature_l2"] < 1e-10


def test_torus_curve_csv(capsys):
    code, out, _ = _run(capsys, ["torus-curve", "--samples", "5", "--grid", "32",
                                 "--steps", "200", "--format", "csv"])
    assert code == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert lines[0] == "t,curvature_l2,residual_l2"
    assert len(lines) == 6


def test_residual_command(capsys):
    code, out, _ = _run(capsys, ["residual", "--family", "const-mix:c=3.14159,lam=0.5",
                                 "--grid", "16", "--format", "structured-record"])
    assert code == 0
    record = json.loads(out)
    rep = record["report"]
    assert rep["flat"] is True
    assert rep["residual_l2"] < 1e-10
    assert record["tolerances"] == {"flat_tol": 1e-8}
    assert set(rep) >= {"ym_value", "residual_l2", "curvature_l2", "flat"}


def test_holonomy_command(capsys):
    code, out, _ = _run(capsys, ["holonomy", "--family",
                                 "const-dx:c=3.141592653589793,dir=e1",
                                 "--loop", "torus:wx=1,wy=0", "--grid", "16",
                                 "--format", "structured-record"])
    assert code == 0
    record = json.loads(out)
    assert abs(record["trace"][0] + 2.0) < 1e-6
    assert record["tolerances"] == {}


def test_wong_command(capsys):
    code, out, _ = _run(capsys, ["wong", "--case", "flat-contractible",
                                 "--format", "structured-record"])
    assert code == 0
    record = json.loads(out)
    assert record["norm_drift"] < 1e-9
    assert record["final_shift"] < 1e-7
    assert record["tolerances"] == {}


@pytest.mark.parametrize("case", ("constant", "flat-contractible"))
def test_wong_norm_drift_matches_per_state_inner(capsys, monkeypatch, case):
    seen = []

    def keep(*args):
        ts, traj = wong_evolve(*args)
        seen.append(traj)
        return ts, traj

    monkeypatch.setattr(cli, "wong_evolve", keep)
    code, out, _ = _run(capsys, ["wong", "--case", case, "--steps", "300",
                                 "--format", "structured-record"])
    assert code == 0
    norms = np.array([inner(i, i) for i in seen[0]])
    expect = float(np.max(np.abs(norms - norms[0])))
    assert abs(json.loads(out)["norm_drift"] - expect) <= 1e-14


def test_spectrum_command(capsys):
    code, out, _ = _run(capsys, ["spectrum", "--grid", "16", "--rank", "1",
                                 "--format", "structured-record"])
    assert code == 0
    record = json.loads(out)
    assert record["dims"] == {"0": 1, "1": 2, "2": 1}
    assert record["tolerances"] == {"threshold": 1e-6}


def test_invalid_inputs_exit_one(capsys):
    code, _, err = _run(capsys, ["residual", "--family", "nonsense"])
    assert code == 1 and "unknown field family" in err
    code, _, err = _run(capsys, ["verify", "--grid", "4"])
    assert code == 1
    code, _, err = _run(capsys, ["ab", "--k", "zap"])
    assert code == 1 and "complex" in err
    code, _, err = _run(capsys, ["frobnicate"])
    assert code == 1
    code, _, err = _run(capsys, ["torus-curve", "--grid", "8", "--samples", "2",
                                 "--steps", "5"])
    assert code == 1 and "--steps" in err
    # a winding this large closes the loop but exceeds the winding bound
    code, _, err = _run(capsys, ["holonomy", "--grid", "8", "--loop", "torus:wx=1e20"])
    assert code == 1 and "--loop torus:wx=1e20" in err and str(MAX_STEPS) in err


@pytest.mark.parametrize("command,flag,selector,key", (
    ("residual", "--family", "const-dx:cc=1", "'cc=1'"),
    ("residual", "--family", "zero:c=5", "'c=5'"),
    ("residual", "--family", "const-dx:dir=e1,dir=e2", "'dir'"),
    ("residual", "--family", "const-dx:c=abc", "'c'"),
    ("holonomy", "--loop", "torus:x0=abc", "'x0'")),
    ids=("unknown-key", "key-of-a-family-without-parameters", "repeated-key",
         "non-numeric-family-value", "non-numeric-loop-value"))
def test_selectors_refuse_what_they_cannot_run(capsys, command, flag, selector, key):
    # the first three used to exit 0, echoing the typed selector after running a
    # default or the last value; the last two exited 1 naming neither flag nor key
    code, out, err = _run(capsys, [command, "--grid", "8", flag, selector])
    assert code == 1 and out == ""
    assert err.startswith(f"gaugecalc: error: {flag} {selector}: ") and key in err


@pytest.mark.parametrize("target", ("missing-dir/report.txt", "."), ids=("missing-dir", "dir"))
def test_unwritable_out_exits_one_naming_it(tmp_path, capsys, target):
    out_path = str(tmp_path / target)
    code, out, err = _run(capsys, ["ab", "--steps", "100", "--out", out_path])
    assert code == 1 and out == ""
    assert err.startswith(f"gaugecalc: error: --out {out_path}: ")


@pytest.mark.parametrize("loop, key", (
    ("torus:wx=1.5", "'wx'"), ("torus:wy=-0.25", "'wy'"), ("tcircle:n=2.5", "'n'"),
    ("torus:wx=1000001", "'wx'"), ("tcircle:n=-1e7", "'n'"), ("torus:wy=abc", "'wy'")))
def test_holonomy_rejects_non_integer_or_oversized_windings(capsys, loop, key):
    code, out, err = _run(capsys, ["holonomy", "--grid", "8", "--steps", "100",
                                   "--loop", loop])
    assert code == 1 and out == ""
    assert f"--loop {loop}" in err and key in err and "integer" in err


def test_holonomy_accepts_integral_float_windings(capsys):
    code, out, _ = _run(capsys, ["holonomy", "--grid", "8", "--steps", "100",
                                 "--family", "const-dx", "--loop", "torus:wx=2.0,wy=-1e0",
                                 "--format", "structured-record"])
    assert code == 0
    code, ref, _ = _run(capsys, ["holonomy", "--grid", "8", "--steps", "100",
                                 "--family", "const-dx", "--loop", "torus:wx=2,wy=-1",
                                 "--format", "structured-record"])
    assert code == 0
    assert json.loads(out)["matrix"] == json.loads(ref)["matrix"]


@pytest.mark.parametrize("command", (["residual"], ["spectrum", "--grid", "8"],
                                     ["torus-curve", "--samples", "2", "--grid", "8"]))
@pytest.mark.parametrize("tol", ("-1", "0", "nan", "inf"))
def test_rejects_bad_tolerance(capsys, command, tol):
    code, out, err = _run(capsys, command + ["--tol", tol])
    assert code == 1
    assert out == "" and "--tol" in err


# every rejected value below is refused before any field is allocated
@pytest.mark.parametrize("argv", (
    ["wong", "--grid", "-5"], ["ab", "--grid", "64"], ["ab", "--tol", "-1"],
    ["verify", "--tol", "-1", "--steps", "3"], ["verify", "--steps", "3"],
    ["holonomy", "--tol", "nan"], ["wong", "--tol", "1e-3"],
    ["residual", "--steps", "5"], ["spectrum", "--steps", "5"]))
def test_rejects_flags_a_command_does_not_read(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 1 and out == ""
    assert argv[1] in err


@pytest.mark.parametrize("argv", (
    ["residual", "--grid", "100000"], ["spectrum", "--grid", "100000"],
    ["holonomy", "--grid", "1025"], ["torus-curve", "--grid", "4096"],
    ["verify", "--grid", "2048"], ["residual", "--grid", "7"]))
def test_rejects_grid_outside_range(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 1 and out == ""
    assert "--grid" in err and "1024" in err


@pytest.mark.parametrize("family,key", (
    ("sin-dy:freq=nan", "freq"), ("const-dx:c=nan", "c"), ("const-mix:c=1,lam=inf", "lam"),
    ("const-dx:c=-inf", "c")))
def test_rejects_non_finite_selector_values(capsys, family, key):
    code, out, err = _run(capsys, ["residual", "--grid", "8", "--family", family])
    assert code == 1 and out == ""
    assert f"'{key}'" in err and "finite" in err


@pytest.mark.parametrize("command", ("residual", "holonomy"))
def test_rejects_family_whose_potential_overflows(capsys, command):
    family = "const-mix:c=1e300,lam=1e300"
    code, out, err = _run(capsys, [command, "--grid", "8", "--family", family])
    assert code == 1 and out == ""
    assert f"--family {family}" in err and "non-finite" in err


@pytest.mark.parametrize("command", ("residual", "holonomy"))
def test_rejects_sin_dy_frequency_whose_profile_overflows(capsys, command):
    # 2 pi freq overflows to inf, and sin(inf) is nan at every node
    family = "sin-dy:freq=1e308"
    code, out, err = _run(capsys, [command, "--grid", "8", "--family", family])
    assert code == 1 and out == ""
    assert f"--family {family}" in err and "non-finite" in err


@pytest.mark.parametrize("argv", (
    ["spectrum", "--grid", "16", "--rank", "100000"],
    ["spectrum", "--grid", "64", "--rank", "8", "--degree", "0"]))
def test_spectrum_rejects_oversized_rank_before_allocating(capsys, monkeypatch, argv):
    def refuse(grid, m):
        raise AssertionError("zero_connection built for an oversized problem")

    monkeypatch.setattr(cli, "zero_connection", refuse)
    code, out, err = _run(capsys, argv)
    assert code == 1 and out == ""
    assert "--rank" in err and "exceeds the limit" in err


@pytest.mark.parametrize("argv,flag", [
    (["ab", f"--k={value}"], "--k") for value in ("nan", "inf", "-inf", "1+nanj", "0.5-infj")
] + [
    (["torus-curve", "--grid", "8", "--samples", "2", f"--lambda={value}"], "--lambda")
    for value in ("nan", "inf", "-inf")
])
def test_rejects_non_finite_k_and_lambda(capsys, argv, flag):
    code, out, err = _run(capsys, argv)
    assert code == 1 and out == ""
    assert flag in err and "finite" in err


@pytest.mark.parametrize("argv,transport,flag", (
    (["ab", "--winding", "1000000000", "--steps", "100"], "aharonov_bohm_monodromy", "--winding"),
    (["ab", "--steps", "1000001"], "aharonov_bohm_monodromy", "--steps"),
    (["holonomy", "--grid", "8", "--steps", "1000000000"], "wilson_loop", "--steps"),
    (["wong", "--steps", "2000000"], "wong_evolve", "--steps"),
    (["torus-curve", "--grid", "8", "--samples", "2", "--steps", "1000001"],
     "torus_family_report", "--steps")),
    ids=("ab-winding", "ab-steps", "holonomy-steps", "wong-steps", "torus-curve-steps"))
def test_rejects_transport_steps_above_the_cap_before_transport(capsys, monkeypatch, argv,
                                                                 transport, flag):
    def refuse(*args, **kwargs):
        raise AssertionError("transport started beyond the step cap")

    monkeypatch.setattr(cli, transport, refuse)
    code, out, err = _run(capsys, argv)
    assert code == 1 and out == ""
    assert flag in err and str(MAX_STEPS) in err


@pytest.mark.parametrize("argv,key,flag", (
    (["ab", "--k", "1e300"], "monodromy", "--k 1e300"),
    (["ab", "--k", "1e5"], "monodromy", "--k 1e5"),
    (["holonomy", "--grid", "8", "--family", "const-dx:c=1e300"], "matrix.0.0",
     "--family const-dx:c=1e300"),
    (["torus-curve", "--grid", "8", "--samples", "2", "--steps", "100", "--lambda", "1e300"],
     "report.jet_summary.harmonic_e1_l2", "--lambda 1e+300")),
    ids=("ab-k-1e300", "ab-k-1e5", "holonomy-c-1e300", "torus-curve-lambda-1e300"))
@pytest.mark.parametrize("fmt", ("report-text", "csv"))
def test_non_finite_report_exits_one(capsys, argv, key, flag, fmt):
    code, out, err = _run(capsys, argv + ["--format", fmt])
    assert code == 1 and out == ""
    assert err.startswith(f"gaugecalc: error: report value {key} ")
    assert "not finite" in err and flag in err


@pytest.mark.parametrize("loop, family", (("tcircle:r=1e305,n=1000", "const-dx"),
                                          ("torus:wx=2", "const-dx:c=1.7e308")))
def test_holonomy_names_its_flags_when_a_potential_sample_overflows(capsys, loop, family):
    # both loops are closed mod 1, but A(xdot) overflows at the first node
    code, out, err = _run(capsys, ["holonomy", "--grid", "8", "--steps", "100",
                                   "--loop", loop, "--family", family])
    assert code == 1 and out == ""
    assert "not finite at t = 0.0" in err and f"--loop {loop}" in err
    assert f"--family {family}" in err


@pytest.mark.parametrize("k", ("1e308", "1e308+1e308j"))
def test_ab_names_its_flags_when_a_potential_sample_overflows(capsys, k):
    # k / z overflows at the first node of the unit circle
    code, out, err = _run(capsys, ["ab", "--steps", "100", "--k", k])
    assert code == 1 and out == ""
    assert "not finite at t = 0.0" in err and f"--k {k}" in err


@pytest.mark.parametrize("samples", ("1000000000", str(cli._MAX_SAMPLES + 1)))
def test_torus_curve_rejects_samples_above_the_cap_before_sampling(capsys, monkeypatch,
                                                                   samples):
    def refuse(*args, **kwargs):
        raise AssertionError("torus family evaluated beyond the sample cap")

    monkeypatch.setattr(cli, "torus_family_report", refuse)
    code, out, err = _run(capsys, ["torus-curve", "--grid", "8", "--samples", samples])
    assert code == 1 and out == ""
    assert "--samples" in err and str(cli._MAX_SAMPLES) in err


def test_cli_import_and_spectrum_run_load_no_scipy():
    # scipy is needed only by the sparse Laplacian of non-constant connections
    script = ("import os, sys\n"
              "from gaugecalc.cli import main\n"
              "def loaded():\n"
              "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
              "print(loaded())\n"
              "main(['spectrum', '--grid', '8', '--rank', '2', '--out', os.devnull])\n"
              "print(loaded())\n")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n[]\n"


def test_reported_tolerances_are_the_library_defaults(capsys):
    for argv, want in ((["residual", "--grid", "8"], {"flat_tol": gauge.FLAT_TOL}),
                       (["torus-curve", "--grid", "8", "--samples", "2", "--steps", "100"],
                        {"flat_tol": gauge.FLAT_TOL}),
                       (["spectrum", "--grid", "8"], {"threshold": spectrum.KERNEL_THRESHOLD})):
        code, out, _ = _run(capsys, argv + ["--format", "structured-record"])
        assert code == 0
        assert json.loads(out)["tolerances"] == want


def _finite_numbers(obj):
    if isinstance(obj, dict):
        return all(_finite_numbers(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite_numbers(v) for v in obj)
    return not isinstance(obj, float) or math.isfinite(obj)


_SMALL = st.floats(-3.0, 3.0, allow_nan=False)
_KS = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr),
                st.builds(lambda re, im: repr(complex(re, im)), _SMALL, _SMALL),
                st.builds(lambda re, im: repr(complex(re, im)), st.floats(-1e300, 1e300),
                          st.floats(-1e300, 1e300)),
                st.floats(1e3, 1e300).map(repr))


@settings(max_examples=40, deadline=None)
@given(k=_KS, winding=st.one_of(st.integers(-3, 3), st.sampled_from((0, 10 ** 9, -10 ** 9))),
       steps=st.one_of(st.integers(100, 300), st.integers(-10 ** 6, 99),
                       st.integers(MAX_STEPS + 1, 10 ** 12)))
def test_ab_argument_vectors_end_in_report_or_error(k, winding, steps):
    argv = ["ab", f"--k={k}", f"--winding={winding}", f"--steps={steps}",
            "--format", "structured-record"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert _finite_numbers(json.loads(out.getvalue()))
        assert err.getvalue() == ""
    else:
        assert code == 1 and out.getvalue() == ""
        assert err.getvalue().startswith("gaugecalc: error: ")


_TOLS = st.one_of(st.none(), st.sampled_from(("0", "-1", "nan", "inf", "-inf", "1e-6", "100")),
                  st.floats(allow_nan=True, allow_infinity=True).map(repr))


@settings(max_examples=60, deadline=None)
@given(grid=st.integers(1, 40), rank=st.one_of(st.integers(1, 3), st.integers(1, 10 ** 6)),
       degree=st.sampled_from(("0", "1", "2", "all")), tol=_TOLS)
def test_spectrum_argument_vectors_end_in_report_or_error(grid, rank, degree, tol):
    argv = ["spectrum", "--grid", str(grid), "--rank", str(rank), "--degree", degree,
            "--format", "structured-record"]
    if tol is not None:
        argv.append(f"--tol={tol}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        dims = json.loads(out.getvalue())["dims"]
        assert set(dims) == ({"0", "1", "2"} if degree == "all" else {degree})
        assert all(isinstance(v, int) and 0 <= v < math.inf for v in dims.values())
        assert err.getvalue() == ""
    else:
        assert code == 1 and out.getvalue() == ""
        assert err.getvalue().startswith("gaugecalc: error: ")


def _contract(argv, bad, names):
    """Run `argv`, built valid except for the flag `bad` (None: every flag valid).

    It must exit 0 with a finite record, or, when a flag was drawn bad, exit 1
    with a message naming one of `names`.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--format", "structured-record"])
    if code == 0:
        record = json.loads(out.getvalue())
        assert _finite_numbers(record) and err.getvalue() == ""
        return record
    assert bad is not None, err.getvalue()
    assert code == 1 and out.getvalue() == ""
    assert err.getvalue().startswith("gaugecalc: error: ")
    assert any(name in err.getvalue() for name in names), err.getvalue()
    return None


_WILD = st.one_of(st.sampled_from((math.nan, math.inf, -math.inf, 1e300, -1e300)),
                  st.floats(allow_nan=True, allow_infinity=True))
_BAD_GRIDS = st.one_of(st.integers(-10 ** 6, 7), st.integers(1025, 10 ** 12))
_GOOD_TOLS = st.one_of(st.none(), st.floats(1e-12, 1e3).map(repr))
_BAD_WINDINGS = st.one_of(st.integers(MAX_STEPS + 1, 10 ** 30),
                          st.integers(-10 ** 30, -MAX_STEPS - 1))
_BAD_STEPS = st.one_of(st.integers(-10 ** 6, MIN_STEPS - 1), st.integers(MAX_STEPS + 1, 10 ** 12))


# a bad selector value is a wild float or text that is not a number, and a bad
# selector may carry extra items: each is a key its family does not take, a key
# it already has, or an item without '='
_WILD_VALUES = st.one_of(_WILD.map(repr),
                         st.sampled_from(("abc", "", "1.5.0", "0x10", "e1", "1+2j", "--1")),
                         st.text(max_size=6))
_EXTRA_ITEMS = st.lists(st.sampled_from(("c=1", "dir=e2", "lam=0.5", "freq=2", "wx=1", "y0=0",
                                         "n=2", "r=0.1", "cx=0.5", "cc=1", "noeq")),
                        max_size=2)


def _family(name, direction, draw):
    """A --family selector of `name`; `draw(good, wild)` draws its parameter text."""
    c, lam, freq = (draw(_SMALL.map(repr), _WILD_VALUES) for _ in range(3))
    items = {"zero": [], "const-dx": [f"c={c}", f"dir={direction}"],
             "const-mix": [f"c={c}", f"lam={lam}"],
             "sin-dy": [f"freq={freq}", f"dir={direction}"]}[name]
    items += draw(st.just([]), _EXTRA_ITEMS)
    return f"{name}:{','.join(items)}" if items else name


@settings(max_examples=40, deadline=None)
@given(data=st.data(), bad=st.sampled_from((None, "--grid", "--tol", "--family")),
       name=st.sampled_from(("zero", "const-dx", "const-mix", "sin-dy")),
       direction=st.sampled_from(("e1", "e2", "e3")))
def test_residual_argument_vectors_end_in_report_or_error(data, bad, name, direction):
    def draw(flag, good, wild):
        return data.draw(wild if flag == bad else good, label=flag)

    grid = draw("--grid", st.integers(8, 16), _BAD_GRIDS)
    tol = draw("--tol", _GOOD_TOLS, _TOLS)
    family = _family(name, direction, lambda good, wild: draw("--family", good, wild))
    argv = ["residual", "--grid", str(grid), "--family", family]
    if tol is not None:
        argv.append(f"--tol={tol}")
    names = ("--family", "'c'", "'lam'", "'freq'") if bad == "--family" else (bad,)
    record = _contract(argv, bad, names)
    if record is not None:
        assert record["config"]["family"] == family
        assert set(record["report"]) >= {"ym_value", "residual_l2", "curvature_l2", "flat"}


@settings(max_examples=30, deadline=None)
@given(data=st.data(),
       bad=st.sampled_from((None, "--grid", "--tol", "--lambda", "--samples", "--steps")))
def test_torus_curve_argument_vectors_end_in_report_or_error(data, bad):
    def draw(flag, good, wild):
        return data.draw(wild if flag == bad else good, label=flag)

    grid = draw("--grid", st.integers(8, 16), _BAD_GRIDS)
    tol = draw("--tol", _GOOD_TOLS, _TOLS)
    lam = draw("--lambda", _SMALL, _WILD)
    samples = draw("--samples", st.integers(2, 5),
                   st.one_of(st.integers(-10 ** 6, 1), st.integers(cli._MAX_SAMPLES + 1, 10 ** 12)))
    steps = draw("--steps", st.integers(MIN_STEPS, 200), _BAD_STEPS)
    argv = ["torus-curve", "--grid", str(grid), f"--lambda={lam!r}", "--samples", str(samples),
            "--steps", str(steps)]
    if tol is not None:
        argv.append(f"--tol={tol}")
    record = _contract(argv, bad, (bad,))
    if record is not None:
        assert len(record["report"]["rows"]) == samples


_LOOP_PARAMS = {"torus": ("wx", "wy", "x0", "y0"), "tcircle": ("cx", "cy", "r", "n")}
_WINDINGS = ("wx", "wy", "n")  # integer loop parameters, at most MAX_STEPS in magnitude


@settings(max_examples=30, deadline=None)
@given(data=st.data(), bad=st.sampled_from((None, "--grid", "--steps", "--family", "--loop")),
       name=st.sampled_from(("zero", "const-dx", "const-mix", "sin-dy")),
       direction=st.sampled_from(("e1", "e2", "e3")), loop=st.sampled_from(tuple(_LOOP_PARAMS)))
def test_holonomy_argument_vectors_end_in_report_or_error(data, bad, name, direction, loop):
    def draw(flag, good, wild):
        return data.draw(wild if flag == bad else good, label=flag)

    grid = draw("--grid", st.integers(8, 12), _BAD_GRIDS)
    steps = draw("--steps", st.integers(MIN_STEPS, 150), _BAD_STEPS)
    family = _family(name, direction, lambda good, wild: draw("--family", good, wild))
    items = [f"{key}=" + (draw("--loop", st.integers(-3, 3).map(repr),
                               st.one_of(_WILD_VALUES, _BAD_WINDINGS.map(repr)))
                          if key in _WINDINGS else draw("--loop", _SMALL.map(repr), _WILD_VALUES))
             for key in _LOOP_PARAMS[loop]]
    loop_sel = loop + ":" + ",".join(items + draw("--loop", st.just([]), _EXTRA_ITEMS))
    argv = ["holonomy", "--grid", str(grid), "--steps", str(steps), "--family", family,
            "--loop", loop_sel]
    names = {"--family": ("--family", "'c'", "'lam'", "'freq'"),
             "--loop": ("--loop",) + tuple(f"'{key}'" for key in _LOOP_PARAMS[loop])}
    record = _contract(argv, bad, names.get(bad, (bad,)))
    if record is not None:
        assert len(record["matrix"]) == 4 and record["config"]["loop"] == loop_sel


@settings(max_examples=30, deadline=None)
@given(data=st.data(), bad=st.sampled_from((None, "--steps", "--case", "--i0")))
def test_wong_argument_vectors_end_in_report_or_error(data, bad):
    def draw(flag, good, wild):
        return data.draw(wild if flag == bad else good, label=flag)

    steps = draw("--steps", st.integers(MIN_STEPS, 150), _BAD_STEPS)
    case = draw("--case", st.sampled_from(("constant", "flat-contractible")), st.text())
    i0 = draw("--i0", st.sampled_from(("e1", "e2", "e3")), st.text())
    record = _contract(["wong", "--steps", str(steps), f"--case={case}", f"--i0={i0}"],
                       bad, (bad,))
    if record is not None:
        assert record["config"]["steps"] == steps and len(record["initial"]) == 4


@settings(max_examples=15, deadline=None)
@given(data=st.data(), bad=st.sampled_from((None, "--grid", "--seed")))
def test_verify_argument_vectors_end_in_report_or_error(data, bad):
    def draw(flag, good, wild):
        return data.draw(wild if flag == bad else good, label=flag)

    # a valid run must pass every check, so exit 2 fails the contract too
    grid = draw("--grid", st.integers(8, 12), _BAD_GRIDS)
    seed = draw("--seed", st.integers(0, 2 ** 64), st.integers(-10 ** 12, -1))
    record = _contract(["verify", "--grid", str(grid), "--seed", str(seed)], bad, (bad,))
    if record is not None:
        assert record["passed"] is True and record["seed"] == seed
        assert record["config"]["grid"] == grid
        assert record["tolerances"] == {c["name"]: c["bound"] for c in record["checks"]}


def test_verify_seed_13_first_variation_passes(capsys):
    # a random direction nearly orthogonal to the gradient at this seed made the
    # unfloored relative error 1.2e-5
    code, out, _ = _run(capsys, ["verify", "--seed", "13", "--format", "structured-record"])
    assert code == 0
    (fv,) = [c for c in json.loads(out)["checks"] if c["name"] == "first-variation-relative"]
    assert fv["passed"] and fv["value"] < 1e-7


def test_config_file_mode(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"command": "ab", "k": "0.5", "winding": 1,
                               "format": "structured-record"}))
    code, out, _ = _run(capsys, ["--config", str(cfg)])
    assert code == 0
    record = json.loads(out)
    assert abs(record["monodromy"][0] + 1.0) < 1e-8


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"command": "ab", "k": "0.5", "zap": 1}))
    code, _, err = _run(capsys, ["--config", str(cfg)])
    assert code == 1
    assert "--zap" in err


def test_config_file_rejects_malformed_json(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{ not json")
    code, _, err = _run(capsys, ["--config", str(cfg)])
    assert code == 1
    assert "line" in err


def _spectrum_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "spectrum", "grid": 8, "rank": 2,
                               "format": "structured-record"}))
    return str(cfg)


def test_config_file_loads_with_an_equals_sign(tmp_path, capsys):
    code, out, _ = _run(capsys, [f"--config={_spectrum_config(tmp_path)}"])
    assert code == 0
    assert json.loads(out)["config"]["grid"] == 8 and json.loads(out)["config"]["rank"] == 2


def test_config_file_with_an_equals_sign_takes_no_second_command(tmp_path, capsys):
    # the file names the command, as it does for --config PATH
    code, out, err = _run(capsys, [f"--config={_spectrum_config(tmp_path)}", "spectrum"])
    assert code == 1 and out == ""
    assert "unrecognized arguments: spectrum" in err


@pytest.mark.parametrize("spell", (lambda path: ["--config", path],
                                   lambda path: [f"--config={path}"]), ids=("space", "equals"))
def test_config_file_refuses_a_following_command_by_saying_why(spell, tmp_path, capsys):
    code, out, err = _run(capsys, [*spell(_spectrum_config(tmp_path)), "spectrum"])
    assert code == 1 and out == ""
    assert "config file already names its command" in err and "no command may follow" in err


def test_config_file_takes_flags_after_its_path(tmp_path, capsys):
    code, out, _ = _run(capsys, ["--config", _spectrum_config(tmp_path), "--grid", "16"])
    assert code == 0
    assert json.loads(out)["config"]["grid"] == 16 and json.loads(out)["config"]["rank"] == 2


def test_abbreviated_config_flag_is_refused_by_name(tmp_path, capsys):
    code, out, err = _run(capsys, ["--conf", _spectrum_config(tmp_path)])
    assert code == 1 and out == ""
    assert "--config" in err


def test_selector_parsing():
    name, params = parse_params("const-dx:c=3.14,dir=e1")
    assert name == "const-dx"
    assert params == {"c": 3.14, "dir": "e1"}
    with pytest.raises(CliError, match="'freq'"):
        parse_params("sin-dy:freq=nan")
    grid = TorusGrid(16)
    conn = build_family(grid, "zero")
    assert conn.potential.max_abs() == 0.0
    with pytest.raises(Exception):
        build_loop("spiral:k=1")
