import collections
import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from gaugecalc import cli, gauge, spectrum, suites
from gaugecalc.algebra import inner
from gaugecalc.cli import CliError, build_family, build_loop, main, parse_params
from gaugecalc.forms import TorusGrid
from gaugecalc.holonomy import MAX_STEPS, MIN_STEPS, wong_evolve


def _limit(command, flags):
    """The limit of the row of `cli._COSTS` for `command` whose cost reads `flags`."""
    (limit,) = [row[3] for row in cli._COSTS[command] if row[0] == flags]
    return limit


_SAMPLES_LIMIT = _limit("torus-curve", "samples")


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
    # the seed is echoed once, in the config; each check states its own bound
    assert text.count("seed: 7") == 1 and "config:\n  format: report-text\n" in text
    assert "tolerances" not in text and "bound: " in text


def test_verify_structured_record(tmp_path, capsys):
    code, out, _ = _run(capsys, ["verify", "--grid", "16", "--seed", "3",
                                 "--format", "structured-record"])
    assert code == 0
    record = json.loads(out)
    assert record["passed"] is True
    assert all(c["passed"] for c in record["checks"])
    # the seed lives in the config and each tolerance in its check's bound, once
    assert "seed" not in record and "tolerances" not in record
    assert all(isinstance(c["bound"], float) for c in record["checks"])
    assert record["config"] == {"format": "structured-record", "grid": 16, "seed": 3}


def test_verify_reports_a_suite_that_raises_and_runs_the_rest(monkeypatch, capsys):
    def raising(rng, n):
        raise ValueError("gauge field is not unitary: defect 2.000e-09")

    monkeypatch.setattr(suites, "SUITES", (
        ("first", lambda rng, n: [suites.Check("first-check", 0.0, 1.0)]),
        ("gauge", raising),
        ("last", lambda rng, n: [suites.Check("last-check", 0.0, 1.0)]),
    ))
    code, out, err = _run(capsys, ["verify", "--grid", "8", "--format", "structured-record"])
    assert code == 2
    record = json.loads(out)
    assert [(c["name"], c["value"], c["bound"], c["passed"]) for c in record["checks"]] == [
        ("first-check", 0.0, 1.0, True), ("gauge-suite", 1.0, 0.0, False),
        ("last-check", 0.0, 1.0, True)]
    assert record["passed"] is False and record["summary"] == "2/3 checks passed"
    assert "suite gauge raised ValueError: gauge field is not unitary: defect 2.000e-09" in err


def test_ab_command(capsys):
    code, out, _ = _run(capsys, ["ab", "--k", "0.5", "--winding", "1",
                                 "--format", "structured-record"])
    assert code == 0
    record = json.loads(out)
    re, im = record["monodromy"]
    assert abs(re + 1.0) < 1e-8 and abs(im) < 1e-8
    assert record["deviation"] < 1e-8
    assert "tolerances" not in record
    assert set(record["config"]) == {"format", "k", "steps", "winding"}


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
                                 "--grid", "32", "--format", "structured-record"])
    assert code == 0
    record = json.loads(out)
    rows = record["report"]["rows"]
    assert len(rows) == 11
    assert rows[0]["t"] == 0.0
    assert rows[0]["flat"] is True
    assert rows[0]["curvature_l2"] < 1e-10


def test_torus_curve_lays_out_the_claim_report(capsys):
    # the CLI lays out the measured claim report: one row per sample in both
    # layouts, lambda and n echoed once, in the config, and no seam key
    argv = ["torus-curve", "--lambda", "0.5", "--samples", "11", "--grid", "16"]
    code, out, _ = _run(capsys, argv + ["--format", "structured-record"])
    assert code == 0
    record = json.loads(out)
    report = record["report"]
    assert list(report) == sorted(["rows", "jet_summary", "endpoint_holonomies"])
    assert (record["config"]["lam"], record["config"]["grid"]) == (0.5, 16)
    assert record["tolerances"] == {"flat_tol": gauge.FLAT_TOL}
    assert len(report["rows"]) == 11 and "seam" not in report
    code, out, _ = _run(capsys, argv + ["--format", "csv"])
    assert code == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert lines[0] == "t,curvature_l2,residual_l2" and len(lines) == 1 + 11
    assert [float(ln.split(",")[0]) for ln in lines[1:]] == [r["t"] for r in report["rows"]]


@pytest.mark.parametrize("grid", ("16", "64"))
def test_torus_curve_reports_the_t1_x_holonomy_as_minus_identity(capsys, grid):
    # link products give the vacuum pi e1 dx its x-holonomy exp(-pi e1) = -I to rounding
    code, out, _ = _run(capsys, ["torus-curve", "--grid", grid, "--format", "structured-record"])
    assert code == 0
    holo = json.loads(out)["report"]["endpoint_holonomies"]["t1"]["x_generator"]
    got = np.array([complex(re, im) for re, im in holo])
    assert np.max(np.abs(got + np.eye(2).ravel())) <= 1e-13


def test_torus_curve_csv(capsys):
    code, out, _ = _run(capsys, ["torus-curve", "--samples", "5", "--grid", "32",
                                 "--format", "csv"])
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
    assert "tolerances" not in record


def test_wong_command(capsys):
    code, out, _ = _run(capsys, ["wong", "--case", "flat-contractible",
                                 "--format", "structured-record"])
    assert code == 0
    record = json.loads(out)
    assert record["norm_drift"] < 1e-9
    assert record["final_shift"] < 1e-7
    assert "tolerances" not in record


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
    # no command takes --tol, so a bad value is refused as the flag itself
    code, out, err = _run(capsys, command + ["--tol", tol])
    assert code == 1
    assert out == "" and f"unrecognized arguments: --tol {tol}" in err


# every rejected value below is refused before any field is allocated, typed and
# under --config: no command takes --tol, and only verify, the one command that
# draws random numbers, takes --seed
@pytest.mark.parametrize("argv", (
    ["wong", "--grid", "-5"], ["ab", "--grid", "64"], ["ab", "--tol", "-1"],
    ["verify", "--tol", "-1", "--steps", "3"], ["verify", "--steps", "3"],
    ["holonomy", "--tol", "nan"], ["wong", "--tol", "1e-3"],
    ["residual", "--steps", "5"], ["spectrum", "--steps", "5"],
    *([command, "--tol", "1e-3"] for command in ("residual", "torus-curve", "spectrum")),
    *([command, "--seed", "1"]
      for command in ("torus-curve", "residual", "holonomy", "ab", "wong", "spectrum"))))
def test_rejects_flags_a_command_does_not_read(capsys, monkeypatch, tmp_path, argv):
    for name in cli._COMMANDS:
        monkeypatch.setitem(cli._COMMANDS, name, lambda args: pytest.fail("the command ran"))
    for via_config in (False, True):
        code, out, err = _run(capsys, _argv(tmp_path, argv[0], argv[1:], via_config))
        assert code == 1 and out == ""
        assert argv[1] in err


def test_an_older_config_is_refused_for_its_seed_and_takes_a_null_tol_as_the_default(
        tmp_path, capsys):
    # the config a residual report echoed when every command took --seed and --tol
    old = {"command": "residual", "family": "zero", "format": "structured-record",
           "grid": 8, "tol": None}
    cfg = tmp_path / "old.json"
    cfg.write_text(json.dumps({**old, "seed": 0}))
    code, out, err = _run(capsys, ["--config", str(cfg)])
    assert code == 1 and out == ""
    assert "unrecognized arguments: --seed 0" in err
    cfg.write_text(json.dumps(old))
    code, out, _ = _run(capsys, ["--config", str(cfg)])
    assert code == 0
    record = json.loads(out)
    assert record["tolerances"] == {"flat_tol": gauge.FLAT_TOL}
    assert record["config"] == {"family": "zero", "format": "structured-record", "grid": 8}


# the flags of each command, 34 in all: none is a tolerance, and only verify,
# which draws random numbers, takes a seed
_FLAGS = {
    "verify": {"--grid", "--seed", "--out", "--format"},
    "torus-curve": {"--grid", "--lambda", "--samples", "--out", "--format"},
    "residual": {"--grid", "--family", "--out", "--format"},
    "holonomy": {"--grid", "--steps", "--family", "--loop", "--out", "--format"},
    "ab": {"--steps", "--k", "--winding", "--out", "--format"},
    "wong": {"--steps", "--case", "--i0", "--out", "--format"},
    "spectrum": {"--grid", "--rank", "--degree", "--out", "--format"},
}


def test_each_command_takes_exactly_its_flags():
    (sub,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    got = {name: {flag for action in p._actions for flag in action.option_strings}
           - {"-h", "--help"} for name, p in sub.choices.items()}
    assert got == _FLAGS


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
    ["spectrum", "--grid", "1024", "--rank", "3", "--degree", "0"],
    ["spectrum", "--grid", "8", "--rank", "33", "--degree", "0"]))
def test_spectrum_rejects_oversized_rank_before_allocating(capsys, monkeypatch, argv):
    def refuse(grid, m):
        raise AssertionError("zero_connection built for an oversized problem")

    monkeypatch.setattr(cli, "zero_connection", refuse)
    code, out, err = _run(capsys, argv)
    assert code == 1 and out == ""
    assert "--rank" in err and "exceeds the limit" in err


def test_spectrum_counts_rank_2_at_grid_32(capsys):
    code, out, _ = _run(capsys, ["spectrum", "--grid", "32", "--rank", "2",
                                 "--format", "structured-record"])
    assert code == 0
    assert json.loads(out)["dims"] == {"0": 4, "1": 8, "2": 4}


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
    (["wong", "--steps", "2000000"], "wong_evolve", "--steps")),
    ids=("ab-winding", "ab-steps", "holonomy-steps", "wong-steps"))
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
    (["torus-curve", "--grid", "8", "--samples", "2", "--lambda", "1e300"],
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


@pytest.mark.parametrize("samples", ("1000000000", str(_SAMPLES_LIMIT + 1)))
def test_torus_curve_rejects_samples_above_the_cap_before_sampling(capsys, monkeypatch,
                                                                   samples):
    def refuse(*args, **kwargs):
        raise AssertionError("torus family evaluated beyond the sample cap")

    monkeypatch.setattr(cli, "torus_family_report", refuse)
    code, out, err = _run(capsys, ["torus-curve", "--grid", "8", "--samples", samples])
    assert code == 1 and out == ""
    assert f"--samples {samples}: samples = {samples}" in err and str(_SAMPLES_LIMIT) in err


def test_cli_import_and_spectrum_run_load_no_scipy():
    # the package needs numpy only; scipy is a test dependency
    script = ("import os, sys\n"
              "import numpy as np\n"
              "import gaugecalc as gc\n"
              "from gaugecalc.cli import main\n"
              "def loaded():\n"
              "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
              "print(loaded())\n"
              "grid = gc.TorusGrid(8)\n"
              "x, y = grid.nodes()\n"
              "prof = gc.scalar_form(grid, 1, 0.7 + 0.4 * np.cos(2 * np.pi * x),\n"
              "                      -0.5 + 0.3 * np.sin(2 * np.pi * y))\n"
              "print(gc.harmonic_space_dim(gc.Connection(gc.tensor_form(prof, gc.E1)), 0))\n"
              "main(['spectrum', '--grid', '8', '--rank', '2', '--out', os.devnull])\n"
              "print(loaded())\n")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n2\n[]\n"


def _key_counts(obj, counts=None):
    """How often each key occurs anywhere in a decoded structured record."""
    counts = collections.Counter() if counts is None else counts
    if isinstance(obj, dict):
        counts.update(obj.keys())
        obj = list(obj.values())
    for val in obj if isinstance(obj, list) else ():
        _key_counts(val, counts)
    return counts


def test_reported_tolerances_are_the_library_defaults(capsys):
    # every format states each run fact once: the tolerances that ran, in the
    # header with the library constant's value, and the seed only in the config;
    # no body key echoes lambda, the grid or a tolerance, or repeats a jet norm
    echoes = {"lambda", "n", "flat_tol", "threshold", "grad_star_ce_l2"}
    for argv, want in ((["verify", "--grid", "8", "--seed", "5"], {}),
                       (["torus-curve", "--grid", "8", "--samples", "2"],
                        {"flat_tol": gauge.FLAT_TOL}),
                       (["residual", "--grid", "8"], {"flat_tol": gauge.FLAT_TOL}),
                       (["holonomy", "--grid", "8", "--steps", "100"], {}),
                       (["ab", "--steps", "100"], {}),
                       (["wong", "--steps", "100"], {}),
                       (["spectrum", "--grid", "8"], {"threshold": spectrum.KERNEL_THRESHOLD})):
        seeds = int(argv[0] == "verify")
        outs = {}
        for fmt in ("structured-record", "report-text", "csv"):
            code, outs[fmt], _ = _run(capsys, argv + ["--format", fmt])
            assert code == 0, (argv, fmt)
        record = json.loads(outs["structured-record"])
        text_keys = collections.Counter(ln.strip().partition(":")[0]
                                        for ln in outs["report-text"].splitlines())
        comments = dict(ln[2:].partition(": ")[::2] for ln in outs["csv"].splitlines()
                        if ln.startswith("# "))
        table = list(csv.reader(ln for ln in outs["csv"].splitlines()
                                if not ln.startswith("#")))
        for counts in (_key_counts(record), text_keys):
            assert counts["seed"] == seeds and counts["tolerances"] == bool(want), argv
            assert all(counts[key] == (key in want) for key in echoes), argv
        assert record.get("tolerances", {}) == want
        assert all(f"  {key}: {val:.12e}" in outs["report-text"].splitlines()
                   for key, val in want.items())
        assert list(comments) == ["version", "command", "config"] + ["tolerances"] * bool(want)
        assert json.loads(comments.get("tolerances", "{}")) == want
        assert json.loads(comments["config"]).get("seed", 5) == 5
        assert all(outs["csv"].count(key) == 1 for key in want)
        assert outs["csv"].count("seed") == seeds
        assert not echoes & (set(table[0]) | {row[0] for row in table[1:]}), argv


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


@settings(max_examples=60, deadline=None)
@given(grid=st.integers(1, 40), rank=st.one_of(st.integers(1, 3), st.integers(1, 10 ** 6)),
       degree=st.sampled_from(("0", "1", "2", "all")))
def test_spectrum_argument_vectors_end_in_report_or_error(grid, rank, degree):
    argv = ["spectrum", "--grid", str(grid), "--rank", str(rank), "--degree", degree,
            "--format", "structured-record"]
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
@given(data=st.data(), bad=st.sampled_from((None, "--grid", "--family")),
       name=st.sampled_from(("zero", "const-dx", "const-mix", "sin-dy")),
       direction=st.sampled_from(("e1", "e2", "e3")))
def test_residual_argument_vectors_end_in_report_or_error(data, bad, name, direction):
    def draw(flag, good, wild):
        return data.draw(wild if flag == bad else good, label=flag)

    grid = draw("--grid", st.integers(8, 16), _BAD_GRIDS)
    family = _family(name, direction, lambda good, wild: draw("--family", good, wild))
    argv = ["residual", "--grid", str(grid), "--family", family]
    names = ("--family", "'c'", "'lam'", "'freq'") if bad == "--family" else (bad,)
    record = _contract(argv, bad, names)
    if record is not None:
        assert record["config"]["family"] == family
        assert set(record["report"]) >= {"ym_value", "residual_l2", "curvature_l2", "flat"}


class _Reached(Exception):
    """Raised by a stubbed report: the command got past its input checks."""


_CURVE_LIMIT = _limit("torus-curve", "samples grid")


def _argv(tmp_path, command, flags, via_config):
    """`command` with `flags` on the command line, or under --config with the same values."""
    if not via_config:
        return [command, *flags]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"command": command,
                               **{f[2:]: v for f, v in zip(flags[::2], flags[1::2])}}))
    return ["--config", str(cfg)]


@pytest.mark.parametrize("via_config", (False, True))
@pytest.mark.parametrize("grid, samples", ((1024, 9), (1024, 10 ** 4), (512, 33), (29, 10 ** 4),
                                           (256, 129)))
def test_torus_curve_refuses_samples_times_grid_squared_above_the_budget(
        capsys, monkeypatch, tmp_path, grid, samples, via_config):
    def refuse(*args, **kwargs):
        raise AssertionError("torus family evaluated beyond the budget")

    monkeypatch.setattr(cli, "torus_family_report", refuse)
    argv = _argv(tmp_path, "torus-curve", ["--grid", str(grid), "--samples", str(samples)],
                 via_config)
    code, out, err = _run(capsys, argv)
    assert code == 1 and out == ""
    assert f"--samples {samples} --grid {grid}: " in err
    assert f"= {samples * grid ** 2} exceeds the limit {_CURVE_LIMIT}" in err


@pytest.mark.parametrize("via_config", (False, True))
@pytest.mark.parametrize("flags", (["--grid", "1024", "--samples", "8"],
                                   ["--grid", "1024", "--samples", "2"],
                                   ["--grid", "512", "--samples", "32"],
                                   ["--grid", "28", "--samples", str(10 ** 4)],
                                   ["--grid", "8", "--samples", str(10 ** 4)],
                                   []))
def test_torus_curve_accepts_the_budget_boundary_and_the_defaults(
        monkeypatch, tmp_path, flags, via_config):
    def reached(*args, **kwargs):
        raise _Reached

    monkeypatch.setattr(cli, "torus_family_report", reached)
    with pytest.raises(_Reached):
        main(_argv(tmp_path, "torus-curve", flags, via_config))
    # 1024 x 8 is the cost at the boundary
    assert 8 * 1024 ** 2 == _CURVE_LIMIT


_VERIFY_LIMIT = _limit("verify", "grid")


@pytest.mark.parametrize("via_config", (False, True))
@pytest.mark.parametrize("command, stub, flags, cost, limit", (
    ("verify", "run_verify", ["--grid", str(_VERIFY_LIMIT + 1)], _VERIFY_LIMIT + 1,
     _VERIFY_LIMIT),
    ("verify", "run_verify", ["--grid", "1024"], 1024, _VERIFY_LIMIT),
    # torus-curve has no --steps: its holonomies are link products, not transports
    ("torus-curve", "torus_family_report", ["--steps", "1000"], None, None)),
    ids=("verify-limit+1", "verify-1024", "torus-curve-steps"))
def test_verify_grid_and_torus_curve_steps_are_refused_before_the_command_runs(
        capsys, monkeypatch, tmp_path, command, stub, flags, cost, limit, via_config):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{stub} ran on refused flags")

    monkeypatch.setattr(cli, stub, refuse)
    code, out, err = _run(capsys, _argv(tmp_path, command, flags, via_config))
    assert code == 1 and out == ""
    assert all(f"{flag} {val}" in err for flag, val in zip(flags[::2], flags[1::2]))
    assert (f"= {cost} exceeds the limit {limit}" if cost else "unrecognized arguments") in err


# torus-curve has no --steps left to reach a limit; its budget boundary is
# test_torus_curve_accepts_the_budget_boundary_and_the_defaults
@pytest.mark.parametrize("via_config", (False, True))
@pytest.mark.parametrize("command, stub, flags", (
    ("verify", "run_verify", ["--grid", str(_VERIFY_LIMIT)]),),
    ids=("verify-limit",))
def test_verify_grid_and_torus_curve_steps_at_their_limits_reach_the_command(
        monkeypatch, tmp_path, command, stub, flags, via_config):
    def reached(*args, **kwargs):
        raise _Reached

    monkeypatch.setattr(cli, stub, reached)
    with pytest.raises(_Reached):
        main(_argv(tmp_path, command, flags, via_config))


# each row of cli._COSTS, keyed by its command and the flags its cost reads: the
# cost, written out apart from the table, and the limit
_ROWS = {
    ("verify", "grid"): (lambda v: v["grid"], 384),
    ("torus-curve", "samples"): (lambda v: v["samples"], 10 ** 4),
    ("torus-curve", "samples grid"): (lambda v: v["samples"] * v["grid"] ** 2, 8 * 1024 ** 2),
    ("ab", "steps winding"): (lambda v: v["steps"] * max(1, abs(v["winding"])), MAX_STEPS),
    ("spectrum", "rank"): (lambda v: v["rank"], 32),
    ("spectrum", "grid rank"): (lambda v: v["grid"] * v["rank"], 2048),
}


def test_cost_table_holds_the_documented_rows():
    table = {(command, flags): limit
             for command, rows in cli._COSTS.items() for flags, _, _, limit in rows}
    assert table == {key: limit for key, (_, limit) in _ROWS.items()}


def _over(command, vals):
    """(flags, cost, limit) of the first row of `command` that `vals` exceed, or None."""
    for flags, _, _, _ in cli._COSTS[command]:
        cost, limit = _ROWS[command, flags][0](vals), _ROWS[command, flags][1]
        if cost > limit:
            return flags, cost, limit
    return None


def _near(data, target, low, high, label):
    """An integer in [low, high] within 2 of `target` (clipped to it), or anywhere in it."""
    target = min(max(target, low), high)
    return data.draw(st.one_of(st.integers(max(low, target - 2), min(high, target + 2)),
                               st.integers(low, high)), label=label)


def _draw_sizes(data, command):
    """Flag values of `command` in their declared domains, drawn around the table's limits."""
    if command == "verify":
        return {"grid": _near(data, 384, 8, 1024, "grid")}
    if command == "torus-curve":
        grid = data.draw(st.sampled_from((8, 20, 28, 29, 256, 1023, 1024)) | st.integers(8, 1024),
                         label="grid")
        target = data.draw(st.sampled_from((8 * 1024 ** 2 // grid ** 2, 10 ** 4)), label="target")
        return {"samples": _near(data, target, 2, 10 ** 5, "samples"), "grid": grid}
    if command == "ab":
        steps = data.draw(st.integers(MIN_STEPS, MAX_STEPS), label="steps")
        sign = data.draw(st.sampled_from((1, -1)), label="sign")
        winding = _near(data, MAX_STEPS // steps, 0, 10 ** 4, "|winding|")
        return {"steps": steps, "winding": sign * winding}
    grid = data.draw(st.integers(8, 1024), label="grid")
    target = data.draw(st.sampled_from((32, 2048 // grid)), label="target")
    return {"grid": grid, "rank": _near(data, target, 1, 64, "rank")}


@settings(max_examples=200, deadline=None)
@given(data=st.data(), command=st.sampled_from(tuple(cli._COSTS)))
def test_main_refuses_exactly_the_sizes_a_row_of_the_cost_table_prices_above_its_limit(
        data, command):
    vals = _draw_sizes(data, command)
    argv = [command, *(f"--{key}={val}" for key, val in vals.items())]
    over = _over(command, vals)
    event(f"{command}: {over[0] if over else 'within every limit'}")

    def reached(args):
        raise _Reached

    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        for name in cli._COMMANDS:  # no field is allocated and no transport runs
            mp.setitem(cli._COMMANDS, name, reached)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if over is None:
                with pytest.raises(_Reached):
                    main(argv)
                return
            code = main(argv)
    flags, cost, limit = over
    typed = " ".join(f"--{key} {vals[key]}" for key in flags.split())
    assert code == 1 and out.getvalue() == ""
    assert err.getvalue().startswith(f"gaugecalc: error: {typed}: ")
    assert err.getvalue().endswith(f" = {cost} exceeds the limit {limit}\n")


def _tool(name):
    """The module of tools/`name`.py."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools",
                        f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_identity_walks_an_object_on_one_side_only_leaf_by_leaf():
    tool = _tool("report_identity")
    old = {"config": {"seed": 7}, "tolerances": {"flat_tol": 1e-08, "cap": {"steps": 10}},
           "empty": {}, "checks": [{"name": "a", "value": 1.0}]}
    new = {"config": {"seed": 7}, "checks": [{"name": "a", "value": 1.0},
                                             {"name": "b", "value": 2.0}]}
    assert tool.moved_lines(json.dumps(old), json.dumps(new)) == [
        '    $.checks[b].name (b): (absent) -> "b"',
        "    $.checks[b].value (b): (absent) -> 2.0",
        "    $.empty: {} -> (absent)",
        "    $.tolerances.cap.steps: 10 -> (absent)",
        "    $.tolerances.flat_tol: 1e-08 -> (absent)",
    ]
    assert tool.moved_lines(json.dumps(new), json.dumps(old))[-1] == \
        "    $.tolerances.flat_tol: (absent) -> 1e-08"


@pytest.mark.parametrize("corner", _tool("cost_corners").CORNERS)
def test_cost_table_accepts_every_corner_the_timing_tool_runs(corner):
    cli._check_costs(cli.build_parser().parse_args(corner.split()))


# for each row, sizes whose cost is the smallest above the row's limit while every
# other row of the command stays within its limit: the limit + 1, except for
# samples * grid^2, which reaches no cost nearer than the limit + 45 (grid 91)
_EXCESS = {("torus-curve", "samples grid"): 45}


@pytest.mark.parametrize("command, flags, vals", (
    ("verify", "grid", {"grid": 385}),
    ("torus-curve", "samples", {"samples": 10 ** 4 + 1, "grid": 8}),
    ("torus-curve", "samples grid", {"samples": 1013, "grid": 91}),
    ("ab", "steps winding", {"steps": 9901, "winding": -101}),
    ("spectrum", "rank", {"grid": 8, "rank": 33}),
    ("spectrum", "grid rank", {"grid": 683, "rank": 3})),
    ids=lambda val: val if isinstance(val, str) else None)
def test_cost_table_refuses_each_row_at_its_limit_plus_one(command, flags, vals):
    cost, limit = _ROWS[command, flags][0](vals), _ROWS[command, flags][1]
    assert cost == limit + _EXCESS.get((command, flags), 1)
    assert _over(command, vals) == (flags, cost, limit)
    args = cli.build_parser().parse_args([command, *(f"--{k}={v}" for k, v in vals.items())])
    with pytest.raises(CliError, match=f" = {cost} exceeds the limit {limit}$"):
        cli._check_costs(args)


@settings(max_examples=30, deadline=None)
@given(data=st.data(),
       bad=st.sampled_from((None, "--grid", "--lambda", "--samples")))
def test_torus_curve_argument_vectors_end_in_report_or_error(data, bad):
    def draw(flag, good, wild):
        return data.draw(wild if flag == bad else good, label=flag)

    grid = draw("--grid", st.integers(8, 16), _BAD_GRIDS)
    lam = draw("--lambda", _SMALL, _WILD)
    samples = draw("--samples", st.integers(2, 5),
                   st.one_of(st.integers(-10 ** 6, 1), st.integers(_SAMPLES_LIMIT + 1, 10 ** 12)))
    argv = ["torus-curve", "--grid", str(grid), f"--lambda={lam!r}", "--samples", str(samples)]
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
        assert record["passed"] is True and record["config"]["seed"] == seed
        assert record["config"]["grid"] == grid
        assert "seed" not in record and "tolerances" not in record


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


@pytest.mark.parametrize("argv", (
    ["verify", "--grid", "8"],
    ["torus-curve", "--grid", "8", "--samples", "2", "--lambda", "0.5"],
    ["residual", "--grid", "8"],
    ["holonomy", "--grid", "8", "--steps", str(MIN_STEPS)],
    ["ab", "--steps", str(MIN_STEPS)],
    ["wong", "--steps", str(MIN_STEPS)],
    ["spectrum", "--grid", "8"],
), ids=lambda argv: argv[0])
def test_echoed_config_reruns_to_the_same_report(argv, tmp_path, capsys):
    code, out, _ = _run(capsys, [*argv, "--format", "structured-record"])
    assert code in (0, 2)
    record = json.loads(out)
    cfg = tmp_path / "echo.json"
    cfg.write_text(json.dumps({"command": record["command"], **record["config"]}))
    assert _run(capsys, ["--config", str(cfg)]) == (code, out, "")


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
