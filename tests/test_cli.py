import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from gaugecalc import cli, gauge, spectrum
from gaugecalc.cli import CliError, build_family, build_loop, main, parse_params
from gaugecalc.forms import TorusGrid
from gaugecalc.holonomy import MAX_STEPS


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
     "report.jet_summary.grad_e1_l2", "--lambda 1e+300")),
    ids=("ab-k-1e300", "ab-k-1e5", "holonomy-c-1e300", "torus-curve-lambda-1e300"))
@pytest.mark.parametrize("fmt", ("report-text", "csv"))
def test_non_finite_report_exits_one(capsys, argv, key, flag, fmt):
    code, out, err = _run(capsys, argv + ["--format", fmt])
    assert code == 1 and out == ""
    assert err.startswith(f"gaugecalc: error: report value {key} ")
    assert "not finite" in err and flag in err


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
