"""Command-line front end.

One batch run per invocation.  Reports embed the package version, the echoed
configuration, the seed and the tolerances that ran, and are byte-identical
for identical configurations.  Exit codes: 0 success, 1 invalid input, 2 a
verification suite failed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import __version__
from .algebra import E1, E2, E3, SU2_BASIS
from .curves import torus_family_report
from .forms import MIN_GRID, TorusGrid, _entry_pairs, constant_form, scalar_form, tensor_form
from .gauge import FLAT_TOL, Connection, residual_report, zero_connection
from .holonomy import (MAX_STEPS, MIN_STEPS, AnalyticTorusPotential, aharonov_bohm_monodromy,
                       require_closed, torus_circle, torus_loop, wilson_loop, wong_evolve)
from .spectrum import DOF_LIMIT, KERNEL_THRESHOLD, eigenproblem_size, harmonic_space_dim
from .suites import run_verify

_SU2 = dict(zip(("e1", "e2", "e3"), SU2_BASIS))

_MAX_GRID = 1024  # memory grows as N^2; a rank-2 residual at N = 512 peaks near 250 MB
_MAX_SAMPLES = 10 ** 4  # torus-curve costs about 0.9 ms per sample at --grid 8: about 9.5 s


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _input_type(parse, rule, accept=lambda val: True, keep_text=False):
    """The argparse type= of an input whose text must `parse` to a value that `accept` takes.

    A float or complex value must also be finite.  `rule` words the whole rule,
    and argparse puts the flag's name in front of every refusal.  With
    `keep_text` the input keeps its text, so reports echo it as typed.
    """
    def check(text):
        try:
            val = parse(text)
        except ValueError:
            val = None
        finite = not isinstance(val, (float, complex)) or np.isfinite(val)
        if val is None or not (finite and accept(val)):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return text if keep_text else val
    return check


def _int_flag(low, high=None):
    rule = f"an integer >= {low}" if high is None else f"an integer in [{low}, {high}]"
    return _input_type(int, rule, lambda val: low <= val and (high is None or val <= high))


def build_parser():
    parser = _Parser(prog="gaugecalc", description=__doc__)
    parser.add_argument("--config", help="JSON file mirroring the flags", default=None)
    sub = parser.add_subparsers(dest="command")

    def common(p, grid=None, steps=False, tol=False):
        # --grid, --steps and --tol exist only on the commands that read them
        if grid:
            p.add_argument("--grid", type=_int_flag(MIN_GRID, _MAX_GRID), default=grid)
        if steps:
            p.add_argument("--steps", type=_int_flag(MIN_STEPS, MAX_STEPS), default=1000)
        if tol:
            p.add_argument("--tol", type=_input_type(float, "a finite number > 0",
                                                    lambda val: val > 0), default=None)
        p.add_argument("--seed", type=_int_flag(0), default=0)
        p.add_argument("--out", default=None)
        p.add_argument("--format", default="report-text",
                       choices=("report-text", "structured-record", "csv"))

    p = sub.add_parser("verify", description="run every invariant suite")
    common(p, grid=32)

    p = sub.add_parser("torus-curve", description="claim report for the torus family")
    common(p, grid=64, steps=True, tol=True)
    p.add_argument("--lambda", dest="lam", type=_input_type(float, "a finite number"),
                   default=1.0)
    p.add_argument("--samples", type=_int_flag(2, _MAX_SAMPLES), default=11)

    p = sub.add_parser("residual", description="Yang-Mills residual of a named field")
    common(p, grid=64, tol=True)
    p.add_argument("--family", default="zero")

    p = sub.add_parser("holonomy", description="Wilson loop of a named field")
    common(p, grid=64, steps=True)
    p.add_argument("--family", default="zero")
    p.add_argument("--loop", default="torus:wx=1,wy=0")

    p = sub.add_parser("ab", description="Aharonov-Bohm monodromy")
    common(p, steps=True)
    p.add_argument("--k", type=_input_type(complex, "a finite complex number", keep_text=True),
                   default="0.5")
    p.add_argument("--winding", type=int, default=1)

    p = sub.add_parser("wong", description="spin transport cases")
    common(p, steps=True)
    p.add_argument("--case", default="constant",
                   choices=("constant", "flat-contractible"))
    p.add_argument("--i0", default="e1", choices=tuple(_SU2))

    p = sub.add_parser("spectrum", description="harmonic space dimensions")
    common(p, grid=16, tol=True)
    p.add_argument("--rank", type=_int_flag(1), default=1)
    p.add_argument("--degree", default="all", choices=("0", "1", "2", "all"))
    return parser


# The parameters of each selector family with their defaults.  A default's type
# picks its parameter's rule from _PARAM_TYPES.
_SELECTORS = {
    "--family": {"zero": {}, "const-dx": {"c": np.pi, "dir": "e1"},
                 "const-mix": {"c": np.pi, "lam": 1.0}, "sin-dy": {"freq": 1.0, "dir": "e1"}},
    "--loop": {"torus": {"wx": 1, "wy": 0, "x0": 0.0, "y0": 0.0},
               "tcircle": {"cx": 0.5, "cy": 0.5, "r": 0.2, "n": 1}},
}
# an int parameter is a winding; it stays a float, which the loop builders take when integral
_PARAM_TYPES = {
    float: _input_type(float, "a finite number"),
    int: _input_type(float, f"an integer of magnitude at most {MAX_STEPS}",
                     lambda val: val.is_integer() and abs(val) <= MAX_STEPS),
    str: _input_type(str, f"one of {', '.join(_SU2)}", lambda val: val in _SU2),
}


def parse_params(text, flag="--family"):
    """Parse a 'name:key=val,key=val' selector of `flag` against `_SELECTORS`.

    Each key must be a parameter of the family, given at most once, with a
    value that keeps its rule; absent parameters take their defaults.
    """
    name, _, rest = text.partition(":")
    if name not in _SELECTORS[flag]:
        kind = "field" if flag == "--family" else "loop"
        raise CliError(f"{flag} {text}: unknown {kind} family {name!r}")
    defaults = _SELECTORS[flag][name]
    params = {}
    for item in rest.split(",") if rest else ():
        key, sep, val = item.partition("=")
        if not sep or key not in defaults:
            takes = ", ".join(f"{k}=..." for k in defaults) or "no parameters"
            raise CliError(f"{flag} {text}: {name} takes {takes}, got {item!r}")
        if key in params:
            raise CliError(f"{flag} {text}: parameter {key!r} is given twice")
        try:
            params[key] = _PARAM_TYPES[type(defaults[key])](val)
        except argparse.ArgumentTypeError as exc:
            raise CliError(f"{flag} {text}: parameter {key!r} {exc}") from None
    return name, {**defaults, **params}


def build_family(grid, selector):
    """Named connection families for the residual and holonomy commands."""
    name, params = parse_params(selector)
    if name == "zero":
        return zero_connection(grid, 2)
    try:  # the form builders refuse the non-finite values of an overflow
        if name == "sin-dy":
            x, _ = grid.nodes()
            prof = scalar_form(grid, 1, np.zeros((grid.n, grid.n)),
                               np.sin(2.0 * np.pi * params["freq"] * x))
            return Connection(tensor_form(prof, _SU2[params["dir"]]))
        mat = params["c"] * (_SU2[params["dir"]] if name == "const-dx"
                             else E1 + params["lam"] * E2)
        return Connection(constant_form(grid, 1, mat, np.zeros((2, 2))))
    except ValueError:
        raise CliError(f"--family {selector} gives a non-finite potential; "
                       f"reduce its parameters") from None


def build_loop(selector):
    name, params = parse_params(selector, "--loop")
    if name == "torus":
        loop = torus_loop((params["wx"], params["wy"]), (params["x0"], params["y0"]))
    else:
        loop = torus_circle((params["cx"], params["cy"]), params["r"], params["n"])
    try:
        require_closed(loop)
    except ValueError as exc:
        raise CliError(f"--loop {selector}: {exc}; reduce its parameters") from None
    return loop


def _config_echo(args):
    skip = {"command", "config", "out"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _flag_echo(args):
    """The numeric and selector flags of the run, as they would be typed."""
    return " ".join(f"--{'lambda' if key == 'lam' else key} {val}"
                    for key, val in _config_echo(args).items()
                    if key not in ("format", "seed") and val is not None)


def _base_record(args, tolerances, body):
    return {
        "version": __version__,
        "command": args.command,
        "config": _config_echo(args),
        "seed": args.seed,
        "tolerances": tolerances,
        **body,
    }


def _render_text(record, indent=0):
    lines = []
    pad = "  " * indent
    for key, val in record.items():
        if isinstance(val, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_render_text(val, indent + 1))
        elif isinstance(val, (list, tuple)) and val and isinstance(val[0], dict):
            lines.append(f"{pad}{key}:")
            for i, item in enumerate(val):
                lines.append(f"{pad}  - [{i}]")
                lines.extend(_render_text(item, indent + 2))
        else:
            lines.append(f"{pad}{key}: {_fmt_value(val)}")
    return lines if indent else "\n".join(lines) + "\n"


def _fmt_value(val):
    if isinstance(val, float):
        return format(val, ".12e")
    if isinstance(val, complex):
        return f"{format(val.real, '.12e')}{'+' if val.imag >= 0 else '-'}{format(abs(val.imag), '.12e')}j"
    if isinstance(val, (list, tuple)):
        return "[" + ", ".join(_fmt_value(v) for v in val) + "]"
    return str(val)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def _non_finite_key(val, path=""):
    """Dotted key of the first NaN or inf in a report value, or None."""
    if isinstance(val, (float, complex)):
        return None if np.isfinite(val) else path
    items = (val.items() if isinstance(val, dict)
             else enumerate(val) if isinstance(val, (list, tuple)) else ())
    for key, item in items:
        found = _non_finite_key(item, f"{path}.{key}" if path else str(key))
        if found:
            return found
    return None


def _emit(record, args, csv_header, csv_rows):
    # verify reports a non-finite check value as a failed check (exit 2) instead
    bad = args.command != "verify" and _non_finite_key(record)
    if bad:
        raise CliError(f"report value {bad} is not finite for {_flag_echo(args)}; "
                       f"reduce the magnitude of the numeric inputs")
    if args.format == "structured-record":
        text = json.dumps(_jsonable(record), sort_keys=True, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        for key in ("version", "command", "seed"):
            buf.write(f"# {key}: {record[key]}\n")
        buf.write(f"# config: {json.dumps(_jsonable(record['config']), sort_keys=True)}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_header)
        writer.writerows(map(_fmt_value, row) for row in csv_rows)
        text = buf.getvalue()
    else:
        text = _render_text(record)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"--out {args.out}: cannot write the report: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _cmd_verify(args):
    checks, passed = run_verify(args.seed, args.grid)
    record = _base_record(args, {c.name: c.bound for c in checks}, {
        "checks": [
            {"name": c.name, "value": c.value, "bound": c.bound, "kind": c.kind,
             "passed": c.passed}
            for c in checks
        ],
        "passed": passed,
        "summary": f"{sum(c.passed for c in checks)}/{len(checks)} checks passed",
    })
    rows = [(c.name, c.value, c.bound, c.kind, c.passed) for c in checks]
    _emit(record, args, ("name", "value", "bound", "kind", "passed"), rows)
    return 0 if passed else 2


def _cmd_torus_curve(args):
    flat_tol = args.tol or FLAT_TOL  # a given --tol is positive
    ts = [i / (args.samples - 1) for i in range(args.samples)]
    report = torus_family_report(args.lam, ts, n=args.grid, flat_tol=flat_tol, steps=args.steps)
    record = _base_record(args, {"flat_tol": flat_tol}, {"report": report.to_record()})
    _emit(record, args, ("t", "curvature_l2", "residual_l2"), report.csv_rows())
    return 0


def _cmd_residual(args):
    grid = TorusGrid(args.grid)
    flat_tol = args.tol or FLAT_TOL  # a given --tol is positive
    conn = build_family(grid, args.family)
    rep = residual_report(conn, flat_tol)
    record = _base_record(args, {"flat_tol": flat_tol}, {"report": rep})
    _emit(record, args, ("key", "value"), rep.items())
    return 0


def _transport(args, transport, *inputs):
    """`transport(*inputs)`, whose refusal of a non-finite potential sample names the flags.

    Finite flags can still overflow a sample: a loop closed mod 1 may be too
    large for its potential, and a huge `--k` overflows k / z.
    """
    try:
        return transport(*inputs)
    except ValueError as exc:
        raise CliError(f"{exc} for {_flag_echo(args)}; "
                       f"reduce the magnitude of the numeric inputs") from None


def _cmd_holonomy(args):
    conn = build_family(TorusGrid(args.grid), args.family)
    loop = build_loop(args.loop)
    g, trace = _transport(args, wilson_loop, conn, loop, args.steps)
    record = _base_record(args, {}, {
        "matrix": _entry_pairs(g),
        "trace": trace,
    })
    _emit(record, args, ("key", "value"), [("trace_re", trace.real), ("trace_im", trace.imag)])
    return 0


def _cmd_ab(args):
    k = complex(args.k)
    total = args.steps * max(1, abs(args.winding))
    if total > MAX_STEPS:
        raise CliError(f"--steps {args.steps} times |--winding {args.winding}| gives {total} "
                       f"transport steps, more than {MAX_STEPS}")
    rec = _transport(args, aharonov_bohm_monodromy, k, args.winding, total)
    closed_form = complex(np.exp(2j * np.pi * k * args.winding))
    # np.abs, unlike abs, returns inf on overflow for the finite-report check to catch
    deviation = float(np.abs(rec.monodromy - closed_form))
    record = _base_record(args, {}, {
        "monodromy": rec.monodromy,
        "closed_form": closed_form,
        "deviation": deviation,
        "flux": rec.flux,
        "transport_steps": rec.steps,
    })
    _emit(record, args, ("key", "value"),
          [("monodromy_re", rec.monodromy.real), ("monodromy_im", rec.monodromy.imag),
           ("deviation", deviation)])
    return 0


def _cmd_wong(args):
    steps = args.steps
    i0 = _SU2[args.i0]
    ax = E3 if args.case == "constant" else np.pi * E1
    pot = AnalyticTorusPotential(lambda x, y: ax,
                                 lambda x, y: np.zeros((2, 2), dtype=complex), 2)
    path = torus_loop((1, 0)) if args.case == "constant" else torus_circle((0.5, 0.5), 0.2, 1)
    ts, traj = wong_evolve(pot, path, i0, steps)
    norms = np.einsum("tij,tij->t", traj, traj.conj()).real
    record = _base_record(args, {}, {
        "initial": _entry_pairs(traj[0]),
        "final": _entry_pairs(traj[-1]),
        "norm_drift": float(np.max(np.abs(norms - norms[0]))),
        "final_shift": float(np.max(np.abs(traj[-1] - traj[0]))),
    })
    rows = [(t, *sum(_entry_pairs(i), []))
            for t, i in zip(ts[::max(1, steps // 100)], traj[::max(1, steps // 100)])]
    header = ("t",) + tuple(f"I_{j}{l}_{p}" for j in range(2) for l in range(2)
                            for p in ("re", "im"))
    _emit(record, args, header, rows)
    return 0


def _cmd_spectrum(args):
    grid = TorusGrid(args.grid)
    rank = args.rank
    threshold = args.tol or KERNEL_THRESHOLD  # a given --tol is positive
    degrees = (0, 1, 2) if args.degree == "all" else (int(args.degree),)
    dof = max(eigenproblem_size(grid.n, rank, k) for k in degrees)
    if dof > DOF_LIMIT:
        raise CliError(f"--rank {rank} at --grid {grid.n} gives eigenproblem size {dof}, "
                       f"which exceeds the limit {DOF_LIMIT}")
    conn = zero_connection(grid, rank)
    dims = {str(k): harmonic_space_dim(conn, k, threshold) for k in degrees}
    record = _base_record(args, {"threshold": threshold}, {"dims": dims})
    _emit(record, args, ("degree", "dimension"), dims.items())
    return 0


_COMMANDS = {
    "verify": _cmd_verify,
    "torus-curve": _cmd_torus_curve,
    "residual": _cmd_residual,
    "holonomy": _cmd_holonomy,
    "ab": _cmd_ab,
    "wong": _cmd_wong,
    "spectrum": _cmd_spectrum,
}


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed config at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(data, dict):
        raise CliError("config must be a JSON object")
    if "command" not in data:
        raise CliError("config is missing the 'command' field")
    argv = [str(data.pop("command"))]
    for key, val in data.items():
        argv.extend(["--" + key.replace("_", "-"), str(val)])
    return argv


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        if argv and argv[0].startswith("--config="):
            argv = ["--config", argv[0][len("--config="):], *argv[1:]]
        from_config = bool(argv) and argv[0] == "--config"
        if from_config:
            if len(argv) < 2:
                raise CliError("--config needs a file path")
            argv = _load_config(argv[1]) + list(argv[2:])
        args, extra = parser.parse_known_args(argv)
        if extra:
            why = ("; the config file already names its command, and no command may follow it"
                   if from_config and set(extra) & set(_COMMANDS) else "")
            raise CliError(f"unrecognized arguments: {' '.join(extra)}{why}")
        if args.config is not None:  # argparse took an abbreviation of --config
            raise CliError("--config is read only as the first argument, spelled out in full: "
                           "--config PATH or --config=PATH")
        if args.command is None:
            raise CliError("no command given (try 'verify')")
        # overflow surfaces as a non-finite report value, which _emit refuses
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except (CliError, ValueError) as exc:
        print(f"gaugecalc: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
