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
from .algebra import E1, E2, E3, SU2_BASIS, inner
from .curves import _matrix_entries, torus_family_report
from .forms import MIN_GRID, TorusGrid, constant_form, scalar_form, tensor_form
from .gauge import FLAT_TOL, Connection, residual_report, zero_connection
from .holonomy import (MAX_STEPS, MIN_STEPS, AnalyticTorusPotential, aharonov_bohm_monodromy,
                       torus_circle, torus_loop, wilson_loop, wong_evolve)
from .spectrum import DOF_LIMIT, KERNEL_THRESHOLD, eigenproblem_size, harmonic_space_dim
from .suites import run_verify

_SU2 = dict(zip(("e1", "e2", "e3"), SU2_BASIS))

_MAX_GRID = 1024  # memory grows as N^2; a rank-2 residual at N = 512 peaks near 250 MB


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _complex_arg(text):
    try:
        return complex(text)
    except ValueError as exc:
        raise CliError(f"cannot parse complex number {text!r}") from exc


def _positive_int(name, value, minimum=1):
    if value < minimum:
        raise CliError(f"{name} must be an integer >= {minimum}, got {value}")
    return int(value)


def _grid(args):
    """The --grid flag, checked before anything is allocated."""
    if not MIN_GRID <= args.grid <= _MAX_GRID:
        raise CliError(f"--grid must be an integer in [{MIN_GRID}, {_MAX_GRID}], got {args.grid}")
    return args.grid


def _steps(args):
    """The --steps flag, checked against the transport step range before any transport."""
    if not MIN_STEPS <= args.steps <= MAX_STEPS:
        raise CliError(f"--steps must lie in [{MIN_STEPS}, {MAX_STEPS}], got {args.steps}")
    return args.steps


def _finite(name, value):
    if not np.isfinite(value):
        raise CliError(f"{name} must be finite, got {value}")
    return value


def _tolerance(args, default):
    """The --tol flag, or `default` when absent; it must be finite and positive."""
    if args.tol is None:
        return default
    if not (np.isfinite(args.tol) and args.tol > 0):
        raise CliError(f"--tol must be a finite number > 0, got {args.tol}")
    return args.tol


def build_parser():
    parser = _Parser(prog="gaugecalc", description=__doc__)
    parser.add_argument("--config", help="JSON file mirroring the flags", default=None)
    sub = parser.add_subparsers(dest="command")

    def common(p, grid=None, steps=False, tol=False):
        # --grid, --steps and --tol exist only on the commands that read them
        if grid:
            p.add_argument("--grid", type=int, default=grid)
        if steps:
            p.add_argument("--steps", type=int, default=1000)
        if tol:
            p.add_argument("--tol", type=float, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        p.add_argument("--format", default="report-text",
                       choices=("report-text", "structured-record", "csv"))

    p = sub.add_parser("verify", description="run every invariant suite")
    common(p, grid=32)

    p = sub.add_parser("torus-curve", description="claim report for the torus family")
    common(p, grid=64, steps=True, tol=True)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=11)

    p = sub.add_parser("residual", description="Yang-Mills residual of a named field")
    common(p, grid=64, tol=True)
    p.add_argument("--family", default="zero")

    p = sub.add_parser("holonomy", description="Wilson loop of a named field")
    common(p, grid=64, steps=True)
    p.add_argument("--family", default="zero")
    p.add_argument("--loop", default="torus:wx=1,wy=0")

    p = sub.add_parser("ab", description="Aharonov-Bohm monodromy")
    common(p, steps=True)
    p.add_argument("--k", type=str, default="0.5")
    p.add_argument("--winding", type=int, default=1)

    p = sub.add_parser("wong", description="spin transport cases")
    common(p, steps=True)
    p.add_argument("--case", default="constant",
                   choices=("constant", "flat-contractible"))
    p.add_argument("--i0", default="e1", choices=tuple(_SU2))

    p = sub.add_parser("spectrum", description="harmonic space dimensions")
    common(p, grid=16, tol=True)
    p.add_argument("--rank", type=int, default=1)
    p.add_argument("--degree", default="all", choices=("0", "1", "2", "all"))
    return parser


def parse_params(text):
    """Parse 'name:key=val,key=val' selectors; numeric values become finite floats."""
    name, _, rest = text.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, sep, val = item.partition("=")
            if not sep:
                raise CliError(f"malformed selector parameter {item!r}")
            try:
                params[key] = float(val)
            except ValueError:
                params[key] = val
            else:
                if not np.isfinite(params[key]):
                    raise CliError(f"selector parameter {key!r} must be finite, got {val!r}")
    return name, params


def _su2_direction(params):
    name = params.get("dir", "e1")
    if name not in _SU2:
        raise CliError(f"unknown algebra direction {name!r}")
    return _SU2[name]


def build_family(grid, selector):
    """Named connection families for the residual and holonomy commands."""
    name, params = parse_params(selector)
    if name == "zero":
        return zero_connection(grid, 2)
    if name in ("const-dx", "const-mix"):
        c = float(params.get("c", np.pi))
        mat = (_su2_direction(params) if name == "const-dx"
               else E1 + float(params.get("lam", 1.0)) * E2)
        return Connection(constant_form(grid, 1, c * mat, np.zeros((2, 2))))
    if name == "sin-dy":
        freq = float(params.get("freq", 1.0))
        mat = _su2_direction(params)
        x, _ = grid.nodes()
        prof = scalar_form(grid, 1, np.zeros((grid.n, grid.n)),
                           np.sin(2.0 * np.pi * freq * x))
        return Connection(tensor_form(prof, mat))
    raise CliError(f"unknown field family {name!r}")


def build_loop(selector):
    name, params = parse_params(selector)
    if name == "torus":
        return torus_loop((int(params.get("wx", 1)), int(params.get("wy", 0))),
                          (float(params.get("x0", 0.0)), float(params.get("y0", 0.0))))
    if name == "tcircle":
        return torus_circle((float(params.get("cx", 0.5)), float(params.get("cy", 0.5))),
                            float(params.get("r", 0.2)), int(params.get("n", 1)))
    raise CliError(f"unknown loop family {name!r}")


def _config_echo(args):
    skip = {"command", "config", "out"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


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
        flags = " ".join(f"--{'lambda' if key == 'lam' else key} {val}"
                         for key, val in record["config"].items()
                         if key not in ("format", "seed") and val is not None)
        raise CliError(f"report value {bad} is not finite for {flags}; "
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
        writer.writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = _render_text(record)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_verify(args):
    checks, passed = run_verify(args.seed, _grid(args))
    record = _base_record(args, {c.name: c.bound for c in checks}, {
        "checks": [
            {"name": c.name, "value": c.value, "bound": c.bound, "kind": c.kind,
             "passed": c.passed}
            for c in checks
        ],
        "passed": passed,
        "summary": f"{sum(c.passed for c in checks)}/{len(checks)} checks passed",
    })
    rows = [(c.name, format(c.value, ".12e"), format(c.bound, ".12e"), c.kind,
             c.passed) for c in checks]
    _emit(record, args, ("name", "value", "bound", "kind", "passed"), rows)
    return 0 if passed else 2


def _cmd_torus_curve(args):
    samples = _positive_int("--samples", args.samples, 2)
    grid_n = _grid(args)
    flat_tol = _tolerance(args, FLAT_TOL)
    lam = _finite("--lambda", args.lam)
    ts = [i / (samples - 1) for i in range(samples)]
    report = torus_family_report(lam, ts, n=grid_n, flat_tol=flat_tol, steps=_steps(args))
    record = _base_record(args, {"flat_tol": flat_tol}, {"report": report.to_record()})
    rows = [(format(t, ".12e"), format(c, ".12e"), format(r, ".12e"))
            for t, c, r in report.csv_rows()]
    _emit(record, args, ("t", "curvature_l2", "residual_l2"), rows)
    return 0


def _cmd_residual(args):
    grid = TorusGrid(_grid(args))
    flat_tol = _tolerance(args, FLAT_TOL)
    conn = build_family(grid, args.family)
    rep = residual_report(conn, flat_tol)
    record = _base_record(args, {"flat_tol": flat_tol}, {"report": rep})
    rows = [(k, format(v, ".12e") if isinstance(v, float) else v)
            for k, v in rep.items()]
    _emit(record, args, ("key", "value"), rows)
    return 0


def _cmd_holonomy(args):
    grid = TorusGrid(_grid(args))
    steps = _steps(args)
    conn = build_family(grid, args.family)
    loop = build_loop(args.loop)
    g, trace = wilson_loop(conn, loop, steps)
    record = _base_record(args, {}, {
        "matrix": _matrix_entries(g),
        "trace": trace,
    })
    _emit(record, args, ("key", "value"),
          [("trace_re", format(trace.real, ".12e")),
           ("trace_im", format(trace.imag, ".12e"))])
    return 0


def _cmd_ab(args):
    k = _finite("--k", _complex_arg(args.k))
    steps = _steps(args)
    total = steps * max(1, abs(args.winding))
    if total > MAX_STEPS:
        raise CliError(f"--steps {steps} times |--winding {args.winding}| gives {total} "
                       f"transport steps, more than {MAX_STEPS}")
    rec = aharonov_bohm_monodromy(k, args.winding, total)
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
          [("monodromy_re", format(rec.monodromy.real, ".12e")),
           ("monodromy_im", format(rec.monodromy.imag, ".12e")),
           ("deviation", format(deviation, ".12e"))])
    return 0


def _cmd_wong(args):
    steps = _steps(args)
    i0 = _SU2[args.i0]
    ax = E3 if args.case == "constant" else np.pi * E1
    pot = AnalyticTorusPotential(lambda x, y: ax,
                                 lambda x, y: np.zeros((2, 2), dtype=complex), 2)
    path = torus_loop((1, 0)) if args.case == "constant" else torus_circle((0.5, 0.5), 0.2, 1)
    ts, traj = wong_evolve(pot, path, i0, steps)
    norms = np.array([inner(i, i) for i in traj])
    record = _base_record(args, {}, {
        "initial": _matrix_entries(traj[0]),
        "final": _matrix_entries(traj[-1]),
        "norm_drift": float(np.max(np.abs(norms - norms[0]))),
        "final_shift": float(np.max(np.abs(traj[-1] - traj[0]))),
    })
    rows = [(format(t, ".12e"),) + tuple(format(v, ".12e")
            for entry in _matrix_entries(i) for v in entry)
            for t, i in zip(ts[::max(1, steps // 100)], traj[::max(1, steps // 100)])]
    header = ("t",) + tuple(f"I_{j}{l}_{p}" for j in range(2) for l in range(2)
                            for p in ("re", "im"))
    _emit(record, args, header, rows)
    return 0


def _cmd_spectrum(args):
    grid = TorusGrid(_grid(args))
    rank = _positive_int("--rank", args.rank, 1)
    threshold = _tolerance(args, KERNEL_THRESHOLD)
    degrees = (0, 1, 2) if args.degree == "all" else (int(args.degree),)
    dof = max(eigenproblem_size(grid.n, rank, k) for k in degrees)
    if dof > DOF_LIMIT:
        raise CliError(f"--rank {rank} at --grid {grid.n} gives eigenproblem size {dof}, "
                       f"which exceeds the limit {DOF_LIMIT}")
    conn = zero_connection(grid, rank)
    dims = {str(k): harmonic_space_dim(conn, k, threshold) for k in degrees}
    record = _base_record(args, {"threshold": threshold}, {"dims": dims})
    _emit(record, args, ("degree", "dimension"),
          [(k, v) for k, v in dims.items()])
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
        if argv and argv[0] == "--config":
            if len(argv) < 2:
                raise CliError("--config needs a file path")
            argv = _load_config(argv[1]) + list(argv[2:])
        args = parser.parse_args(argv)
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
