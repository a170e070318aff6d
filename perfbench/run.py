"""gaugecalc benchmark: one workload per process, outputs checked, metrics printed.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {verify,fields,transport,spectrum} \
        --seed N --seconds S --trace {0,1}

The run builds the workload's inputs from the seed, then runs passes of the
workload for S seconds and checks every output of every pass.  With
`--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` it runs untraced and traced passes in turn, and holds the
per-layer metrics.  The line before it is the full record: machine, problem
sizes, pass times with quartiles, and the check tally.  The record (and,
when traced, the raw spans) is also written under `.perfbench_runs/` in the
checkout.

BLAS and OpenMP are pinned to one thread before numpy loads.  The package is
imported from `src/` of the checkout and nowhere else: without it the run
exits with a non-zero status and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
OUT_DIR = ".perfbench_runs"
# iterations of the three parts of the reference computation, about 20 ms each
REFERENCE_LOOP, REFERENCE_SMALL, REFERENCE_BIG = 5000, 3, 10
# fresh-interpreter set-up timings per untraced run, besides the run's own
SETUP_PROBES = 8
# time of reference_work on the machine of the baseline (2-vCPU Xeon); set-up
# seconds are reported at the speed at which the reference takes this long
REFERENCE_NOMINAL_S = 0.06


def parse_args(argv):
    p = argparse.ArgumentParser(description="gaugecalc benchmark")
    p.add_argument("--workload", required=True,
                   choices=("verify", "fields", "transport", "spectrum"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # used by the run itself to time set-up in a fresh interpreter
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def load_package():
    """Import gaugecalc from the checkout's src/, as a namespace of its modules."""
    src = ROOT / "src"
    if not (src / "gaugecalc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gaugecalc sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    package = importlib.import_module("gaugecalc")
    if Path(package.__file__).resolve().parent != (src / "gaugecalc").resolve():
        raise SystemExit(f"perfbench: gaugecalc was imported from {package.__file__}")
    from spans import LAYERS

    return types.SimpleNamespace(
        **{name: importlib.import_module(f"gaugecalc.{name}") for name in LAYERS})


def blas_info():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        import ctypes
        import glob

        libdir = Path(np.__file__).parent.parent / "numpy.libs"
        for lib in glob.glob(str(libdir / "*openblas*")):
            fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
    except OSError:
        threads = None
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": threads, "pinned_env": THREAD_ENV}


def machine_info():
    import platform

    import numpy
    import scipy

    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower() if level == '1' else ''}"] = \
                (index / "size").read_text().strip()
        except OSError:
            continue
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model, "caches": caches,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_info()}


def probe_setup(args):
    """Set-up seconds of one fresh interpreter for this workload and seed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **THREAD_ENV},
                          capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


REFERENCE_BUFFERS = []


def reference_work():
    """Fixed computation, independent of gaugecalc, timed between passes.

    Three parts of similar length, one per kind of work the workloads do: a
    Python loop of 2 x 2 complex products (a transport step), stacked
    products on a 128 x 128 field of 2 x 2 matrices (the form kernels) and
    shifts and products streaming a 256 x 256 field (4 MB, beyond L2).  On a
    shared machine its time tracks the speed this process gets at that
    moment, so pass time over the reference time around it stays steady where
    raw seconds drift with the load of other tenants.

    The fields live in buffers allocated on the first call and updated in
    place, so the reference adds a fixed 10 MB to peak resident memory and no
    temporaries that a workload's own peak could hide under.
    """
    import numpy as np

    if not REFERENCE_BUFFERS:
        REFERENCE_BUFFERS.extend(np.empty(shape, dtype=complex) for shape in
                                 [(128, 128, 2, 2)] * 2 + [(256, 256, 2, 2)] * 2)
    small, prod, big, shifted = REFERENCE_BUFFERS
    step = 0.3 * np.eye(2, dtype=complex)
    y = np.eye(2, dtype=complex)
    for _ in range(REFERENCE_LOOP):
        y = y + 0.001 * (step @ y)
    small.fill(0.01)
    for _ in range(REFERENCE_SMALL):
        np.matmul(small, small, out=prod)
        np.subtract(prod, small, out=small)
    # unit-modulus constant field: squaring keeps it on the unit circle
    big.fill(np.exp(0.3j))
    for _ in range(REFERENCE_BIG):
        shifted[1:] = big[:-1]  # roll by 1 along axis 0
        shifted[:1] = big[-1:]
        np.subtract(shifted[:, :-1], big[:, 1:], out=shifted[:, :-1])  # minus roll by -1, axis 1
        np.subtract(shifted[:, -1:], big[:, :1], out=shifted[:, -1:])
        shifted *= 0.5
        np.multiply(big, big, out=big)
        big += shifted
    return y, small, big


def timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run_passes(workload, tally, seconds, stats, arm=None, between=None, min_passes=1):
    """Passes until `seconds` of passes and reference timings have elapsed.

    Pass i runs inside the context `arm(i)` when given (the traced run turns
    tracing on for every second pass); entering and leaving it is not timed.
    `between(progress)` runs after each pass, with the share of `seconds`
    spent so far; its time does not count towards `seconds`.  Returns each
    pass's wall time and its reference time: the mean of the reference timed
    just before and just after the pass.
    """
    reference_work()  # warm: the first call allocates the buffers
    times, refs = [], [timed(reference_work)]
    begin, outside = time.perf_counter(), 0.0
    while len(times) < min_passes or time.perf_counter() - begin - outside < seconds:
        with arm(len(times)) if arm else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                info = workload.run_pass(tally)
            except Exception:  # a failing operation is a failed output, not a crash
                traceback.print_exc(file=sys.stderr)
                tally.fail("pass-raised")
                info = {}
            times.append(time.perf_counter() - t0)
        refs.append(timed(reference_work))
        for key, value in info.items():
            stats.setdefault(key, []).append(value)
        if between is not None:
            t0 = time.perf_counter()
            between((t0 - begin - outside) / seconds)
            outside += time.perf_counter() - t0
    return times, [0.5 * (a + b) for a, b in zip(refs, refs[1:])]


def describe(times):
    q = statistics.quantiles(times, n=4) if len(times) > 1 else [times[0]] * 3
    return {"median": statistics.median(times), "q1": q[0], "q3": q[2],
            "samples": len(times), "times": times}


def finite(x):
    """Headroom as a JSON number: an infinite or NaN ratio is written as 1e300."""
    return x if x == x and abs(x) != float("inf") else 1e300


LAYER_UNITS = {"calls": "count", "dof": "count", "steps": "count", "potential_evals": "count",
               "bytes_computed": "B", "bytes": "B", "us_per_step": "us"}


def end_to_end(args, workload, tally, own_setup, record):
    """Untraced passes for the whole run; the end-to-end metrics."""
    # each set-up time is paired with a reference time taken right after it:
    # set-up runs fast or slow with the machine's speed at that moment, like
    # the passes, and the pair's ratio does not
    reference_work()
    setups = [(own_setup, timed(reference_work))]

    def probe(progress):
        # set-up is timed again in fresh interpreters spread over the passes,
        # so its median covers the run's window like the pass times do
        while len(setups) - 1 < min(SETUP_PROBES, math.ceil(SETUP_PROBES * progress)):
            setups.append((probe_setup(args), timed(reference_work)))

    times, refs = run_passes(workload, tally, args.seconds, {}, between=probe)
    probe(1.0)
    nominal = [REFERENCE_NOMINAL_S * s / r for s, r in setups]
    record["setup_s"] = {"median": statistics.median(nominal), "nominal": nominal,
                         "raw_median": statistics.median(s for s, _ in setups),
                         "samples": [s for s, _ in setups],
                         "reference": [r for _, r in setups]}
    record["wall_s"] = describe(times)
    record["reference_s"] = describe(refs)
    record["wall_ref"] = describe([t / r for t, r in zip(times, refs)])
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"setup_s": (record["setup_s"]["median"], "s"),
            "wall_ref": (record["wall_ref"]["median"], "ratio"),
            "peak_rss_mb": (record["peak_rss_mb"], "MB"),
            "pass_ratio": (1.0 - tally.fail_ratio, "ratio")}


def per_layer(args, workload, tally, record):
    """Untraced and traced passes in turn; the per-layer metrics."""
    import spans

    recorder, stats = spans.SpanRecorder(), {}
    times, refs = run_passes(workload, tally, args.seconds, stats, min_passes=2,
                             arm=lambda i: spans.installed(recorder) if i % 2 else
                             contextlib.nullcontext())
    plain, traced = times[0::2], times[1::2]
    record["wall_s"] = describe(plain)
    record["traced_wall_s"] = describe(traced)
    record["reference_s"] = describe(refs)
    recorder.save(ROOT / OUT_DIR / f"{record['stem']}-spans.npz")
    metrics = {"wall_s": (record["wall_s"]["median"], "s")}
    for name, value in spans.summarize(recorder, len(traced)).items():
        unit = "ms" if "_ms." in name else LAYER_UNITS.get(name.rsplit(".", 1)[1], "s")
        metrics[name] = (value, unit)
    metrics["suites.checks"] = (statistics.mean(stats.get("checks", [0])), "count")
    metrics["cli.report_bytes"] = (statistics.mean(stats.get("report_bytes", [0])), "B")
    # each pass over its own reference time, so drift of the machine's speed
    # between the traced and the untraced passes cancels
    ratios = [t / r for t, r in zip(times, refs)]
    overhead = statistics.median(ratios[1::2]) / statistics.median(ratios[0::2]) - 1.0
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    metrics["fail_ratio"] = (tally.fail_ratio, "ratio")
    metrics["max_err_ratio"] = (finite(tally.max_ratio), "ratio")
    return metrics


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    os.environ.update(THREAD_ENV)
    gc = load_package()
    from workloads import WORKLOADS, Tally

    workload = WORKLOADS[args.workload](gc, args.seed)
    own_setup = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    (ROOT / OUT_DIR).mkdir(exist_ok=True)
    tally = Tally()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "stem": f"{args.workload}-seed{args.seed}-trace{args.trace}",
              "sizes": workload.sizes, "machine": machine_info()}
    if args.trace == 0:
        metrics = end_to_end(args, workload, tally, own_setup, record)
    else:
        metrics = per_layer(args, workload, tally, record)
    record["checks"] = {"attempted": tally.attempted, "failed": tally.failed,
                        "fail_ratio": tally.fail_ratio,
                        "max_err_ratio": finite(tally.max_ratio), "failures": tally.failures}
    record["metrics"] = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
    (ROOT / OUT_DIR / f"{record['stem']}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
