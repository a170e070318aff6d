"""Time the largest inputs the CLI accepts, one interpreter each.

Usage, from anywhere in a checkout:

    python3 tools/cost_corners.py

Runs every corner below on the checkout's `src/`, each in its own interpreter
with BLAS on one thread and the report written to the null device.  First it
times a fixed numpy computation (`_REFERENCE`, independent of gaugecalc) in
an interpreter of its own and scales BUDGET_S by that time over
REFERENCE_S, its time on the host that timed README's cost rows: the budget
is 15 s at that host's speed, and a slower host gets a proportionally larger
one.  Prints both reference times and the scaled budget, then each corner's
wall time and peak RSS, then a summary, and exits 1 if any corner takes
longer than the scaled budget or does not exit 0.  The wall time is that of
the whole CLI process, interpreter start and imports included; the peak RSS
is `resource.getrusage(RUSAGE_CHILDREN)` of a parent that ran only that
corner.  The first corners sit at the limits of the rows of `cli._COSTS`
(tests/test_cli.py checks that the table accepts every one of them); the last
three are commands that have no row.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUDGET_S = 15.0  # wall seconds at the speed of the host where _REFERENCE took REFERENCE_S
REFERENCE_S = 0.304
CORNERS = (
    "verify --grid 384",
    "torus-curve --grid 28 --samples 10000",
    "torus-curve --grid 1024 --samples 8",
    "ab --steps 1000000",
    "ab --steps 1000 --winding 1000",
    "spectrum --grid 64 --rank 32",
    "spectrum --grid 1024 --rank 2",
    "residual --grid 1024",
    "holonomy --grid 1024 --steps 1000000",
    "wong --steps 1000000",
)
# runs the CLI on its arguments in a child and prints its exit code, wall time
# in seconds and peak RSS in KiB (Linux reports ru_maxrss in KiB)
_MEASURE = ("import os, resource, subprocess, sys, time; t = time.perf_counter(); "
            "code = subprocess.run([sys.executable, '-m', 'gaugecalc.cli', *sys.argv[1:], "
            "'--out', os.devnull]).returncode; "
            "print(code, time.perf_counter() - t, "
            "resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
# prints the least wall seconds of seven runs of a fixed computation like the
# corners' work: a Python loop of 2 x 2 products (a transport step), then
# products and shifts streaming a 256 x 256 field of 2 x 2 matrices (4 MB);
# the least, since a median of such short runs moved by a third between runs
_REFERENCE = ("import time, numpy as np\n"
              "s, f = 0.3 * np.eye(2), np.ones((256, 256, 2, 2), dtype=complex)\n"
              "times = []\n"
              "for _ in range(7):\n"
              "    t, y = time.perf_counter(), np.eye(2, dtype=complex)\n"
              "    for _ in range(20000):\n"
              "        y = y + 0.001 * (s @ y)\n"
              "    for _ in range(10):\n"
              "        f = 0.5 * (f @ np.roll(f, 1, axis=0))\n"
              "    times.append(time.perf_counter() - t)\n"
              "print(min(times))")
_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONPATH": os.pathsep.join(p for p in (str(ROOT / "src"),
                                                  os.environ.get("PYTHONPATH")) if p)}


def measure(corner):
    """(exit code, wall seconds, peak RSS in MB) of the CLI on the invocation `corner`."""
    out = subprocess.run([sys.executable, "-c", _MEASURE, *corner.split()],
                         capture_output=True, text=True, env=_ENV, cwd=ROOT, check=True)
    code, wall, rss_kib = out.stdout.split()
    return int(code), float(wall), int(rss_kib) / 1024


def reference_s():
    """Least wall seconds of a run of `_REFERENCE`'s work, in an interpreter of its own."""
    out = subprocess.run([sys.executable, "-c", _REFERENCE],
                         capture_output=True, text=True, env=_ENV, check=True)
    return float(out.stdout)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        raise SystemExit(__doc__)
    ref = reference_s()
    budget = BUDGET_S * ref / REFERENCE_S
    print(f"reference {ref:.3f} s, {REFERENCE_S:.3f} s where README's rows were timed: "
          f"budget {BUDGET_S:g} s x {ref / REFERENCE_S:.2f} = {budget:.1f} s", flush=True)
    bad = 0
    for corner in CORNERS:
        code, wall, rss_mb = measure(corner)
        ok = code == 0 and wall <= budget
        bad += not ok
        print(f"{'ok  ' if ok else 'OVER'}  {wall:6.2f} s  {rss_mb:7.1f} MB  exit {code}  {corner}",
              flush=True)
    print(f"{len(CORNERS) - bad} of {len(CORNERS)} corners exit 0 within {budget:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
