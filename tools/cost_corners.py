"""Time the largest inputs the CLI accepts, one interpreter each.

Usage, from anywhere in a checkout:

    python3 tools/cost_corners.py

Runs every corner below on the checkout's `src/`, each in its own interpreter
with BLAS on one thread and the report written to the null device.  Prints
each corner's wall time and peak RSS, then a summary, and exits 1 if any
corner takes longer than BUDGET_S or does not exit 0.  The wall time is that
of the whole CLI process, interpreter start and imports included; the peak
RSS is `resource.getrusage(RUSAGE_CHILDREN)` of a parent that ran only that
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
BUDGET_S = 15.0
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


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        raise SystemExit(__doc__)
    bad = 0
    for corner in CORNERS:
        code, wall, rss_mb = measure(corner)
        ok = code == 0 and wall <= BUDGET_S
        bad += not ok
        print(f"{'ok  ' if ok else 'OVER'}  {wall:6.2f} s  {rss_mb:7.1f} MB  exit {code}  {corner}",
              flush=True)
    print(f"{len(CORNERS) - bad} of {len(CORNERS)} corners exit 0 within {BUDGET_S:g} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
