"""Check that the CLI's reports are byte-identical to those of a git revision.

Usage, from anywhere in a checkout:

    python3 tools/report_identity.py REV

Extracts `src/` of revision REV with `git archive` into a temporary
directory, then runs each invocation below in every output format on that
tree and on the checkout's `src/`, each in its own interpreter with BLAS on
one thread.  The transports with `--steps` 1777, 3001 and 5001 span several
of the blocks `holonomy` samples at once and end in a partial 128-step
chunk.  Prints one line per invocation and format, then a summary, and
exits 1 if any exit code or stdout byte differs.  Under each DIFFERENT
structured record it prints every moved leaf as its JSON path, the `name` of
the nearest enclosing object that has one (a check's name), and the old and
new JSON values.  An object on one side only moves one leaf per entry.  Lists
of objects with distinct names (the checks) pair their items by name, so an
added check moves only its own leaves and not those of every later one:

    $.checks[exp-unitarity].value (exp-unitarity): 1.3322734129261735e-15 -> 1.2213523874224638e-15

Under each DIFFERENT text or CSV report it prints the lines only one side has,
in diff order, marked `-` (old only) or `+` (new only):

    - # seed: 7
    + # tolerances: {"flat_tol": 1e-08}
"""

from __future__ import annotations

import difflib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FORMATS = ("report-text", "csv", "structured-record")
INVOCATIONS = (
    "verify --seed 3 --grid 16",
    "verify --seed 7",
    "verify --seed 7919",
    "torus-curve",
    "torus-curve --grid 16 --samples 5",
    "residual --family sin-dy",
    "residual --family zero",
    "residual --family const-mix:c=3.14159,lam=0.5",
    "residual --family sin-dy --grid 128",
    "holonomy",
    "holonomy --family const-dx --loop tcircle",
    "holonomy --family sin-dy --loop torus:wx=0,wy=1,x0=0.3",
    "holonomy --family sin-dy --loop torus:wx=1,wy=1",
    "holonomy --family sin-dy --loop tcircle --steps 5001",
    "ab",
    "ab --k 0.37+0.1j --winding 2",
    "ab --k 0.37+0.1j --winding 3 --steps 1777",
    "wong --case constant",
    "wong --case flat-contractible",
    "wong --case flat-contractible --i0 e3",
    "wong --case flat-contractible --steps 3001",
    "spectrum --grid 16 --rank 2",
    "spectrum --grid 16 --rank 3",
    "spectrum --grid 12",
    "spectrum --grid 32 --rank 2",
)
# imports gaugecalc from the tree given first, and from nowhere else
_MAIN = ("import sys; sys.path.insert(0, sys.argv[1]); import gaugecalc.cli as cli; "
         "assert cli.__file__.startswith(sys.argv[1]), cli.__file__; "
         "sys.exit(cli.main(sys.argv[2:]))")
_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1"}


def run(src, argv):
    """(exit code, stdout bytes) of the CLI of the tree `src` on `argv`."""
    proc = subprocess.run([sys.executable, "-c", _MAIN, str(src), *argv],
                          capture_output=True, env=_ENV, cwd=src)
    if proc.returncode == 1 and b"Traceback" in proc.stderr:
        raise SystemExit(f"{' '.join(argv)} crashed on {src}:\n{proc.stderr.decode()}")
    return proc.returncode, proc.stdout


_ABSENT = object()


def moved_leaves(old, new, path="$", name=None):
    """(path, name, old, new) of each leaf where two decoded JSON values differ.

    Leaves compare by their JSON text, so 0.0 and -0.0 differ; a key or list
    item on one side only is a moved leaf against `_ABSENT`, and an object with
    entries on one side only is walked against `_ABSENT`, one moved leaf per
    entry.  Two lists of objects with distinct names pair their items by name
    (`_by_name`).
    """
    sides = (old, new)
    if all(isinstance(v, dict) for v in sides) or (
            _ABSENT in sides and any(isinstance(v, dict) and v for v in sides)):
        old, new = ({} if v is _ABSENT else v for v in sides)
        name = next((v["name"] for v in (old, new) if isinstance(v.get("name"), str)), name)
        for key in sorted(old.keys() | new.keys()):
            yield from moved_leaves(old.get(key, _ABSENT), new.get(key, _ABSENT),
                                    f"{path}.{key}", name)
    elif _by_name(old) is not None and _by_name(new) is not None:
        old, new = _by_name(old), _by_name(new)
        for key in [*new, *(key for key in old if key not in new)]:
            yield from moved_leaves(old.get(key, _ABSENT), new.get(key, _ABSENT),
                                    f"{path}[{key}]", name)
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            yield from moved_leaves(old[i] if i < len(old) else _ABSENT,
                                    new[i] if i < len(new) else _ABSENT, f"{path}[{i}]", name)
    elif _text(old) != _text(new):
        yield path, name, old, new


def _by_name(items):
    """{name: item} of a non-empty list of objects with distinct string names, else None."""
    if not (isinstance(items, list) and items and all(isinstance(i, dict) for i in items)):
        return None
    names = [i.get("name") for i in items]
    if not all(isinstance(n, str) for n in names) or len(set(names)) < len(names):
        return None
    return dict(zip(names, items))


def _text(value):
    return "(absent)" if value is _ABSENT else json.dumps(value)


def moved_lines(old_out, new_out):
    """One indented line per moved leaf of two structured records."""
    try:
        old, new = json.loads(old_out), json.loads(new_out)
    except ValueError:
        return ["    (not both JSON)"]
    return [f"    {path}{f' ({name})' if name else ''}: {_text(a)} -> {_text(b)}"
            for path, name, a, b in moved_leaves(old, new)]


def diff_lines(old_out, new_out):
    """One indented line per line of two text or CSV reports that only one side has."""
    old, new = (out.decode(errors="replace").splitlines() for out in (old_out, new_out))
    return [f"    {line}" for line in difflib.ndiff(old, new) if line[0] in "-+"]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        raise SystemExit(__doc__)
    rev = argv[0]
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True)
    if archive.returncode:
        raise SystemExit(f"git archive {rev}: {archive.stderr.decode().strip()}")
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        old_src, new_src = (Path(tmp) / "src").resolve(), (ROOT / "src").resolve()
        for invocation in INVOCATIONS:
            for fmt in FORMATS:
                cmd = [*invocation.split(), "--format", fmt]
                (old_code, old_out), (new_code, new_out) = (run(old_src, cmd),
                                                            run(new_src, cmd))
                same = old_code == new_code and old_out == new_out
                differ += not same
                print(f"{'identical' if same else 'DIFFERENT'}  {' '.join(cmd)}  "
                      f"(exit {old_code} -> {new_code}, {len(old_out)} -> {len(new_out)} B)",
                      flush=True)
                if not same:
                    diff = moved_lines if fmt == "structured-record" else diff_lines
                    for line in diff(old_out, new_out):
                        print(line, flush=True)
    total = len(INVOCATIONS) * len(FORMATS)
    print(f"{total - differ} of {total} identical to {rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
