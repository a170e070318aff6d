"""Each design decision has one home module in `src/gaugecalc`.

The modules are read with `ast`, so a name counts where the code names it
(a definition, an import, a load or an attribute) and not where a comment or
docstring mentions it.  `__init__` re-exports the public names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gaugecalc"

HOMES = {
    # the central difference stencil
    "_ddx": {"forms"},
    "_ddy": {"forms"},
    # the flatness tolerance: both flatness rules in gauge, the report echo in cli
    "FLAT_TOL": {"gauge", "cli", "__init__"},
    # [re, im] report entries: defined in forms, laid out by cli
    "_entry_pairs": {"forms", "cli"},
    # the form record format
    "form_to_record": {"forms", "__init__"},
    "form_from_record": {"forms", "__init__"},
}


def _names(tree):
    """Every identifier the module's code names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
            if node.asname:
                yield node.asname
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name


def _naming_modules():
    named = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name in set(_names(ast.parse(path.read_text(encoding="utf-8")))):
            named.setdefault(name, set()).add(path.stem)
    return named


@pytest.mark.parametrize("name", sorted(HOMES))
def test_each_decision_is_named_only_in_its_home(name):
    named = _naming_modules().get(name, set())
    assert named, f"{name} is named nowhere in the package"
    assert named <= HOMES[name], f"{name} is named outside its home: {sorted(named - HOMES[name])}"
