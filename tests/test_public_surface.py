"""Every public name in svcl runs in production or is exported.

A public top-level function or class, or a public method, in src/svcl/*.py
must be referenced (as an ast.Name or ast.Attribute) somewhere in
src/svcl/*.py or bench/*.py outside its own definition, or be listed in
svcl.__all__, or be one of the allowlisted names below.  A helper only the
tests call fails here: it either becomes the production path or goes.
"""

import ast
from pathlib import Path

import svcl

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "svcl").glob("*.py"))
SCANNED = SOURCES + sorted((ROOT / "bench").glob("*.py"))

ALLOWED = {
    # the reference -d/dx that Stepper.nonlin is pinned against bit for bit
    "rotate_pairs",
}


def public_definitions():
    """(name, path, first line, last line) of each public top-level
    function or class and each public method of a top-level class."""
    defs = []
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = [node]
            if isinstance(node, ast.ClassDef):
                members += [m for m in node.body if isinstance(m, ast.FunctionDef)]
            defs += [(m.name, path, m.lineno, m.end_lineno)
                     for m in members if not m.name.startswith("_")]
    return defs


def references():
    """name -> [(path, line)] of every ast.Name and ast.Attribute."""
    refs = {}
    for path in SCANNED:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append((path, node.lineno))
    return refs


def unreferenced():
    refs = references()
    return {name for name, path, first, last in public_definitions()
            if not any(p != path or not first <= line <= last
                       for p, line in refs.get(name, ()))}


def test_every_public_name_is_used_exported_or_allowlisted():
    unused = unreferenced() - set(svcl.__all__) - ALLOWED
    assert not unused, f"public names no production code uses: {sorted(unused)}"


def test_allowlist_holds_only_defined_unreferenced_names():
    # an allowlisted name that production code starts to call leaves the list
    assert ALLOWED <= unreferenced() - set(svcl.__all__)

