"""Every top-level function and class in the package, and every method
of a top-level class apart from dunders, has a caller in src.

A symbol that no source code refers to goes, together with the tests
that only exercise it, unless an entry below keeps it with a reason.
Methods are keyed by class, as ("module", "Class.method").
A reference is any name, attribute or import in ``src/gma`` that
spells the symbol; the definition itself does not count.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "gma"

KEPT = {
    ("cli", "main"): "console script entry point named in pyproject.toml",
    ("cli", "_Parser.error"): "argparse calls it on a usage error",
    # each shim's own import spells its name, so the scan alone would
    # pass it by accident
    ("solver", "LinearNDInterpolator"):
        "perfbench/tracer.py binds it by name; goes with ROADMAP item 5's "
        "[benchmark] PR",
    ("geometry", "linprog"):
        "perfbench/tracer.py binds it by name; goes with ROADMAP item 5's "
        "[benchmark] PR",
}


def _scan():
    defined, referenced = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.append((path.stem, node.name))
            if isinstance(node, ast.ClassDef):
                defined.extend(
                    (path.stem, "%s.%s" % (node.name, f.name))
                    for f in node.body
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not f.name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                referenced.update(a.name.rpartition(".")[2]
                                  for a in node.names)
    return defined, referenced


def test_every_symbol_has_a_src_caller():
    defined, referenced = _scan()
    dead = ["%s.%s" % sym for sym in defined
            if sym[1].rpartition(".")[2] not in referenced
            and sym not in KEPT]
    assert not dead, "no src code refers to %s" % ", ".join(dead)
    stale = ["%s.%s" % sym for sym in KEPT if sym not in defined]
    assert not stale, "kept but no longer defined: %s" % ", ".join(stale)
