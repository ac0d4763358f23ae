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

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gma"
TRACER = ROOT / "perfbench" / "tracer.py"

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
    ("verify", "appendix_checks"):
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


def _traced():
    # (module, name) of every gma binding the tracer patches, read from
    # its FUNCTIONS, METHODS and BINDINGS tables without importing it
    traced = set()
    for node in ast.parse(TRACER.read_text(), filename=str(TRACER)).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name)
                and t.id in ("FUNCTIONS", "METHODS", "BINDINGS")
                for t in node.targets):
            for row in ast.literal_eval(node.value):
                traced.add((row[1].rpartition(".")[2], ".".join(row[2:])))
    return traced


def test_symbols_kept_for_the_tracer_are_still_traced():
    # a symbol kept only because the tracer binds it must go once the
    # tracer stops binding it
    traced = _traced()
    kept = [sym for sym, why in KEPT.items() if "perfbench/tracer.py" in why]
    assert kept
    untraced = ["%s.%s" % sym for sym in kept if sym not in traced]
    assert not untraced, "kept for the tracer but not traced: %s" \
        % ", ".join(untraced)
