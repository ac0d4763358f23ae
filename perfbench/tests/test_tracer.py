"""The tracing shim restores what it patches, repeats its counts, and
accounts for every op's wall time."""

import sys
import time

import numpy as np
import pytest

import generate
import tracer as T
import workloads as W
from gma import boundary, cli, geometry, guillemin, solver
from gma.errors import GmaError


def _bindings():
    """Every attribute of every gma module and traced class, by identity."""
    snap = {}
    for name, mod in sys.modules.items():
        if name == "gma" or name.startswith("gma."):
            snap[name] = dict(vars(mod))
    for _, modname, cls, _ in T.METHODS:
        klass = getattr(sys.modules[modname], cls)
        snap[modname + "." + cls] = dict(vars(klass))
    return snap


def _same(a, b):
    return a.keys() == b.keys() and all(
        a[k].keys() == b[k].keys()
        and all(a[k][x] is b[k][x] for x in a[k]) for k in a)


def test_every_binding_is_wrapped_and_every_original_restored():
    before = _bindings()
    originals = (boundary.build_boundary_data, guillemin.potential_values,
                 solver.spsolve, geometry.linprog)
    tr = T.Tracer()
    with tr:
        assert cli.build_boundary_data is solver.build_boundary_data
        assert solver.build_boundary_data is boundary.build_boundary_data
        assert boundary.build_boundary_data is not originals[0]
        assert solver.potential_values is guillemin.potential_values
        assert guillemin.potential_values is not originals[1]
        assert solver.spsolve is not originals[2]
        assert geometry.linprog is not originals[3]
        assert not _same(before, _bindings())
    assert _same(before, _bindings())


def test_restored_after_an_error():
    before = _bindings()
    tr = T.Tracer()
    with pytest.raises(ValueError):
        with tr:
            raise ValueError("boom")
    assert _same(before, _bindings())


def _traced_ops(seed):
    rng = np.random.default_rng(seed)
    cases = [(generate.draw(rng, "simplex", 2, "perturbed", 3.0), 17),
             (generate.draw(rng, "box", 2, "polynomial", 3.0), 9),
             (generate.draw(rng, "simplex", 3, "polynomial", 0.2), 5)]
    tr = T.Tracer()
    walls = []
    for op_id, (recipe, m) in enumerate(cases):
        problem = generate.build(recipe)
        tr.op = op_id
        tr.install()
        try:
            t0 = time.perf_counter()
            with tr.span("bench.op"):
                W.solve(problem, m)
            walls.append(time.perf_counter() - t0)
        finally:
            tr.uninstall()
    return tr, walls


@pytest.fixture(scope="module")
def traced_twice():
    return _traced_ops(11), _traced_ops(11)


def test_counts_repeat_exactly(traced_twice):
    (first, _), (second, _) = traced_twice
    assert first.counts == second.counts
    for name in ("solver.newton_solve.calls", "boundary.solve_edge.calls",
                 "guillemin.density.points", "solver.newton.iterations"):
        assert first.counts[name] > 0


def _op_self_sums(dump):
    """Sum of span self times per op id, recomputed from the raw spans."""
    spans = dump["spans"]
    dur = np.asarray(spans["end"]) - np.asarray(spans["start"])
    parent = np.asarray(spans["parent"], dtype=np.int64)
    child = np.zeros(len(dur))
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    own = dur - child
    ops = np.asarray(spans["op"], dtype=np.int64)
    sums = {}
    for op in np.unique(ops[ops >= 0]):
        sums[int(op)] = float(own[ops == op].sum())
    return sums, own


def _span_cost():
    """Measured cost of one traced call, over a no-op."""
    tr = T.Tracer()
    wrapped = tr.wrap("bench.noop", lambda: None)
    n = 20000
    t0 = time.perf_counter()
    for _ in range(n):
        wrapped()
    return (time.perf_counter() - t0) / n


def test_self_times_add_up_to_wall_time(traced_twice):
    (tr, walls), _ = traced_twice
    dump = tr.dump()
    sums, own = _op_self_sums(dump)
    assert np.min(own) > -1e-9
    ops = np.asarray(dump["spans"]["op"])
    cost = _span_cost()
    for op_id, wall in enumerate(walls):
        spans = int(np.sum(ops == op_id))
        assert abs(wall - sums[op_id]) <= 2 * cost * spans + 1e-3
        # the online accumulation agrees with the raw spans
    total = sum(tr.self_s.values())
    assert total == pytest.approx(sum(sums.values()), rel=1e-9)


def test_errors_are_counted_once_per_layer():
    tr = T.Tracer()

    def inner():
        raise GmaError("inner")

    wrapped_inner = tr.wrap("solver.inner", inner)
    wrapped_outer = tr.wrap("solver.outer", lambda: wrapped_inner())
    wrapped_top = tr.wrap("cli.top", lambda: wrapped_outer())
    with pytest.raises(GmaError):
        wrapped_top()
    assert tr.counts["solver.errors"] == 1
    assert tr.counts["cli.errors"] == 1
    assert not tr._stack


def test_merge_shifts_ops_and_parents():
    a, b = T.Tracer(), T.Tracer()
    for tr in (a, b):
        tr.op = 0
        with tr.span("bench.op"):
            with tr.span("solver.x"):
                pass
    dump = T.merge(T.merge(T.empty_dump(), a.dump(), 0), b.dump(), 1)
    assert dump["spans"]["op"] == [0, 0, 1, 1]
    assert dump["spans"]["parent"] == [-1, 0, -1, 2]
    assert dump["counts"]["solver.x.calls"] == 2
