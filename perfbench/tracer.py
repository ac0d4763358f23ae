"""Spans and counts around the public calls of each gma layer.

The shim lives outside the package.  ``Tracer.install()`` replaces every
binding of the traced functions with a timing wrapper: the defining
module's attribute and every ``from .x import f`` copy in other gma
modules, class attributes for methods, and the scipy calls bound inside
``solver``, ``legendre`` and ``geometry``.  ``uninstall()`` puts every
original back.

A span records (name, start, end, parent span, op id).  Spans and counts
stay in memory until ``dump()``.  Self time is a span's duration minus the
time covered by its child spans; it is accumulated as spans close.  The
shim is single threaded: it keeps one open-span stack, which matches the
sequential boundary build (``threads=None``) the benchmark uses.
"""

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

from gma.errors import GmaError

# module-level functions: every binding of the same object in any gma
# module gets the same wrapper
FUNCTIONS = (
    ("geometry.build_polytope", "gma.geometry", "build_polytope"),
    ("guillemin.density", "gma.guillemin", "guillemin_density"),
    ("guillemin.potential_values", "gma.guillemin", "potential_values"),
    ("problem.load_problem", "gma.problem", "load_problem"),
    ("boundary.build_boundary_data", "gma.boundary", "build_boundary_data"),
    ("boundary.restrict_problem", "gma.boundary", "restrict_problem"),
    ("boundary.solve_edge", "gma.boundary", "solve_edge"),
    ("solver.assemble_residual", "gma.solver", "assemble_residual"),
    ("solver.newton_solve", "gma.solver", "newton_solve"),
    ("legendre.model_solve_z", "gma.legendre", "model_solve_z"),
    ("legendre.legendre_forward", "gma.legendre", "legendre_forward"),
    ("legendre.local_quadratic_eval", "gma.legendre", "local_quadratic_eval"),
    ("verify.solution_probe", "gma.verify", "solution_probe"),
    ("verify.estimate", "gma.verify", "estimate_lipschitz"),
    ("verify.estimate", "gma.verify", "estimate_weighted_hessian"),
    ("verify.estimate", "gma.verify", "estimate_face_asymptotics"),
    ("verify.verify_barrier", "gma.verify", "verify_barrier"),
    ("verify.appendix_checks", "gma.verify", "appendix_checks"),
    ("cli.run", "gma.cli", "run"),
)

# methods, patched on the class
METHODS = (
    ("problem.transform", "gma.problem", "GuilleminProblem", "transform"),
    ("problem.compatibility_ok", "gma.problem", "GuilleminProblem",
     "compatibility_ok"),
    ("boundary.trace_eval", "gma.boundary", "BoundaryData", "u"),
    ("solver.GridChart", "gma.solver", "GridChart", "__init__"),
    ("solver.solution_v", "gma.solver", "RegularizedSolution", "v"),
)

# third-party callables: only the one module's binding, so that the same
# scipy function gets a separate span name in each module
BINDINGS = (
    ("solver.spsolve", "gma.solver", "spsolve"),
    ("legendre.spsolve", "gma.legendre", "spsolve"),
    ("geometry.linprog", "gma.geometry", "linprog"),
    ("solver.interp", "gma.solver", "LinearNDInterpolator"),
)

BOUNDARY_BUILD = "boundary.build_boundary_data"


def layer_of(name):
    return name.split(".", 1)[0]


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts = Counter()
        self.self_s = Counter()
        self.op = -1
        self._stack = []
        self._child = []
        self._active = Counter()
        self._patches = []

    # -- spans -----------------------------------------------------------
    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, name):
        idx = len(self.span_name)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        self._active[name] += 1
        self.counts[name + ".calls"] += 1
        return idx

    def _close(self, idx, name, t0, t1):
        self._stack.pop()
        child = self._child.pop()
        self._active[name] -= 1
        self.span_start[idx] = t0
        self.span_end[idx] = t1
        self.self_s[name] += (t1 - t0) - child
        if self._child:
            self._child[-1] += t1 - t0

    def inside(self, name):
        """True while a span of this name is open."""
        return self._active[name] > 0

    def span(self, name):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def wrap(self, name, fn, before=None, after=None):
        tracer = self
        layer = layer_of(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            idx = tracer._open(name)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except GmaError:
                parent = tracer.span_parent[idx]
                if parent < 0 or layer_of(
                        tracer.names[tracer.span_name[parent]]) != layer:
                    tracer.counts[layer + ".errors"] += 1
                raise
            finally:
                tracer._close(idx, name, t0, time.perf_counter())
            if after is not None:
                after(tracer, args, kwargs, out)
            return out

        return traced

    # -- install / uninstall ----------------------------------------------
    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        importlib.import_module("gma.cli")  # loads every layer
        gma_modules = [m for k, m in sorted(sys.modules.items())
                       if (k == "gma" or k.startswith("gma.")) and m]
        for name, modname, attr in FUNCTIONS:
            original = getattr(importlib.import_module(modname), attr)
            wrapper = self.wrap(name, original, *HOOKS.get(name, (None, None)))
            for mod in gma_modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, wrapper)
        for name, modname, cls, attr in METHODS:
            klass = getattr(importlib.import_module(modname), cls)
            self._patch(klass, attr, self.wrap(
                name, klass.__dict__[attr], *HOOKS.get(name, (None, None))))
        for name, modname, attr in BINDINGS:
            mod = importlib.import_module(modname)
            self._patch(mod, attr, self.wrap(name, getattr(mod, attr)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output -----------------------------------------------------------
    def dump(self):
        """Counts, self times and all spans as plain JSON data."""
        return {
            "counts": dict(self.counts),
            "self_s": dict(self.self_s),
            "spans": {
                "names": list(self.names),
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "op": self.span_op.tolist(),
                "start": self.span_start.tolist(),
                "end": self.span_end.tolist(),
            },
        }


class _Span:
    __slots__ = ("tracer", "name", "idx", "t0")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer._open(self.name)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx, self.name, self.t0, time.perf_counter())
        return False


# -- count hooks ------------------------------------------------------------
def _density_points(tracer, args, kwargs):
    x = args[1] if len(args) > 1 else kwargs["x"]
    tracer.counts["guillemin.density.points"] += \
        1 if np.ndim(x) <= 1 else int(np.shape(x)[0])


def _boundary_build(tracer, args, kwargs):
    if tracer.inside(BOUNDARY_BUILD):
        return
    problem = args[0] if args else kwargs["problem"]
    P = problem.polytope
    dims = [face.dim for face in P.faces.values()]
    tracer.counts["boundary.edges.distinct"] += dims.count(1)
    tracer.counts["boundary.faces.distinct"] += sum(
        1 for d in dims if 2 <= d < P.dimension)


def _face_solve(tracer, args, kwargs):
    if tracer.inside(BOUNDARY_BUILD):
        tracer.counts["boundary.face_solve.attempts"] += 1


def _newton_report(tracer, args, kwargs, out):
    report = out[1]
    tracer.counts["solver.newton.iterations"] += int(report["iterations"])
    tracer.counts["solver.line_search.trials"] += \
        int(report["line_search_total"])


def _model_report(tracer, args, kwargs, out):
    report = out[1]
    tracer.counts["legendre.model.iterations"] += int(report["iterations"])
    tracer.counts["legendre.model.line_search.trials"] += \
        int(report["line_search_total"])


# (before, after) count hooks by span name
HOOKS = {
    "guillemin.density": (_density_points, None),
    "boundary.build_boundary_data": (_boundary_build, None),
    "solver.newton_solve": (_face_solve, _newton_report),
    "legendre.model_solve_z": (None, _model_report),
}


def merge(into, part, op_offset):
    """Add one dump into another, shifting op ids by ``op_offset``."""
    for key in ("counts", "self_s"):
        for name, value in part[key].items():
            into[key][name] = into[key].get(name, 0) + value
    src, dst = part["spans"], into["spans"]
    remap = []
    for name in src["names"]:
        if name not in dst["names"]:
            dst["names"].append(name)
        remap.append(dst["names"].index(name))
    base = len(dst["name"])
    dst["name"].extend(remap[i] for i in src["name"])
    dst["parent"].extend(p + base if p >= 0 else -1 for p in src["parent"])
    dst["op"].extend(o + op_offset if o >= 0 else -1 for o in src["op"])
    dst["start"].extend(src["start"])
    dst["end"].extend(src["end"])
    return into


def empty_dump():
    return {"counts": {}, "self_s": {},
            "spans": {"names": [], "name": [], "parent": [], "op": [],
                      "start": [], "end": []}}
