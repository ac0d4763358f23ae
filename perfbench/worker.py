"""The generating process: one closed-loop client running a workload.

    python perfbench/worker.py --workload W --seed S --seconds T
        --trace 0|1 --tmp DIR [--trace-out FILE] [--probe]

Prints ``READY`` once ``gma`` is imported, the first cycle's inputs exist
and, for the in-process workloads, a tiny warm-up solve has paid the
process's first-use costs; ``run.py`` times set-up from process start to
that line.  With
``--probe`` the process exits there.  Otherwise it runs whole cycles of
ops, one at a time, until ``T`` seconds have passed, runs the untimed
checks, and prints one JSON line with per-op times and failures.

In-process workloads (``grid-2d``, ``faces-3d``) call the package
directly; ``cli-verify`` starts one fresh ``proc.py`` process per op.

A run stops after whole rounds of ``ROUND`` cycles.  With ``--trace 1``
every round repeats the first one, so that per-cycle counts repeat
exactly, and each op runs twice, untraced and traced, in an order that
alternates from op to op; the pairs give the tracing overhead.
"""

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import gma.cli  # noqa: F401  (imports every layer, as the command does)
import generate
import workloads as W
from tracer import Tracer, empty_dump, merge

PROC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "proc.py")
OP_TIMEOUT = 150.0
# a run stops only after whole rounds; a round holds one cycle of each
# parity, so every round has the same mix of work
ROUND = 2


class Record:
    """Timings, failures and two-grid material gathered during a run."""

    def __init__(self):
        self.ops = []
        self.checks = []
        self.pairs = {}
        self.untraced = []
        self.traced = []
        self.notes = []

    def op(self, op, seconds, fails):
        self.ops.append({"label": op.label, "seconds": seconds,
                         "failures": fails})

    def check(self, label, fails):
        self.checks.append({"label": label, "failures": fails})


# -- in-process ops ---------------------------------------------------------
def run_solve_op(op, tracer=None):
    recipe, m = op.payload
    problem = generate.build(recipe)
    span = contextlib.nullcontext()
    if tracer is not None:
        tracer.install()
        span = tracer.span("bench.op")
    t0 = time.perf_counter()
    try:
        with span:
            bd, sol, rep = W.solve(problem, m)
    except Exception as exc:  # an op that raises is a failed op
        return time.perf_counter() - t0, [_describe(exc)], None
    finally:
        if tracer is not None:
            tracer.uninstall()
    seconds = time.perf_counter() - t0
    fails = _guard(W.solution_failures, problem, bd, sol, rep)
    return seconds, fails, (W.lattice_index(sol.chart), sol.values)


def run_cli_op(op, tmp, trace_out=None):
    argv = [sys.executable, PROC]
    if trace_out:
        argv += ["--trace-out", trace_out]
    argv += op.payload["argv"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, stdin=subprocess.DEVNULL,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=OP_TIMEOUT, cwd=tmp)
    seconds = time.perf_counter() - t0
    fails = W.cli_failures(op.payload, proc.returncode, _read_json)
    if fails and proc.stderr:
        fails.append(proc.stderr.decode("utf-8", "replace").strip()[-300:])
    values = None
    if not fails and op.pair is not None:
        values = np.asarray(_read_json(op.payload["report"])["values"])
    return seconds, fails, values


def _read_json(path):
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)


# -- loops ------------------------------------------------------------------
def cycle_ops(workload, seed, cycle, tmp):
    if workload == "cli-verify":
        return W.cli_cycle(seed, cycle, tmp)
    return W.solve_cycle(workload, seed, cycle)


def run_one(workload, op, tmp, tracer=None, trace_out=None):
    if workload == "cli-verify":
        return run_cli_op(op, tmp, trace_out)
    return run_solve_op(op, tracer)


def timed_loop(workload, seed, seconds, tmp, first, record):
    """Whole rounds of cycles until ``seconds`` have passed."""
    start = time.perf_counter()
    cycle, ops = 0, first
    while True:
        for op in ops:
            secs, fails, material = run_one(workload, op, tmp)
            record.op(op, secs, fails)
            if op.pair is not None and material is not None:
                record.pairs.setdefault(op.pair, []).append(material)
        cycle += 1
        if cycle % ROUND == 0 and time.perf_counter() - start >= seconds:
            return cycle
        ops = cycle_ops(workload, seed, cycle, tmp)


def traced_loop(workload, seed, seconds, tmp, first, record):
    """The first round again and again, each op untraced and traced."""
    tracer = Tracer()
    dump = empty_dump()
    ops = first + [op for c in range(1, ROUND)
                   for op in cycle_ops(workload, seed, c, tmp)]
    start = time.perf_counter()
    cycles, op_id = 0, 0
    while True:
        for op in ops:
            order = (False, True) if op_id % 2 == 0 else (True, False)
            for traced in order:
                if not traced:
                    secs, fails, _ = run_one(workload, op, tmp)
                    record.untraced.append(secs)
                elif workload == "cli-verify":
                    path = os.path.join(tmp, "trace-%d.json" % op_id)
                    secs, fails, _ = run_one(workload, op, tmp,
                                             trace_out=path)
                    if os.path.exists(path):
                        merge(dump, _read_json(path), op_id)
                        os.remove(path)
                    record.traced.append(secs)
                else:
                    tracer.op = op_id
                    secs, fails, _ = run_one(workload, op, tmp, tracer=tracer)
                    record.traced.append(secs)
                record.op(op, secs, fails)
            op_id += 1
        cycles += ROUND
        if time.perf_counter() - start >= seconds:
            break
    if workload != "cli-verify":
        merge(dump, tracer.dump(), 0)
    return cycles, dump


def untimed_checks(workload, seed, first, record):
    """The run's induced-density op and, on grid-2d, criterion 11."""
    if workload == "cli-verify":
        return  # the even cycles' solve op carries the oracle gate
    n = W.SOLVE_LEVELS[workload][0]
    record.check("induced-density oracle", _guard(W.oracle_check, seed, n))
    if workload == "grid-2d":
        recipes = [op.payload[0] for op in first
                   if op.payload[1] == W.SOLVE_LEVELS[workload][1][0]]
        try:
            fails, gaps = W.equivariance_check(seed, recipes)
        except Exception as exc:  # a check that raises is a failed check
            fails, gaps = [_describe(exc)], {}
        record.check("affine equivariance", fails)
        for shape, gap in sorted(gaps.items()):
            gated = shape in W.EQUIVARIANT_SHAPES
            record.notes.append("%s equivariance gap %.3g%s" % (
                shape, gap, "" if gated else " (not gated)"))


def _guard(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # a check that raises is a failed check
        return [_describe(exc)]


def _describe(exc):
    return "raised %s: %s" % (type(exc).__name__, exc)


def err_max(record):
    """Largest two-grid difference over the anchor cycle's pairs."""
    worst = None
    for (cycle, _), material in record.pairs.items():
        if cycle != 0 or len(material) != 2:
            continue
        if isinstance(material[0], tuple):
            (ci, cv), (fi, fv) = material
            diff = W.two_grid_difference(fi, fv, ci, cv)
        else:
            coarse, fine = material
            diff = float(np.max(np.abs(fine[::2, ::2] - coarse)))
        worst = diff if worst is None else max(worst, diff)
    return worst


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    first = cycle_ops(args.workload, args.seed, 0, args.tmp)
    if args.workload != "cli-verify":
        W.warm_up(args.seed)
    print("READY", flush=True)
    if args.probe:
        return 0

    record = Record()
    result = {}
    if args.trace:
        cycles, dump = traced_loop(args.workload, args.seed, args.seconds,
                                   args.tmp, first, record)
        result["trace"] = {"counts": dump["counts"], "self_s": dump["self_s"],
                           "spans": len(dump["spans"]["name"])}
        result["traced"] = record.traced
        result["overhead"] = statistics.median(
            t / u for t, u in zip(record.traced, record.untraced)) - 1.0
        if args.trace_out:
            with open(args.trace_out, "w", encoding="ascii") as fh:
                json.dump(dump, fh)
    else:
        cycles = timed_loop(args.workload, args.seed, args.seconds, args.tmp,
                            first, record)
        untimed_checks(args.workload, args.seed, first, record)
        result["err_max"] = err_max(record)
    result.update({"cycles": cycles, "ops": record.ops,
                   "checks": record.checks, "notes": record.notes,
                   "env": environment()})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
