"""Benchmark entry point for the gma solver.

    python3 perfbench/run.py --workload grid-2d|faces-3d|cli-verify
        --seed N --seconds T --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones of a separate traced run.  Lines before it repeat the
metrics for a reader, with the ones that are not gated (the median op
time and its tail, the failed fraction, the equivariance gaps) and the
environment.

Load: one closed-loop client.  Set-up is timed in ``PROBES`` fresh
processes plus the worker itself; then the worker runs whole cycles of
ops, one at a time, for ``T`` seconds.  Child processes get
``GMA_THREADS`` removed and BLAS/OpenMP threads capped at the number of
usable cores.  Scratch reports and dumps go to a temporary directory in
the checkout that is removed at exit; traced runs write their spans to
``.perfbench-out/``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKER = os.path.join(HERE, "worker.py")
PROBES = 2
DEADLINE = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("err_max", "1"),
              ("peak_rss_mb", "MB"))

# per-layer metrics, per cycle of the traced run; plain names are counts
# or self times taken from the trace, the rest are derived below
PER_LAYER = (
    "geometry.build_polytope.calls", "geometry.build_polytope.self_s",
    "geometry.linprog.calls", "geometry.errors",
    "guillemin.density.calls", "guillemin.density.points",
    "guillemin.density.self_s", "guillemin.potential_values.calls",
    "guillemin.potential_values.self_s", "guillemin.errors",
    "problem.transform.calls", "problem.transform.self_s",
    "problem.compatibility_ok.calls", "problem.load_problem.self_s",
    "problem.errors",
    "boundary.build_boundary_data.calls",
    "boundary.build_boundary_data.self_s",
    "boundary.restrict_problem.calls", "boundary.restrict_problem.self_s",
    "boundary.solve_edge.calls", "boundary.solve_edge.self_s",
    "boundary.trace_eval.calls", "boundary.trace_eval.self_s",
    "boundary.solve_edge.useful_ratio", "boundary.face_solve.useful_ratio",
    "boundary.errors",
    "solver.GridChart.calls", "solver.GridChart.self_s",
    "solver.spsolve.calls", "solver.spsolve.self_s",
    "solver.assemble_residual.calls", "solver.assemble_residual.self_s",
    "solver.newton_solve.calls", "solver.newton_solve.self_s",
    "solver.newton.iterations", "solver.line_search.trials",
    "solver.line_search.accept_ratio", "solver.interp.builds",
    "solver.solution_v.calls", "solver.solution_v.self_s", "solver.errors",
    "legendre.model_solve_z.calls", "legendre.model_solve_z.self_s",
    "legendre.model.iterations", "legendre.model.line_search.trials",
    "legendre.spsolve.self_s", "legendre.legendre_forward.self_s",
    "legendre.local_quadratic_eval.calls",
    "legendre.local_quadratic_eval.self_s", "legendre.errors",
    "verify.solution_probe.calls", "verify.estimate.self_s",
    "verify.verify_barrier.self_s", "verify.appendix_checks.self_s",
    "verify.errors",
    "cli.run.calls", "cli.run.self_s", "cli.errors",
    "trace.solve_s.p50", "trace.overhead_frac", "trace.spans",
)

# useful outcomes over attempts; 1.0 when nothing was attempted
RATIOS = {
    "boundary.solve_edge.useful_ratio": ("boundary.edges.distinct",
                                         "boundary.solve_edge.calls"),
    "boundary.face_solve.useful_ratio": ("boundary.faces.distinct",
                                         "boundary.face_solve.attempts"),
    "solver.line_search.accept_ratio": ("solver.newton.iterations",
                                        "solver.line_search.trials"),
}
RENAMED = {"solver.interp.builds": "solver.interp.calls"}


def unit_of(name):
    if name.endswith("self_s"):
        return "s/cycle"
    if name.endswith("ratio") or name == "trace.overhead_frac":
        return "1"
    if name == "trace.solve_s.p50":
        return "s"
    return "count/cycle"


def child_env():
    """The environment every spawned process gets."""
    env = dict(os.environ)
    env.pop("GMA_THREADS", None)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            cap = min(int(env.get(var, nproc)), nproc)
        except ValueError:
            cap = nproc
        env[var] = str(max(1, cap))
    paths = [os.path.join(ROOT, "src"), HERE]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(args, env, deadline, procs):
    """Start a worker; return (process, seconds until it printed READY).

    The process is appended to ``procs`` so the caller can stop it.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + args, env=env,
                            cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE)
    procs.append(proc)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != b"READY":
        finish(proc, deadline)
        raise RuntimeError("worker did not get ready (exit %s)"
                           % proc.returncode)
    return proc, ready


def finish(proc, deadline):
    """Wait for a process within the deadline; kill it if it overruns."""
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker overran the deadline")
    return out


def end_to_end(result, setup):
    times = [op["seconds"] for op in result["ops"]]
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(times) / sum(times),
        "err_max": result["err_max"],
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }


def per_layer(result):
    trace = result["trace"]
    cycles = result["cycles"]
    counts, self_s = trace["counts"], trace["self_s"]
    values, notes = {}, []
    for name in PER_LAYER:
        if name in RATIOS:
            num, den = RATIOS[name]
            if counts.get(den, 0):
                values[name] = counts.get(num, 0) / counts[den]
            else:
                values[name] = 1.0
                notes.append("%s: no attempts, reported as 1" % name)
        elif name.endswith(".self_s"):
            values[name] = self_s.get(name[:-len(".self_s")], 0.0) / cycles
        elif name.startswith("trace."):
            continue
        else:
            values[name] = counts.get(RENAMED.get(name, name), 0) / cycles
    values["trace.solve_s.p50"] = statistics.median(result["traced"])
    values["trace.overhead_frac"] = result["overhead"]
    values["trace.spans"] = trace["spans"] / cycles
    return values, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gma", "__init__.py")):
        print("perfbench: no gma sources under %s/src; run from the root of "
              "a checkout" % ROOT, file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE
    env = child_env()
    tmp = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--tmp", tmp]
    procs = []
    try:
        setup = []
        for _ in range(PROBES):
            proc, ready = spawn(common + ["--probe"], env, deadline, procs)
            finish(proc, deadline)
            setup.append(ready)
        extra = ["--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            outdir = os.path.join(ROOT, ".perfbench-out")
            os.makedirs(outdir, exist_ok=True)
            extra += ["--trace-out", os.path.join(
                outdir, "trace-%s-seed%d.json" % (args.workload, args.seed))]
        proc, ready = spawn(common + extra, env, deadline, procs)
        setup.append(ready)
        out = finish(proc, deadline)
        if proc.returncode != 0:
            raise RuntimeError("worker exited with %d" % proc.returncode)
        result = json.loads(out.decode("ascii").strip().splitlines()[-1])
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)

    failures = [(op["label"], f) for op in result["ops"] + result["checks"]
                for f in op["failures"]]
    attempted = len(result["ops"]) + len(result["checks"])
    failed = sum(1 for op in result["ops"] + result["checks"]
                 if op["failures"])
    for label, msg in failures:
        print("FAILED %s: %s" % (label, msg))

    if args.trace:
        values, notes = per_layer(result)
        units = {name: unit_of(name) for name in values}
        correct = failed == 0
    else:
        values = end_to_end(result, setup)
        units = dict(END_TO_END)
        notes = list(result["notes"])
        times = sorted(op["seconds"] for op in result["ops"])
        notes.append("solve_s.p50 = %.4f s (not gated); tail p90 %.4f s, "
                     "max %.4f s over %d ops in %d cycles"
                     % (statistics.median(times),
                        times[int(0.9 * (len(times) - 1))], times[-1],
                        len(times), result["cycles"]))
        notes.append("failed_frac = %.4f (1) [%d of %d ops]"
                     % (failed / attempted, failed, attempted))
        correct = failed == 0 and values["err_max"] is not None
        if values["err_max"] is None:
            values["err_max"] = 1.0
            notes.append("err_max: no complete anchor pair, reported as 1")
    for name, value in values.items():
        print("%s %s = %.6g %s" % (args.workload, name, value, units[name]))
    for note in notes:
        print("%s %s" % (args.workload, note))
    print("%s environment: %s" % (args.workload, " ".join(
        "%s=%s" % kv for kv in sorted(result["env"].items()))))
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
