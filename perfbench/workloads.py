"""Workload cycles, the ops they run, and the output gates.

A run repeats whole rounds of two cycles of ops.  Cycle ``c`` draws its
inputs from ``numpy.random.default_rng([seed, c])``; even cycles take
the top of the density strength range and odd cycles the bottom, and the
two density families swap shapes between them.  Cycle 0 is the accuracy
anchor: ``err_max`` is the two-grid difference of its level pairs.

Each gate returns a list of failure messages; an op fails when any gate
does.  The gates only read results, so the tests can feed them corrupted
ones.
"""

import json
import os
from typing import NamedTuple

import numpy as np

import generate
from gma import boundary, solver

TOL = 1e-10
STRENGTHS = (3.0, 0.2)
FAMILIES = ("perturbed", "polynomial")
SOLVE_LEVELS = {"grid-2d": (2, (129, 257)), "faces-3d": (3, (9, 17))}
ORACLE_TOL = 1e-9
ORACLE_GRID = {2: 33, 3: 9}
EQUIVARIANCE_TOL = 1e-8
EQUIVARIANCE_GRID = 33
EQUIVARIANCE_SAMPLES = 25
# the box chart's mixed stencil runs along one diagonal of the reference
# square, so a frame change that swaps the diagonals yields a different,
# equally consistent discrete solution (about 1e-5 apart at m=33); the
# simplex lattice and stencil are invariant under every vertex
# permutation, so only simplices are held to EQUIVARIANCE_TOL
EQUIVARIANT_SHAPES = ("simplex",)
BOUNDARY_AUDIT_NODES = 64
CLI_GRID = 17
MODEL_GRIDS = (33, 65)
VERIFY_LEVELS = "9,17,33,65"
WORKLOADS = ("grid-2d", "faces-3d", "cli-verify")


class Op(NamedTuple):
    """One timed unit of work; ``pair`` groups a two-grid level pair."""

    label: str
    payload: object
    pair: object = None


def cycle_rng(seed, cycle):
    return np.random.default_rng([int(seed), int(cycle)])


# -- in-process solve workloads ---------------------------------------------
def solve_cycle(workload, seed, cycle):
    """Ops of one cycle: both shapes at both levels, coarse level first."""
    n, levels = SOLVE_LEVELS[workload]
    rng = cycle_rng(seed, cycle)
    strength = STRENGTHS[cycle % 2]
    ops = []
    for k, shape in enumerate(("simplex", "box")):
        family = FAMILIES[(cycle + k) % 2]
        recipe = generate.draw(rng, shape, n, family, strength)
        for m in levels:
            ops.append(Op("%s%d-m%d" % (shape, n, m), (recipe, m),
                          pair=(cycle, shape)))
    return ops


def warm_up(seed):
    """First-use costs a long-lived process pays once, before its ops.

    A tiny 2-D solve, evaluated once through ``RegularizedSolution.v``,
    which builds the first ``LinearNDInterpolator`` of the process.
    """
    rng = np.random.default_rng([int(seed), 1 << 22])
    problem = generate.build(generate.draw(rng, "simplex", 2, "perturbed",
                                           STRENGTHS[0]))
    _, sol, _ = solve(problem, 5)
    sol.v(problem.polytope.vertices.mean(axis=0))


def solve(problem, m):
    """The command line solve path: boundary build, then the interior."""
    bd = boundary.build_boundary_data(problem, grid=m, tol=TOL, threads=None)
    sol, rep = solver.newton_solve(problem, boundary=bd, grid=m, tol=TOL)
    return bd, sol, rep


def report_failures(rep, consistency, tol=TOL):
    """Gates on what the solver and the boundary build report."""
    fails = []
    if not rep.get("converged", False):
        fails.append("solver reports converged: false")
    if not rep.get("residual_norm", np.inf) <= tol:
        fails.append("residual_norm %.3g above tol %.3g"
                     % (rep.get("residual_norm", np.inf), tol))
    if consistency is not None and \
            not consistency["max_mismatch"] <= consistency["tolerance"]:
        fails.append("boundary mismatch %.3g above its tolerance %.3g"
                     % (consistency["max_mismatch"], consistency["tolerance"]))
    return fails


def solution_failures(problem, bd, sol, rep, tol=TOL):
    """Report gates plus an audit of the returned values themselves.

    The residual is assembled again from ``sol.values``, and a sample of
    boundary nodes must carry the boundary data, so a solution whose
    values were changed after the solve fails even if its report says
    converged.
    """
    fails = report_failures(rep, bd.consistency, tol)
    R, flagged = solver.assemble_residual(sol.values, problem, sol.chart)
    if flagged.size:
        fails.append("audit: %d nodes lose convexity" % flagged.size)
    elif not float(np.max(np.abs(R))) <= tol:
        fails.append("audit: residual %.3g above tol %.3g"
                     % (float(np.max(np.abs(R))), tol))
    chart = sol.chart
    nodes = chart.boundary[::max(1, len(chart.boundary)
                                 // BOUNDARY_AUDIT_NODES)]
    pts = chart.to_problem(chart.nodes[nodes])
    expect = np.array([bd.v(x) for x in pts])
    gap = float(np.max(np.abs(sol.values[nodes] - expect)))
    if not gap <= 1e-12 * max(1.0, float(np.max(np.abs(expect)))):
        fails.append("audit: boundary values off the traces by %.3g" % gap)
    return fails


def lattice_index(chart):
    return np.rint(chart.nodes * (chart.m - 1)).astype(np.int64)


def two_grid_difference(fine_idx, fine_values, coarse_idx, coarse_values):
    """max |v_m - v_(m+1)/2| over the coarse nodes of nested lattices."""
    base = int(fine_idx.max()) + 1
    weights = base ** np.arange(fine_idx.shape[1], dtype=np.int64)
    codes = fine_idx @ weights
    order = np.argsort(codes)
    want = (2 * coarse_idx) @ weights
    pos = order[np.searchsorted(codes, want, sorter=order)]
    if not np.array_equal(codes[pos], want):
        raise ValueError("lattices are not nested")
    return float(np.max(np.abs(fine_values[pos] - coarse_values)))


def oracle_failures(sol):
    """Induced density, zero vertex values: the exact regular part is 0."""
    err = float(np.max(np.abs(sol.values)))
    if err <= ORACLE_TOL:
        return []
    return ["max_error_vs_oracle %.3g above %.3g" % (err, ORACLE_TOL)]


def oracle_check(seed, n):
    """The run's induced-density op, untimed; returns failure messages."""
    rng = np.random.default_rng([int(seed), 1 << 20])
    problem = generate.build(generate.draw(rng, "simplex", n, "induced", 0.0))
    bd, sol, rep = solve(problem, ORACLE_GRID[n])
    return solution_failures(problem, bd, sol, rep) + oracle_failures(sol)


def equivariance_gap(first, second, m=EQUIVARIANCE_GRID):
    """Largest |u - u'| between solves of one problem in two frames.

    ``first`` and ``second`` are recipes of the same reference problem in
    two affine frames; u is compared at interior nodes of the first
    solve and their images in the second frame.  Returns the gap and the
    failures of the two solves' reports.
    """
    _, s1, r1 = solve(generate.build(first), m)
    _, s2, r2 = solve(generate.build(second), m)
    x = s1.chart.to_problem(s1.chart.nodes[s1.chart.interior])
    x = x[::max(1, len(x) // EQUIVARIANCE_SAMPLES)][:EQUIVARIANCE_SAMPLES]
    ref = np.linalg.solve(first.M, (x - first.b).T).T
    y = ref @ second.M.T + second.b
    gap = float(np.max(np.abs(s1.u(x) - s2.u(y))))
    return gap, report_failures(r1, None) + report_failures(r2, None)


def equivariance_failures(shape, gap):
    if shape not in EQUIVARIANT_SHAPES or gap <= EQUIVARIANCE_TOL:
        return []
    return ["%s equivariance gap %.3g above %.3g"
            % (shape, gap, EQUIVARIANCE_TOL)]


def equivariance_check(seed, recipes):
    """Criterion 11's check on the run's problems in a second frame.

    Returns (failures, {shape: gap}).  Every gap is measured; only the
    shapes in EQUIVARIANT_SHAPES are gated.
    """
    rng = np.random.default_rng([int(seed), 1 << 21])
    fails, gaps = [], {}
    for recipe in recipes:
        M2, b2 = generate.random_affine(rng, recipe.n)
        gap, bad = equivariance_gap(recipe, recipe._replace(M=M2, b=b2))
        gaps[recipe.shape] = gap
        fails.extend(bad + equivariance_failures(recipe.shape, gap))
    return fails, gaps


# -- command line workload ----------------------------------------------------
def cli_cycle(seed, cycle, tmp):
    """Ops of one cycle; writes the cycle's problem files into ``tmp``.

    Each payload is the argument list of ``proc.py`` after the optional
    trace flag, plus what the gate needs to know.
    """
    rng = cycle_rng(seed, cycle)
    strength = STRENGTHS[cycle % 2]
    anchor = cycle % 2 == 0
    solve_recipe = generate.draw(
        rng, "simplex", 2, "induced" if anchor else "perturbed", strength)
    box_recipe = generate.draw(rng, "box", 2, "perturbed", strength)
    paths = {}
    for key, recipe in (("solve", solve_recipe), ("boundary", box_recipe)):
        paths[key] = os.path.join(tmp, "c%d-%s-problem.json" % (cycle, key))
        with open(paths[key], "w", encoding="ascii") as fh:
            json.dump(generate.problem_json(generate.build(recipe)), fh)

    def out(name):
        return os.path.join(tmp, "c%d-%s" % (cycle, name))

    verify_seed = int(rng.integers(0, 2 ** 31))
    slope, shift = rng.uniform(-0.3, 0.3, size=2)
    model = ["--strength", repr(strength), "--slope", repr(float(slope)),
             "--shift", repr(float(shift))]
    ops = [
        Op("verify", {"argv": [
            "cli", "verify", "--suite", "all", "--levels", VERIFY_LEVELS,
            "--seed", str(verify_seed), "--report", out("verify.json")],
            "report": out("verify.json"), "gate": "verify"}),
        Op("model-legendre", {"argv": [
            "cli", "model", "--form", "legendre", "--dump", out("model.csv"),
            "--report", out("model.json")],
            "report": out("model.json"), "gate": "model"}),
        Op("solve", {"argv": [
            "cli", "solve", paths["solve"], "--grid", str(CLI_GRID),
            "--dump", out("solve.bin"), "--report", out("solve.json")],
            "report": out("solve.json"), "gate": "solve", "oracle": anchor}),
        Op("boundary", {"argv": [
            "cli", "boundary", paths["boundary"], "--grid", str(CLI_GRID),
            "--dump", out("traces.csv"), "--report", out("boundary.json")],
            "report": out("boundary.json"), "gate": "boundary"}),
    ]
    for g in MODEL_GRIDS:
        ops.append(Op("model-z-%d" % g, {"argv": [
            "model", "--grid", str(g), "--report", out("model-z-%d.json" % g)]
            + model, "report": out("model-z-%d.json" % g), "gate": "model-z"},
            pair=(cycle, "model-z")))
    return ops


def cli_failures(payload, code, read_report):
    """Gates for one command line op, given its exit code and report."""
    if code != 0:
        return ["exit code %d" % code]
    gate = payload["gate"]
    try:
        rep = read_report(payload["report"])
    except (OSError, ValueError) as exc:
        return ["unreadable report: %s" % exc]
    if gate == "verify":
        return [] if rep.get("all_pass") is True \
            else ["verify ledger has all_pass %r" % rep.get("all_pass")]
    if gate == "model":
        return report_failures(rep["solver"], None)
    if gate == "model-z":
        fails = report_failures(rep["solver"], None)
        if not rep.get("transform_finite"):
            fails.append("legendre_forward gave non-finite values")
        return fails
    if gate == "boundary":
        return report_failures({"converged": True, "residual_norm": 0.0},
                               rep["consistency"])
    fails = report_failures(rep["solver"], rep["boundary_consistency"])
    if payload.get("oracle"):
        err = rep.get("max_error_vs_oracle")
        if err is None or not err <= ORACLE_TOL:
            fails.append("max_error_vs_oracle %r above %.3g"
                         % (err, ORACLE_TOL))
    return fails
