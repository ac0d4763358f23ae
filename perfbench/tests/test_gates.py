"""Every output gate must be able to fail."""

import numpy as np
import pytest

import generate
import workloads as W


def _recipe(shape="simplex", family="perturbed", seed=3, n=2):
    return generate.draw(np.random.default_rng(seed), shape, n, family, 3.0)


@pytest.fixture(scope="module")
def solved():
    problem = generate.build(_recipe("box", "polynomial"))
    bd, sol, rep = W.solve(problem, 17)
    return problem, bd, sol, rep


def test_genuine_solution_passes(solved):
    assert W.solution_failures(*solved) == []


def test_shifted_values_fail(solved):
    problem, bd, sol, rep = solved
    sol.values = sol.values + 1.0
    try:
        fails = W.solution_failures(problem, bd, sol, rep)
    finally:
        sol.values = sol.values - 1.0
    assert any("boundary values" in f for f in fails)


def test_shifted_interior_fails_the_residual_audit(solved):
    problem, bd, sol, rep = solved
    saved = sol.values.copy()
    sol.values[sol.chart.interior] += 1.0
    try:
        fails = W.solution_failures(problem, bd, sol, rep)
    finally:
        sol.values = saved
    assert any("residual" in f or "convexity" in f for f in fails)


@pytest.mark.parametrize("change, needle", [
    ({"converged": False}, "converged"),
    ({"residual_norm": 1e-6}, "residual_norm"),
    ({"residual_norm": float("nan")}, "residual_norm"),
])
def test_report_gates_fail(solved, change, needle):
    _, bd, _, rep = solved
    bad = dict(rep, **change)
    assert any(needle in f for f in W.report_failures(bad, bd.consistency))


def test_boundary_consistency_gate_fails(solved):
    _, bd, _, rep = solved
    worse = dict(bd.consistency, max_mismatch=2 * bd.consistency["tolerance"])
    assert W.report_failures(rep, worse)


def test_two_grid_difference_sees_a_shift():
    problem = generate.build(_recipe())
    _, fine, _ = W.solve(problem, 17)
    _, coarse, _ = W.solve(generate.build(_recipe()), 9)
    args = (W.lattice_index(fine.chart), fine.values,
            W.lattice_index(coarse.chart), coarse.values)
    base = W.two_grid_difference(*args)
    assert 0.0 < base < 1e-3
    shifted = W.two_grid_difference(args[0], args[1] + 1.0, *args[2:])
    assert shifted >= 1.0 - base


def test_oracle_gate():
    recipe = generate.draw(np.random.default_rng(5), "simplex", 2,
                           "induced", 0.0)
    problem = generate.build(recipe)
    bd, sol, rep = W.solve(problem, 17)
    assert W.oracle_failures(sol) == []
    assert W.solution_failures(problem, bd, sol, rep) == []
    sol.values = sol.values + 1.0
    assert W.oracle_failures(sol)


def test_equivariance_gate():
    recipe = _recipe()
    M2, b2 = generate.random_affine(np.random.default_rng(9), 2)
    same = recipe._replace(M=M2, b=b2)
    gap, fails = W.equivariance_gap(recipe, same, m=17)
    assert fails == [] and W.equivariance_failures("simplex", gap) == []
    other = same._replace(strength=recipe.strength - 1.0)
    gap, _ = W.equivariance_gap(recipe, other, m=17)
    assert W.equivariance_failures("simplex", gap)


def _reader(report):
    return lambda path: report


def test_cli_gates():
    ok_solver = {"converged": True, "residual_norm": 1e-12}
    consistent = {"max_mismatch": 1e-12, "tolerance": 1e-9}
    solve = {"gate": "solve", "report": "r", "oracle": True}
    good = {"solver": ok_solver, "boundary_consistency": consistent,
            "max_error_vs_oracle": 1e-15}
    assert W.cli_failures(solve, 0, _reader(good)) == []
    assert W.cli_failures(solve, 3, _reader(good))
    assert W.cli_failures(solve, 0, _reader(
        dict(good, max_error_vs_oracle=1e-6)))
    assert W.cli_failures(solve, 0, _reader(
        dict(good, solver=dict(ok_solver, converged=False))))
    verify = {"gate": "verify", "report": "r"}
    assert W.cli_failures(verify, 0, _reader({"all_pass": True})) == []
    assert W.cli_failures(verify, 0, _reader({"all_pass": False}))
    bnd = {"gate": "boundary", "report": "r"}
    assert W.cli_failures(bnd, 0, _reader({"consistency": consistent})) == []
    assert W.cli_failures(bnd, 0, _reader(
        {"consistency": dict(consistent, max_mismatch=1.0)}))
    model = {"gate": "model-z", "report": "r"}
    assert W.cli_failures(model, 0, _reader(
        {"solver": ok_solver, "transform_finite": True})) == []
    assert W.cli_failures(model, 0, _reader(
        {"solver": ok_solver, "transform_finite": False}))

    def missing(path):
        raise OSError("no such file")
    assert W.cli_failures(verify, 0, missing)
