import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve
from scipy.special import xlogy

from gma import geometry, guillemin, legendre, solver, verify
from gma.errors import (DegenerateTransversalHessian, OutsideDomain,
                        SingularJacobian)
from gma.problem import GuilleminProblem


def model_unknowns(m):
    """The model's unknown nodes (I, J) in its nested-dissection order."""
    nodes = np.indices((m - 1, m - 2)).reshape(2, -1).T + (0, 1)
    return nodes[solver.dissection_order(nodes)].T


def grid_field(fn, x1, x2):
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    return fn(X1, X2)


def model_u(X1, X2):
    return xlogy(X1, X1) + 0.5 * X2 ** 2


def coupled_u(X1, X2):
    return xlogy(X1, X1) + 0.5 * X2 ** 2 + X1 * X2


class TestForward:
    def test_closed_form_values(self):
        x1 = np.linspace(0.1, 1.0, 16)
        x2 = np.linspace(-0.5, 0.5, 16)
        vals = grid_field(model_u, x1, x2)
        pair = legendre.legendre_forward(
            vals, (x1, x2), gradient=lambda x: x[..., 1])
        # y = (x1, x2) and u* = y2^2/2 - y1 log y1
        assert np.allclose(pair.y_points[:, 0], pair.x_points[:, 0])
        assert np.allclose(pair.y_points[:, 1], pair.x_points[:, 1],
                           atol=1e-12)
        expect = 0.5 * pair.y_points[:, 1] ** 2 \
            - xlogy(pair.y_points[:, 0], pair.y_points[:, 0])
        assert np.max(np.abs(pair.ustar - expect)) <= 1e-12

    def test_finite_difference_gradient_close(self):
        x1 = np.linspace(0.1, 1.0, 33)
        x2 = np.linspace(-0.5, 0.5, 33)
        vals = grid_field(model_u, x1, x2)
        pair = legendre.legendre_forward(vals, (x1, x2))
        expect = 0.5 * pair.y_points[:, 1] ** 2 \
            - xlogy(pair.y_points[:, 0], pair.y_points[:, 0])
        # second order stencils on a smooth field; the tangential
        # gradient of this u is exactly linear so the error is tiny
        assert np.max(np.abs(pair.ustar - expect)) <= 1e-10

    def test_degenerate_tangential_hessian(self):
        x1 = np.linspace(0.1, 1.0, 9)
        x2 = np.linspace(-0.5, 0.5, 9)
        vals = grid_field(lambda a, b: xlogy(a, a) + b, x1, x2)
        with pytest.raises(DegenerateTransversalHessian):
            legendre.legendre_forward(vals, (x1, x2))

    def test_closed_form_residual_zero(self):
        # y1 u*_11 + h det D2_{y''}u* = -1 + 1 = 0 for the model solution
        x1 = np.linspace(0.1, 1.0, 16)
        x2 = np.linspace(-0.5, 0.5, 16)
        vals = grid_field(model_u, x1, x2)
        fwd = legendre.legendre_forward(
            vals, (x1, x2), gradient=lambda x: x[..., 1])
        # the analytic Hessian diag(1/x1, 1) in place of the stencils
        H = np.zeros((len(fwd.x_points), 2, 2))
        H[:, 0, 0] = 1.0 / fwd.x_points[:, 0]
        H[:, 1, 1] = 1.0
        pair = legendre.PartialLegendrePair(fwd.x_points, fwd.y_points,
                                            fwd.ustar, H)
        R = pair.transversal_residual(lambda y: np.ones(y.shape[:-1]))
        assert np.max(np.abs(R)) <= 1e-12

    def test_residual_refinement_order(self):
        # u = x1 log x1 + x2^2/2 + x1 x2 solves x1 det D2u = 1 - x1, so
        # the transformed equation residual is pure discretization error
        def h(y):
            y = np.asarray(y, dtype=float)
            return 1.0 - y[..., 0]

        sups = {}
        for m in (9, 17, 33):
            x1 = np.linspace(0.1, 0.9, m)
            x2 = np.linspace(-0.5, 0.5, m)
            vals = grid_field(coupled_u, x1, x2)
            pair = legendre.legendre_forward(vals, (x1, x2))
            R = pair.transversal_residual(h)
            # fixed interior window; the one-node collar sits closer to
            # the singular face at every level and would hide the rate
            keep = (pair.x_points[:, 0] >= 0.25) \
                & (pair.x_points[:, 0] <= 0.75) \
                & (np.abs(pair.x_points[:, 1]) <= 0.3)
            sups[m] = float(np.max(np.abs(R[keep])))
        order1 = np.log2(sups[9] / sups[17])
        order2 = np.log2(sups[17] / sups[33])
        assert order1 >= 1.5
        assert order2 >= 1.5

    def test_round_trip_through_transform(self):
        # the map is an involution: applying the forward transform to
        # the numeric forward output recovers the input field
        x1 = np.linspace(0.1, 1.0, 16)
        x2 = np.linspace(-0.5, 0.5, 16)
        vals = grid_field(model_u, x1, x2)
        pair = legendre.legendre_forward(
            vals, (x1, x2), gradient=lambda x: x[..., 1])
        # here y2 = x2, so the scattered output is itself a grid field
        inner1 = x1[1:-1]
        inner2 = x2[1:-1]
        svals = pair.ustar.reshape(len(inner1), len(inner2))
        back = legendre.legendre_forward(
            svals, (inner1, inner2), gradient=lambda y: y[..., 1])
        expect = grid_field(model_u, inner1[1:-1], inner2[1:-1])
        assert np.max(np.abs(back.ustar - expect.ravel())) <= 1e-8

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.5, max_value=2.0))
    def test_map_monotone_in_tangential_direction(self, a):
        x1 = np.linspace(0.2, 1.0, 9)
        x2 = np.linspace(-0.5, 0.5, 9)
        vals = grid_field(lambda p, q: xlogy(p, p) + 0.5 * a * q * q, x1, x2)
        pair = legendre.legendre_forward(vals, (x1, x2))
        y = pair.y_points.reshape(7, 7, 2)
        assert np.all(np.diff(y[:, :, 1], axis=1) > 0)


def chart_of(kind, n, m):
    eye = np.eye(n)
    lower = [geometry.AffineFunctional(e, 0.0) for e in eye]
    upper = ([geometry.AffineFunctional(-np.ones(n), -1.0)]
             if kind == "simplex"
             else [geometry.AffineFunctional(-e, -1.0) for e in eye])
    P = geometry.build_polytope(lower + upper)
    prob = GuilleminProblem(P, guillemin.DensitySpec.guillemin(P), 0.0)
    return solver.GridChart(prob, m)


def chart_read(chart, values, s):
    """P2 read of chart lattice values at lattice coordinates s."""
    return legendre.local_quadratic_eval(
        values, chart.node_ids, chart.strides, chart.m - 1, s,
        chart.kind == "simplex")


def chart_queries(chart, count, seed):
    """Random reference points of the chart, then every lattice node."""
    rng = np.random.default_rng(seed)
    n = chart.nodes.shape[1]
    if chart.kind == "simplex":
        inside = rng.dirichlet(np.ones(n + 1), count)[:, :n]
    else:
        inside = rng.uniform(0.0, 1.0, (count, n))
    return np.concatenate([inside, chart.nodes])


def random_quadratic(seed, n):
    rng = np.random.default_rng(seed)
    c, b, A = rng.normal(), rng.normal(size=n), rng.normal(size=(n, n))
    return lambda p: c + p @ b + np.einsum("ki,ij,kj->k", p, A, p)


P2_GRIDS = (5, 6, 8, 9, 10, 17)


class TestLocalQuadraticEval:
    def test_batch_reproduces_quadratic(self):
        # odd m tiles the even sublattice exactly; even m shifts the last
        # macro layer (box) or the cells past the widest gap (simplex)
        for kind in ("box", "simplex"):
            for n in (2, 3):
                for m in P2_GRIDS:
                    chart = chart_of(kind, n, m)
                    f = random_quadratic(m + n, n)
                    xi = chart_queries(chart, 400, m)
                    got = chart_read(chart, f(chart.nodes), xi * (m - 1))
                    assert got.shape == (len(xi),)
                    assert np.max(np.abs(got - f(xi))) <= 1e-13, (kind, n, m)

    @pytest.mark.parametrize("kind", ["box", "simplex"])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("m", P2_GRIDS)
    def test_probe_reproduces_quadratic(self, kind, n, m):
        chart = chart_of(kind, n, m)
        f = random_quadratic(m, n)
        sol = solver.RegularizedSolution(
            chart.problem, chart, f(chart.to_problem(chart.nodes)), {})
        x = chart.to_problem(chart_queries(chart, 300, m + 1))
        assert np.max(np.abs(verify.solution_probe(sol)(x) - f(x))) <= 1e-13

    @pytest.mark.parametrize("m", P2_GRIDS)
    def test_model_solution_reproduces_quadratic(self, m):
        z1, z2 = np.linspace(0.0, 1.0, m), np.linspace(-1.0, 1.0, m)
        Z = np.stack(np.meshgrid(z1, z2, indexing="ij"), -1).reshape(-1, 2)
        f = random_quadratic(m, 2)
        msol = legendre.ModelSolution(z1, z2, f(Z).reshape(m, m), {})
        rng = np.random.default_rng(m)
        x = np.concatenate([
            np.column_stack([rng.uniform(0.0, 0.25, 300),
                             rng.uniform(-1.0, 1.0, 300)]),
            np.column_stack([Z[:, 0] ** 2 / 4.0, Z[:, 1]])])
        z = np.column_stack([2.0 * np.sqrt(x[:, 0]), x[:, 1]])
        assert np.max(np.abs(msol.v(x) - f(z))) <= 1e-13

    @pytest.mark.parametrize("kind, normals", [
        ("box", [(1, 0), (0, 1), (1, -1)]),
        ("simplex", [(1, 0), (0, 1), (1, 1)])])
    def test_continuous_across_macro_faces_when_m_odd(self, kind, normals):
        # the macro-simplex faces are the lines a . s = 2k; random node
        # values jump by O(1) across any face where two P2 pieces disagree
        m, eps = 17, 1e-9
        chart = chart_of(kind, 2, m)
        values = np.random.default_rng(1).normal(size=len(chart.nodes))
        rng = np.random.default_rng(2)
        for a in np.array(normals, dtype=float):
            s = chart_queries(chart, 500, 3)[:500] * (m - 1)
            s += (2.0 * np.round(s @ a / 2.0) - s @ a)[:, None] * a / (a @ a)
            far = s.sum(axis=1) if kind == "simplex" else s.max(axis=1)
            s = s[np.all(s >= 1.0, axis=1) & (far <= m - 2)]
            jump = chart_read(chart, values, s + eps * a) \
                - chart_read(chart, values, s - eps * a)
            assert len(s) > 100
            assert np.max(np.abs(jump)) <= 1e-6
        # the shifted last layer of an even box lattice is where it can
        # fail: its cells overlap the layer below
        chart = chart_of("box", 2, 16)
        values = np.random.default_rng(1).normal(size=len(chart.nodes))
        s = np.column_stack([np.full(50, 14.0), rng.uniform(1.0, 14.0, 50)])
        jump = chart_read(chart, values, s + (eps, 0.0)) \
            - chart_read(chart, values, s - (eps, 0.0))
        assert np.max(np.abs(jump)) > 1e-2

    def test_batch_equals_point_by_point(self):
        for kind in ("box", "simplex"):
            chart = chart_of(kind, 2, 10)
            values = np.sin(3.0 * chart.nodes[:, 0]) * np.exp(chart.nodes[:, 1])
            s = chart_queries(chart, 200, 5) * 9
            batch = chart_read(chart, values, s)
            single = [chart_read(chart, values, p) for p in s]
            assert np.array_equal(batch, single)

    def test_single_point_returns_float(self):
        chart = chart_of("box", 2, 17)
        values = chart.nodes[:, 0] * chart.nodes[:, 1]
        out = chart_read(chart, values, np.array([0.3, 0.2]) * 16)
        assert isinstance(out, float)
        assert abs(out - 0.06) <= 1e-15

    @pytest.mark.parametrize("kind", ["box", "simplex"])
    def test_third_order_on_smooth_data(self, kind):
        def f(p):
            return np.sin(2.0 * p[:, 0] + 1.0) * np.exp(p[:, 1])

        errors = []
        for m in (9, 17, 33, 65):
            chart = chart_of(kind, 2, m)
            xi = chart_queries(chart, 2000, 7)[:2000]
            got = chart_read(chart, f(chart.nodes), xi * (m - 1))
            errors.append(np.max(np.abs(got - f(xi))))
        orders = np.log2(np.array(errors[:-1]) / errors[1:])
        assert np.min(orders) >= 2.7, orders


class TestModelSolve:
    def test_flat_model_exact(self):
        def trace(x):
            x = np.asarray(x, dtype=float)
            return 0.5 * x[..., 1] ** 2

        sol, report = legendre.model_solve_z(
            lambda x: np.ones(np.asarray(x, dtype=float).shape[:-1]),
            trace, x_depth=0.25, lateral=(-1.0, 1.0), grid=17)
        assert report["converged"]
        Z1, Z2 = np.meshgrid(sol.z1_axis, sol.z2_axis, indexing="ij")
        expect = 0.5 * Z2 ** 2
        assert np.max(np.abs(sol.values - expect)) <= 1e-10
        assert report["face_neumann"] <= 1e-8
        assert report["face_relation_gap"] <= 1e-9
        # Newton must also find the quadratic from a perturbed start,
        # not just recognize it in the initial iterate; the start is the
        # trace fill, so the bump rides on the trace.  In z it reads
        # 0.05 z1^2 (1 - z1) sin(pi (z2 + 1) / 2): quadratically flat at
        # the face so w_1/z1 stays bounded, and zero on the outer
        # Dirichlet rows z1 = 1 and z2 = +-1, so the solution is unchanged
        def bumped(x):
            x = np.asarray(x, dtype=float)
            x1 = x[..., 0]
            return trace(x) + 0.2 * x1 * (1.0 - 2.0 * np.sqrt(x1)) \
                * np.sin(np.pi * (x[..., 1] + 1.0) / 2.0)

        sol2, report2 = legendre.model_solve_z(
            lambda x: np.ones(np.asarray(x, dtype=float).shape[:-1]),
            bumped, x_depth=0.25, lateral=(-1.0, 1.0), grid=17)
        assert report2["iterations"] >= 1
        assert np.max(np.abs(sol2.values - expect)) <= 1e-10

    def test_affine_trace_shift(self):
        def trace(x):
            x = np.asarray(x, dtype=float)
            return 0.5 * x[..., 1] ** 2 + 0.1 * x[..., 1]

        sol, report = legendre.model_solve_z(
            lambda x: np.ones(np.asarray(x, dtype=float).shape[:-1]),
            trace, x_depth=0.25, lateral=(-1.0, 1.0), grid=17)
        assert report["converged"]
        Z1, Z2 = np.meshgrid(sol.z1_axis, sol.z2_axis, indexing="ij")
        expect = 0.5 * Z2 ** 2 + 0.1 * Z2
        assert np.max(np.abs(sol.values - expect)) <= 1e-10

    def test_back_substitution_evaluation(self):
        def trace(x):
            x = np.asarray(x, dtype=float)
            return 0.5 * x[..., 1] ** 2

        sol, _ = legendre.model_solve_z(
            lambda x: np.ones(np.asarray(x, dtype=float).shape[:-1]),
            trace, x_depth=0.25, lateral=(-1.0, 1.0), grid=17)
        # the local quadratic fit reproduces the flat solution exactly
        # on and off the lattice
        assert np.isclose(sol.v(np.array([0.04, 0.25])),
                          0.5 * 0.25 ** 2, atol=1e-12)
        assert abs(sol.v(np.array([0.04, 0.3])) - 0.5 * 0.3 ** 2) <= 1e-10

    def chart_solution(self, w):
        # lattice values of w(z1, z2) on the chart of depth 0.25 and
        # lateral range (-1, 1)
        z1 = np.linspace(0.0, 1.0, 17)
        z2 = np.linspace(-1.0, 1.0, 17)
        Z1, Z2 = np.meshgrid(z1, z2, indexing="ij")
        return legendre.ModelSolution(z1, z2, w(Z1, Z2), {})

    def test_array_evaluation_matches_points(self):
        sol = self.chart_solution(lambda a, b: 0.5 * b ** 2 + a ** 3)
        rng = np.random.default_rng(2)
        x = np.column_stack([rng.uniform(0.0, 0.25, 50),
                             rng.uniform(-1.0, 1.0, 50)])
        out = sol.v(x)
        assert out.shape == (50,)
        assert np.array_equal(out, [sol.v(p) for p in x])

    def test_points_off_the_chart_raise(self):
        sol = self.chart_solution(lambda a, b: 0.5 * b ** 2)
        assert abs(sol.v(np.array([0.25, 1.0])) - 0.5) <= 1e-12
        for p in ([5.0, 7.0], [0.3, 0.0], [0.1, -1.5], [-0.01, 0.0]):
            with pytest.raises(OutsideDomain):
                sol.v(np.array(p))

    def test_cross_validation_against_chart_solver(self):
        # square [0,3]^2 with a perturbed induced density; the same
        # solution near the face x1 = 0 solves the half space model with
        # the absorbed factors divided out
        fs = [geometry.AffineFunctional([1.0, 0.0], 0.0),
              geometry.AffineFunctional([-1.0, 0.0], -3.0),
              geometry.AffineFunctional([0.0, 1.0], 0.0),
              geometry.AffineFunctional([0.0, -1.0], -3.0)]
        P = geometry.build_polytope(fs)
        c = 0.05
        prob = GuilleminProblem(P, guillemin.DensitySpec.perturbed(P, c), 0.0)
        sol_sq, rep_sq = solver.newton_solve(prob, grid=33, tol=1e-11)
        assert rep_sq["converged"]

        def h_model(x):
            x = np.asarray(x, dtype=float)
            l = P.evaluate_all(x)
            bump = 1.0 + c * np.prod(l, axis=-1)
            return 9.0 * bump / (x[..., 1] * (3.0 - x[..., 0])
                                 * (3.0 - x[..., 1]))

        def trace(x):
            x = np.asarray(x, dtype=float)
            single = x.ndim == 1
            X = np.atleast_2d(x)
            out = np.array([sol_sq.u(p) - xlogy(p[0], p[0]) for p in X])
            return float(out[0]) if single else out

        sol_m, rep_m = legendre.model_solve_z(
            h_model, trace, x_depth=0.25, lateral=(1.0, 2.0), grid=17)
        assert rep_m["converged"]
        worst = 0.0
        for i in range(2, len(sol_m.z1_axis) - 1, 3):
            for j in range(2, len(sol_m.z2_axis) - 1, 3):
                z1 = sol_m.z1_axis[i]
                z2 = sol_m.z2_axis[j]
                x = np.array([z1 * z1 / 4.0, z2])
                v_model = sol_m.values[i, j]
                v_sq = sol_sq.u(x) - xlogy(x[0], x[0])
                worst = max(worst, abs(v_model - v_sq))
        # the two discretizations differ by about 2e-4 at these grids
        assert worst <= 1e-3

    def test_nonconvergence_flag(self):
        def trace(x):
            x = np.asarray(x, dtype=float)
            return 0.5 * x[..., 1] ** 2

        def h(x):
            x = np.asarray(x, dtype=float)
            return 1.0 + 0.5 * np.sin(3.0 * x[..., 1]) ** 2

        sol, report = legendre.model_solve_z(
            h, trace, x_depth=0.25, lateral=(-1.0, 1.0), grid=17,
            tol=1e-13, max_iter=1)
        assert not report["converged"]
        assert sol is not None

    def test_model_factor_reuse_matches_plain_newton(self):
        # plain damped Newton with a fresh sparse solve every step; the
        # shared driver's chord steps must land on the same solution
        def h(x):
            x = np.asarray(x, dtype=float)
            return 1.0 + 3.0 * x[..., 0] + 0.75 * x[..., 1] ** 2

        def trace(x):
            x = np.asarray(x, dtype=float)
            return 0.5 * x[..., 1] ** 2

        m = 65
        sol, report = legendre.model_solve_z(h, trace, grid=m, tol=1e-12)
        assert report["converged"]
        assert report["factorizations"] < report["iterations"]

        z1, z2 = sol.z1_axis, sol.z2_axis
        Z1, Z2 = np.meshgrid(z1, z2, indexing="ij")
        xpts = np.stack([Z1 ** 2 / 4.0, Z2], axis=-1)
        V = trace(xpts)
        I, J = model_unknowns(m)
        stencil = legendre._model_stencil(z1, z2, I, J)
        hq = np.sqrt(h(xpts[I, J]))
        F, ok = legendre._model_system(V, stencil, hq)
        assert np.all(ok)
        norm = np.max(np.abs(F))
        for _ in range(30):
            if norm <= 1e-12:
                break
            step = spsolve(legendre._model_jacobian(V, stencil), -F)
            lam = 1.0
            while lam >= 2.0 ** -31:
                Vt = V.copy()
                Vt[I, J] += lam * step
                Ft, ok = legendre._model_system(Vt, stencil, hq)
                if np.all(ok) and \
                        np.max(np.abs(Ft)) <= (1.0 - 0.25 * lam) * norm:
                    break
                lam *= 0.5
            V, F, norm = Vt, Ft, np.max(np.abs(Ft))
        assert norm <= 1e-12
        assert np.max(np.abs(sol.values - V)) <= 1e-11

    def test_model_jacobian_matches_fd(self):
        # central differences of the residual against the stencil
        # Jacobian, on face-row unknowns (z1 = 0) and in the body
        m = 9
        z1 = np.linspace(0.0, 1.0, m)
        z2 = np.linspace(-1.0, 1.0, m)
        Z1, Z2 = np.meshgrid(z1, z2, indexing="ij")
        rows, cols = model_unknowns(m)
        stencil = legendre._model_stencil(z1, z2, rows, cols)
        rng = np.random.default_rng(3)
        V = 0.5 * Z2 ** 2 + 0.2 * Z1 ** 2 + 1e-3 * rng.standard_normal((m, m))
        hq = np.ones(len(rows))
        F, ok = legendre._model_system(V, stencil, hq)
        assert np.all(ok)
        J = legendre._model_jacobian(V, stencil)
        face = np.nonzero(rows == 0)[0]
        body = rng.choice(np.nonzero(rows > 0)[0], size=6, replace=False)
        eps = 1e-6
        for k in np.concatenate([face[:3], body]):
            step = np.zeros(len(rows))
            step[k] = eps
            Vp, Vm = V.copy(), V.copy()
            Vp[rows, cols] += step
            Vm[rows, cols] -= step
            col_fd = (legendre._model_system(Vp, stencil, hq)[0]
                      - legendre._model_system(Vm, stencil, hq)[0]) / (2 * eps)
            col = J[:, k].toarray().ravel()
            assert np.count_nonzero(col) >= 3
            assert np.allclose(col, col_fd, rtol=0,
                               atol=1e-6 * (1 + np.abs(col).max()))

    def test_singular_jacobian_raises(self, monkeypatch):
        def singular(V, stencil):
            K = stencil.neighbors.shape[1]
            return sp.csc_matrix((K, K))

        def h(x):
            x = np.asarray(x, dtype=float)
            return 1.0 + 0.5 * np.sin(3.0 * x[..., 1]) ** 2

        monkeypatch.setattr(legendre, "_model_jacobian", singular)
        with pytest.raises(SingularJacobian):
            legendre.model_solve_z(
                h, lambda x: 0.5 * np.asarray(x, dtype=float)[..., 1] ** 2,
                grid=9, tol=1e-11)
