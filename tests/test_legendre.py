import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve
from scipy.spatial import cKDTree
from scipy.special import xlogy

from gma import geometry, guillemin, legendre, solver
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
            vals, (x1, x2),
            gradient=lambda x: x[..., 1],
            hessian=lambda x: np.broadcast_to(
                np.array([[1.0 / x[0], 0.0], [0.0, 1.0]]), (2, 2)))
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
        pair = legendre.legendre_forward(
            vals, (x1, x2),
            gradient=lambda x: x[..., 1],
            hessian=lambda x: np.array([[1.0 / x[0], 0.0], [0.0, 1.0]]))
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


def lattice_samples(m=17):
    X1, X2 = np.meshgrid(np.linspace(0.0, 1.0, m),
                         np.linspace(-1.0, 1.0, m), indexing="ij")
    return np.column_stack([X1.ravel(), X2.ravel()])


class TestLocalQuadraticEval:
    def quadratic(self, seed):
        c = np.random.default_rng(seed).normal(size=6)
        return lambda p: (c[0] + c[1] * p[..., 0] + c[2] * p[..., 1]
                          + c[3] * p[..., 0] ** 2
                          + c[4] * p[..., 0] * p[..., 1]
                          + c[5] * p[..., 1] ** 2)

    def queries(self, pts, seed):
        rng = np.random.default_rng(seed)
        inside = np.column_stack([rng.uniform(0.0, 1.0, 300),
                                  rng.uniform(-1.0, 1.0, 300)])
        return np.concatenate([pts, inside])

    def test_batch_reproduces_quadratic(self):
        pts = lattice_samples()
        f = self.quadratic(3)
        tree = cKDTree(pts)
        Y = self.queries(pts, 4)
        # lattice nodes on an edge see their 8 nearest samples in two
        # rows, where the quadratic basis is rank deficient, so the
        # batch runs through the widening step
        _, idx = tree.query(Y, k=8)
        d = pts[idx] - Y[:, None, :]
        B = np.stack([np.ones(d.shape[:2]), d[..., 0], d[..., 1],
                      d[..., 0] ** 2, d[..., 0] * d[..., 1],
                      d[..., 1] ** 2], axis=-1)
        assert np.min(np.linalg.matrix_rank(B)) < 6
        got = legendre.local_quadratic_eval(tree, pts, f(pts), Y)
        assert got.shape == (len(Y),)
        assert np.max(np.abs(got - f(Y))) <= 1e-12

    def test_batch_equals_point_by_point(self):
        pts = lattice_samples()
        vals = np.sin(3.0 * pts[:, 0]) * np.exp(pts[:, 1])
        tree = cKDTree(pts)
        Y = self.queries(pts, 5)
        batch = legendre.local_quadratic_eval(tree, pts, vals, Y)
        single = [legendre.local_quadratic_eval(tree, pts, vals, y)
                  for y in Y]
        assert np.array_equal(batch, single)

    def test_batch_matches_lstsq_loop(self):
        # reference: one np.linalg.lstsq per point, widening the same way
        pts = lattice_samples()
        vals = np.sin(3.0 * pts[:, 0]) * np.exp(pts[:, 1])
        tree = cKDTree(pts)
        Y = self.queries(pts, 6)
        ref = []
        for y in Y:
            k = 8
            while True:
                _, idx = tree.query(y, k=k)
                d = pts[idx] - y
                s = d / np.max(np.sqrt(np.sum(d * d, axis=1)))
                B = np.column_stack([np.ones(k), s[:, 0], s[:, 1],
                                     s[:, 0] ** 2, s[:, 0] * s[:, 1],
                                     s[:, 1] ** 2])
                coef, _, rank, _ = np.linalg.lstsq(B, vals[idx], rcond=None)
                if rank == 6 or k == len(pts):
                    break
                k = min(2 * k, len(pts))
            ref.append(coef[0])
        got = legendre.local_quadratic_eval(tree, pts, vals, Y)
        assert np.max(np.abs(got - ref)) <= 1e-13

    def test_single_point_returns_float(self):
        pts = lattice_samples()
        out = legendre.local_quadratic_eval(
            cKDTree(pts), pts, pts[:, 0] * pts[:, 1], np.array([0.3, 0.2]))
        assert isinstance(out, float)
        assert abs(out - 0.06) <= 1e-12


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
        tol = 10.0 * max(rep_sq["error_estimate"], rep_m["error_estimate"])
        worst = 0.0
        for i in range(2, len(sol_m.z1_axis) - 1, 3):
            for j in range(2, len(sol_m.z2_axis) - 1, 3):
                z1 = sol_m.z1_axis[i]
                z2 = sol_m.z2_axis[j]
                x = np.array([z1 * z1 / 4.0, z2])
                v_model = sol_m.values[i, j]
                v_sq = sol_sq.u(x) - xlogy(x[0], x[0])
                worst = max(worst, abs(v_model - v_sq))
        assert worst <= tol

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
