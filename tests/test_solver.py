import itertools
import re
import types

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.fft import dstn
from scipy.sparse.linalg import splu, spsolve

from gma import boundary, geometry, guillemin, legendre, solver
from gma.errors import (ChartTooLarge, LineSearchStall, NonConvexIterate,
                        OutsideDomain, SingularJacobian, ValidationError)
from gma.problem import GuilleminProblem


def simplex2d_problem(density=None, alpha=0.0):
    P = geometry.build_polytope([
        geometry.AffineFunctional([1.0, 0.0], 0.0),
        geometry.AffineFunctional([0.0, 1.0], 0.0),
        geometry.AffineFunctional([-1.0, -1.0], -1.0),
    ])
    h = density if density is not None else guillemin.DensitySpec.guillemin(P)
    return GuilleminProblem(P, h, alpha)


def square_problem(density=None):
    P = geometry.build_polytope([
        geometry.AffineFunctional([1.0, 0.0], 0.0),
        geometry.AffineFunctional([-1.0, 0.0], -1.0),
        geometry.AffineFunctional([0.0, 1.0], 0.0),
        geometry.AffineFunctional([0.0, -1.0], -1.0),
    ])
    h = density if density is not None else guillemin.DensitySpec.guillemin(P)
    return GuilleminProblem(P, h, 0.0)


def trapezoid_problem():
    P = geometry.build_polytope([
        geometry.AffineFunctional([1.0, 0.0], 0.0),
        geometry.AffineFunctional([0.0, 1.0], 0.0),
        geometry.AffineFunctional([0.0, -1.0], -1.0),
        geometry.AffineFunctional([-1.0, -1.0], -2.0),
    ])
    return GuilleminProblem(P, guillemin.DensitySpec.guillemin(P), 0.0)


def interval_problem(hhat, lo=0.0, hi=1.0, alpha=(0.0, 0.0)):
    P = geometry.build_polytope([
        geometry.AffineFunctional([1.0], lo),
        geometry.AffineFunctional([-1.0], -hi),
    ])
    vals = np.zeros(2)
    for i, v in enumerate(P.vertices):
        vals[i] = alpha[0] if abs(v[0] - lo) < 1e-12 else alpha[1]
    return GuilleminProblem(P, guillemin.DensitySpec.from_callable(hhat), vals)


def cube_problem():
    fs = []
    for a in range(3):
        e = np.zeros(3)
        e[a] = 1.0
        fs.extend([geometry.AffineFunctional(e, 0.0),
                   geometry.AffineFunctional(-e, -1.0)])
    P = geometry.build_polytope(fs)
    return GuilleminProblem(P, guillemin.DensitySpec.constant(1.0), 0.0)


def simplex3d_problem():
    P = geometry.build_polytope([
        geometry.AffineFunctional([1.0, 0.0, 0.0], 0.0),
        geometry.AffineFunctional([0.0, 1.0, 0.0], 0.0),
        geometry.AffineFunctional([0.0, 0.0, 1.0], 0.0),
        geometry.AffineFunctional([-1.0, -1.0, -1.0], -1.0),
    ])
    return GuilleminProblem(P, guillemin.DensitySpec.guillemin(P), 0.0)


_MANUFACTURED_W = np.array([1.0, 2.0])
_MANUFACTURED_C = 0.04


def manufactured_problem():
    """Simplex problem with exact solution u = u_G + c exp(x1 + 2 x2).

    The density is the continuous extension of det(D2 v + sum nn^t/l)
    prod l for v = c exp(w.x); the rank one Hessian of v kills the det A
    term and the cross terms are polynomial in the functionals:

        h = h_G + c e^{w.x} sum_i (|w|^2 |n_i|^2 - (w.n_i)^2) prod_{j!=i} l_j

    Written out with trace A = c e (1 + 4) and n^t A n = c e (w.n)^2.
    """
    base = simplex2d_problem()
    P = base.polytope
    w = _MANUFACTURED_W
    c = _MANUFACTURED_C
    normals = P.normals
    coeffs = np.array([(w @ w) * (n @ n) - (w @ n) ** 2 for n in normals])

    def h(x):
        x = np.asarray(x, dtype=float)
        l = P.evaluate_all(x)
        s = c * np.exp(x @ w)
        acc = np.zeros(x.shape[:-1])
        for i in range(len(normals)):
            others = np.prod(np.delete(l, i, axis=-1), axis=-1)
            acc = acc + coeffs[i] * others
        hg = guillemin.guillemin_density(P, x)
        out = hg + s * acc
        return out if out.ndim else float(out)

    vals = c * np.exp(P.vertices @ w)
    return GuilleminProblem(P, guillemin.DensitySpec.from_callable(h), vals)


def manufactured_exact(P, x):
    x = np.asarray(x, dtype=float)
    pot = guillemin.potential_values(P, x)
    return pot + _MANUFACTURED_C * np.exp(x @ _MANUFACTURED_W)


class TestGridChart:
    def test_simplex_chart_maps_vertices(self):
        P = geometry.build_polytope([
            geometry.AffineFunctional([1.0, 0.0], 1.0),
            geometry.AffineFunctional([0.0, 1.0], 1.0),
            geometry.AffineFunctional([-3.0, -2.0], -11.0),
        ])
        prob = GuilleminProblem(P, guillemin.DensitySpec.constant(1.0), 0.0)
        chart = solver.GridChart(prob, m=9)
        assert chart.kind == "simplex"
        ref = chart.to_reference(P.vertices)
        expect = {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)}
        got = {tuple(np.round(r, 12)) for r in ref}
        assert got == expect
        # functional values are preserved by the chart map
        rng = np.random.default_rng(3)
        pts = geometry.sample_interior(P, 15, rng)
        ref_vals = chart.ref_problem.polytope.evaluate_all(
            chart.to_reference(pts))
        assert np.allclose(ref_vals, P.evaluate_all(pts), atol=1e-10)

    def test_box_chart_parallelogram(self):
        P = geometry.build_polytope([
            geometry.AffineFunctional([0.0, 1.0], 0.0),
            geometry.AffineFunctional([0.0, -1.0], -2.0),
            geometry.AffineFunctional([2.0, -1.0], 0.0),
            geometry.AffineFunctional([-2.0, 1.0], -4.0),
        ])
        prob = GuilleminProblem(P, guillemin.DensitySpec.constant(1.0), 0.0)
        chart = solver.GridChart(prob, m=5)
        assert chart.kind == "box"
        ref = chart.to_reference(P.vertices)
        got = {tuple(np.round(r, 12)) for r in ref}
        assert got == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)}
        rng = np.random.default_rng(4)
        pts = geometry.sample_interior(P, 15, rng)
        ref_vals = chart.ref_problem.polytope.evaluate_all(
            chart.to_reference(pts))
        assert np.allclose(ref_vals, P.evaluate_all(pts), atol=1e-10)

    def test_chart_counts_simplex(self):
        prob = simplex2d_problem()
        chart = solver.GridChart(prob, m=5)
        assert len(chart.nodes) == 15
        assert len(chart.interior) == 3
        assert np.isclose(chart.delta, 0.25)

    def test_chart_counts_box(self):
        prob = square_problem()
        chart = solver.GridChart(prob, m=5)
        assert len(chart.nodes) == 25
        assert len(chart.interior) == 9

    def test_chart_interval(self):
        prob = interval_problem(lambda t: np.ones(np.shape(t)[:-1]),
                                lo=2.0, hi=5.0)
        chart = solver.GridChart(prob, m=9)
        assert chart.kind == "simplex"
        assert len(chart.nodes) == 9
        assert len(chart.interior) == 7
        x = chart.to_problem(chart.nodes)
        assert np.isclose(x.min(), 2.0)
        assert np.isclose(x.max(), 5.0)

    def test_chart_rejects_trapezoid(self):
        with pytest.raises(ChartTooLarge):
            solver.GridChart(trapezoid_problem(), m=5)

    def test_chart_rejects_square_frustum(self):
        # box counts (2n facets, 2^n simple vertices), but the slanted
        # sides are not an antiparallel pair, like the trapezoid's
        frustum = geometry.build_polytope(
            [geometry.AffineFunctional([0.0, 0.0, 1.0], 0.0),
             geometry.AffineFunctional([0.0, 0.0, -1.0], -1.0)]
            + [geometry.AffineFunctional(s * e + [0.0, 0.0, -0.5],
                                         0.0 if s > 0 else -2.0)
               for e in np.eye(3)[:2] for s in (1.0, -1.0)])
        assert len(frustum.facets) == 6 and len(frustum.vertices) == 8
        assert geometry.is_simple(frustum)[0]
        prob = GuilleminProblem(frustum, guillemin.DensitySpec.constant(1.0),
                                0.0)
        with pytest.raises(ChartTooLarge):
            solver.GridChart(prob, m=5)

    def test_chart_rejects_pentagon(self):
        fs = []
        for k in range(5):
            a = 2.0 * np.pi * k / 5.0
            fs.append(geometry.AffineFunctional([np.cos(a), np.sin(a)], -1.0))
        P = geometry.build_polytope(fs)
        prob = GuilleminProblem(P, guillemin.DensitySpec.constant(1.0), 0.0)
        with pytest.raises(ChartTooLarge):
            solver.GridChart(prob, m=5)

    @staticmethod
    def reference_lattice(kind, n, m):
        """Per-node lattice with tuple-keyed lookups, in product order."""
        idx = [t for t in itertools.product(range(m), repeat=n)
               if kind == "box" or sum(t) <= m - 1]
        if kind == "simplex":
            interior = [k for k, t in enumerate(idx)
                        if min(t) >= 1 and sum(t) <= m - 2]
        else:
            interior = [k for k, t in enumerate(idx)
                        if min(t) >= 1 and max(t) <= m - 2]
        boundary_ids = sorted(set(range(len(idx))) - set(interior))
        pos = {t: k for k, t in enumerate(idx)}
        offsets = [(0,) * n]
        for a in range(n):
            e = [0] * n
            e[a] = 1
            offsets.extend([tuple(e), tuple(-x for x in e)])
        for a, c in itertools.combinations(range(n), 2):
            e = [0] * n
            e[a], e[c] = 1, -1
            offsets.extend([tuple(e), tuple(-x for x in e)])
        nb = [[pos[tuple(x + o for x, o in zip(idx[k], off))]
               for off in offsets] for k in interior]
        return np.array(idx), interior, boundary_ids, np.array(offsets), nb

    @pytest.mark.parametrize("kind, n", [("simplex", 2), ("box", 2),
                                         ("simplex", 3), ("box", 3)])
    def test_lattice_matches_reference(self, kind, n):
        make = {("simplex", 2): simplex2d_problem, ("box", 2): square_problem,
                ("simplex", 3): simplex3d_problem, ("box", 3): cube_problem}
        prob = make[kind, n]()
        for m in range(3, 10):
            idx, interior, bdry, offsets, nb = \
                self.reference_lattice(kind, n, m)
            if not interior:
                # the 2-D simplex at m=3 and the 3-D simplex at m<=4
                with pytest.raises(ValidationError):
                    solver.GridChart(prob, m=m)
                continue
            chart = solver.GridChart(prob, m=m)
            assert chart.kind == kind
            assert np.array_equal(np.rint(chart.nodes * (m - 1)), idx)
            # interior nodes come in nested-dissection order; back in
            # product order they and their stencils are the reference's
            lex = np.argsort(chart.interior)
            assert np.array_equal(chart.interior[lex], interior)
            assert np.array_equal(chart.boundary, bdry)
            assert np.array_equal(chart.offsets, offsets)
            assert np.array_equal(chart.stencil.neighbors[:, lex].T, nb)

    def test_oversized_grid_rejected_before_allocation(self, monkeypatch):
        def no_lattice(*args):
            raise AssertionError("lattice built before the size guard")

        monkeypatch.setattr(solver, "_lattice", no_lattice)
        with pytest.raises(ChartTooLarge):
            solver.GridChart(square_problem(), m=10 ** 6)
        with pytest.raises(ChartTooLarge):
            solver.GridChart(simplex3d_problem(), m=2 ** 8)


class TestAssembleResidual:
    def test_zero_field_guillemin_simplex(self):
        prob = simplex2d_problem()
        chart = solver.GridChart(prob, m=17)
        v = np.zeros(len(chart.nodes))
        R, flagged = solver.assemble_residual(v, prob, chart)
        assert flagged.size == 0
        assert np.max(np.abs(R)) <= 1e-11

    def test_zero_field_guillemin_square(self):
        prob = square_problem()
        chart = solver.GridChart(prob, m=17)
        v = np.zeros(len(chart.nodes))
        R, flagged = solver.assemble_residual(v, prob, chart)
        assert flagged.size == 0
        assert np.max(np.abs(R)) <= 1e-11

    def test_quadratic_square_product_density(self):
        # u = |x|^2/2 with h = prod l solves the equation but its regular
        # part v = u - sum l log l is log singular at the boundary, so the
        # discrete residual is only small away from the boundary and
        # shrinks at second order under refinement
        def hprod(x):
            x = np.asarray(x, dtype=float)
            out = np.prod(square_problem().polytope.evaluate_all(x), axis=-1)
            return out if out.ndim else float(out)

        prob = square_problem(guillemin.DensitySpec.from_callable(hprod))
        deep = {}
        for m in (17, 33):
            chart = solver.GridChart(prob, m=m)
            x = chart.to_problem(chart.nodes)
            v = 0.5 * np.sum(x * x, axis=-1) \
                - guillemin.potential_values(prob.polytope, x)
            R, flagged = solver.assemble_residual(v, prob, chart)
            ell = prob.polytope.evaluate_all(x[chart.interior])
            mask = np.min(ell, axis=-1) >= 0.4
            assert mask.any()
            deep[m] = np.max(np.abs(R[mask]))
            if flagged.size:
                near = prob.polytope.evaluate_all(x[flagged])
                assert np.max(np.min(near, axis=-1)) < 0.1
        assert deep[17] <= 0.05
        assert deep[33] <= 0.35 * deep[17]

    def test_flags_on_concave_spike(self):
        prob = simplex2d_problem()
        chart = solver.GridChart(prob, m=17)
        x = chart.to_problem(chart.nodes)
        center = prob.polytope.vertices.mean(axis=0)
        v = -5.0 * np.sum((x - center) ** 2, axis=-1)
        R, flagged = solver.assemble_residual(v, prob, chart)
        assert flagged.size > 0
        pos = {int(i) for i in flagged}
        for k, node in enumerate(chart.interior):
            if int(node) in pos:
                assert np.isnan(R[k])

    @pytest.mark.parametrize("kind,n", [(k, n) for n in (2, 3, 4)
                                         for k in ("simplex", "box")])
    def test_jacobian_matches_fd(self, kind, n):
        # n >= 3 brings the mixed stencils of every axis pair into play
        prob = unit_problem(kind, n)
        chart = solver.GridChart(prob, m=7)
        rng = np.random.default_rng(7)
        v = np.zeros(len(chart.nodes))
        v[chart.interior] = 0.003 * rng.standard_normal(len(chart.interior))
        R0, flagged = solver.assemble_residual(v, prob, chart)
        assert flagged.size == 0
        J = solver._jacobian_matrix(chart, v)
        eps = 1e-7
        K = len(chart.interior)
        for k in rng.choice(K, size=min(8, K), replace=False):
            node = chart.interior[k]
            vp = v.copy()
            vp[node] += eps
            vm = v.copy()
            vm[node] -= eps
            Rp, _ = solver.assemble_residual(vp, prob, chart)
            Rm, _ = solver.assemble_residual(vm, prob, chart)
            col_fd = (Rp - Rm) / (2 * eps)
            col = np.asarray(J[:, k].todense()).ravel()
            assert np.allclose(col, col_fd, atol=1e-5 * (1 + np.abs(col).max()))

    @staticmethod
    def quadratic_case(kind, n, m, scale):
        """Chart, v = -(xi - c)^t B (xi - c)/2 on every node, and S - B.

        Second differences of a quadratic are exact, so the discrete
        Hessian is S - B with S = sum_j n_j n_j^t / l_j in closed form.
        """
        chart = solver.GridChart(unit_problem(kind, n), m=m)
        xi = chart.nodes
        c = xi[chart.interior].mean(axis=0)
        B = scale * np.diag(4.0 ** -np.arange(n))
        v = -0.5 * np.einsum("ka,ab,kb->k", xi - c, B, xi - c)
        Q = chart.ref_problem.polytope
        ell = Q.evaluate_all(xi[chart.interior])
        S = np.einsum("kj,ja,jb->kab", 1.0 / ell, Q.normals, Q.normals)
        return chart, v, S - B

    @pytest.mark.parametrize("scale", [5.0, 100.0])
    @pytest.mark.parametrize("kind,n,m", [
        ("simplex", 2, 17), ("box", 2, 17), ("simplex", 3, 9), ("box", 3, 9),
        ("simplex", 4, 9), ("box", 4, 7)])
    def test_flags_every_non_positive_definite_hessian(self, kind, n, m,
                                                       scale):
        # at scale 100 every chart has nodes with an even number of
        # negative eigenvalues, which a sign test on det alone passes; at
        # scale 5 definite and indefinite nodes mix
        chart, v, H = self.quadratic_case(kind, n, m, scale)
        lowest = np.linalg.eigvalsh(H)[:, 0]
        assert np.min(np.abs(lowest)) > 1e-3
        assert np.sum(lowest <= 0) >= 5
        R, flagged = solver.assemble_residual(v, chart.problem, chart)
        assert np.array_equal(flagged, chart.interior[lowest <= 0])
        assert np.array_equal(np.isnan(R), lowest <= 0)
        assert np.allclose(R[lowest > 0], np.linalg.slogdet(H[lowest > 0])[1]
                           - chart.rhslog[lowest > 0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind,n", [(k, n) for n in (2, 3, 4)
                                         for k in ("simplex", "box")])
    def test_stencil_reproduces_quadratic_hessians(self, kind, n):
        chart, v, H = self.quadratic_case(kind, n, 7, 5.0)
        M = np.moveaxis(chart.stencil.matrices(v), -1, 0)
        assert np.max(np.abs(M - H)) <= 1e-9 * np.max(np.abs(H))


def coo_jacobian(stencil, G):
    """Reference Jacobian: node-major weights assembled from triplets.

    ``G`` is the (K, n, n) stack of derivatives in M; the weights
    tr(G coeffs_o) are summed node by node and offset by offset, and
    scipy converts the (row, column, value) triplets to CSC.
    """
    C = stencil.coeffs
    C = np.moveaxis(C[..., None] if C.ndim == 3 else C, (2, 3), (1, 0))
    K, O = stencil.neighbors.T.shape
    w = np.broadcast_to(np.einsum("kab,koba->ko", G, C), (K, O))
    cols = stencil.columns[stencil.neighbors.T]
    keep = cols >= 0
    return sp.csc_matrix((w[keep], (np.nonzero(keep)[0], cols[keep])),
                         shape=(K, K))


def assert_same_jacobian(J, ref):
    assert J.indices.dtype == J.indptr.dtype == np.int32
    assert np.array_equal(J.indptr, ref.indptr)
    assert np.array_equal(J.indices, ref.indices)
    assert np.max(np.abs(J.data - ref.data)) <= \
        1e-14 * np.max(np.abs(ref.data))


class TestKernels:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_inverses_match_lapack(self, n):
        rng = np.random.default_rng(n)
        A = rng.standard_normal((500, n, n))
        H = A @ np.swapaxes(A, 1, 2) + 0.1 * np.eye(n)
        ref = np.linalg.inv(H)
        got = np.moveaxis(solver.inverses(np.moveaxis(H, 0, -1)), -1, 0)
        scale = np.max(np.abs(ref), axis=(1, 2))
        assert np.all(np.max(np.abs(got - ref), axis=(1, 2))
                      <= 1e-12 * scale)

    @pytest.mark.parametrize("kind,n", [(k, n) for n in (2, 3, 4)
                                         for k in ("simplex", "box")])
    def test_chart_jacobian_matches_coo_assembly(self, kind, n):
        chart = solver.GridChart(unit_problem(kind, n), m=7)
        rng = np.random.default_rng(5)
        v = np.zeros(len(chart.nodes))
        v[chart.interior] = 0.003 * rng.standard_normal(len(chart.interior))
        M = np.moveaxis(chart.stencil.matrices(v), -1, 0)
        assert_same_jacobian(solver._jacobian_matrix(chart, v),
                             coo_jacobian(chart.stencil, np.linalg.inv(M)))

    def test_model_jacobian_matches_coo_assembly(self):
        m = 9
        z1 = np.linspace(0.0, 1.0, m)
        z2 = np.linspace(-1.0, 1.0, m)
        Z1, Z2 = np.meshgrid(z1, z2, indexing="ij")
        nodes = np.indices((m - 1, m - 2)).reshape(2, -1).T + (0, 1)
        I, J = nodes[solver.dissection_order(nodes)].T
        stencil = legendre._model_stencil(z1, z2, I, J)
        rng = np.random.default_rng(3)
        V = 0.5 * Z2 ** 2 + 0.2 * Z1 ** 2 + 1e-3 * rng.standard_normal((m, m))
        M = np.moveaxis(stencil.matrices(V.ravel()), -1, 0)
        G = 0.5 * np.sqrt(np.linalg.det(M))[:, None, None] * np.linalg.inv(M)
        assert_same_jacobian(legendre._model_jacobian(V, stencil),
                             coo_jacobian(stencil, G))


def unit_problem(kind, n):
    """Reference simplex or unit box in dimension n, constant density."""
    fs = []
    for e in np.eye(n):
        fs.append(geometry.AffineFunctional(e, 0.0))
        if kind == "box":
            fs.append(geometry.AffineFunctional(-e, -1.0))
    if kind == "simplex":
        fs.append(geometry.AffineFunctional(-np.ones(n), -1.0))
    P = geometry.build_polytope(fs)
    return GuilleminProblem(P, guillemin.DensitySpec.constant(1.0), 0.0)


def polynomial_problem(kind, n, a=3.0):
    """Unit simplex or box with density 1 + a sum_i (x_i - x_i^2)."""
    coeffs = {(0,) * n: 1.0}
    for e in np.eye(n, dtype=int):
        coeffs[tuple(e)], coeffs[tuple(2 * e)] = a, -a
    return GuilleminProblem(
        unit_problem(kind, n).polytope,
        guillemin.DensitySpec.polynomial(coeffs, n), 0.0)


def lattice_solution(prob, m, f):
    """A RegularizedSolution holding f at every lattice node."""
    chart = solver.GridChart(prob, m=m)
    values = f(chart.to_problem(chart.nodes))
    return solver.RegularizedSolution(prob, chart, values, None)


class TestInterpolant:
    CASES = [(kind, n) for kind in ("simplex", "box") for n in (1, 2, 3)]

    @pytest.mark.parametrize("kind, n", CASES)
    def test_affine_data_reproduced(self, kind, n):
        rng = np.random.default_rng(n)
        prob = unit_problem(kind, n)
        c = rng.standard_normal(n)
        sol = lattice_solution(prob, 9, lambda x: x @ c + 0.3)
        x = rng.uniform(size=(2000, n))
        if kind == "simplex":
            x = x[x.sum(axis=1) <= 1.0]
        assert np.max(np.abs(sol.v(x) - (x @ c + 0.3))) <= 1e-14

    @pytest.mark.parametrize("kind, n", CASES)
    def test_lattice_node_values_returned(self, kind, n):
        prob = unit_problem(kind, n)
        sol = lattice_solution(prob, 9,
                               lambda x: np.exp(np.sum(x * x, axis=1)))
        assert np.array_equal(sol.v(sol.chart.to_problem(sol.chart.nodes)),
                              sol.values)

    @pytest.mark.parametrize("kind", ["simplex", "box"])
    def test_point_just_outside_an_edge_is_clipped(self, kind):
        # the lattice edge from (0, 1) to (d, 1 - d) on the hypotenuse of
        # the simplex, or from (0, 1) to (d, 1) on the top of the box
        prob = unit_problem(kind, 2)
        sol = lattice_solution(prob, 9, lambda x: np.sum(x * x, axis=1))
        d = sol.chart.delta
        a = np.array([0.0, 1.0])
        b = a + ([d, -d] if kind == "simplex" else [d, 0.0])
        normal = [1.0, 1.0] if kind == "simplex" else [0.0, 1.0]
        x = 0.5 * (a + b) + 0.1 * prob.polytope.tau * (
            np.array(normal) / np.linalg.norm(normal))
        expect = 0.5 * (np.sum(a * a) + np.sum(b * b))
        assert abs(sol.v(x) - expect) <= 1e-9

    @pytest.mark.parametrize("kind", ["simplex", "box"])
    def test_point_beyond_tau_raises(self, kind):
        prob = unit_problem(kind, 2)
        sol = lattice_solution(prob, 9, lambda x: np.sum(x * x, axis=1))
        x = np.array([0.5 * sol.chart.delta, -10.0 * prob.polytope.tau])
        with pytest.raises(OutsideDomain):
            sol.v(x)


class TestNewtonSolve:
    def test_simplex_guillemin_exact(self):
        prob = simplex2d_problem()
        sol, report = solver.newton_solve(prob, grid=33, tol=1e-10)
        assert report["converged"]
        assert report["iterations"] <= 3
        x = sol.chart.to_problem(sol.chart.nodes)
        exact = guillemin.potential_values(prob.polytope, x)
        err = np.abs(sol.u(x) - exact)
        assert np.max(err) <= 1e-9

    def test_square_guillemin_exact(self):
        prob = square_problem()
        sol, report = solver.newton_solve(prob, grid=17, tol=1e-10)
        assert report["converged"]
        x = sol.chart.to_problem(sol.chart.nodes)
        exact = guillemin.potential_values(prob.polytope, x)
        assert np.max(np.abs(sol.u(x) - exact)) <= 1e-9

    @staticmethod
    def start_flags(prob, data, m):
        """Flagged nodes of the harmonic lift and of the zero interior."""
        chart = solver.GridChart(prob, m)
        v = np.zeros(len(chart.nodes))
        v[chart.boundary] = data.v(
            chart.to_problem(chart.nodes[chart.boundary]))
        zero = solver.assemble_residual(v, prob, chart)[1]
        v[chart.interior] = solver._harmonic_lift(chart, v)
        return solver.assemble_residual(v, prob, chart)[1], zero

    def test_blend_convexifies_a_flagged_lift(self):
        # the harmonic lift of 5 x1^2 has a trace-free Hessian that
        # outweighs the singular part at 21 nodes, the zero interior
        # field fails next to the boundary at 5; a blend between the two
        # admits a start
        prob = square_problem()
        data = types.SimpleNamespace(v=lambda x: 5.0 * x[:, 0] ** 2)
        lifted, zero = self.start_flags(prob, data, 9)
        assert lifted.size > 0 and zero.size > 0
        sol, report = solver.newton_solve(prob, boundary=data, grid=9)
        assert report["converged"]
        R, flagged = solver.assemble_residual(sol.values, prob, sol.chart)
        assert flagged.size == 0 and np.max(np.abs(R)) <= 1e-10

    def test_unconvexifiable_start_raises(self):
        # boundary values this steep leave nodes next to the boundary
        # flagged even with a zero interior, so no blend helps
        prob = square_problem()
        data = types.SimpleNamespace(v=lambda x: 5.0 * np.exp(3.0 * x[:, 0]))
        lifted, zero = self.start_flags(prob, data, 9)
        assert lifted.size > 0 and zero.size > 0
        with pytest.raises(NonConvexIterate):
            solver.newton_solve(prob, boundary=data, grid=9)

    def test_interval_matches_edge_oracle(self):
        def hq(x):
            t = np.asarray(x, dtype=float)[..., 0]
            return 1.0 + t * (1.0 - t)

        prob = interval_problem(hq)
        profile = boundary.solve_edge(prob, tol=1e-12)
        sol, report = solver.newton_solve(prob, grid=1025, tol=1e-11)
        assert report["converged"]
        ts = sol.chart.to_problem(sol.chart.nodes)[sol.chart.interior]
        u_num = sol.u(ts)
        u_ora = np.array([profile.u(float(t[0])) for t in ts])
        assert np.max(np.abs(u_num - u_ora)) <= 1e-8

    def test_manufactured_density_consistency(self):
        # the polynomial extension used to manufacture the density must
        # agree with the direct interior formula det(D2 v + S) prod l
        prob = manufactured_problem()
        P = prob.polytope
        w = _MANUFACTURED_W
        rng = np.random.default_rng(11)
        for x in geometry.sample_interior(P, 20, rng):
            l = P.evaluate_all(x)
            s = _MANUFACTURED_C * np.exp(x @ w)
            A = s * np.outer(w, w)
            S = sum(np.outer(n, n) / li for n, li in zip(P.normals, l))
            direct = np.linalg.det(A + S) * np.prod(l)
            assert np.isclose(prob.density(x), direct, rtol=1e-10)

    def test_manufactured_order(self):
        prob = manufactured_problem()
        P = prob.polytope
        rng = np.random.default_rng(5)
        pts = geometry.sample_interior(P, 30, rng, margin=0.1)
        exact = manufactured_exact(P, pts)
        errs = {}
        for m in (9, 17, 33):
            sol, report = solver.newton_solve(prob, grid=m, tol=1e-11)
            assert report["converged"]
            errs[m] = float(np.max(np.abs(sol.u(pts) - exact)))
        order1 = np.log2(errs[9] / errs[17])
        order2 = np.log2(errs[17] / errs[33])
        assert order1 >= 1.5
        assert order2 >= 1.5
        assert errs[33] <= 5e-3

    def test_comparison_principle(self):
        base = simplex2d_problem()
        pert = simplex2d_problem(
            guillemin.DensitySpec.perturbed(base.polytope, 2.7))
        sol1, _ = solver.newton_solve(base, grid=17, tol=1e-11)
        sol2, _ = solver.newton_solve(pert, grid=17, tol=1e-11)
        x = sol1.chart.to_problem(sol1.chart.nodes[sol1.chart.interior])
        u1 = sol1.u(x)
        u2 = sol2.u(x)
        assert np.max(u2 - u1) <= 1e-9
        # the perturbation is not trivial
        assert np.min(u2 - u1) <= -1e-4

    def test_affine_equivariance(self):
        M = np.array([[2.0, 1.0], [0.0, 1.0]])
        b = np.array([0.3, -0.2])
        base = simplex2d_problem(
            guillemin.DensitySpec.perturbed(simplex2d_problem().polytope, 2.7))
        image = base.transform(np.linalg.inv(M), -np.linalg.inv(M) @ b)
        # base lives in x, image in y = M x + b
        sol1, _ = solver.newton_solve(base, grid=17, tol=1e-11)
        sol2, _ = solver.newton_solve(image, grid=17, tol=1e-11)
        nodes = sol1.chart.to_problem(sol1.chart.nodes[sol1.chart.interior])
        take = nodes[:: max(1, len(nodes) // 20)][:20]
        u1 = sol1.u(take)
        u2 = sol2.u(take @ M.T + b)
        assert np.max(np.abs(u1 - u2)) <= 1e-8

    def test_nonconvergence_flag(self):
        prob = manufactured_problem()
        sol, report = solver.newton_solve(prob, grid=17, tol=1e-13,
                                          max_iter=1)
        assert not report["converged"]
        assert sol is not None

    def test_factor_reuse_matches_plain_newton(self):
        # plain damped Newton with a fresh sparse solve every step; the
        # solver's chord steps must land on the same discrete solution
        a = 3.0
        h = guillemin.DensitySpec.polynomial(
            {(0, 0): 1.0, (1, 0): a, (2, 0): -a, (0, 1): a, (0, 2): -a}, 2)
        prob = square_problem(h)
        sol, report = solver.newton_solve(prob, grid=65, tol=1e-12)
        assert report["converged"]
        assert report["factorizations"] < report["iterations"]
        assert report["line_search_total"] >= report["iterations"]

        chart = sol.chart
        v = sol.values.copy()
        v[chart.interior] = solver._harmonic_lift(chart, v)
        R, flagged = solver.assemble_residual(v, prob, chart)
        assert flagged.size == 0
        norm = np.max(np.abs(R))
        for _ in range(30):
            if norm <= 1e-12:
                break
            step = spsolve(solver._jacobian_matrix(chart, v), -R)
            lam = 1.0
            while lam > 2.0 ** -31:
                vt = v.copy()
                vt[chart.interior] += lam * step
                Rt, fl = solver.assemble_residual(vt, prob, chart)
                if fl.size == 0 and \
                        np.max(np.abs(Rt)) <= (1.0 - 0.25 * lam) * norm:
                    break
                lam *= 0.5
            v, R, norm = vt, Rt, np.max(np.abs(Rt))
        assert norm <= 1e-12
        assert np.max(np.abs(sol.values - v)) <= 1e-11

    def test_singular_jacobian_raises(self, monkeypatch):
        def singular(chart, v):
            K = len(chart.interior)
            return sp.csc_matrix((K, K))

        monkeypatch.setattr(solver, "_jacobian_matrix", singular)
        with pytest.raises(SingularJacobian):
            solver.newton_solve(manufactured_problem(), grid=9, tol=1e-11)

    @pytest.mark.parametrize("admissible", [True, False])
    def test_driver_stall_says_whether_trials_left_the_cone(self,
                                                            admissible):
        # a residual no step can reduce: every trial is rejected
        def residual(x):
            return np.ones(2), admissible

        def jacobian(x):
            return sp.identity(2, format="csc")

        with pytest.raises(LineSearchStall) as err:
            solver.damped_newton(residual, jacobian, np.zeros(2),
                                 np.ones(2), 1e-10, 5)
        assert ("every trial left" in str(err.value)) != admissible

    def test_slower_chord_step_is_kept(self, monkeypatch):
        # the box polynomial problem takes chord steps that lower the
        # residual less than fourfold; keeping them saves steps and
        # trials, and costs no factorization
        prob = polynomial_problem("box", 2)
        bd = types.SimpleNamespace(v=lambda x: 0.04 * np.exp(x @ [1.0, 2.0]))
        _, report = solver.newton_solve(prob, boundary=bd, grid=65,
                                        tol=1e-10)
        monkeypatch.setattr(solver, "damped_newton", discarding_newton)
        _, ref = solver.newton_solve(prob, boundary=bd, grid=65, tol=1e-10)
        assert report["converged"] and ref["converged"]
        assert report["iterations"] < ref["iterations"]
        assert report["line_search_total"] < ref["line_search_total"]
        assert report["factorizations"] <= ref["factorizations"]

    def test_one_solve_per_chord_trial(self, monkeypatch):
        # the factors splu returns take two solves for the Newton step
        # right after a factorization (one refining sweep) and one per
        # chord trial, whose stale Jacobian errs far more than float32
        events, factor, evaluate = [], solver.splu, solver.assemble_residual

        class Factors:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, b):
                events.append("s")
                return self.lu.solve(b)

        def spy_splu(*args, **kwargs):
            events.append("F")
            return Factors(factor(*args, **kwargs))

        def spy_residual(*args):
            events.append("r")
            return evaluate(*args)

        monkeypatch.setattr(solver, "splu", spy_splu)
        monkeypatch.setattr(solver, "assemble_residual", spy_residual)
        prob = polynomial_problem("box", 2)
        bd = types.SimpleNamespace(v=lambda x: 0.04 * np.exp(x @ [1.0, 2.0]))
        _, report = solver.newton_solve(prob, boundary=bd, grid=65,
                                        tol=1e-10)
        log = "".join(events)
        # the start's residual, then Newton steps with their line
        # searches, and chord trials
        assert re.fullmatch(r"r(Fssr+|sr)*", log), log
        assert log.count("F") == report["factorizations"]
        assert log.count("r") == report["line_search_total"] + 1
        assert report["converged"]
        assert log.count("s") > 2 * report["factorizations"], log

    @pytest.mark.parametrize("kind", ["box", "simplex"])
    @pytest.mark.parametrize("refined", [True, False],
                             ids=["refined", "unrefined-twin"])
    def test_single_precision_step_is_refined(self, monkeypatch, kind,
                                              refined):
        # the first Newton step at the harmonic lift against a float64
        # solve: one sweep is within 1e-8 (about 1e-10); a driver without
        # it reads the float32 error, about 4e-6, and must fail the bound
        if not refined:
            monkeypatch.setattr(solver, "_refined_solve", lambda lu, J, b:
                                lu.solve(b.astype(np.float32)).astype(float))
        prob = polynomial_problem(kind, 2)
        bd = types.SimpleNamespace(v=lambda x: 0.04 * np.exp(x @ [1.0, 2.0]))
        seen = first_newton_step(monkeypatch, prob, bd, 129)
        exact = splu(seen["J"], permc_spec="NATURAL").solve(-seen["R"])
        err = np.max(np.abs(seen["step"] - exact)) / np.max(np.abs(exact))
        assert (err <= 1e-8) == refined, err

    def test_solve_face_on_simplex3d_facet(self):
        prob = simplex3d_problem()
        res = boundary.restrict_problem(prob, (3,))
        bd = boundary.build_boundary_data(res.problem)
        sol, _ = solver.newton_solve(res.problem, boundary=bd, grid=17)
        face = res.problem.polytope
        rng = np.random.default_rng(9)
        pts = geometry.sample_interior(face, 20, rng, margin=0.05)
        exact = guillemin.potential_values(face, pts)
        assert np.max(np.abs(sol.u(pts) - exact)) <= 1e-8


class _FirstTrial(Exception):
    pass


def first_newton_step(monkeypatch, prob, bd, m):
    """The first step ``newton_solve`` tries, its Jacobian and residual.

    The driver runs as the solver calls it, and is stopped at its first
    trial, which is the full Newton step from the start.
    """
    seen, driver = {}, solver.damped_newton

    def spy(residual, jacobian, x, R, tol, max_iter):
        def recorded(x):
            seen["J"] = jacobian(x)
            return seen["J"]

        def stop(xt):
            seen["step"] = xt - x
            raise _FirstTrial

        seen["R"] = R
        return driver(stop, recorded, x, R, tol, max_iter)

    monkeypatch.setattr(solver, "damped_newton", spy)
    with pytest.raises(_FirstTrial):
        solver.newton_solve(prob, boundary=bd, grid=m)
    return seen


def discarding_newton(residual, jacobian, x, R, tol, max_iter):
    """Reference driver that drops a chord step cutting less than 4x.

    The factors are then refreshed at the step's start, as
    :func:`solver.damped_newton` did before it kept such steps.
    """
    norm = np.max(np.abs(R))
    iterations = trials = factorizations = 0
    lu = None
    while norm > tol and iterations < max_iter:
        if lu is not None:
            xt = x + lu.solve(-R)
            Rt, ok = residual(xt)
            trials += 1
            if ok and np.max(np.abs(Rt)) <= 0.25 * norm:
                x, R, norm = xt, Rt, np.max(np.abs(Rt))
                iterations += 1
                continue
        lu = splu(jacobian(x), permc_spec="NATURAL")
        factorizations += 1
        step = lu.solve(-R)
        lam = 1.0
        while True:
            assert lam >= 2.0 ** -31
            xt = x + lam * step
            Rt, ok = residual(xt)
            trials += 1
            if ok and np.max(np.abs(Rt)) <= \
                    (1.0 - 0.25 * lam) * norm + 1e-14 * (1.0 + norm):
                break
            lam *= 0.5
        x, R, norm = xt, Rt, np.max(np.abs(Rt))
        iterations += 1
    return x, norm, iterations, trials, factorizations


def reference_lift(chart, v):
    """Sparse Dirichlet Laplace system (A, rhs) for the interior values.

    The (2n+1)-point Laplacian is assembled here from integer lattice
    coordinates, with the boundary values v moved to the right hand side;
    ``spsolve(A, rhs)`` is the harmonic lift.
    """
    m = chart.m
    n = chart.nodes.shape[1]
    idx = np.round(chart.nodes * (m - 1)).astype(int)
    ids = np.full((m,) * n, -1)
    ids[tuple(idx.T)] = np.arange(len(idx))
    K = len(chart.interior)
    row = np.full(len(idx), -1)
    row[chart.interior] = np.arange(K)
    d2 = chart.delta ** 2
    rows, cols, data = [np.arange(K)], [np.arange(K)], [np.full(K, -2.0 * n
                                                                / d2)]
    rhs = np.zeros(K)
    for a in range(n):
        for s in (1, -1):
            nb = idx[chart.interior].copy()
            nb[:, a] += s
            j = ids[tuple(nb.T)]
            inside = row[j] >= 0
            rows.append(np.nonzero(inside)[0])
            cols.append(row[j[inside]])
            data.append(np.full(int(inside.sum()), 1.0 / d2))
            rhs[~inside] -= v[j[~inside]] / d2
    A = sp.csc_matrix((np.concatenate(data),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(K, K))
    return A, rhs


def _lift_cases():
    for kind, n, m in itertools.product(("box", "simplex"), (1, 2, 3),
                                        (3, 4, 5, 8, 9, 17, 33)):
        # interior nodes need m >= n + 2 on the simplex; the 31^3 box is
        # checked by its residual below, a direct solve takes seconds
        if (kind == "simplex" and m < n + 2) or (kind, n, m) == ("box", 3,
                                                                 33):
            continue
        yield kind, n, m


class TestHarmonicLift:
    @pytest.mark.parametrize("shape", [(1,), (7,), (64,), (7, 7),
                                       (127, 127), (5, 9), (15, 15, 15),
                                       (3, 6, 4)])
    def test_sine_transform_equals_scipy(self, shape):
        x = np.random.default_rng(len(shape) * 1000 + shape[0]) \
            .standard_normal(shape)
        ref = dstn(x, type=1)
        ours = solver._dst1(x)
        assert ours.shape == shape
        assert np.max(np.abs(ours - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("kind,n,m", list(_lift_cases()))
    def test_matches_sparse_solve(self, kind, n, m):
        chart = solver.GridChart(unit_problem(kind, n), m=m)
        rng = np.random.default_rng(1000 * n + m)
        v = rng.standard_normal(len(chart.nodes))
        A, rhs = reference_lift(chart, v)
        ref = spsolve(A, rhs)
        lift = solver._harmonic_lift(chart, v)
        assert np.max(np.abs(lift - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_box3_residual(self):
        chart = solver.GridChart(unit_problem("box", 3), m=33)
        v = np.random.default_rng(3).standard_normal(len(chart.nodes))
        A, rhs = reference_lift(chart, v)
        lift = solver._harmonic_lift(chart, v)
        d2 = chart.delta ** 2
        assert np.max(np.abs(A @ lift - rhs)) * d2 <= 1e-12 * \
            np.max(np.abs(v))

    @pytest.mark.parametrize("kind", ["box", "simplex"])
    def test_newton_unchanged_with_reference_lift(self, kind, monkeypatch):
        if kind == "simplex":
            prob = manufactured_problem()
        else:
            prob = square_problem(guillemin.DensitySpec.polynomial(
                {(0, 0): 1.0, (1, 0): 3.0, (2, 0): -3.0, (0, 1): 3.0,
                 (0, 2): -3.0}, 2))
        # smooth nonzero boundary data, so the start is not the zero field
        bd = types.SimpleNamespace(
            v=lambda x: _MANUFACTURED_C * np.exp(x @ _MANUFACTURED_W))
        sol, report = solver.newton_solve(prob, boundary=bd, grid=65,
                                          tol=1e-11)
        monkeypatch.setattr(solver, "_harmonic_lift",
                            lambda chart, v: spsolve(*reference_lift(chart,
                                                                     v)))
        ref, ref_report = solver.newton_solve(prob, boundary=bd, grid=65,
                                              tol=1e-11)
        assert report["converged"] and ref_report["converged"]
        assert report["iterations"] == ref_report["iterations"]
        assert report["factorizations"] == ref_report["factorizations"]
        assert np.max(np.abs(sol.values - ref.values)) <= 1e-13


def lex_mmd_splu(perm):
    """``splu`` stand-in that factors in the order ``perm`` with MMD.

    With ``perm`` the lexicographic order of the unknowns, this is the
    reference for the nested-dissection factor: minimum degree on
    A + A^T of the lexicographically ordered matrix.
    """
    inv = np.argsort(perm)

    def factor(A, permc_spec):
        lu = splu(sp.csc_matrix(A[perm][:, perm]),
                  permc_spec="MMD_AT_PLUS_A")
        return types.SimpleNamespace(solve=lambda b: lu.solve(b[perm])[inv])
    return factor


class TestDissectionOrder:
    @pytest.mark.parametrize("kind, n, m", [
        (kind, n, m) for kind in ("simplex", "box") for n in (1, 2, 3, 4)
        for m in (3, 4, 5, 8, 9, 17)])
    def test_permutation(self, kind, n, m):
        idx, interior, _ = solver._lattice(kind, n, m)
        for rows in (idx, idx[interior]):
            if len(rows) == 0:
                continue
            order = solver.dissection_order(rows)
            assert np.array_equal(np.sort(order), np.arange(len(rows)))

    @pytest.mark.parametrize("n, m", [(1, 9), (2, 17), (3, 9), (4, 5)])
    def test_halves_before_their_separator(self, n, m):
        # the middle hyperplane of axis 0 comes last, after the nodes
        # below it and then the nodes above it; recursively, the middle
        # hyperplane of axis 1 closes the lower half
        rows = solver._lattice("box", n, m)[0]
        ordered = rows[solver.dissection_order(rows)]
        mid, half = (m - 1) // 2, (m - 1) // 2 * m ** (n - 1)
        assert np.all(ordered[:half, 0] < mid)
        assert np.all(ordered[half:, 0] >= mid)
        assert np.all(ordered[len(rows) - m ** (n - 1):, 0] == mid)
        if n > 1:
            assert np.all(ordered[half - mid * m ** (n - 2):half, 1] == mid)

    @pytest.mark.parametrize("kind, n, m", [("box", 2, 65), ("box", 3, 17),
                                            ("simplex", 3, 17),
                                            ("box", 4, 9)])
    def test_fill_at_most_minimum_degree(self, kind, n, m):
        # a quadratic field with a full Hessian gives every stencil
        # offset a nonzero weight, as on the iterates of a solve
        chart = solver.GridChart(unit_problem(kind, n), m=m)
        B = np.eye(n) + 0.5
        v = 0.5 * np.einsum("ka,ab,kb->k", chart.nodes, B, chart.nodes)
        J = solver._jacobian_matrix(chart, v)
        lu = splu(J, permc_spec="NATURAL")
        lex = np.argsort(chart.interior)
        ref = splu(sp.csc_matrix(J[lex][:, lex]), permc_spec="MMD_AT_PLUS_A")
        assert lu.L.nnz + lu.U.nnz <= ref.L.nnz + ref.U.nnz

    @pytest.mark.parametrize("kind, n, m", [("box", 2, 65),
                                            ("simplex", 2, 65),
                                            ("box", 3, 17)])
    def test_newton_matches_minimum_degree_factors(self, kind, n, m,
                                                   monkeypatch):
        prob = polynomial_problem(kind, n)
        w = np.linspace(1.0, 2.0, n)
        bd = types.SimpleNamespace(v=lambda x: 0.04 * np.exp(x @ w))
        sol, report = solver.newton_solve(prob, boundary=bd, grid=m,
                                          tol=1e-11)
        lex = np.argsort(solver.GridChart(prob, m=m).interior)
        monkeypatch.setattr(solver, "splu", lex_mmd_splu(lex))
        ref, ref_report = solver.newton_solve(prob, boundary=bd, grid=m,
                                              tol=1e-11)
        assert report["converged"] and ref_report["converged"]
        for key in ("iterations", "line_search_total", "factorizations"):
            assert report[key] == ref_report[key]
        assert np.max(np.abs(sol.values - ref.values)) <= 1e-12

    def test_model_matches_minimum_degree_factors(self, monkeypatch):
        def h(x):
            x = np.asarray(x, dtype=float)
            return 1.0 + 3.0 * x[..., 0] + 0.75 * x[..., 1] ** 2

        def trace(x):
            x = np.asarray(x, dtype=float)
            return 0.5 * x[..., 1] ** 2

        m = 65
        sol, report = legendre.model_solve_z(h, trace, grid=m, tol=1e-12)
        nodes = np.indices((m - 1, m - 2)).reshape(2, -1).T + (0, 1)
        I, J = nodes[solver.dissection_order(nodes)].T
        monkeypatch.setattr(solver, "splu", lex_mmd_splu(np.argsort(
            I * m + J)))
        ref, ref_report = legendre.model_solve_z(h, trace, grid=m, tol=1e-12)
        assert report["converged"] and ref_report["converged"]
        for key in ("iterations", "line_search_total", "factorizations"):
            assert report[key] == ref_report[key]
        assert np.max(np.abs(sol.values - ref.values)) <= 1e-12
