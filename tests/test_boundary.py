import itertools
import json

import numpy as np
import pytest
from scipy import integrate

import gma.solver
from gma import boundary, cli, geometry, guillemin
from gma.errors import (IncompatibleEndpoint, InconsistentTraces,
                        MissingTrace, NonSimpleVertex, NotAFace,
                        OutsideDomain, QuadratureFailure, SolverError)
from gma.problem import GuilleminProblem


def simplex2d_problem(density=None, alpha=0.0):
    P = geometry.build_polytope([
        geometry.AffineFunctional([1.0, 0.0], 0.0),
        geometry.AffineFunctional([0.0, 1.0], 0.0),
        geometry.AffineFunctional([-1.0, -1.0], -1.0),
    ])
    h = density if density is not None else guillemin.DensitySpec.guillemin(P)
    return GuilleminProblem(P, h, alpha)


def large_simplex_problem():
    # x, y >= 0, x + y <= 1e6 with its induced density
    P = geometry.build_polytope([
        geometry.AffineFunctional([1.0, 0.0], 0.0),
        geometry.AffineFunctional([0.0, 1.0], 0.0),
        geometry.AffineFunctional([-1.0, -1.0], -1e6),
    ])
    return GuilleminProblem(P, guillemin.DensitySpec.guillemin(P), 0.0)


def square_problem():
    P = geometry.build_polytope([
        geometry.AffineFunctional([1.0, 0.0], 0.0),
        geometry.AffineFunctional([-1.0, 0.0], -1.0),
        geometry.AffineFunctional([0.0, 1.0], 0.0),
        geometry.AffineFunctional([0.0, -1.0], -1.0),
    ])
    return GuilleminProblem(P, guillemin.DensitySpec.guillemin(P), 0.0)


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


_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)


def edge_integrand(problem):
    """The interval ends and q of w'' = q, at points s: (q, ab, h).

    q is split at the endpoints: u = w + c_a a log a + c_b b log b, with
    c_a and c_b the density at each vertex over its compatible value, so
    the numerator of q vanishes at both ends.
    """
    P = problem.polytope
    coords = P.vertices[:, 0]
    i_lo, i_hi = int(np.argmin(coords)), int(np.argmax(coords))
    t_lo, t_hi = float(coords[i_lo]), float(coords[i_hi])
    f0, f1 = P.facets
    a, b = (f0, f1) if abs(float(f0(P.vertices[i_lo]))) <= P.tau else (f1, f0)
    a_slope, b_slope = float(a.normal[0]), float(b.normal[0])
    h_lo, h_hi = np.broadcast_to(
        problem.density(np.array([[t_lo], [t_hi]])), (2,))
    c_a = h_lo / (b_slope * (t_lo - t_hi) * a_slope ** 2)
    c_b = h_hi / (a_slope * (t_hi - t_lo) * b_slope ** 2)

    def q(s):
        av = a_slope * (s - t_lo)
        bv = b_slope * (s - t_hi)
        den = av * bv
        hs = np.asarray(problem.density(s[:, None]), dtype=float)
        bad = den <= 0.0
        qs = np.where(bad, 0.0,
                      (hs - c_a * a_slope ** 2 * bv - c_b * b_slope ** 2 * av)
                      / np.where(bad, 1.0, den))
        return qs, den, hs

    return t_lo, t_hi, q


def recursive_edge_panels(problem, tol):
    """Depth-first panel refinement of solve_edge, kept as the reference.

    Starting from the whole edge, each panel is integrated whole and in
    halves with its own density call, and a rejected panel recurses into
    its left half before its right one.  Returns starts, ends and the
    cumulative moments.
    """
    t_lo, t_hi, q = edge_integrand(problem)
    L = t_hi - t_lo
    eps = np.finfo(float).eps

    def panel(lo, hi):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        s = mid + half * _NODES
        qs, den, hs = q(s)
        bad = den <= 0.0
        dmin = float(np.min(np.abs(den[~bad]))) if np.any(~bad) else 1.0
        return (half * (qs @ _WEIGHTS), half * ((s * qs) @ _WEIGHTS), dmin,
                float(np.max(np.abs(hs))))

    out = []
    tscale = max(1.0, abs(t_lo), abs(t_hi))

    def refine(lo, hi, depth):
        w0, w1, dmin_w, hmax_w = panel(lo, hi)
        mid = 0.5 * (lo + hi)
        l0, l1, dmin_l, hmax_l = panel(lo, mid)
        r0, r1, dmin_r, hmax_r = panel(mid, hi)
        err = abs(w0 - l0 - r0) + abs(w1 - l1 - r1)
        dmin = min(dmin_w, dmin_l, dmin_r)
        hmax = max(hmax_w, hmax_l, hmax_r, 1e-30)
        noise = 64.0 * eps * (hmax / max(dmin, 1e-300)) * (hi - lo) * tscale
        if err <= max(0.01 * tol * (hi - lo) / L, noise):
            out.extend([(lo, mid, l0, l1), (mid, hi, r0, r1)])
            return
        if depth >= 40:
            raise QuadratureFailure(
                "panel [%.17g, %.17g] did not converge at depth %d"
                % (lo, hi, depth))
        refine(lo, mid, depth + 1)
        refine(mid, hi, depth + 1)

    refine(t_lo, t_hi, 0)
    starts, ends, mom0, mom1 = (np.array(c) for c in zip(*out))
    cum0 = np.concatenate([[0.0], np.cumsum(mom0)])[:-1]
    cum1 = np.concatenate([[0.0], np.cumsum(mom1)])[:-1]
    return starts, ends, cum0, cum1


def quadrature_w(problem, profile, ts):
    """w read back by the rule the profile replaced: its panels' moments
    up to the panel start, plus 15 point Gauss-Legendre moments of q
    from the panel start to t."""
    t_lo, _, q = edge_integrand(problem)
    idx = np.clip(np.searchsorted(profile._starts, ts, side="right") - 1,
                  0, profile.n_panels - 1)
    lo = profile._starts[idx]
    hi = np.minimum(ts, profile._ends[idx])
    s = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * _NODES
    qs = q(s.ravel())[0].reshape(s.shape)
    I0 = profile._cum0[idx] + 0.5 * (hi - lo) * (qs @ _WEIGHTS)
    I1 = profile._cum1[idx] + 0.5 * (hi - lo) * ((s * qs) @ _WEIGHTS)
    return profile.w0 + profile.c * (ts - t_lo) + ts * I0 - I1


def _triangle_edge(leg, facet=2):
    # an edge (the hypotenuse by default) of the triangle with legs
    # ``leg``, its density off the compatible constant by 1e-9 relative,
    # within the vertex rule; without the endpoint split q would grow like
    # 1e-9 / (ab) at both ends, and bisection halved panels down to zero
    # width (670 of 2,468 on the hypotenuse of the unit triangle)
    P = geometry.build_polytope([
        geometry.AffineFunctional([1.0, 0.0], 0.0),
        geometry.AffineFunctional([0.0, 1.0], 0.0),
        geometry.AffineFunctional([-1.0, -1.0], -leg),
    ])
    prob = GuilleminProblem(
        P, guillemin.DensitySpec.constant(leg * (1.0 + 1e-9)), 0.0)
    return boundary.restrict_problem(prob, (facet,)).problem


def _perturbed_edge():
    # the hypotenuse of the triangle: both facet slopes are not unit and
    # the absorbed factor is nonconstant
    prob = simplex2d_problem()
    P = prob.polytope
    prob = simplex2d_problem(guillemin.DensitySpec.perturbed(P, 3.0))
    return boundary.restrict_problem(prob, (2,)).problem


def _polynomial_edge():
    h = guillemin.DensitySpec.polynomial({(0,): 1.0, (1,): 3.0, (2,): -3.0},
                                         1)
    return interval_problem(h, alpha=(0.3, -0.2))


def _kink_edge(power):
    # 1 + t (1 - t) |t - 0.3137|^power: bisection goes deep at the kink
    # (29 levels for power 1, the depth limit for power 1/2)
    def h(t):
        s = np.asarray(t, dtype=float)[..., 0]
        return 1.0 + s * (1.0 - s) * np.abs(s - 0.3137) ** power
    return interval_problem(h)


class TestRestrictProblem:
    def test_simplex_edge(self):
        prob = simplex2d_problem()
        res = boundary.restrict_problem(prob, (1,))  # edge x2 = 0
        face = res.problem.polytope
        assert face.dimension == 1
        assert len(face.facets) == 2
        assert res.absorbed == []
        # interval of length 1 in chart coordinates
        assert np.isclose(face.diameter, 1.0)
        # effective density is the ambient one restricted to the edge
        t = np.array([0.17])
        x = res.to_ambient(t)
        assert np.isclose(x[1], 0.0, atol=1e-14)
        assert np.isclose(res.problem.density(t),
                          guillemin.guillemin_density(prob.polytope, x))

    def test_cube_facet_absorbs_constant(self):
        import itertools
        fs = []
        for a in range(3):
            e = np.zeros(3)
            e[a] = 1.0
            fs.append(geometry.AffineFunctional(e, 0.0))
            fs.append(geometry.AffineFunctional(-e, -1.0))
        P = geometry.build_polytope(fs)
        prob = GuilleminProblem(P, guillemin.DensitySpec.guillemin(P), 0.0)
        res = boundary.restrict_problem(prob, (0,))  # facet x1 = 0
        assert len(res.problem.polytope.facets) == 4
        # the opposite facet 1 - x1 is absorbed and equals 1 on the face
        assert len(res.absorbed) == 1
        idx, g = res.absorbed[0]
        assert idx == 1
        rng = np.random.default_rng(0)
        for xi in rng.uniform(-0.4, 0.4, size=(10, 2)):
            assert np.isclose(g(xi), 1.0)

    def test_restricted_guillemin_equals_face_guillemin_simplex(self):
        # no nonconstant absorbed factors: restriction of the induced
        # density is the face's own induced density, including on the
        # hypotenuse where the active normal is not unit length
        prob = simplex2d_problem()
        rng = np.random.default_rng(1)
        for gamma in ((0,), (1,), (2,)):
            res = boundary.restrict_problem(prob, gamma)
            pts = geometry.sample_interior(res.problem.polytope, 20, rng)
            for t in pts:
                own = guillemin.guillemin_density(res.problem.polytope, t)
                assert np.isclose(res.problem.density(t), own, atol=1e-8)

    def test_restricted_guillemin_trapezoid_closed_form(self):
        # a nonconstant absorbed factor breaks the naive expectation:
        # the effective density on the edge x1 = 0 is (2 - t^2)/(2 - t)
        # in the edge arclength parameter t, not the face's own induced
        # density (which is 1)
        prob = trapezoid_problem()
        res = boundary.restrict_problem(prob, (0,))
        assert len(res.absorbed) == 1
        face = res.problem.polytope
        lo = face.vertices.min()
        rng = np.random.default_rng(2)
        for xi in rng.uniform(face.vertices.min(), face.vertices.max(), 20):
            x = res.to_ambient([xi])
            t = x[1]
            expect = (2.0 - t * t) / (2.0 - t)
            assert np.isclose(res.problem.density(np.array([xi])), expect,
                              rtol=1e-10)
            own = guillemin.guillemin_density(face, np.array([xi]))
            assert np.isclose(own, 1.0)
        del lo

    def test_vertex_values_carried_over(self):
        prob = simplex2d_problem(alpha=0.0)
        prob.vertex_values[:] = [3.0, 5.0, 7.0]
        res = boundary.restrict_problem(prob, (1,))
        ambient = prob.polytope.faces[(1,)].vertex_ids
        assert len(ambient) == len(res.problem.vertex_values) == 2
        for j, amb in enumerate(ambient):
            assert np.allclose(
                res.to_ambient(res.problem.polytope.vertices[j]),
                prob.polytope.vertices[amb])
            assert res.problem.vertex_values[j] == prob.vertex_values[amb]

    def test_not_a_face(self):
        prob = square_problem()
        with pytest.raises(NotAFace):
            boundary.restrict_problem(prob, (0, 1))


class TestSolveEdge:
    def test_constant_density_zero_alpha(self):
        prob = interval_problem(lambda t: np.ones(np.shape(t)[:-1]))
        profile = boundary.solve_edge(prob)
        ts = np.linspace(0.0, 1.0, 33)
        assert np.max(np.abs(profile.w(ts))) <= 1e-12
        # u is the interval potential t log t + (1-t) log(1-t)
        interior = ts[1:-1]
        expect = interior * np.log(interior) + (1 - interior) * np.log(1 - interior)
        assert np.allclose(profile.u(interior), expect, atol=1e-12)

    def test_affine_shift(self):
        prob = interval_problem(lambda t: np.ones(np.shape(t)[:-1]),
                                alpha=(1.0, 2.0))
        profile = boundary.solve_edge(prob)
        ts = np.linspace(0.0, 1.0, 17)
        assert np.allclose(profile.w(ts), 1.0 + ts, atol=1e-12)

    def test_quadratic_closed_form(self):
        hhat = lambda t: 1.0 + t[..., 0] * (1.0 - t[..., 0])
        prob = interval_problem(lambda t: hhat(np.atleast_2d(t)).reshape(np.shape(t)[:-1]))
        profile = boundary.solve_edge(prob, tol=1e-12)
        ts = np.linspace(0.0, 1.0, 101)
        expect = 0.5 * ts * ts - 0.5 * ts
        assert np.max(np.abs(profile.w(ts) - expect)) <= 1e-10

    def test_against_double_quadrature_oracle(self):
        # independent route: QUADPACK for both moment integrals
        hh = lambda t: 1.0 + np.sin(1.7 * t) * t * (1.0 - t) * 0.9
        prob = interval_problem(
            lambda t: hh(np.asarray(t)[..., 0]), alpha=(0.2, -0.3))
        profile = boundary.solve_edge(prob, tol=1e-12)

        q = lambda s: (hh(s) - (1.0 - s) - s) / (s * (1.0 - s))
        I0 = lambda t: integrate.quad(q, 0.0, t, epsabs=1e-13, limit=200)[0]
        I1 = lambda t: integrate.quad(lambda s: s * q(s), 0.0, t,
                                      epsabs=1e-13, limit=200)[0]
        w0 = 0.2 - 1.0 * np.log(1.0)
        w1 = -0.3 - 1.0 * np.log(1.0)
        J = 1.0 * I0(1.0) - I1(1.0)
        c = (w1 - w0 - J) / 1.0
        for t in (0.1, 0.25, 0.5, 0.77, 0.9):
            w_oracle = w0 + c * t + t * I0(t) - I1(t)
            assert abs(profile.w(np.array([t]))[0] - w_oracle) <= 1e-8

    def test_incompatible_endpoint(self):
        prob = interval_problem(lambda t: np.full(np.shape(t)[:-1], 2.0))
        with pytest.raises(IncompatibleEndpoint):
            boundary.solve_edge(prob)

    def test_general_interval_and_slopes(self):
        # interval [1, 3] with functionals a = 2(t-1) and b = 3-t:
        # compatibility needs hhat(1) = b(1) a'^2 = 2*4 = 8 and
        # hhat(3) = a(3) b'^2 = 4; the bump vanishes at both ends
        a = geometry.AffineFunctional([2.0], 2.0)
        b = geometry.AffineFunctional([-1.0], -3.0)
        P = geometry.build_polytope([a, b])
        hh = lambda t: (8.0 - 2.0 * (t - 1.0)
                        + (t - 1.0) * (3.0 - t) * (1.0 + 0.5 * np.sin(t)))
        prob = GuilleminProblem(
            P, guillemin.DensitySpec.from_callable(lambda t: hh(t[..., 0])),
            [0.0, 0.0])
        profile = boundary.solve_edge(prob, tol=1e-12)
        # oracle: w'' = q by QUADPACK, with w = -b log b at t = 1 and
        # w = -a log a at t = 3
        q = lambda s: ((hh(s) - 4.0 * (3.0 - s) - 2.0 * (s - 1.0))
                       / (2.0 * (s - 1.0) * (3.0 - s)))
        G = lambda t: integrate.quad(lambda s: (t - s) * q(s), 1.0, t,
                                     epsabs=1e-13, limit=200)[0]
        w0 = -2.0 * np.log(2.0)
        w1 = -4.0 * np.log(4.0)
        c = (w1 - w0 - G(3.0)) / 2.0
        for t in (1.3, 2.0, 2.6):
            w_oracle = w0 + c * (t - 1.0) + G(t)
            assert abs(profile.w(np.array([t]))[0] - w_oracle) <= 1e-8

    def test_reconstruction_hits_alpha(self):
        hh = lambda t: 1.0 + t[..., 0] * (1.0 - t[..., 0])
        prob = interval_problem(lambda t: hh(np.atleast_1d(np.asarray(t))),
                                alpha=(0.4, 0.9))
        profile = boundary.solve_edge(prob)
        assert np.isclose(profile.u(np.array([0.0]))[0], 0.4, atol=1e-12)
        assert np.isclose(profile.u(np.array([1.0]))[0], 0.9, atol=1e-12)

    @pytest.mark.parametrize("make, tol", [
        (_perturbed_edge, 1e-10),
        (_polynomial_edge, 1e-12),
        (lambda: _kink_edge(1.0), 1e-10),
    ], ids=["perturbed", "polynomial", "deep"])
    def test_level_batching_matches_recursive_refinement(self, make, tol):
        prob = make()
        starts, ends, cum0, cum1 = recursive_edge_panels(prob, tol)
        profile = boundary.solve_edge(prob, tol=tol)
        assert np.array_equal(profile._starts, starts)
        assert np.array_equal(profile._ends, ends)
        scale = max(1.0, np.max(np.abs(cum0)), np.max(np.abs(cum1)))
        assert np.max(np.abs(profile._cum0 - cum0)) <= 1e-15 * scale
        assert np.max(np.abs(profile._cum1 - cum1)) <= 1e-15 * scale

    def test_depth_limit_names_the_same_panel(self):
        prob = _kink_edge(0.5)
        with pytest.raises(QuadratureFailure) as recursive:
            recursive_edge_panels(prob, 1e-10)
        with pytest.raises(QuadratureFailure) as batched:
            boundary.solve_edge(prob, tol=1e-10)
        assert str(batched.value) == str(recursive.value)

    @pytest.mark.parametrize("make, tol", [
        (_perturbed_edge, 1e-10),
        (_polynomial_edge, 1e-12),
        (lambda: _triangle_edge(1e-3), 1e-10),
    ], ids=["perturbed", "polynomial", "triangle"])
    def test_closed_form_read_matches_panel_quadrature(self, make, tol):
        prob = make()
        profile = boundary.solve_edge(prob, tol=tol)
        rng = np.random.default_rng(9)
        ts = np.concatenate([rng.uniform(profile.t_lo, profile.t_hi, 500),
                             profile._starts, profile._ends])
        got = profile.w(ts)
        expect = quadrature_w(prob, profile, ts)
        assert np.all(np.abs(got - expect)
                      <= 1e-13 * np.maximum(1.0, np.abs(expect)))

    def test_reads_call_no_density(self):
        calls = []
        h = _polynomial_edge().density

        def counted(t):
            calls.append(len(t))
            return h(t)

        prob = interval_problem(counted, alpha=(0.3, -0.2))
        profile = boundary.solve_edge(prob, tol=1e-12)
        assert calls
        del calls[:]
        ts = np.linspace(0.0, 1.0, 257)
        profile.w(ts)
        profile.u(ts)
        profile.u(0.5)
        assert calls == []

    def test_non_finite_integrand_stops_at_once(self, monkeypatch):
        # compatible at both ends and NaN inside: NaN moments fail every
        # error test, so without the finiteness check bisection would
        # double the panels at every level up to the depth limit
        monkeypatch.setattr(boundary, "_MAX_DEPTH", 8)
        points = []

        def h(t):
            points.append(len(t))
            s = t[..., 0]
            return np.where((s > 0.0) & (s < 1.0), np.nan, 1.0)

        with pytest.raises(QuadratureFailure, match="non-finite integrand"):
            boundary.solve_edge(interval_problem(h))
        # the two ends, then the whole edge and its halves at 15 nodes
        assert sum(points) <= 2 + 3 * 15

    def test_infinite_density_is_incompatible(self, monkeypatch):
        monkeypatch.setattr(boundary, "_MAX_DEPTH", 8)
        prob = interval_problem(lambda t: np.full(len(t), np.inf))
        with pytest.raises(IncompatibleEndpoint):
            boundary.solve_edge(prob)

    @pytest.mark.parametrize("leg", [1.0, 1e-3])
    def test_off_vertex_density_keeps_few_panels(self, leg):
        for facet in range(3):
            profile = boundary.solve_edge(_triangle_edge(leg, facet))
            assert profile.n_panels <= 4
            assert np.all(profile._ends > profile._starts)
            ts = np.concatenate([profile._starts, profile._ends,
                                 np.linspace(profile.t_lo, profile.t_hi, 101)])
            assert np.all(np.isfinite(profile.u(ts)))

    def test_vector_evaluation_matches_scalar(self):
        profile = boundary.solve_edge(_polynomial_edge(), tol=1e-12)
        ts = np.concatenate([[0.0, 1.0], np.linspace(0.0, 1.0, 37) ** 3])
        batch = profile.u(ts)
        single = np.array([profile.u(float(t)) for t in ts])
        assert np.max(np.abs(batch - single)) <= 1e-14


class TestBuildBoundaryData:
    def test_simplex_reproduces_potential(self):
        prob = simplex2d_problem()
        bd = boundary.build_boundary_data(prob)
        rng = np.random.default_rng(3)
        P = prob.polytope
        # 50 boundary samples spread over the three edges
        for _ in range(50):
            e = rng.integers(0, 3)
            t = rng.uniform(0.05, 0.95)
            v0, v1 = _edge_endpoints(P, e)
            x = v0 * (1 - t) + v1 * t
            expect = guillemin.potential_values(P, x)
            assert abs(bd.u(x) - expect) <= 1e-8
            v_expect = 0.0
            assert abs(bd.v(x) - v_expect) <= 1e-8

    def test_square_reproduces_potential(self):
        prob = square_problem()
        bd = boundary.build_boundary_data(prob)
        rng = np.random.default_rng(4)
        P = prob.polytope
        for _ in range(50):
            e = rng.integers(0, 4)
            t = rng.uniform(0.0, 1.0)
            v0, v1 = _edge_endpoints(P, e)
            x = v0 * (1 - t) + v1 * t
            assert abs(bd.u(x) - guillemin.potential_values(P, x)) <= 1e-8

    def test_octahedron_is_not_simple(self, monkeypatch):
        fs = [geometry.AffineFunctional(-np.array(signs), -1.0)
              for signs in itertools.product([1.0, -1.0], repeat=3)]
        P = geometry.build_polytope(fs)
        prob = GuilleminProblem(P, guillemin.DensitySpec.constant(1.0), 0.0)

        # simplicity is checked once, by the vertex compatibility check
        def second_check(P):
            raise AssertionError("build_boundary_data ran is_simple")

        monkeypatch.setattr(geometry, "is_simple", second_check)
        with pytest.raises(NonSimpleVertex,
                           match="vertex 0 lies on 4 facets, expected 3"):
            boundary.build_boundary_data(prob)

    def test_incompatible_endpoint_names_a_vertex_the_rule_refuses(self):
        # the rule is relative: vertex 0 (h = 1e6) is off by 5e-3, within
        # 1e-8 |h|, while vertex 3 (h = 1e3) is off by 1e-4, outside it
        P = _scaled_square_problem(1000.0, False).polytope

        def h(x):
            left = np.where(np.isclose(x[..., 0], 0.0), 1.0 + 5e-9, 1.0)
            corner = np.all(np.isclose(x, 1.0), axis=-1)
            return guillemin.guillemin_density(P, x) * left + 1e-4 * corner

        prob = GuilleminProblem(P, guillemin.DensitySpec.from_callable(h),
                                0.0)
        with pytest.raises(IncompatibleEndpoint, match=r"^vertex 3 violates "
                           r"the matching condition by 0\.0001$"):
            boundary.build_boundary_data(prob)

    def test_vertex_values(self):
        prob = simplex2d_problem()
        prob.vertex_values[:] = [1.0, 2.0, 3.0]
        bd = boundary.build_boundary_data(prob)
        for i, p in enumerate(prob.polytope.vertices):
            assert np.isclose(bd.u(p), prob.vertex_values[i], atol=1e-12)

    def test_consistency_report(self):
        prob = square_problem()
        bd = boundary.build_boundary_data(prob)
        assert bd.consistency["max_mismatch"] <= bd.consistency["tolerance"]

    @pytest.mark.parametrize("sides, bound", [(32, 1e-14), (70, 5e-14)])
    def test_many_facets_keep_few_panels_per_edge(self, sides, bound):
        # rounding alone leaves the induced density of a 32-gon up to
        # 3e-13 off its compatible vertex values; bisection that chased
        # that miss toward the vertices did not finish.  Every trace point
        # reads the density on the boundary, so the 70-gon also shows that
        # this read stays cheap at many facets; its mismatch, 9.96e-15,
        # sits on the rounding floor that 1e-14 marks (a 48-gon reads
        # 1.004e-14), hence its looser bound
        theta = 2.0 * np.pi * np.arange(sides) / sides
        P = geometry.build_polytope([
            geometry.AffineFunctional([-np.cos(t), -np.sin(t)], -1.0)
            for t in theta])
        prob = GuilleminProblem(P, guillemin.DensitySpec.guillemin(P), 0.0)
        bd = boundary.build_boundary_data(prob, grid=17)
        edges = [tr for tr in bd.traces.values()
                 if isinstance(tr, boundary._EdgeTrace)]
        assert len(edges) == sides
        assert max(tr.profile.n_panels for tr in edges) <= 4
        assert bd.consistency["max_mismatch"] <= bound

    def test_midpoint_convexity_along_edges(self):
        prob = trapezoid_problem()
        bd = boundary.build_boundary_data(prob)
        P = prob.polytope
        rng = np.random.default_rng(5)
        for key, face in P.faces.items():
            if face.dim != 1:
                continue
            v0, v1 = P.vertices[list(face.vertex_ids)]
            for _ in range(20):
                t = rng.uniform(0.1, 0.9)
                d = rng.uniform(0.01, min(t, 1 - t))
                mid = bd.u(v0 + t * (v1 - v0))
                left = bd.u(v0 + (t - d) * (v1 - v0))
                right = bd.u(v0 + (t + d) * (v1 - v0))
                assert left + right - 2 * mid >= -1e-9

    @pytest.mark.parametrize("shape", ["simplex", "cube"])
    def test_batched_traces_match_pointwise(self, shape):
        prob = _solid3d_problem(shape)
        P = prob.polytope
        bd = boundary.build_boundary_data(prob, grid=9)
        rng = np.random.default_rng(8)
        pts = [P.vertices]
        for key, face in P.faces.items():
            verts = P.vertices[list(face.vertex_ids)]
            if face.dim in (1, 2):
                # points in the relative interior of edges and 2-faces
                w = rng.dirichlet(np.full(len(verts), 2.0), size=3)
                pts.append(w @ verts)
        X = np.vstack(pts)
        X = X[rng.permutation(len(X))]
        for fn in (bd.u, bd.v):
            batch = fn(X)
            single = np.array([fn(x) for x in X])
            assert batch.shape == (len(X),)
            assert all(isinstance(fn(x), float) for x in X[:3])
            assert np.max(np.abs(batch - single)) <= 1e-14

    def test_grouped_batch_equals_pointwise_exactly(self):
        # one batch over vertices, edges and 2-faces of the cube, grouped
        # by the integer code of each point's active set
        prob = _solid3d_problem("cube")
        P = prob.polytope
        bd = boundary.build_boundary_data(prob, grid=9)
        rng = np.random.default_rng(10)
        pts = [P.vertices]
        for key, face in P.faces.items():
            if face.dim in (1, 2):
                verts = P.vertices[list(face.vertex_ids)]
                pts.append(rng.dirichlet(np.full(len(verts), 2.0), 4)
                           @ verts)
        X = np.vstack(pts)[rng.permutation(8 + 4 * (12 + 6))]
        assert np.array_equal(bd.u(X), [bd.u(x) for x in X])
        with pytest.raises(OutsideDomain):
            bd.u(np.vstack([X, [[0.5, 0.5, 1.5]]]))
        with pytest.raises(OutsideDomain):
            bd.u(np.vstack([X, [[0.5, 0.5, 0.5]]]))
        edge = next(k for k, f in P.faces.items() if f.dim == 1)
        x = P.vertices[list(P.faces[edge].vertex_ids)].mean(axis=0)
        del bd.traces[edge]
        with pytest.raises(MissingTrace):
            bd.u(np.vstack([X, [x]]))

    def test_unconverged_face_raises(self, monkeypatch):
        _report_unconverged(monkeypatch)
        prob = _solid3d_problem("simplex")
        with pytest.raises(SolverError, match=r"face \(\d+,\) did not "
                           r"converge: residual 0\.125"):
            boundary.build_boundary_data(prob, grid=9)

    def test_unconverged_face_is_exit_three(self, monkeypatch, tmp_path):
        _report_unconverged(monkeypatch)
        code, out = _boundary_cli(tmp_path)
        assert code == 3
        assert out["error"]["kind"] == "SolverError"
        assert "did not converge" in out["error"]["message"]

    def test_corrupted_face_interior_raises(self, monkeypatch):
        # +1.0 on every face-interior value, still reported as converged:
        # the residual re-assembled from the stored values must see it
        _corrupt_face_solves(monkeypatch, interior_only=True)
        with pytest.raises(SolverError, match=r"face \(\d+,\) fails the "
                           r"residual audit"):
            boundary.build_boundary_data(_solid3d_problem("simplex"), grid=9)

    def test_corrupted_face_interior_is_exit_three(self, monkeypatch,
                                                   tmp_path):
        _corrupt_face_solves(monkeypatch, interior_only=True)
        code, out = _boundary_cli(tmp_path)
        assert code == 3
        assert out["error"]["kind"] == "SolverError"
        assert "residual audit" in out["error"]["message"]

    def test_shifted_face_solution_is_inconsistent(self, monkeypatch):
        # a constant shift keeps every discrete Hessian, so only the
        # stored boundary nodes against the subface traces can see it
        _corrupt_face_solves(monkeypatch, interior_only=False)
        with pytest.raises(InconsistentTraces, match=r"faces \(\d+,\) and "
                           r"\((\d+, )+\d+\) disagree by 0\.5 "):
            boundary.build_boundary_data(_solid3d_problem("simplex"), grid=9)

    def test_edge_off_its_vertex_values_is_inconsistent(self, monkeypatch):
        real = boundary.solve_edge

        def shifted(*args, **kwargs):
            profile = real(*args, **kwargs)
            profile.w0 += 1e-3
            return profile

        monkeypatch.setattr(boundary, "solve_edge", shifted)
        with pytest.raises(InconsistentTraces, match=r"faces \(\d+,\) and "
                           r"\(\d+, \d+\) disagree by 0\.001 "):
            boundary.build_boundary_data(simplex2d_problem())

    def test_large_simplex_gaps_within_the_scaled_tolerance(self):
        # on x + y <= 1e6 the s log s terms reach 1.4e7, and rounding
        # leaves edge gaps of 3.8e-9 at the vertices, beyond 10 tol
        bd = boundary.build_boundary_data(large_simplex_problem())
        scale = 1e6 * np.log(1e6)
        assert bd.consistency["tolerance"] == pytest.approx(1e-9 * scale,
                                                             rel=1e-12)
        assert 1e-9 < bd.consistency["max_mismatch"] <= 1e-9 * scale

    def test_long_rectangle_builds(self):
        P = geometry.build_polytope([
            geometry.AffineFunctional([1.0, 0.0], 0.0),
            geometry.AffineFunctional([-1.0, 0.0], -1.0),
            geometry.AffineFunctional([0.0, 1.0], 0.0),
            geometry.AffineFunctional([0.0, -1.0], -1e7)])
        bd = boundary.build_boundary_data(
            GuilleminProblem(P, guillemin.DensitySpec.guillemin(P), 0.0))
        assert bd.consistency["pairs"] == 8

    def test_large_edge_off_its_vertex_values_is_inconsistent(
            self, monkeypatch):
        # the scaled tolerance still sees a shift of 1e-3 of the data
        real = boundary.solve_edge

        def shifted(*args, **kwargs):
            profile = real(*args, **kwargs)
            profile.w0 += 1e-3 * 1e6 * np.log(1e6)
            return profile

        monkeypatch.setattr(boundary, "solve_edge", shifted)
        with pytest.raises(InconsistentTraces, match=r"faces \(\d+,\) and "
                           r"\(\d+, \d+\) disagree by 1\.38e\+04 "):
            boundary.build_boundary_data(large_simplex_problem())

    @pytest.mark.parametrize("shape, edges, faces",
                             [("simplex", 6, 4), ("cube", 12, 6)])
    def test_each_face_solved_once(self, monkeypatch, shape, edges, faces):
        calls = {"edge": 0, "restrict": 0, "face": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(boundary, "solve_edge",
                            counted("edge", boundary.solve_edge))
        monkeypatch.setattr(boundary, "restrict_problem",
                            counted("restrict", boundary.restrict_problem))
        monkeypatch.setattr(gma.solver, "newton_solve",
                            counted("face", gma.solver.newton_solve))
        bd = boundary.build_boundary_data(_solid3d_problem(shape), grid=9)
        assert calls == {"edge": edges, "restrict": edges + faces,
                         "face": faces}
        assert bd.consistency["pairs"] == 2 * edges + sum(
            len(tr.solution.chart.boundary) for tr in bd.traces.values()
            if isinstance(tr, boundary._FaceTrace))


def _boundary_cli(tmp_path):
    # gma boundary on the unit 3-simplex at grid 9: exit code and report
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "dimension": 3,
        "facets": [{"normal": [1.0, 0.0, 0.0], "offset": 0.0},
                   {"normal": [0.0, 1.0, 0.0], "offset": 0.0},
                   {"normal": [0.0, 0.0, 1.0], "offset": 0.0},
                   {"normal": [-1.0, -1.0, -1.0], "offset": -1.0}],
        "density": {"type": "perturbed", "amplitude": 0.1}}))
    report = tmp_path / "r.json"
    code = cli.run(["boundary", str(path), "--grid", "9",
                    "--report", str(report)])
    return code, json.loads(report.read_text())


def _solid3d_problem(shape):
    if shape == "simplex":
        fs = [geometry.AffineFunctional(e, 0.0) for e in np.eye(3)]
        fs.append(geometry.AffineFunctional([-1.0, -1.0, -1.0], -1.0))
    else:
        fs = []
        for e in np.eye(3):
            fs.append(geometry.AffineFunctional(e, 0.0))
            fs.append(geometry.AffineFunctional(-e, -1.0))
    P = geometry.build_polytope(fs)
    return GuilleminProblem(P, guillemin.DensitySpec.perturbed(P, 0.5), 0.0)


def _scaled_square_problem(scale, right):
    # the unit square with x >= 0 written as scale * x >= 0, or with
    # x <= 1 written as scale * (1 - x) >= 0 and listed first
    fs = [geometry.AffineFunctional([1.0, 0.0], 0.0),
          geometry.AffineFunctional([-1.0, 0.0], -1.0),
          geometry.AffineFunctional([0.0, 1.0], 0.0),
          geometry.AffineFunctional([0.0, -1.0], -1.0)]
    if right:
        fs[:2] = [geometry.AffineFunctional([-scale, 0.0], -scale), fs[0]]
    else:
        fs[0] = geometry.AffineFunctional([scale, 0.0], 0.0)
    P = geometry.build_polytope(fs)
    return GuilleminProblem(P, guillemin.DensitySpec.perturbed(P, 0.5), 0.0)


class TestScaledFunctionals:
    @pytest.mark.parametrize("scale, right", [
        (1e-6, False), (1e-8, False), (1e-9, False), (1e-9, True)])
    def test_traces_read_the_edge_profiles(self, scale, right):
        # a point 1e-3 from a vertex lies far beyond tau of the facets it
        # is not on, however short their normals, so the trace there is
        # the edge profile's, not the vertex value; an edge's left facet
        # is the one rising from its left end, though a short normal at
        # the right end reads within tau there too
        prob = _scaled_square_problem(scale, right)
        P = prob.polytope
        bd = boundary.build_boundary_data(prob)
        t = np.array([1e-3, 0.02, 0.5, 0.98, 1.0 - 1e-3])[:, None]
        for key, face in P.faces.items():
            if face.dim != 1:
                continue
            p, q = P.vertices[list(face.vertex_ids)]
            x = (1.0 - t) * p + t * q
            res = boundary.restrict_problem(prob, key)
            profile = boundary.solve_edge(res.problem)
            assert np.array_equal(bd.u(x),
                                  profile.u(res.from_face(x)[:, 0])), key


def _report_unconverged(monkeypatch):
    # the face solves of the boundary build report converged: false
    real = gma.solver.newton_solve

    def unconverged(*args, **kwargs):
        sol, rep = real(*args, **kwargs)
        return sol, dict(rep, converged=False, residual_norm=0.125)

    monkeypatch.setattr(gma.solver, "newton_solve", unconverged)


def _corrupt_face_solves(monkeypatch, interior_only):
    # the face solves of the boundary build return values raised by 1.0
    # on the interior nodes, or by 0.5 on every node, reported converged
    real = gma.solver.newton_solve

    def corrupted(*args, **kwargs):
        sol, rep = real(*args, **kwargs)
        if interior_only:
            sol.values[sol.chart.interior] += 1.0
        else:
            sol.values += 0.5
        return sol, rep

    monkeypatch.setattr(gma.solver, "newton_solve", corrupted)


def _edge_endpoints(P, e):
    for key, face in P.faces.items():
        if face.dim == 1 and e in key:
            ids = list(face.vertex_ids)
            return P.vertices[ids[0]], P.vertices[ids[1]]
    raise AssertionError("facet %d has no edge" % e)


class TestThreeDimensionalRecursion:
    def test_simplex3d_facet_traces(self):
        # facet traces of the induced-density problem solve 2d problems
        # whose exact solution is the facet's own potential
        fs = [geometry.AffineFunctional([1.0, 0.0, 0.0], 0.0),
              geometry.AffineFunctional([0.0, 1.0, 0.0], 0.0),
              geometry.AffineFunctional([0.0, 0.0, 1.0], 0.0),
              geometry.AffineFunctional([-1.0, -1.0, -1.0], -1.0)]
        P = geometry.build_polytope(fs)
        prob = GuilleminProblem(P, guillemin.DensitySpec.guillemin(P), 0.0)
        bd = boundary.build_boundary_data(prob, grid=17)
        rng = np.random.default_rng(6)
        # sample strictly inside the facet x3 = 0
        for _ in range(20):
            b = rng.dirichlet([1.5, 1.5, 1.5])
            x = np.array([b[0], b[1], 0.0])
            if np.min(np.abs(x[:2])) < 0.05 or b[2] < 0.05:
                continue
            expect = guillemin.potential_values(P, x)
            assert abs(bd.u(x) - expect) <= 1e-3
