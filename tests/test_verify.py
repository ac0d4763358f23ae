import numpy as np
import pytest
from scipy.special import xlogy

from gma import geometry, guillemin, solver, verify
from gma.errors import OutsideDomain, ValidationError
from gma.problem import GuilleminProblem

from oracles import fd_hessian


def unit_square():
    fs = [geometry.AffineFunctional([1.0, 0.0], 0.0),
          geometry.AffineFunctional([-1.0, 0.0], -1.0),
          geometry.AffineFunctional([0.0, 1.0], 0.0),
          geometry.AffineFunctional([0.0, -1.0], -1.0)]
    return geometry.build_polytope(fs)


def standard_simplex():
    fs = [geometry.AffineFunctional([1.0, 0.0], 0.0),
          geometry.AffineFunctional([0.0, 1.0], 0.0),
          geometry.AffineFunctional([-1.0, -1.0], -1.0)]
    return geometry.build_polytope(fs)


class TestVerifyBarrier:
    def test_product_power_square(self):
        P = unit_square()
        check = verify.verify_barrier(
            "product-power", P, samples=400,
            constants={"alpha_exp": 0.25})
        assert check.barrier_id == "product-power"
        assert check.margin_differential > 0.0
        assert check.constants == {"alpha_exp": 0.25}
        assert len(check.samples) >= 400
        # the barrier vanishes on every facet by construction, so there
        # is no boundary comparison to report
        assert check.margin_boundary is None

    def test_product_power_simplex_default_alpha(self):
        P = standard_simplex()
        check = verify.verify_barrier("product-power", P, samples=400)
        assert check.constants["alpha_exp"] == 0.25
        assert check.margin_differential > 0.0

    @pytest.mark.parametrize("polytope", [unit_square, standard_simplex])
    def test_product_power_minimum_matches_fd(self, polytope):
        # the reported margin is the sampled minimum of the curvature
        # ratio det(-D2 H) / (prod l)^(n alpha - 2) itself, attained away
        # from the facets, where finite differences of H resolve it
        P = polytope()
        alpha = 0.25
        check = verify.verify_barrier("product-power", P, samples=400,
                                      constants={"alpha_exp": alpha})

        def field(x):
            return float(np.prod(P.evaluate_all(x)) ** alpha)

        pts = check.samples[np.min(P.evaluate_all(check.samples), axis=1)
                            > 0.05]
        ratios = [np.linalg.det(-fd_hessian(field, x))
                  / np.prod(P.evaluate_all(x)) ** (2 * alpha - 2)
                  for x in pts]
        assert np.isclose(min(ratios), check.margin_differential,
                          rtol=1e-4, atol=0.0)

    def test_product_power_impossible_exponent(self):
        # far above 1/n the barrier is not concave near the vertices, so
        # the sampled minimum of the curvature ratio is negative
        P = standard_simplex()
        check = verify.verify_barrier("product-power", P, samples=200,
                                      constants={"alpha_exp": 0.9})
        assert check.margin_differential < 0.0

    def test_g_concavity_planar(self):
        check = verify.verify_barrier("g-concavity", samples=200)
        assert check.barrier_id == "g-concavity"
        assert len(check.samples) == 200
        assert check.margin_differential >= 0.0

    def test_g_concavity_three_coordinates(self):
        check = verify.verify_barrier("g-concavity", samples=100, k=3)
        assert check.margin_differential >= 0.0

    def test_g_concavity_detects_weak_constant(self):
        check = verify.verify_barrier(
            "g-concavity", samples=200, constants={"C0": 0.01})
        assert check.margin_differential < 0.0

    @pytest.mark.parametrize("k", [2, 3])
    def test_g_concavity_detects_comparison_above_boundary(self, k):
        # delta < 0 lifts the comparison function above the quadrant
        # solution on the coordinate faces, while the differential
        # inequality still holds with the larger C0
        good = verify.verify_barrier("g-concavity", samples=200, k=k)
        assert good.margin_boundary > 0.0
        check = verify.verify_barrier(
            "g-concavity", samples=200, k=k,
            constants={"delta": -0.05, "C0": 2.0})
        assert check.margin_differential >= 0.0
        assert check.margin_boundary < 0.0

    def test_face_lift_is_not_a_barrier(self):
        with pytest.raises(ValidationError, match="unknown barrier id"):
            verify.verify_barrier("face-lift", samples=10)

    def test_unknown_barrier_id(self):
        with pytest.raises(Exception):
            verify.verify_barrier("no-such-barrier")


def make_field(fn, x1, x2):
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    return fn(X1, X2), (x1, x2)


def model_levels(fn, depth, span, ms):
    levels = []
    for m in ms:
        x1 = np.linspace(0.0, depth, m)
        x2 = np.linspace(span[0], span[1], m)
        levels.append(make_field(fn, x1, x2))
    return levels


class TestEstimators:
    def test_lipschitz_model_is_zero(self):
        levels = model_levels(lambda a, b: 0.5 * b ** 2,
                              0.3, (-0.5, 0.5), (9, 17, 33))
        rep = verify.estimate_lipschitz(levels)
        assert rep.estimate_id == "lipschitz"
        assert all(r == 0.0 for r in rep.ratios)
        assert rep.bounded

    def test_lipschitz_closed_form_edge(self):
        # regular part of the simplex potential near the facet x1 = 0
        def vfield(a, b):
            return xlogy(b, b) + xlogy(1.0 - a - b, 1.0 - a - b)

        levels = model_levels(vfield, 0.3, (0.25, 0.55), (9, 17, 33))
        rep = verify.estimate_lipschitz(levels)
        assert all(np.isfinite(rep.ratios))
        assert rep.ratios[-1] <= 1.0
        assert rep.bounded

    def test_weighted_hessian_model_exact(self):
        levels = model_levels(lambda a, b: 0.5 * b ** 2,
                              0.3, (-0.5, 0.5), (9, 17, 33))
        rep = verify.estimate_weighted_hessian(levels)
        assert rep.estimate_id == "weighted-hessian"
        # n - 1 tangential directions each contribute 1
        assert all(abs(r - 1.0) <= 1e-11 for r in rep.ratios)
        assert rep.bounded

    def test_weighted_hessian_closed_form_edge(self):
        # window kept away from the far corner: the sup of the weighted
        # combination converges as the one-node collar shrinks, and too
        # close to the corner that convergence itself exceeds the ten
        # percent trend policy at coarse grids
        def vfield(a, b):
            return xlogy(b, b) + xlogy(1.0 - a - b, 1.0 - a - b)

        levels = model_levels(vfield, 0.25, (0.25, 0.45), (9, 17, 33))
        rep = verify.estimate_weighted_hessian(levels)
        assert all(np.isfinite(rep.ratios))
        assert rep.bounded

    def test_face_asymptotics_separable_field_vanishes(self):
        # the inclusion-exclusion extension reproduces separable fields,
        # so the remainder is identically zero
        def vfield(a, b):
            return xlogy(1.0 - a, 1.0 - a) + xlogy(1.0 - b, 1.0 - b)

        levels = model_levels(vfield, 0.5, (0.0, 0.5), (9, 17, 33))
        reports = verify.estimate_face_asymptotics(levels)
        assert set(reports) == {"root-product", "full-product"}
        for rep in reports.values():
            assert all(r <= 1e-12 for r in rep.ratios)

    def test_face_asymptotics_factored_remainder(self):
        def g(a, b):
            return np.exp(a - b)

        def vfield(a, b):
            return np.cos(a) + b ** 2 - 1.0 + a * b * g(a, b)

        levels = model_levels(vfield, 0.5, (0.0, 0.5), (9, 17, 33))
        reports = verify.estimate_face_asymptotics(levels)
        m = 33
        x = np.linspace(0.0, 0.5, m)
        X1, X2 = np.meshgrid(x[1:-1], x[1:-1], indexing="ij")
        gmax = float(np.max(g(X1, X2)))
        assert abs(reports["full-product"].ratios[-1] - gmax) <= 1e-12
        dmax = float(np.max(np.sqrt(X1 * X2)))
        assert reports["root-product"].ratios[-1] \
            <= reports["full-product"].ratios[-1] * dmax + 1e-12

    def test_face_asymptotics_scale_covariance(self):
        def g(a, b):
            return 1.0 + 0.5 * np.sin(3.0 * a) * np.cos(2.0 * b)

        lam = 4.0
        m = 17
        base_axis = np.linspace(0.0, 0.5, m)
        base = make_field(lambda a, b: a * b * g(a, b),
                          base_axis, base_axis)
        scaled_axis = base_axis / lam
        scaled = make_field(
            lambda a, b: (lam * a) * (lam * b) * g(lam * a, lam * b) / lam,
            scaled_axis, scaled_axis)
        rep_base = verify.estimate_face_asymptotics([base] * 3)
        rep_scaled = verify.estimate_face_asymptotics([scaled] * 3)
        r42b = rep_base["root-product"].ratios[-1]
        r42s = rep_scaled["root-product"].ratios[-1]
        assert abs(r42s - r42b) <= 1e-8 * max(1.0, r42b)
        r48b = rep_base["full-product"].ratios[-1]
        r48s = rep_scaled["full-product"].ratios[-1]
        assert abs(r48s - lam * r48b) <= 1e-8 * max(1.0, lam * r48b)

    def test_face_asymptotics_numeric_quadrant_solve(self):
        # local solve of det D2u = 1/(x1 x2) on the unit square with
        # traces from the closed-form quadrant solution
        _, levels = verify.estimator_levels((9, 17, 33), tol=1e-11)
        reports = verify.estimate_face_asymptotics(levels)
        for rep in reports.values():
            assert all(np.isfinite(rep.ratios))
        assert reports["full-product"].bounded

    def test_numeric_edge_trends_on_perturbed_simplex(self):
        levels, _ = verify.estimator_levels((9, 17, 33), tol=1e-11)
        lip = verify.estimate_lipschitz(levels)
        hes = verify.estimate_weighted_hessian(levels)
        assert lip.bounded
        assert hes.bounded
        assert all(np.isfinite(lip.ratios))
        assert all(np.isfinite(hes.ratios))

    @pytest.mark.parametrize("estimator", [
        verify.estimate_lipschitz, verify.estimate_weighted_hessian,
        verify.estimate_face_asymptotics])
    def test_one_level_has_no_trend_to_grade(self, estimator):
        # a single level leaves the trend empty, which every growth
        # bound would pass
        levels = model_levels(lambda a, b: a * b, 0.5, (0.0, 0.5), (9,))
        with pytest.raises(ValidationError, match="two levels"):
            estimator(levels)


class TestSolutionProbe:
    def test_array_probe_matches_points(self):
        P = standard_simplex()
        prob = GuilleminProblem(P, guillemin.DensitySpec.guillemin(P), 0.0)
        sol, _ = solver.newton_solve(prob, grid=9)
        probe = verify.solution_probe(sol)
        x = np.array([[0.1, 0.2], [0.0, 0.5], [0.3, 0.3], [0.5, 0.5]])
        out = probe(x)
        assert out.shape == (4,)
        assert np.array_equal(out, [probe(p) for p in x])
        assert isinstance(probe(x[0]), float)

    def test_point_off_the_polytope_raises(self):
        P = standard_simplex()
        prob = GuilleminProblem(P, guillemin.DensitySpec.guillemin(P), 0.0)
        sol, _ = solver.newton_solve(prob, grid=9)
        probe = verify.solution_probe(sol)
        with pytest.raises(OutsideDomain):
            probe(np.array([0.8, 0.8]))
        with pytest.raises(OutsideDomain):
            probe(np.array([[0.1, 0.1], [-0.1, 0.5]]))

    def test_short_normal_reads_distances(self):
        # the unit square with x >= 0 written as 1e-8 x >= 0: the point
        # (-0.1, 0.5) is 0.1 outside, though the functional reads -1e-9
        P = geometry.build_polytope([
            geometry.AffineFunctional([1e-8, 0.0], 0.0),
            geometry.AffineFunctional([-1.0, 0.0], -1.0),
            geometry.AffineFunctional([0.0, 1.0], 0.0),
            geometry.AffineFunctional([0.0, -1.0], -1.0)])
        prob = GuilleminProblem(P, guillemin.DensitySpec.guillemin(P), 0.0)
        sol, rep = solver.newton_solve(prob, grid=9)
        assert rep["converged"]
        x = np.array([-0.1, 0.5])
        for read in (verify.solution_probe(sol), sol.v):
            with pytest.raises(OutsideDomain):
                read(x)
