import numpy as np
import pytest

from gma import geometry, guillemin
from gma.errors import NonSimpleVertex, OutsideDomain
from gma.problem import GuilleminProblem
from gma.solver import GridChart
from oracles import fd_hessian, induced_density


def segment():
    return geometry.build_polytope([
        geometry.AffineFunctional([1.0], 0.0),
        geometry.AffineFunctional([-1.0], -1.0),
    ])


def simplex2d():
    return geometry.build_polytope([
        geometry.AffineFunctional([1.0, 0.0], 0.0),
        geometry.AffineFunctional([0.0, 1.0], 0.0),
        geometry.AffineFunctional([-1.0, -1.0], -1.0),
    ])


def unit_square():
    return geometry.build_polytope([
        geometry.AffineFunctional([1.0, 0.0], 0.0),
        geometry.AffineFunctional([-1.0, 0.0], -1.0),
        geometry.AffineFunctional([0.0, 1.0], 0.0),
        geometry.AffineFunctional([0.0, -1.0], -1.0),
    ])


def trapezoid():
    # vertices (0,0), (0,1), (1,1), (2,0); two antiparallel facets
    return geometry.build_polytope([
        geometry.AffineFunctional([1.0, 0.0], 0.0),
        geometry.AffineFunctional([0.0, 1.0], 0.0),
        geometry.AffineFunctional([0.0, -1.0], -1.0),
        geometry.AffineFunctional([-1.0, -1.0], -2.0),
    ])


def octahedron():
    import itertools
    fs = []
    for signs in itertools.product([1.0, -1.0], repeat=3):
        fs.append(geometry.AffineFunctional(-np.array(signs), -1.0))
    return geometry.build_polytope(fs)


def tetrahedron():
    fs = [geometry.AffineFunctional(e, 0.0) for e in np.eye(3)]
    fs.append(geometry.AffineFunctional([-1.0, -1.0, -1.0], -1.0))
    return geometry.build_polytope(fs)


def unit_cube():
    fs = []
    for e in np.eye(3):
        fs.append(geometry.AffineFunctional(e, 0.0))
        fs.append(geometry.AffineFunctional(-e, -1.0))
    return geometry.build_polytope(fs)


def regular_24gon():
    theta = 2.0 * np.pi * np.arange(24) / 24
    return geometry.build_polytope([
        geometry.AffineFunctional([-np.cos(t), -np.sin(t)], -1.0)
        for t in theta])


def trapezoid_density_closed_form(P, x):
    # pairwise expansion worked out by hand for this facet list; the
    # antiparallel pair contributes nothing
    l = P.evaluate_all(x)
    return (l[2] * l[3] + l[1] * l[3] + l[1] * l[2]
            + l[0] * l[2] + l[0] * l[1])


class TestPotential:
    def test_segment_midpoint(self):
        assert np.isclose(guillemin.potential_values(segment(), [0.5]),
                          -np.log(2.0))

    def test_simplex_centroid(self):
        assert np.isclose(
            guillemin.potential_values(simplex2d(), [1 / 3, 1 / 3]),
            -np.log(3.0))

    def test_vertex_value_convention(self):
        assert guillemin.potential_values(simplex2d(), [0.0, 0.0]) == 0.0

    def test_matches_finite_differences(self):
        # the chart's singular part sum n n^t / l is the Hessian of the
        # potential at every interior node
        for P in (simplex2d(), unit_square()):
            prob = GuilleminProblem(P, guillemin.DensitySpec.guillemin(P), 0.0)
            chart = GridChart(prob, m=9)
            Q = chart.ref_problem.polytope
            f = lambda x: guillemin.potential_values(Q, x)
            for x, base in zip(chart.nodes[chart.interior],
                               np.moveaxis(chart.stencil.base, -1, 0)):
                assert np.allclose(fd_hessian(f, x), base,
                                   rtol=1e-6, atol=1e-5)

    def test_outside_raises(self):
        with pytest.raises(OutsideDomain):
            guillemin.potential_values(simplex2d(), [2.0, 2.0])

    def test_values_batched(self):
        P = simplex2d()
        xs = geometry.sample_interior(P, 10, np.random.default_rng(2))
        vals = guillemin.potential_values(P, xs)
        singles = [guillemin.potential_values(P, x) for x in xs]
        assert np.allclose(vals, singles)


class TestInducedDensity:
    def test_simplex_is_one(self):
        P = simplex2d()
        pts = geometry.sample_interior(P, 20, np.random.default_rng(3))
        for x in pts:
            assert abs(guillemin.guillemin_density(P, x) - 1.0) <= 1e-12

    def test_square_is_one(self):
        P = unit_square()
        pts = geometry.sample_interior(P, 20, np.random.default_rng(4))
        for x in pts:
            assert abs(guillemin.guillemin_density(P, x) - 1.0) <= 1e-12

    def test_boundary_values_simplex(self):
        P = simplex2d()
        # continuous extension equals 1 on the closed simplex
        for x in ([0.0, 0.0], [0.5, 0.0], [0.0, 0.3], [0.5, 0.5]):
            assert abs(guillemin.guillemin_density(P, x) - 1.0) <= 1e-12

    def test_trapezoid_closed_form(self):
        P = trapezoid()
        rng = np.random.default_rng(5)
        pts = geometry.sample_interior(P, 20, rng)
        for x in pts:
            expect = trapezoid_density_closed_form(P, x)
            assert np.isclose(guillemin.guillemin_density(P, x), expect,
                              rtol=1e-10)
        assert np.isclose(guillemin.guillemin_density(P, [0.0, 0.0]), 2.0)
        assert np.isclose(guillemin.guillemin_density(P, [0.5, 0.5]), 1.75)

    @pytest.mark.parametrize("make", [simplex2d, trapezoid, unit_square,
                                      tetrahedron, unit_cube, regular_24gon],
                             ids=lambda make: make.__name__)
    def test_matches_distinct_index_expansion(self, make):
        # interior points, a random point on every facet, and the vertices
        P = make()
        rng = np.random.default_rng(6)
        facet_points = []
        for face in P.faces.values():
            if face.dim == P.dimension - 1:
                w = rng.dirichlet(np.ones(len(face.vertex_ids)))
                facet_points.append(w @ P.vertices[list(face.vertex_ids)])
        pts = np.vstack([geometry.sample_interior(P, 50, rng),
                         facet_points, P.vertices])
        expect = induced_density(P.normals, P.evaluate_all(pts))
        assert np.allclose(guillemin.guillemin_density(P, pts), expect,
                           rtol=1e-13, atol=0.0)

    def test_octahedron_vanishes_at_vertex(self):
        P = octahedron()
        vals = [guillemin.guillemin_density(P, [0.0, 0.0, 1.0 - eps])
                for eps in (1e-1, 1e-2, 1e-3)]
        assert vals[0] > vals[1] > vals[2] > 0

    def test_octahedron_reads_zero_at_its_vertex(self):
        # four facets meet at the apex; the bordered determinant stays
        # finite there, where a form on the n smallest values divides by 0
        assert guillemin.guillemin_density(octahedron(), [1.0, 0.0, 0.0]) == 0.0

    def test_oscillation_shrinks_at_boundary(self):
        P = trapezoid()
        rng = np.random.default_rng(7)
        # boundary points on facet 3, away from its endpoints
        for _ in range(5):
            t = rng.uniform(0.2, 0.8)
            p = np.array([2.0, 0.0]) * (1 - t) + np.array([1.0, 1.0]) * t
            oscs = []
            for r in (0.2, 0.1, 0.05):
                box = p + rng.uniform(-r, r, size=(400, 2))
                box = box[np.min(P.evaluate_all(box), axis=1) > 0]
                vals = [guillemin.guillemin_density(P, x) for x in box]
                oscs.append(np.max(vals) - np.min(vals))
            assert oscs[2] < oscs[0]
            assert oscs[2] < 0.6 * oscs[0]

    def test_outside_raises(self):
        with pytest.raises(OutsideDomain):
            guillemin.guillemin_density(simplex2d(), [1.0, 1.0])


def residuals(P, h):
    return GuilleminProblem(P, h).compatibility_residuals()


class TestVertexCompatibility:
    def test_simplex_origin(self):
        P = simplex2d()
        h = guillemin.DensitySpec.constant(1.0)
        vid = next(i for i, a in enumerate(P.vertex_active) if a == (0, 1))
        assert abs(residuals(P, h)[vid]) <= 1e-14

    def test_simplex_other_vertex(self):
        P = simplex2d()
        h = guillemin.DensitySpec.constant(1.0)
        vid = int(np.argmin(np.linalg.norm(P.vertices - [1.0, 0.0], axis=1)))
        assert abs(residuals(P, h)[vid]) <= 1e-14

    def test_square_constant_two(self):
        P = unit_square()
        h = guillemin.DensitySpec.constant(2.0)
        vid = int(np.argmin(np.linalg.norm(P.vertices, axis=1)))
        assert np.isclose(residuals(P, h)[vid], 1.0)

    def test_induced_density_compatible_everywhere(self):
        for P in (simplex2d(), unit_square(), trapezoid()):
            h = guillemin.DensitySpec.guillemin(P)
            res = residuals(P, h)
            for vid in range(len(P.vertices)):
                assert abs(res[vid]) <= 1e-10

    def test_perturbed_density_compatible(self):
        P = trapezoid()
        h = guillemin.DensitySpec.perturbed(P, 0.3)
        res = residuals(P, h)
        for vid in range(len(P.vertices)):
            assert abs(res[vid]) <= 1e-10

    def test_non_simple_vertex_raises(self):
        P = octahedron()
        h = guillemin.DensitySpec.constant(1.0)
        with pytest.raises(NonSimpleVertex,
                           match="vertex 0 lies on 4 facets, expected 3"):
            residuals(P, h)

    def test_rescaling_covariance(self):
        # the required vertex value picks up prod(lam_inactive) * prod(lam_active^2)
        P = trapezoid()
        rng = np.random.default_rng(8)
        lam = rng.uniform(0.5, 2.0, size=len(P.facets))
        scaled = geometry.build_polytope(
            [geometry.AffineFunctional(lam[i] * f.normal, lam[i] * f.offset)
             for i, f in enumerate(P.facets)])
        zero = guillemin.DensitySpec.constant(0.0)
        res, res2 = residuals(P, zero), residuals(scaled, zero)
        for vid, active in enumerate(P.vertex_active):
            req = -res[vid]
            # match the vertex in the rescaled polytope
            p = P.vertices[vid]
            vid2 = int(np.argmin(np.linalg.norm(scaled.vertices - p, axis=1)))
            req2 = -res2[vid2]
            inactive = [i for i in range(len(P.facets)) if i not in active]
            factor = np.prod(lam[inactive]) * np.prod(lam[list(active)]) ** 2
            assert np.isclose(req2, factor * req, rtol=1e-10)

    @pytest.mark.parametrize("method", ["compatibility_ok",
                                        "compatibility_residuals"])
    def test_one_density_call_on_the_vertices(self, method):
        P = trapezoid()
        h = guillemin.DensitySpec.perturbed(P, 0.3)
        calls = []

        def spy(x):
            calls.append(np.array(x))
            return h(x)

        getattr(GuilleminProblem(P, guillemin.DensitySpec.from_callable(spy)),
                method)()
        assert len(calls) == 1
        assert np.array_equal(calls[0], P.vertices)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_density_fails(self, value):
        # inf - h_G <= 1e-8 inf would read true without the finite test
        prob = GuilleminProblem(unit_square(),
                                guillemin.DensitySpec.constant(value))
        assert not prob.compatibility_ok()


class TestDensitySpec:
    def test_constant(self):
        h = guillemin.DensitySpec.constant(3.0)
        assert h.family[0] == "constant"
        assert h([0.2, 0.7]) == 3.0

    def test_polynomial(self):
        h = guillemin.DensitySpec.polynomial({(0, 0): 1.0, (2, 1): 4.0}, 2)
        assert np.isclose(h([0.5, 2.0]), 1.0 + 4.0 * 0.25 * 2.0)
        assert h.family[0] == "polynomial"

    def test_guillemin_tag(self):
        P = simplex2d()
        h = guillemin.DensitySpec.guillemin(P)
        assert h.family[0] == "guillemin"
        assert np.isclose(h([0.2, 0.3]), 1.0)

    def test_perturbed_formula(self):
        P = unit_square()
        h = guillemin.DensitySpec.perturbed(P, 0.5)
        x = np.array([0.25, 0.5])
        prod_l = np.prod(P.evaluate_all(x))
        assert np.isclose(h(x), 1.0 * (1.0 + 0.5 * prod_l))
        assert h.family[0] == "perturbed"
