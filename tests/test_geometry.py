import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import linprog

from gma import geometry, guillemin
from gma.errors import (
    DegenerateNormals,
    EmptyInterior,
    GmaError,
    NonSimpleVertex,
    RedundantFacet,
    Unbounded,
)
from gma.problem import GuilleminProblem

from oracles import brute_force_vertices, chebyshev_center, hull_vertices


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


def unit_cube():
    fs = []
    for a in range(3):
        e = np.zeros(3)
        e[a] = 1.0
        fs.append(geometry.AffineFunctional(e, 0.0))
        fs.append(geometry.AffineFunctional(-e, -1.0))
    return geometry.build_polytope(fs)


def octahedron():
    fs = []
    for signs in itertools.product([1.0, -1.0], repeat=3):
        fs.append(geometry.AffineFunctional(-np.array(signs), -1.0))
    return geometry.build_polytope(fs)


def sorted_pts(pts):
    pts = np.asarray(pts, dtype=float)
    return pts[np.lexsort(pts.T[::-1])]


class TestBuildPolytope:
    def test_simplex_vertices(self):
        P = simplex2d()
        expect = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(sorted_pts(P.vertices), expect, atol=1e-12)
        # 3 vertices, 3 edges, 1 cell
        dims = [f.dim for f in P.faces.values()]
        assert sorted(dims) == [0, 0, 0, 1, 1, 1, 2]

    def test_simplex_active_sets(self):
        P = simplex2d()
        got = {tuple(a) for a in P.vertex_active}
        assert got == {(0, 1), (0, 2), (1, 2)}

    def test_square_vertices(self):
        P = unit_square()
        assert len(P.vertices) == 4
        assert all(len(a) == 2 for a in P.vertex_active)
        expect = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        assert np.allclose(sorted_pts(P.vertices), expect, atol=1e-12)

    def test_cube_counts(self):
        P = unit_cube()
        assert len(P.vertices) == 8
        dims = np.array([f.dim for f in P.faces.values()])
        assert (dims == 0).sum() == 8
        assert (dims == 1).sum() == 12
        assert (dims == 2).sum() == 6
        assert (dims == 3).sum() == 1

    def test_octahedron_against_oracles(self):
        # frozen from the scipy halfspace oracle: 6 vertices, 4 active facets each
        P = octahedron()
        assert len(P.vertices) == 6
        assert all(len(a) == 4 for a in P.vertex_active)
        normals = np.array([f.normal for f in P.facets])
        offsets = np.array([f.offset for f in P.facets])
        assert np.allclose(sorted_pts(P.vertices),
                           hull_vertices(normals, offsets), atol=1e-9)
        assert np.allclose(sorted_pts(P.vertices),
                           brute_force_vertices(normals, offsets), atol=1e-9)

    def test_octahedron_face_lattice_counts(self):
        P = octahedron()
        dims = np.array([f.dim for f in P.faces.values()])
        assert (dims == 0).sum() == 6
        assert (dims == 1).sum() == 12
        assert (dims == 2).sum() == 8
        assert (dims == 3).sum() == 1

    def test_random_polygons_match_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            from oracles import random_polytope_2d
            normals, offsets = random_polytope_2d(rng, nfacets=6)
            try:
                P = geometry.build_polytope(
                    [geometry.AffineFunctional(n, c)
                     for n, c in zip(normals, offsets)])
            except RedundantFacet:
                continue
            assert np.allclose(sorted_pts(P.vertices),
                               hull_vertices(normals, offsets), atol=1e-7)

    def test_unbounded_raises(self):
        with pytest.raises(Unbounded):
            geometry.build_polytope([
                geometry.AffineFunctional([1.0, 0.0], 0.0),
                geometry.AffineFunctional([0.0, 1.0], 0.0),
                geometry.AffineFunctional([-1.0, 0.0], -1.0),
            ])

    def test_empty_interior_raises(self):
        with pytest.raises(EmptyInterior):
            geometry.build_polytope([
                geometry.AffineFunctional([1.0, 0.0], 1.0),
                geometry.AffineFunctional([-1.0, 0.0], 0.0),
                geometry.AffineFunctional([0.0, 1.0], 0.0),
                geometry.AffineFunctional([0.0, -1.0], -1.0),
            ])

    def test_redundant_facet_raises(self):
        # slack halfspace: never active on the square
        with pytest.raises(RedundantFacet):
            geometry.build_polytope([
                geometry.AffineFunctional([1.0, 0.0], 0.0),
                geometry.AffineFunctional([-1.0, 0.0], -1.0),
                geometry.AffineFunctional([0.0, 1.0], 0.0),
                geometry.AffineFunctional([0.0, -1.0], -1.0),
                geometry.AffineFunctional([-1.0, -1.0], -5.0),
            ])

    def test_vertex_touching_facet_raises(self):
        # plane through the corner (1,1) only: supports no edge
        with pytest.raises(RedundantFacet):
            geometry.build_polytope([
                geometry.AffineFunctional([1.0, 0.0], 0.0),
                geometry.AffineFunctional([-1.0, 0.0], -1.0),
                geometry.AffineFunctional([0.0, 1.0], 0.0),
                geometry.AffineFunctional([0.0, -1.0], -1.0),
                geometry.AffineFunctional([-1.0, -1.0], -2.0),
            ])

    def test_zero_normal_raises(self):
        with pytest.raises(DegenerateNormals):
            geometry.build_polytope([
                geometry.AffineFunctional([1.0, 0.0], 0.0),
                geometry.AffineFunctional([0.0, 0.0], -1.0),
                geometry.AffineFunctional([-1.0, -1.0], -1.0),
            ])

    def test_parallel_same_direction_raises(self):
        with pytest.raises(DegenerateNormals):
            geometry.build_polytope([
                geometry.AffineFunctional([1.0, 0.0], 0.0),
                geometry.AffineFunctional([2.0, 0.0], -1.0),
                geometry.AffineFunctional([0.0, 1.0], 0.0),
                geometry.AffineFunctional([-1.0, -1.0], -1.0),
            ])

    def test_trapezoid_antiparallel_normals_ok(self):
        # opposite-direction parallel facets are legitimate
        P = geometry.build_polytope([
            geometry.AffineFunctional([1.0, 0.0], 0.0),
            geometry.AffineFunctional([0.0, 1.0], 0.0),
            geometry.AffineFunctional([0.0, -1.0], -1.0),
            geometry.AffineFunctional([-1.0, -1.0], -2.0),
        ])
        expect = np.array([[0, 0], [0, 1], [1, 1], [2, 0]], dtype=float)
        assert np.allclose(sorted_pts(P.vertices), expect, atol=1e-12)


def recession_by_coordinate_lps(normals):
    """The 2n-LP recession test: maximise +-d_j subject to N d >= 0."""
    m, n = normals.shape
    for j in range(n):
        for sign in (1.0, -1.0):
            c = np.zeros(n)
            c[j] = -sign
            res = linprog(c, A_ub=-normals, b_ub=np.zeros(m),
                          bounds=[(-1.0, 1.0)] * n, method="highs")
            if res.success and -res.fun > 1e-9:
                return True
    return False


class TestRecession:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(0, 4),
           st.booleans())
    def test_extreme_rays_agree_with_coordinate_lps(self, seed, n, extra,
                                                    bounded):
        rng = np.random.default_rng(seed)
        N = rng.normal(size=(n + extra, n))
        if bounded:
            # a negative combination of the others closes the set: the
            # normals then span R^n with a positive dependence
            N = np.vstack([N, -(rng.uniform(0.5, 2.0, size=len(N)) @ N)])
        else:
            # every normal has a positive component along d
            d = rng.normal(size=n)
            d /= np.linalg.norm(d)
            N += (rng.uniform(0.1, 1.0, size=len(N)) - N @ d)[:, None] * d
        N *= 10.0 ** rng.uniform(-3.0, 3.0)
        expect = recession_by_coordinate_lps(N)
        assert expect == (not bounded)
        assert geometry._has_recession_direction(N) == expect

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(3, 4), st.integers(0, 4))
    def test_rank_deficient_normals_are_unbounded(self, seed, n, extra):
        rng = np.random.default_rng(seed)
        # normals in a hyperplane, around the origin, which stays interior;
        # the strip below covers n = 2, where three such normals would
        # include a positively parallel pair
        basis = np.linalg.qr(rng.normal(size=(n, n)))[0][:, :n - 1]
        N = rng.normal(size=(n + extra, n - 1)) @ basis.T
        assert geometry._has_recession_direction(N)
        with pytest.raises(Unbounded):
            geometry.build_polytope([geometry.AffineFunctional(v, -1.0)
                                     for v in N])

    def test_strip_and_prism_are_unbounded(self):
        with pytest.raises(Unbounded):
            geometry.build_polytope([
                geometry.AffineFunctional([1.0, 0.0], 0.0),
                geometry.AffineFunctional([-1.0, 0.0], -1.0),
            ])
        with pytest.raises(Unbounded):
            geometry.build_polytope([
                geometry.AffineFunctional([1.0, 0.0, 0.0], 0.0),
                geometry.AffineFunctional([-1.0, 0.0, 0.0], -1.0),
                geometry.AffineFunctional([0.0, 1.0, 0.0], 0.0),
                geometry.AffineFunctional([0.0, -1.0, 0.0], -1.0),
            ])


def sliver_functionals(n, width):
    """The box [0, 1]^(n-1) x [0, width]."""
    fs = box_functionals(n)
    fs[-1] = geometry.AffineFunctional(-np.eye(n)[-1], -width)
    return fs


class TestEmptyInterior:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("width", [1e-6, 1e-7])
    def test_thin_sliver_builds(self, n, width):
        P = geometry.build_polytope(sliver_functionals(n, width))
        assert len(P.vertices) == 2 ** n
        assert P.faces[()].dim == n

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("width", [3e-9, 1e-11, 1e-13])
    def test_flat_sliver_has_empty_interior(self, n, width):
        # below about 7e-9 (2-D) and 9e-9 (3-D) the vertices span
        # dimension n - 1 to within the affine rank tolerance
        with pytest.raises(EmptyInterior):
            geometry.build_polytope(sliver_functionals(n, width))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 3), st.integers(0, 3))
    def test_vertex_rank_agrees_with_chebyshev_radius(self, seed, n, extra):
        rng = np.random.default_rng(seed)
        N = rng.normal(size=(n + extra, n))
        # a negative combination of the others closes the set
        N = np.vstack([N, -(rng.uniform(0.5, 2.0, size=len(N)) @ N)])
        c = rng.normal(size=len(N))
        center, radius = chebyshev_center(N, c)
        # away from the threshold band around radius 0
        assume(abs(radius) > 1e-3)
        facets = [geometry.AffineFunctional(v, b) for v, b in zip(N, c)]
        if radius < 0:
            with pytest.raises(EmptyInterior):
                geometry.build_polytope(facets)
            return
        try:
            P = geometry.build_polytope(facets)
        except RedundantFacet:
            return
        assert np.min(P.evaluate_all(center)) > 0


class TestScaledFunctionals:
    def test_long_normal_keeps_its_vertices(self):
        # x >= 0, y >= 0, x + 1e6 y <= 1: the pair {y >= 0, x + 1e6 y <= 1}
        # is badly conditioned as written, not as a pair of lines
        fs = simplex_functionals(2)
        fs[2] = geometry.AffineFunctional([-1.0, -1e6], -1.0)
        P = geometry.build_polytope(fs)
        expect = [[0.0, 0.0], [0.0, 1e-6], [1.0, 0.0]]
        assert np.allclose(sorted_pts(P.vertices), expect, rtol=0, atol=1e-15)
        assert P.faces[()].dim == 2

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(range(6)),
           st.lists(st.floats(-6.0, 6.0), min_size=6, max_size=6))
    def test_scaling_functionals_keeps_the_vertices(self, seed, shape,
                                                    exponents):
        # each functional scaled by its own factor in [1e-6, 1e6]
        make = [lambda: simplex_functionals(2), lambda: simplex_functionals(3),
                lambda: box_functionals(2), lambda: box_functionals(3),
                prism_functionals, lambda: sliver_functionals(2, 1e-3)][shape]
        rng = np.random.default_rng(seed)
        ref = geometry.build_polytope(make())
        fs = pulled(ref, (), *random_frame(rng, ref.dimension))
        P = geometry.build_polytope(fs)
        fs = [geometry.AffineFunctional(10.0 ** e * f.normal,
                                        10.0 ** e * f.offset)
              for f, e in zip(fs, exponents)]
        Q = geometry.build_polytope(fs)
        assert Q.vertex_active == P.vertex_active
        assert np.allclose(Q.vertices, P.vertices, rtol=0, atol=1e-12)
        normals = np.array([f.normal for f in fs])
        offsets = np.array([f.offset for f in fs])
        assert np.allclose(sorted_pts(Q.vertices),
                           brute_force_vertices(normals, offsets),
                           rtol=0, atol=1e-9)


class TestFaceLattice:
    def test_closed_under_intersection(self):
        for P in (simplex2d(), unit_cube(), octahedron()):
            keys = set(P.faces.keys())
            for a, b in itertools.combinations(keys, 2):
                inter = tuple(sorted(set(a) & set(b)))
                canon = P.canonical_active(inter)
                if canon is not None:
                    assert canon in keys

    def test_subface_cover_relation(self):
        P = unit_cube()
        body = P.faces[()]
        assert body.dim == 3
        kids = [f for f in P.faces.values() if f.dim == 2]
        assert len(kids) == 6
        for f in kids:
            assert set(f.vertex_ids) < set(body.vertex_ids)

    def test_face_vertices_consistent(self):
        P = unit_cube()
        for key, face in P.faces.items():
            for vid in face.vertex_ids:
                assert set(key) <= set(P.vertex_active[vid])


def simplex_functionals(n):
    fs = [geometry.AffineFunctional(np.eye(n)[a], 0.0) for a in range(n)]
    fs.append(geometry.AffineFunctional(-np.ones(n), -1.0))
    return fs


def box_functionals(n):
    fs = []
    for a in range(n):
        fs.append(geometry.AffineFunctional(np.eye(n)[a], 0.0))
        fs.append(geometry.AffineFunctional(-np.eye(n)[a], -1.0))
    return fs


def prism_functionals():
    fs = [geometry.AffineFunctional([1.0, 0.0, 0.0], 0.0),
          geometry.AffineFunctional([0.0, 1.0, 0.0], 0.0),
          geometry.AffineFunctional([-1.0, -1.0, 0.0], -1.0)]
    return fs + [geometry.AffineFunctional([0.0, 0.0, 1.0], 0.0),
                 geometry.AffineFunctional([0.0, 0.0, -1.0], -1.0)]


def random_frame(rng, n):
    """Affine map x = M xi + b with singular values of M in [0.6, 1.6]."""
    U = np.linalg.qr(rng.normal(size=(n, n)))[0]
    V = np.linalg.qr(rng.normal(size=(n, n)))[0]
    return U @ np.diag(rng.uniform(0.6, 1.6, size=n)) @ V, rng.normal(size=n)


def pulled(P, key, A, c):
    """Pullbacks of the facets outside key that vanish on the face."""
    verts = P.vertices[list(P.faces[key].vertex_ids)]
    return [geometry.AffineFunctional(A.T @ f.normal, f.offset - f.normal @ c)
            for j, f in enumerate(P.facets)
            if j not in key and np.min(f(verts)) <= P.tau]


def assert_same_polytope(Q, R):
    assert np.array_equal(Q.normals, R.normals)
    assert np.array_equal(Q.offsets, R.offsets)
    assert np.array_equal(Q.vertices, R.vertices)
    assert Q.vertex_active == R.vertex_active
    assert ({k: (f.active, f.dim, f.vertex_ids) for k, f in Q.faces.items()}
            == {k: (f.active, f.dim, f.vertex_ids) for k, f in R.faces.items()})
    assert Q.tau == R.tau


class TestPullBack:
    @pytest.mark.parametrize("make", [
        lambda: simplex_functionals(2), lambda: simplex_functionals(3),
        lambda: simplex_functionals(4), lambda: box_functionals(3),
        lambda: box_functionals(4), prism_functionals,
    ], ids=["simplex2d", "simplex3d", "simplex4d", "cube", "box4d", "prism"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_build_polytope(self, make, seed):
        rng = np.random.default_rng(seed)
        ref = geometry.build_polytope(make())
        n = ref.dimension
        P = geometry.build_polytope(pulled(ref, (), *random_frame(rng, n)))
        for key, face in P.faces.items():
            if face.dim == 0:
                continue
            if key:
                base, tangent = geometry.face_frame(P, key)
            else:
                tangent, base = random_frame(rng, n)
            # the face tolerance is the ambient one; the whole polytope
            # falls back to 1e-9 times its diameter
            tau = P.tau if key else None
            got = geometry.pull_back(P, key, tangent, base, tau)
            want = geometry.build_polytope(pulled(P, key, tangent, base),
                                           tau_geom=tau)
            assert_same_polytope(got, want)

    def test_nonsimple_face_raises(self):
        P = octahedron()
        base, tangent = geometry.face_frame(P, (0,))
        with pytest.raises(NonSimpleVertex):
            geometry.pull_back(P, (0,), tangent, base, P.tau)

    @pytest.mark.parametrize("M", [np.diag([1.0, 1e-13]),
                                   np.array([[1.0, 1.0], [1.0, 1.0]])],
                             ids=["near-singular", "singular"])
    def test_singular_transform_raises(self, M):
        prob = GuilleminProblem(unit_square(),
                                guillemin.DensitySpec.constant(1.0))
        with pytest.raises(GmaError):
            prob.transform(M, np.zeros(2))


class TestIsSimple:
    def test_simplex_simple(self):
        ok, bad = geometry.is_simple(simplex2d())
        assert ok is True
        assert bad == []

    def test_cube_simple(self):
        ok, bad = geometry.is_simple(unit_cube())
        assert ok is True
        assert bad == []

    def test_octahedron_not_simple(self):
        # each of the six vertices lies on four of the eight facets
        P = octahedron()
        ok, bad = geometry.is_simple(P)
        assert ok is False
        assert bad == list(range(6))
        assert all(len(P.vertex_active[k]) == 4 for k in bad)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_affine_invariance(self, seed):
        rng = np.random.default_rng(seed)
        T = rng.uniform(-2.0, 2.0, size=(3, 3))
        if abs(np.linalg.det(T)) < 0.2:
            T = T + 3.0 * np.eye(3)
        shift = rng.uniform(-1.0, 1.0, size=3)
        for make in (unit_cube, octahedron):
            P = make()
            # l(Ty + b) = (T^t n) . y - (c - n . b)
            mapped = [geometry.AffineFunctional(T.T @ f.normal,
                                                f.offset - f.normal @ shift)
                      for f in P.facets]
            Q = geometry.build_polytope(mapped)
            assert geometry.is_simple(Q)[0] == geometry.is_simple(P)[0]


class TestPolytopeQueries:
    def test_diameter(self):
        assert np.isclose(simplex2d().diameter, np.sqrt(2.0))
        assert np.isclose(unit_cube().diameter, np.sqrt(3.0))

    def test_sample_interior_deterministic(self):
        P = unit_square()
        a = geometry.sample_interior(P, 50, np.random.default_rng(42))
        b = geometry.sample_interior(P, 50, np.random.default_rng(42))
        assert np.array_equal(a, b)
        assert np.all(P.evaluate_all(a) > 0)
