"""End-to-end acceptance runs, one test per release criterion.

Every test prints a single PASS/FAIL line with the measured quantity
next to its threshold, then asserts.  Run with ``pytest -s`` to see the
lines for passing criteria too.
"""

import time

import numpy as np
from scipy import integrate
from scipy.special import xlogy

from gma import boundary, geometry, guillemin, legendre, solver, verify
from gma.guillemin import DensitySpec
from gma.problem import GuilleminProblem

from oracles import induced_density


def _report(num, label, ok, detail):
    line = "criterion %02d %s: %s [%s]" % (num, "PASS" if ok else "FAIL",
                                           label, detail)
    print(line)
    assert ok, line


def standard_simplex():
    return geometry.build_polytope([
        geometry.AffineFunctional([1.0, 0.0], 0.0),
        geometry.AffineFunctional([0.0, 1.0], 0.0),
        geometry.AffineFunctional([-1.0, -1.0], -1.0)])


def unit_square():
    return geometry.build_polytope([
        geometry.AffineFunctional([1.0, 0.0], 0.0),
        geometry.AffineFunctional([-1.0, 0.0], -1.0),
        geometry.AffineFunctional([0.0, 1.0], 0.0),
        geometry.AffineFunctional([0.0, -1.0], -1.0)])


def unit_cube():
    facets = []
    for axis in range(3):
        lo = np.zeros(3)
        hi = np.zeros(3)
        lo[axis] = 1.0
        hi[axis] = -1.0
        facets.append(geometry.AffineFunctional(lo, 0.0))
        facets.append(geometry.AffineFunctional(hi, -1.0))
    return geometry.build_polytope(facets)


def test_01_full_pipeline_reproduces_potential_on_simplex():
    P = standard_simplex()
    prob = GuilleminProblem(P, DensitySpec.constant(1.0), 0.0)
    started = time.monotonic()
    errors = {}
    for m in (17, 33, 65):
        bd = boundary.build_boundary_data(prob, grid=m, tol=1e-10)
        sol, rep = solver.newton_solve(prob, boundary=bd, grid=m, tol=1e-10)
        assert rep["converged"]
        # the induced density makes the canonical potential the exact
        # solution, so the regular part is the full nodal error
        errors[m] = float(np.max(np.abs(sol.values)))
    elapsed = time.monotonic() - started
    # the solver applies the singular part analytically, so this
    # problem is reproduced at the rounding floor on every grid; a
    # convergence order is only observable above that floor
    at_floor = max(errors.values()) <= 1e-12
    if at_floor:
        order_note = "errors at rounding floor on all grids"
        order_ok = True
    else:
        orders = (np.log2(errors[17] / errors[33]),
                  np.log2(errors[33] / errors[65]))
        order_note = "orders %.2f/%.2f >= 1.5" % orders
        order_ok = min(orders) >= 1.5
    # the wall time is checked but not printed, so the line is the same
    # on every run of the same code
    ok = errors[33] <= 5e-3 and order_ok and elapsed <= 60.0
    _report(1, "simplex unit-density pipeline", ok,
            "err 17/33/65 = %.2g/%.2g/%.2g <= 5e-3, %s, wall time <= 60s"
            % (errors[17], errors[33], errors[65], order_note))


def test_02_edge_profile_matches_double_quadrature():
    P = geometry.build_polytope([
        geometry.AffineFunctional([1.0], 0.0),
        geometry.AffineFunctional([-1.0], -1.0)])

    def hhat(t):
        t = np.asarray(t, dtype=float)[..., 0]
        return 1.0 + t * (1.0 - t)

    prob = GuilleminProblem(P, DensitySpec.from_callable(hhat), 0.0)
    profile = boundary.solve_edge(prob, tol=1e-12)

    # independent route: both moment integrals by adaptive quadrature
    def q(s):
        return (1.0 + s * (1.0 - s) - (1.0 - s) - s) / (s * (1.0 - s))

    def I0(t):
        return integrate.quad(q, 0.0, t, epsabs=1e-13, limit=200)[0]

    def I1(t):
        return integrate.quad(lambda s: s * q(s), 0.0, t,
                              epsabs=1e-13, limit=200)[0]

    c = -(I0(1.0) - I1(1.0))
    worst = 0.0
    for t in (0.05, 0.2, 0.4, 0.5, 0.65, 0.8, 0.95):
        w_oracle = c * t + t * I0(t) - I1(t)
        worst = max(worst, abs(float(profile.w(np.array([t]))[0]) - w_oracle))
    ok = worst <= 1e-8
    _report(2, "edge solver vs double quadrature", ok,
            "max gap %.3g <= 1e-8" % worst)


def criterion_04_polytopes():
    """Simplex, square, cube, and a prism over a random affine simplex."""
    rng = np.random.default_rng(3)
    # random affine image of the simplex crossed with a random segment
    M = np.array([[1.0 + 0.4 * rng.random(), 0.5 * rng.random()],
                  [0.3 * rng.random(), 1.0 + 0.6 * rng.random()]])
    shift = rng.random(2)
    Minv = np.linalg.inv(M)
    prism_facets = []
    for f in standard_simplex().facets:
        # functional xi -> l(M^-1 (xi - shift)) has normal M^-T n and
        # offset c + n . M^-1 shift
        normal2 = Minv.T @ f.normal
        offset2 = f.offset + float(f.normal @ (Minv @ shift))
        prism_facets.append(geometry.AffineFunctional(
            [normal2[0], normal2[1], 0.0], offset2))
    L = 0.5 + rng.random()
    prism_facets.append(geometry.AffineFunctional([0.0, 0.0, 1.0], 0.0))
    prism_facets.append(geometry.AffineFunctional([0.0, 0.0, -1.0], -L))
    prism = geometry.build_polytope(prism_facets)
    return standard_simplex(), unit_square(), unit_cube(), prism


def test_04_vertex_compatibility_families():
    worst = 0.0
    for P in criterion_04_polytopes():
        h, h_G = GuilleminProblem(P, DensitySpec.guillemin(P),
                                  0.0).vertex_densities()
        worst = max(worst, float(np.max(np.abs(h - h_G))))

    doubled = GuilleminProblem(unit_square(), DensitySpec.constant(2.0), 0.0)
    h, h_G = doubled.vertex_densities()
    residuals = h - h_G
    exact_one = all(r == 1.0 for r in residuals)

    ok = worst <= 1e-10 and exact_one
    _report(4, "vertex matching of induced densities", ok,
            "max residual %.3g <= 1e-10, doubled-square residuals "
            "exactly 1: %s" % (worst, exact_one))


def induced_density_gap():
    """Largest relative gap between DensitySpec.guillemin and the
    distinct-index expansion of tests/oracles.py at the vertices of the
    criterion-04 polytopes."""
    gap = 0.0
    for P in criterion_04_polytopes():
        h = DensitySpec.guillemin(P)(P.vertices)
        ref = induced_density(P.normals, P.evaluate_all(P.vertices))
        gap = max(gap, float(np.max(np.abs(h - ref) / ref)))
    return gap


def test_04_induced_density_matches_expansion():
    # criterion 04 reads the bordered determinant on both sides of its
    # residuals, so only this comparison can see a wrong determinant
    assert induced_density_gap() <= 1e-10


def test_04_twin_fails_on_a_scaled_determinant(monkeypatch):
    bordered = guillemin._bordered_determinant
    monkeypatch.setattr(guillemin, "_bordered_determinant",
                        lambda P, vals: 1.01 * bordered(P, vals))
    assert induced_density_gap() > 1e-10


def test_04_residuals_read_the_induced_density():
    # for a constant density c the residuals are c - h_G(p), one batched
    # bordered determinant against the distinct-index expansion
    c = 2.5
    for P in criterion_04_polytopes():
        prob = GuilleminProblem(P, DensitySpec.constant(c), 0.0)
        h, h_G = prob.vertex_densities()
        got = c - (h - h_G)
        ref = induced_density(P.normals, P.evaluate_all(P.vertices))
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))


def test_05_octahedron_density_degenerates_at_nonsimple_vertex():
    s = 1.0 / np.sqrt(3.0)
    facets = []
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            for sz in (1.0, -1.0):
                facets.append(geometry.AffineFunctional(
                    [s * sx, s * sy, s * sz], -s))
    P = geometry.build_polytope(facets)
    simple, _ = geometry.is_simple(P)
    assert not simple
    vertex = np.array([1.0, 0.0, 0.0])
    values = [float(guillemin.guillemin_density(P, (1.0 - d) * vertex))
              for d in (1e-1, 1e-2, 1e-3)]
    decreasing = values[0] > values[1] > values[2]
    ok = decreasing and values[2] < 1e-2
    _report(5, "octahedron induced density vanishes toward vertex", ok,
            "values %.3g > %.3g > %.3g, last < 1e-2" % tuple(values))


def test_06_barrier_margins():
    details = []
    ok = True
    for label, P in (("square", unit_square()),
                     ("simplex", standard_simplex())):
        # the product-power barrier has no boundary margin (None); its
        # differential margin is the sampled minimum of the curvature
        # ratio, which bounds the curvature only if positive
        res = verify.verify_barrier("product-power", P, samples=400, seed=1)
        good = res.margin_differential > 0.0
        ok = ok and good and len(res.samples) >= 200
        details.append("product-power %s minimum %.3g"
                       % (label, res.margin_differential))

    for k in (2, 3):
        res = verify.verify_barrier("g-concavity", samples=400, seed=1, k=k)
        good = res.margin_differential >= 0.0 and res.margin_boundary >= 0.0
        ok = ok and good and len(res.samples) >= 200
        details.append("g-concavity k=%d margin %.3g"
                       % (k, res.margin_differential))

    _report(6, "barrier certificate margins", ok, "; ".join(details))


def test_07_estimator_ratios_stay_bounded():
    ms = (17, 33, 65)
    simplex_levels, quadrant_levels = verify.estimator_levels(ms, tol=1e-11)
    reports = {
        "lipschitz": verify.estimate_lipschitz(simplex_levels),
        "weighted-hessian": verify.estimate_weighted_hessian(simplex_levels),
    }
    reports.update(verify.estimate_face_asymptotics(quadrant_levels))
    ok = True
    details = []
    for name, rep in reports.items():
        finite = all(np.isfinite(rep.ratios))
        growth = max(rep.trend) if rep.trend else 0.0
        ok = ok and rep.bounded and finite
        details.append("%s max step ratio %.3f" % (name, growth))
    _report(7, "sup ratio growth <= 10%% across %s" % (ms,), ok,
            "; ".join(details))


def test_08_partial_legendre_identities():
    # round trip: the forward map applied twice returns the input field
    def model_u(X1, X2):
        return xlogy(X1, X1) + 0.5 * X2 ** 2

    x1 = np.linspace(0.1, 1.0, 16)
    x2 = np.linspace(-0.5, 0.5, 16)
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    vals = model_u(X1, X2)
    pair = legendre.legendre_forward(vals, (x1, x2),
                                     gradient=lambda x: x[..., 1])
    inner1, inner2 = x1[1:-1], x2[1:-1]
    svals = pair.ustar.reshape(len(inner1), len(inner2))
    back = legendre.legendre_forward(svals, (inner1, inner2),
                                     gradient=lambda y: y[..., 1])
    J1, J2 = np.meshgrid(inner1[1:-1], inner2[1:-1], indexing="ij")
    round_trip = float(np.max(np.abs(back.ustar
                                     - model_u(J1, J2).ravel())))

    # dual equation residual of the transformed solution under
    # refinement, sup over a fixed interior window
    sups = {}
    for m in (9, 17, 33):
        a1 = np.linspace(0.1, 0.9, m)
        a2 = np.linspace(-0.5, 0.5, m)
        A1, A2 = np.meshgrid(a1, a2, indexing="ij")
        p = legendre.legendre_forward(model_u(A1, A2), (a1, a2))
        R = p.transversal_residual(lambda y: np.ones(y.shape[:-1]))
        keep = (p.x_points[:, 0] >= 0.25) & (p.x_points[:, 0] <= 0.75) \
            & (np.abs(p.x_points[:, 1]) <= 0.3)
        sups[m] = float(np.max(np.abs(R[keep])))
    orders = (np.log2(sups[9] / sups[17]), np.log2(sups[17] / sups[33]))

    # flat chart solve returns the quadratic trace exactly
    def density(x):
        x = np.asarray(x, dtype=float)
        return np.ones(x.shape[:-1])

    def trace(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * x[..., 1] ** 2

    msol, rep = legendre.model_solve_z(density, trace, grid=17, tol=1e-11)
    assert rep["converged"]
    Z1, Z2 = np.meshgrid(msol.z1_axis, msol.z2_axis, indexing="ij")
    flat_err = float(np.max(np.abs(msol.values - 0.5 * Z2 ** 2)))

    ok = round_trip <= 1e-8 and min(orders) >= 1.5 and flat_err <= 1e-10
    _report(8, "partial Legendre transform identities", ok,
            "round trip %.3g <= 1e-8, residual orders %.2f/%.2f >= 1.5, "
            "flat chart error %.3g <= 1e-10"
            % (round_trip, orders[0], orders[1], flat_err))


def test_11_solver_invariants_at_release_resolution():
    ok = True
    details = []
    for label, P in (("simplex", standard_simplex()),
                     ("square", unit_square())):
        base = GuilleminProblem(P, DensitySpec.guillemin(P), 0.0)
        pert = GuilleminProblem(P, DensitySpec.perturbed(P, 2.7), 0.0)
        sol1, _ = solver.newton_solve(base, grid=33, tol=1e-11)
        sol2, _ = solver.newton_solve(pert, grid=33, tol=1e-11)
        x = sol1.chart.to_problem(sol1.chart.nodes[sol1.chart.interior])
        gap = sol2.u(x) - sol1.u(x)
        comparison = np.max(gap) <= 1e-9 and np.min(gap) <= -1e-4
        ok = ok and comparison
        details.append("%s comparison max %.3g" % (label, np.max(gap)))

        M = np.array([[2.0, 1.0], [0.0, 1.0]])
        b = np.array([0.3, -0.2])
        Minv = np.linalg.inv(M)
        image = pert.transform(Minv, -Minv @ b)
        soli, _ = solver.newton_solve(image, grid=33, tol=1e-11)
        nodes = sol2.chart.to_problem(
            sol2.chart.nodes[sol2.chart.interior])
        take = nodes[:: max(1, len(nodes) // 25)][:25]
        gap = float(np.max(np.abs(sol2.u(take) - soli.u(take @ M.T + b))))
        equivariant = gap <= 1e-8
        ok = ok and equivariant
        details.append("%s equivariance gap %.3g" % (label, gap))
    _report(11, "comparison and affine equivariance at 33x33", ok,
            "; ".join(details))
