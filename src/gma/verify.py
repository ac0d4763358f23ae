"""Closed-form certificates and refinement diagnostics.

Three groups of checks back the solver up.  Quadrant oracles evaluate
the explicit degenerate solutions (log terms on the vanishing
coordinates plus a quadratic bulk) together with the defect of the
equation they satisfy, so any consumer can confirm the algebra to
rounding.  Barrier certificates evaluate comparison functions whose
derivatives are written out in closed form and report the worst
sampled margin of the differential inequality and of the boundary
comparison.  Mesh estimators take a solved field on a sequence of
refined grids near a face or a corner and track the sup of the
quantity each regularity statement bounds, flagging growth beyond ten
percent per refinement.

Everything here is deterministic: sampling uses seeded generators and
all reductions run over sorted sample order.
"""

from typing import NamedTuple

import numpy as np
from scipy.special import xlogy

from . import geometry
from .errors import (OutsideDomain, OutsideQuadrant, SolverError,
                     ValidationError)
from .guillemin import DensitySpec, potential_values
from .legendre import local_quadratic_eval, second_differences
from .problem import GuilleminProblem
from .solver import newton_solve

__all__ = [
    "LiouvilleData",
    "liouville_oracle",
    "BarrierCheck",
    "verify_barrier",
    "EstimateReport",
    "estimate_lipschitz",
    "estimate_weighted_hessian",
    "estimate_face_asymptotics",
    "solution_probe",
    "estimator_levels",
]

_TREND_FLOOR = 1e-12
_TREND_LIMIT = 1.1


class LiouvilleData(NamedTuple):
    value: float
    gradient: np.ndarray
    hessian: np.ndarray
    residual: float


def liouville_oracle(x, k):
    """Explicit quadrant solution and the defect of its equation.

    The potential is sum_{a<=k} x_a log x_a plus half the squared norm
    of the remaining coordinates.  It solves the degenerate equation
    prod_{a<=k} x_a det D2 u = 1 on the open quadrant exactly; the
    returned residual is that product minus one, evaluated in floating
    point from the closed-form Hessian.

    Parameters
    ----------
    x : ndarray, shape (n,) or (m, n)
        One point or m rows; the first k coordinates must be positive.
    k : int
        Number of degenerate coordinates.

    Returns
    -------
    LiouvilleData
        value, gradient, hessian, residual; rows add a leading axis m.

    Raises
    ------
    OutsideQuadrant
        When any of the first k coordinates is not strictly positive.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n, k = x.shape[-1], int(k)
    if not 1 <= k <= n:
        raise ValidationError("need 1 <= k <= n")
    head, tail = x[..., :k], x[..., k:]
    if np.any(head <= 0.0):
        raise OutsideQuadrant(
            "oracle needs the first %d coordinates positive" % k)
    with np.errstate(over="ignore"):  # callers test the value
        value = np.sum(head * np.log(head), -1) + 0.5 * np.sum(tail ** 2, -1)
    gradient = np.concatenate([1.0 + np.log(head), tail], axis=-1)
    hessian = np.zeros(x.shape + (n,))
    hessian[..., range(n), range(n)] = np.concatenate(
        [1.0 / head, np.ones_like(tail)], axis=-1)
    residual = np.prod(head, -1) * np.linalg.det(hessian) - 1.0
    if x.ndim == 1:
        value, residual = float(value), float(residual)
    return LiouvilleData(value, gradient, hessian, residual)


class BarrierCheck(NamedTuple):
    barrier_id: str
    constants: dict
    samples: np.ndarray
    margin_differential: float
    margin_boundary: float | None


def _vertex_rays(P):
    centroid = P.vertices.mean(axis=0)
    t = 2.0 ** -np.arange(1, 13)
    rays = [v + t[:, None] * (centroid - v) for v in P.vertices]
    return np.concatenate(rays, axis=0)


def _check_product_power(P, samples, constants, seed):
    n = P.dimension
    alpha = float(constants.get("alpha_exp", 1.0 / (2.0 * n)))
    pts = geometry.sample_interior(P, samples, np.random.default_rng(seed))
    pts = np.concatenate([pts, _vertex_rays(P)], axis=0)
    N = P.normals

    # curvature ratio: det(-D2 H) over (prod l)^(n alpha - 2) reduces to
    # alpha^n (prod l)^2 det(M - alpha b b^T) with M = sum n n^T / l^2
    # and b = sum n / l, all in closed form; by the determinant lemma it
    # is positive exactly where -D2 H is positive definite
    l = P.evaluate_all(pts)[:, :, None]
    b = (N / l).sum(axis=1)
    M = (N[:, :, None] * N[:, None, :] / (l ** 2)[..., None]).sum(axis=1)
    vals = (alpha ** n * np.prod(l[..., 0], axis=1) ** 2 * np.linalg.det(
        M - alpha * b[:, :, None] * b[:, None, :]))

    # no boundary comparison: the barrier vanishes on every facet by
    # construction, whatever the constants
    return BarrierCheck("product-power", {"alpha_exp": alpha}, pts,
                        float(np.min(vals)), None)


def _check_g_concavity(samples, constants, seed, k):
    k = int(k)
    c0 = float(constants.get("C0", 1.0))
    B = float(constants.get("B", 1.0))
    delta = float(constants.get("delta", 0.1))
    rng = np.random.default_rng(seed)
    pts = 10.0 ** rng.uniform(-3, 0, (samples, k))

    # concavity transfer: the determinant of the shifted matrix must
    # dominate its first-order trace expansion with the stated constant;
    # MG is the square-root-weighted Hessian of G = (prod x_a)^(1/k)
    c = 1.0 + delta
    G = np.prod(pts, axis=1) ** (1.0 / k)
    v = 1.0 / np.sqrt(pts)
    MG = (G / k ** 2)[:, None, None] * (
        v[:, :, None] * v[:, None, :] - k * v[:, :, None] ** 2 * np.eye(k))
    margins = np.linalg.det(c * np.eye(k) - B * MG) - (
        c ** k - (B / c0) * np.trace(MG, axis1=1, axis2=2))

    # w = c sum x_a log x_a - B G, of scaled Hessian c I - B MG, must stay
    # below the quadrant solution u = sum x_a log x_a on the faces of
    # [0, 1]^k, the samples moved onto each: u - w = B G - delta u
    faces = np.concatenate([np.where(np.arange(k) == a, end, pts)
                            for a in range(k) for end in (0.0, 1.0)])
    gaps = (B * np.prod(faces, axis=1) ** (1.0 / k)
            - delta * np.sum(xlogy(faces, faces), axis=1))
    return BarrierCheck(
        "g-concavity",
        {"C0": c0, "B": B, "delta": delta, "k": k},
        pts, float(np.min(margins)), float(np.min(gaps)))


def verify_barrier(barrier_id, polytope=None, samples=200, constants=None,
                   seed=0, k=2):
    """Evaluate one comparison-function certificate on a sample set.

    Margins come from closed-form derivative expressions of the barrier
    alone; no numerical solve enters.  A nonnegative differential
    margin means the inequality held at every sample, a nonnegative
    boundary margin means the comparison on the boundary held; the
    "product-power" margin, the least sampled curvature ratio, must be
    positive.

    Parameters
    ----------
    barrier_id : str
        One of "product-power" (curvature lower bound for a power of
        the facet product on a polytope) or "g-concavity" (determinant
        versus trace transfer for the k-th root of the coordinate
        product on the quadrant; the boundary margin is the least of
        the quadrant solution minus the comparison function on the
        faces of the unit box).
        "product-power" has no boundary margin (None): its barrier
        vanishes on every facet whatever the constants.
    polytope : Polytope, optional
        Required for "product-power".
    samples : int
        Number of random sample points.
    constants : dict, optional
        Certificate constants; missing entries get defaults
        (alpha_exp = 1/(2n), C0 = 1, B = 1, delta = 0.1).
    seed : int
        Sampling seed.
    k : int
        Number of degenerate coordinates for "g-concavity".

    Returns
    -------
    BarrierCheck

    Raises
    ------
    ValidationError
        An unknown id, or "product-power" without a polytope.
    """
    constants = dict(constants or {})
    if barrier_id == "product-power":
        if polytope is None:
            raise ValidationError("product-power needs a polytope")
        return _check_product_power(polytope, samples, constants, seed)
    if barrier_id == "g-concavity":
        return _check_g_concavity(samples, constants, seed, k)
    raise ValidationError("unknown barrier id %r" % (barrier_id,))


class EstimateReport(NamedTuple):
    estimate_id: str
    ratios: tuple
    trend: tuple
    bounded: bool


def _load_level(values, axes, need_corner=False):
    V = np.asarray(values, dtype=float)
    if V.ndim != 2:
        raise ValidationError("estimator levels must be planar grids")
    x1, x2 = (np.asarray(a, dtype=float) for a in axes)
    if V.shape != (x1.size, x2.size):
        raise ValidationError("grid values do not match the axes")
    for ax, label in ((x1, "transversal"), (x2, "tangential")):
        steps = np.diff(ax)
        if ax.size < 4 or np.min(steps) <= 0 or not np.allclose(
                steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValidationError(
                "%s axis must be uniform with at least 4 nodes" % label)
    if abs(x1[0]) > 0.0:
        raise ValidationError("transversal axis must start at the face")
    if need_corner and abs(x2[0]) > 0.0:
        raise ValidationError("both axes must start at the corner")
    return V, x1, x2


def _finish(estimate_id, ratios):
    # one level has no trend to grade, and all() of none would pass it
    if len(ratios) < 2:
        raise ValidationError("estimators need at least two levels")
    trend = tuple(ratios[i + 1] / max(ratios[i], _TREND_FLOOR)
                  for i in range(len(ratios) - 1))
    bounded = all(t <= _TREND_LIMIT for t in trend)
    return EstimateReport(estimate_id, tuple(ratios), trend, bounded)


def estimate_lipschitz(levels):
    """Transversal difference-quotient sup across refinements.

    Two or more levels, each (values, (x1_axis, x2_axis)), the first
    axis starting at the face x1 = 0.  The estimator reports the sup over
    interior nodes (a one-node collar is excluded) of
    |v(x1, x2) - v(0, x2)| / x1 and whether the sequence of sups grows
    by more than ten percent between consecutive refinements.

    Returns
    -------
    EstimateReport
    """
    ratios = []
    for values, axes in levels:
        V, x1, _ = _load_level(values, axes)
        Q = np.abs(V[1:-1, 1:-1] - V[0, 1:-1][None, :]) \
            / x1[1:-1][:, None]
        ratios.append(float(Q.max()))
    return _finish("lipschitz", ratios)


def estimate_weighted_hessian(levels):
    """Sup of the face-weighted second-difference combination.

    Tracks x1 |v_11| + sqrt(x1) |v_12| + |v_22| over interior nodes,
    the combination that stays bounded up to the face when the
    transversal direction degenerates linearly.

    Returns
    -------
    EstimateReport
    """
    ratios = []
    for values, axes in levels:
        V, x1, x2 = _load_level(values, axes)
        V11, V12, V22 = second_differences(V, x1[1] - x1[0], x2[1] - x2[0])
        w1 = x1[1:-1][:, None]
        Q = w1 * np.abs(V11) + np.sqrt(w1) * np.abs(V12) + np.abs(V22)
        ratios.append(float(Q.max()))
    return _finish("weighted-hessian", ratios)


def estimate_face_asymptotics(levels):
    """Remainder-to-weight ratios near a corner of two vanishing faces.

    The remainder is the field minus its separable extension, the
    discrete inclusion-exclusion F[i, j] = V[0, j] + V[i, 0] - V[0, 0]
    of the two face traces, which reproduces any separable field
    exactly.  Two weights are reported: the square root of the
    coordinate product and the full product.  Nodes with a vanishing
    coordinate are excluded.

    Parameters
    ----------
    levels : list of (values, (x1_axis, x2_axis))
        Both axes must start at 0.

    Returns
    -------
    dict of EstimateReport
        Keyed by "root-product" and "full-product".
    """
    acc = {"root-product": [], "full-product": []}
    for values, axes in levels:
        V, x1, x2 = _load_level(values, axes, need_corner=True)
        F = V[0:1, :] + V[:, 0:1] - V[0, 0]
        R = np.abs(V - F)[1:-1, 1:-1]
        prod = np.outer(x1[1:-1], x2[1:-1])
        acc["root-product"].append(float((R / np.sqrt(prod)).max()))
        acc["full-product"].append(float((R / prod).max()))
    return {key: _finish(key, ratios) for key, ratios in acc.items()}


def appendix_checks():
    """No checks; kept only because perfbench/tracer.py binds this name."""
    return []


def solution_probe(solution):
    """Smooth point evaluator for the regular part of a solved chart.

    Piecewise-linear interpolation of the lattice values has kinks
    whose second differences do not converge; the probe instead reads
    the quadratic Lagrange (P2) interpolant of the lattice values on the
    even sublattice (:func:`gma.legendre.local_quadratic_eval`), which
    the mesh estimators can difference safely.

    Parameters
    ----------
    solution : RegularizedSolution

    Returns
    -------
    callable
        x -> regular part at one point (n,) or at points (k, n); raises
        OutsideDomain beyond the polytope's tau, and reads points
        within it on the polytope.
    """
    chart = solution.chart
    values = np.asarray(solution.values, dtype=float)
    P = solution.problem.polytope
    top = chart.m - 1

    def probe(x):
        if np.min(P.distances(x), initial=0.0) < -P.tau:
            raise OutsideDomain("probe point outside the polytope")
        return local_quadratic_eval(
            values, chart.node_ids, chart.strides, top,
            chart.to_reference(x) * top, chart.kind == "simplex")

    return probe


def _unit_square():
    return geometry.build_polytope([
        geometry.AffineFunctional([1.0, 0.0], 0.0),
        geometry.AffineFunctional([-1.0, 0.0], -1.0),
        geometry.AffineFunctional([0.0, 1.0], 0.0),
        geometry.AffineFunctional([0.0, -1.0], -1.0)])


def _standard_simplex():
    return geometry.build_polytope([
        geometry.AffineFunctional([1.0, 0.0], 0.0),
        geometry.AffineFunctional([0.0, 1.0], 0.0),
        geometry.AffineFunctional([-1.0, -1.0], -1.0)])


def estimator_levels(levels, tol=1e-10, max_iter=30):
    """Edge and corner probe grids on refined lattices, for the estimators.

    Edge: u - x1 log x1 on [0, 0.25] x [0.25, 0.45] for the standard
    simplex with the perturbed density of strength 0.4.  Corner: u -
    x1 log x1 - x2 log x2 on [0, 0.5]^2 for the unit square with density
    (1 - x1)(1 - x2) and the traces of x1 log x1 + x2 log x2.  Level m
    solves on the lattice of size m, raising SolverError unless it
    converges, and probes an m x m grid in one call.  Returns the lists
    (edge, corner) of (values, (x1_axis, x2_axis)), one entry per level.
    """
    simplex, square = _standard_simplex(), _unit_square()

    class QuadrantTraces:
        # regular part of x1 log x1 + x2 log x2 at (k, 2) points
        def v(self, x):
            return xlogy(x[..., 0], x[..., 0]) + xlogy(x[..., 1], x[..., 1]) \
                - potential_values(square, x)

    def probe_grid(problem, boundary, m, x1, x2):
        sol, rep = newton_solve(problem, boundary=boundary, grid=m, tol=tol,
                                max_iter=max_iter)
        if not rep["converged"]:
            raise SolverError("estimator solve did not converge at %d" % m)
        X = np.stack(np.meshgrid(x1, x2, indexing="ij"), -1).reshape(-1, 2)
        return X, solution_probe(sol)(X)

    edge_problem = GuilleminProblem(
        simplex, DensitySpec.perturbed(simplex, 0.4), 0.0)
    corner_problem = GuilleminProblem(square, DensitySpec.from_callable(
        lambda x: (1.0 - x[..., 0]) * (1.0 - x[..., 1])), 0.0)
    edge, corner = [], []
    for m in map(int, levels):
        x1, x2 = np.linspace(0.0, 0.25, m), np.linspace(0.25, 0.45, m)
        X, v = probe_grid(edge_problem, None, m, x1, x2)
        v = v + potential_values(simplex, X) - xlogy(X[:, 0], X[:, 0])
        edge.append((v.reshape(m, m), (x1, x2)))
        ax = np.linspace(0.0, 0.5, m)
        X, v = probe_grid(corner_problem, QuadrantTraces(), m, ax, ax)
        v = v + xlogy(1.0 - X[:, 0], 1.0 - X[:, 0]) \
            + xlogy(1.0 - X[:, 1], 1.0 - X[:, 1])
        corner.append((v.reshape(m, m), (ax, ax)))
    return edge, corner
