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
from .legendre import local_quadratic_eval
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
    "appendix_checks",
    "interpolation_constant",
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


def _check_face_lift(samples, constants, seed, u):
    c0 = float(constants.get("C0", 1.0))
    depth = float(constants.get("depth", 0.5))
    rng = np.random.default_rng(seed)
    x1 = 10.0 ** rng.uniform(-3, 0, samples) * depth
    x2 = rng.uniform(-1.0, 1.0, samples)
    pts = np.column_stack([x1, x2])

    # for the unit density the lift of the face trace by C0 x1 log x1
    # has Hessian determinant C0 / x1 through the trace equation, so the
    # differential comparison reduces to one closed-form quotient
    margins = (c0 - 1.0) / x1

    # the lift trace(x2) + C0 x1 log x1 meets u on the face x1 = 0; it
    # must stay below u on the other sides of [0, depth] x [-1, 1]
    t = np.linspace(0.0, 1.0, 64)
    sides = np.column_stack([
        np.concatenate([np.full(64, depth), depth * t[1:], depth * t[1:]]),
        np.concatenate([2.0 * t - 1.0, np.full(63, -1.0), np.ones(63)])])
    boundary = min(float(u(p)) - float(u(np.array([0.0, p[1]])))
                   - c0 * float(xlogy(p[0], p[0])) for p in sides)
    return BarrierCheck(
        "face-lift",
        {"C0": c0, "depth": depth},
        pts, float(np.min(margins)), float(boundary))


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
                   seed=0, u=None, k=2):
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
        the facet product on a polytope), "face-lift" (trace lifted by
        a transversal x log x term on the model half-strip with unit
        density), or
        "g-concavity" (determinant versus trace transfer for the k-th
        root of the coordinate product on the quadrant; the boundary
        margin is the least of the quadrant solution minus the
        comparison function on the faces of the unit box).
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
    u : callable, optional
        Required for "face-lift": the model potential at one point whose
        face trace the barrier lifts; the boundary margin is the least
        of u minus the lift on the sides of the half-strip off the face.
    k : int
        Number of degenerate coordinates for "g-concavity".

    Returns
    -------
    BarrierCheck

    Raises
    ------
    ValidationError
        An unknown id, or a required polytope or u missing.
    """
    constants = dict(constants or {})
    if barrier_id == "product-power":
        if polytope is None:
            raise ValidationError("product-power needs a polytope")
        return _check_product_power(polytope, samples, constants, seed)
    if barrier_id == "face-lift":
        if u is None:
            raise ValidationError("face-lift needs a model potential u")
        return _check_face_lift(samples, constants, seed, u)
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
        d1 = x1[1] - x1[0]
        d2 = x2[1] - x2[0]
        V11 = (V[2:, 1:-1] - 2.0 * V[1:-1, 1:-1] + V[:-2, 1:-1]) / d1 ** 2
        V22 = (V[1:-1, 2:] - 2.0 * V[1:-1, 1:-1] + V[1:-1, :-2]) / d2 ** 2
        V12 = (V[2:, 2:] - V[2:, :-2] - V[:-2, 2:] + V[:-2, :-2]) \
            / (4.0 * d1 * d2)
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


def interpolation_constant(k):
    """Derivative interpolation constant from the doubling recursion.

    The one-dimensional seed bounds the first derivative by
    5/2 (eps^-1 sup|f| + eps sup|f''|); iterating the recursion
    c_{k+1} = 2 c_k + 36 c_k^2 lifts it to order k, and resolving the
    epsilon trade-off doubles the constant.
    """
    k = int(k)
    if k < 2:
        raise ValidationError("interpolation needs order at least 2")
    c = 2.5
    for _ in range(k - 2):
        c = 2.0 * c + 36.0 * c * c
    return 2.0 * c


def _product_bound_fields():
    # (label, psi, k, n, closed-form constant)
    return [
        ("x1 x2 sin(x3)",
         lambda x: x[0] * x[1] * np.sin(x[2]), 2, 3, 1.0),
        ("x1 (1 - exp(-x2))",
         lambda x: x[0] * (1.0 - np.exp(-x[1])), 2, 2, 1.0),
        ("sin(x1) sinh(x2)",
         lambda x: np.sin(x[0]) * np.sinh(x[1]), 2, 2, float(np.cosh(1.0))),
        ("x1 x2 x3 exp(x1)",
         lambda x: x[0] * x[1] * x[2] * np.exp(x[0]), 3, 3,
         float(2.0 * np.e)),
        ("x1 x2^2",
         lambda x: x[0] * x[1] ** 2, 2, 2, 2.0),
        ("x1 log(1 + x2)",
         lambda x: x[0] * np.log1p(x[1]), 2, 2, 1.0),
        ("x1 x2 cos(x1 x2)",
         lambda x: x[0] * x[1] * np.cos(x[0] * x[1]), 2, 2, 5.0),
    ]


def _holder_fields():
    # (label, delta, s, sup|s|, sup|grad s|) on [-1, 1]^2
    r2 = float(np.sqrt(2.0))
    return [
        ("|x1|^0.5", 0.5, lambda x: 1.0, 1.0, 0.0),
        ("|x1|^0.5 cos(x2)", 0.5, lambda x: np.cos(x[1]), 1.0, 1.0),
        ("|x1|^0.75", 0.75, lambda x: 1.0, 1.0, 0.0),
        ("|x1|^0.3 (1 + x1 x2 / 4)", 0.3,
         lambda x: 1.0 + 0.25 * x[0] * x[1], 1.25, r2 / 4.0),
        ("|x1|^0.9 exp(x1 - 1)", 0.9,
         lambda x: np.exp(x[0] - 1.0), 1.0, 1.0),
        ("|x1|^0.6 sin(x1 + x2)", 0.6,
         lambda x: np.sin(x[0] + x[1]), 1.0, r2),
    ]


def _interpolation_fields():
    # (label, k, l, derivative table indexed by order)
    return [
        ("sin(10 x)", 2, 1,
         {0: lambda t: np.sin(10 * t), 1: lambda t: 10 * np.cos(10 * t),
          2: lambda t: -100 * np.sin(10 * t)}),
        ("sin(x)", 2, 1,
         {0: np.sin, 1: np.cos, 2: lambda t: -np.sin(t)}),
        ("cos(3 x)", 2, 1,
         {0: lambda t: np.cos(3 * t), 1: lambda t: -3 * np.sin(3 * t),
          2: lambda t: -9 * np.cos(3 * t)}),
        ("x^2", 2, 1,
         {0: lambda t: t ** 2, 1: lambda t: 2 * t,
          2: lambda t: 2.0 + 0 * t}),
        ("sin(5 x) + sin(x) / 2", 2, 1,
         {0: lambda t: np.sin(5 * t) + 0.5 * np.sin(t),
          1: lambda t: 5 * np.cos(5 * t) + 0.5 * np.cos(t),
          2: lambda t: -25 * np.sin(5 * t) - 0.5 * np.sin(t)}),
        ("1 / (1 + x^2)", 2, 1,
         {0: lambda t: 1 / (1 + t ** 2),
          1: lambda t: -2 * t / (1 + t ** 2) ** 2,
          2: lambda t: (6 * t ** 2 - 2) / (1 + t ** 2) ** 3}),
        ("sin(2 x)", 3, 1,
         {0: lambda t: np.sin(2 * t), 1: lambda t: 2 * np.cos(2 * t),
          3: lambda t: -8 * np.cos(2 * t)}),
        ("sin(2 x)", 3, 2,
         {0: lambda t: np.sin(2 * t), 2: lambda t: -4 * np.sin(2 * t),
          3: lambda t: -8 * np.cos(2 * t)}),
    ]


def appendix_checks():
    """Battery of closed-form inequality checks on sampled fields.

    Runs three families: pointwise product bounds for fields vanishing
    on coordinate hyperplanes (constant = a closed-form sup of the
    mixed derivative), Hoelder growth of difference quotients for a
    power-of-distance times smooth factor (constant 8 times a
    closed-form majorant), and derivative interpolation between the
    sup of a function and the sup of its top derivative (constant from
    the doubling recursion).

    Returns
    -------
    list of dict
        One entry per field with id, label, constant, margin, pass.
    """
    rng = np.random.default_rng(7)
    out = []

    for label, psi, k, n, C in _product_bound_fields():
        pts = rng.uniform(0.0, 1.0, (400, n))
        margin = float(np.min(C * np.prod(pts[:, :k], axis=1)
                              - np.abs(psi(pts.T))))
        out.append({"id": "product-bound", "label": label, "k": k,
                    "constant": C, "margin": float(margin),
                    "pass": margin >= 0.0})

    for label, delta, s, sup_s, sup_ds in _holder_fields():
        R = float(np.sqrt(2.0))
        M = max(sup_s, delta * sup_s + R * sup_ds)

        def f(x):
            return np.abs(x[:, 0]) ** delta * s(x.T)

        pairs = rng.uniform(-1.0, 1.0, (2000, 2, 2))
        # pairs reaching the singular line drive the quotient hardest
        t = 10.0 ** rng.uniform(-6, 0, 200)
        straddle = np.stack([np.column_stack([t, 0.3 * t]),
                             np.column_stack([0.0 * t, 0.3 * t])], axis=1)
        a, b = np.concatenate([pairs, straddle]).transpose(1, 0, 2)
        gap = np.linalg.norm(a - b, axis=1)
        keep = gap > 0.0
        sem = float(np.max(np.abs(f(a) - f(b))[keep] / gap[keep] ** delta,
                           initial=0.0))
        margin = 8.0 * M - sem
        out.append({"id": "holder-growth", "label": label, "delta": delta,
                    "constant": 8.0, "margin": float(margin),
                    "pass": margin >= 0.0})

    t = np.linspace(-3.0, 3.0, 4001)
    for label, k, l, der in _interpolation_fields():
        C = interpolation_constant(k)
        A = float(np.max(np.abs(der[0](t))))
        B = float(np.max(np.abs(der[k](t))))
        mid = float(np.max(np.abs(der[l](t))))
        bound = C * A ** (1.0 - l / k) * B ** (l / k)
        margin = bound - mid
        out.append({"id": "interpolation", "label": label, "order": k,
                    "l": l, "constant": C, "margin": float(margin),
                    "pass": margin >= 0.0})
    return out


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
