"""Boundary data by induction over the face lattice.

The solution of the degenerate Monge-Ampere problem restricts, on every
proper face, to the solution of a problem of the same type in fewer
variables; a face's trace is shared by every face that contains it.
This module walks the face lattice once, in increasing dimension: it
pulls the problem back to each face, solves the one dimensional edge
problems by quadrature, and solves each higher dimensional face with
the interior solver, its boundary values read off the traces of its
subfaces.  Each face is checked against its subfaces where it is built:
edge profiles against the vertex values at their ends, face solutions
by their stored boundary values and a residual audit.  The traces are
assembled into a single evaluator with a consistency report.
"""

import numpy as np
from typing import NamedTuple
from scipy.special import xlogy

from . import geometry, guillemin
from .errors import (
    IncompatibleEndpoint,
    InconsistentTraces,
    MissingTrace,
    NotAFace,
    OutsideDomain,
    QuadratureFailure,
    SolverError,
    ValidationError,
)
from .problem import GuilleminProblem, vertex_rule

_LEG = np.polynomial.legendre
_GL_NODES, _GL_WEIGHTS = _LEG.leggauss(15)
# q at a panel's Gauss nodes -> Legendre coefficients in tau in [-1, 1] of
# the second antiderivative of its interpolant, 0 with its slope at -1
_SECOND_INTEGRAL = _LEG.legint(
    (np.arange(15)[:, None] + 0.5) * _LEG.legvander(_GL_NODES, 14).T
    * _GL_WEIGHTS, m=2, lbnd=-1)
_MAX_DEPTH = 40


class RestrictedProblem:
    """A problem pulled back to a proper face in orthonormal face coordinates.

    Attributes
    ----------
    problem : GuilleminProblem
        The face problem: face polytope in chart coordinates, effective
        density, and the ambient vertex values carried over.
    absorbed : list of (int, AffineFunctional)
        Ambient facets strictly positive on the closed face, paired with
        their pullbacks; the ambient density is divided by them.
    """

    __slots__ = ("problem", "absorbed", "_base", "_tangent")

    def __init__(self, problem, absorbed, base, tangent):
        self.problem = problem
        self.absorbed = absorbed
        self._base = base
        self._tangent = tangent

    def to_ambient(self, xi):
        """Map face coordinates (shape (..., d)) to ambient points."""
        xi = np.asarray(xi, dtype=float)
        return xi @ self._tangent.T + self._base

    def from_face(self, x):
        """Tangential coordinates of an ambient point on the face."""
        x = np.asarray(x, dtype=float)
        return (x - self._base) @ self._tangent


def restrict_problem(problem, gamma):
    """Pull the problem back to the face cut out by the facets ``gamma``.

    Ambient facet functionals restrict to affine functions on the face.
    Those vanishing somewhere on the closed face become the facets of the
    face polytope; the strictly positive ones are absorbed into the
    effective density, which is the ambient density divided by their
    product and by the Gram determinant det(G G^t) of the active normals.
    The Gram factor comes from the limit of det D2u as the active
    functionals vanish: the Hessian splits into a singular block over the
    active normals, contributing Gram / prod(active l), and the
    tangential block of the restricted function.  The absorbed factors
    are generally nonconstant, so the effective density of an
    induced-density problem need not coincide with the face's own induced
    density.

    Parameters
    ----------
    problem : GuilleminProblem
    gamma : iterable of int
        Facet indices of a proper face of dimension >= 1.

    Returns
    -------
    RestrictedProblem

    Raises
    ------
    NotAFace
        ``gamma`` is not the active set of a proper face of positive
        dimension.
    NonSimpleVertex
        A vertex of the face lies on too many of its facets.
    """
    P = problem.polytope
    n = P.dimension
    key = tuple(sorted(int(i) for i in gamma))
    face = P.faces.get(key)
    if face is None or face.dim == 0 or face.dim == n:
        raise NotAFace("%s does not label a proper face of positive "
                       "dimension" % (key,))
    if face.dim != n - len(key):
        raise NotAFace("face %s has dimension %d, expected %d"
                       % (key, face.dim, n - len(key)))
    base, tangent = geometry.face_frame(P, key)
    face_poly = geometry.pull_back(P, key, tangent, base, P.tau)

    # the facets that vanish nowhere on the closed face
    touching = set().union(*(P.vertex_active[v] for v in face.vertex_ids))
    absorbed = [(j, geometry.AffineFunctional(tangent.T @ f.normal,
                                              f.offset - f.normal @ base))
                for j, f in enumerate(P.facets) if j not in touching]
    values = problem.vertex_values[list(face.vertex_ids)]

    ambient_density = problem.density
    absorbed_funcs = [g for _, g in absorbed]
    G = P.normals[list(key)]
    gram = float(np.linalg.det(G @ G.T))

    def effective_density(xi):
        xi = np.asarray(xi, dtype=float)
        x = xi @ tangent.T + base
        vals = np.asarray(ambient_density(x), dtype=float) / gram
        for g in absorbed_funcs:
            vals = vals / g(xi)
        return vals

    density = guillemin.DensitySpec.from_callable(effective_density)
    name = None
    if problem.name:
        name = "%s|%s" % (problem.name, ",".join(str(i) for i in key))
    face_problem = GuilleminProblem(face_poly, density, values, name=name)
    return RestrictedProblem(face_problem, absorbed, base, tangent)


class EdgeProfile:
    """Solution of a one dimensional problem on an interval.

    The substitution u = w + c_a a log a + c_b b log b turns u'' = h/(ab)
    into w'' = q with q = (h - c_a a'^2 b - c_b b'^2 a)/(ab).  The
    endpoint split c_a = h/(a'^2 b) at the left end and c_b = h/(b'^2 a)
    at the right takes the endpoint singularity of h/(ab) in closed form:
    the numerator of q vanishes at both ends, so q is bounded and w is
    the regular part.  c_a and c_b are 1 when the endpoint matching
    condition holds exactly, and within ``COMPATIBILITY_RTOL`` of it.
    The profile keeps the panels that :func:`solve_edge` accepted: the
    moments of q up to each panel start, and the second antiderivative
    of the panel's Legendre interpolant of the q samples the quadrature
    took.  w and u are read back in closed form, with no density call
    and no quadrature.
    """

    __slots__ = ("t_lo", "t_hi", "a_slope", "b_slope", "c_a", "c_b", "w0",
                 "c", "n_panels", "_starts", "_ends", "_cum0", "_cum1",
                 "_coef")

    def __init__(self, t_lo, t_hi, a_slope, b_slope, c_a, c_b, w0, c, starts,
                 ends, cum0, cum1, coef):
        self.t_lo = t_lo
        self.t_hi = t_hi
        self.a_slope = a_slope
        self.b_slope = b_slope
        self.c_a = c_a
        self.c_b = c_b
        self.w0 = w0
        self.c = c
        self._starts = starts
        self._ends = ends
        self._cum0 = cum0
        self._cum1 = cum1
        self._coef = coef
        self.n_panels = len(starts)

    def w(self, ts):
        """The regular part at ts (scalar or 1d array)."""
        ts = np.asarray(ts, dtype=float)
        scalar = ts.ndim == 0
        tt = np.atleast_1d(ts)
        pad = 1e-9 * (self.t_hi - self.t_lo)
        if np.min(tt) < self.t_lo - pad or np.max(tt) > self.t_hi + pad:
            raise OutsideDomain("edge profile evaluated outside the interval")
        idx = np.clip(np.searchsorted(self._starts, tt, side="right") - 1,
                      0, self.n_panels - 1)
        lo = self._starts[idx]
        half = 0.5 * (self._ends[idx] - lo)
        # int_lo^t (t - s) q(s) ds = half^2 g(tau); a zero-width panel,
        # left by bisection at the resolution of t, contributes 0
        tau = np.divide(tt - lo, half, out=np.zeros_like(tt),
                        where=half > 0.0) - 1.0
        g = _LEG.legval(np.clip(tau, -1.0, 1.0), self._coef[idx].T,
                        tensor=False)
        out = (self.w0 + self.c * (tt - self.t_lo) + tt * self._cum0[idx]
               - self._cum1[idx] + half * half * g)
        return float(out[0]) if scalar else out

    def u(self, ts):
        """The full trace w + c_a a log a + c_b b log b."""
        ts = np.asarray(ts, dtype=float)
        av = np.maximum(self.a_slope * (ts - self.t_lo), 0.0)
        bv = np.maximum(self.b_slope * (ts - self.t_hi), 0.0)
        out = self.w(ts) + self.c_a * xlogy(av, av) + self.c_b * xlogy(bv, bv)
        return float(out) if ts.ndim == 0 else out


def _gauss_panels(q, lo, hi):
    """15 point Gauss-Legendre moments of q on the panels [lo, hi].

    ``lo`` and ``hi`` are arrays of panel ends; the integrand is
    evaluated at the nodes of all panels in one call.  Returns one row
    per panel: the moments I0 = int q and I1 = int t q, the smallest |ab|
    over the nodes where ab > 0 (1 when there is none), the largest |h|
    and the 15 samples of q.  Non-finite moments raise QuadratureFailure.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    s = mid[:, None] + half[:, None] * _GL_NODES
    qs, den, hs = q(s)
    moments = np.column_stack([half * (qs @ _GL_WEIGHTS),
                               half * ((s * qs) @ _GL_WEIGHTS)])
    finite = np.isfinite(moments).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise QuadratureFailure("panel [%.17g, %.17g] has a non-finite "
                                "integrand" % (lo[i], hi[i]))
    dmin = np.min(np.where(den <= 0.0, np.inf, np.abs(den)), axis=1)
    dmin[np.isinf(dmin)] = 1.0
    return np.column_stack([moments, dmin, np.max(np.abs(hs), axis=1), qs])


def solve_edge(problem, tol=1e-10):
    """Solve a one dimensional problem on an interval by quadrature.

    With facet functionals a (vanishing at the left endpoint) and b
    (vanishing at the right), the equation u'' = h/(ab) with u = alpha at
    the endpoints is solved in the split form
    u = w + c_a a log a + c_b b log b of :class:`EdgeProfile`.  The
    endpoint split reads c_a and c_b off the density at the two vertices,
    so the regular part satisfies w'' = q with q bounded even where the
    density misses its compatible vertex value within the vertex rule.
    q is integrated by composite 15 point Gauss-Legendre panels, bisected
    from the whole edge until the two-half estimate agrees with the
    whole-panel one.  Bisection runs level by level: one density call
    covers the halves of every pending panel, and a child takes its
    parent's half-panel result as its whole-panel estimate.  Requested
    tolerances below about 1e-11 are limited by rounding in the
    integrand.  The q samples of each accepted panel are kept as the
    second antiderivative of their Legendre interpolant, so the profile
    reads w back without calling the density again.

    Parameters
    ----------
    problem : GuilleminProblem
        One dimensional, with exactly two facets.
    tol : float
        Target absolute accuracy of the reconstructed w.

    Returns
    -------
    EdgeProfile

    Raises
    ------
    IncompatibleEndpoint
        The density does not match the value forced by the endpoint
        functionals, so q is unbounded and no solution with the split
        structure exists.
    QuadratureFailure
        Panel bisection hit the depth limit without converging, or the
        integrand is not finite on some panel.
    """
    P = problem.polytope
    if P.dimension != 1 or len(P.facets) != 2:
        raise ValidationError("solve_edge needs a one dimensional problem "
                              "with two facets")
    coords = P.vertices[:, 0]
    i_lo = int(np.argmin(coords))
    i_hi = int(np.argmax(coords))
    t_lo = float(coords[i_lo])
    t_hi = float(coords[i_hi])
    L = t_hi - t_lo
    # a vanishes at the left end, where it rises, and b at the right
    f0, f1 = P.facets
    a, b = (f0, f1) if f0.normal[0] > 0.0 else (f1, f0)
    a_slope = float(a.normal[0])
    b_slope = float(b.normal[0])
    alpha_lo = float(problem.vertex_values[i_lo])
    alpha_hi = float(problem.vertex_values[i_hi])

    def hfun(ts):
        # one density call on the flattened points, whatever their shape
        ts = np.asarray(ts, dtype=float)
        hs = np.asarray(problem.density(ts.reshape(-1, 1)), dtype=float)
        return np.broadcast_to(hs, (ts.size,)).reshape(ts.shape)

    # endpoint matching: h(t_lo) = b(t_lo) a'^2 and h(t_hi) = a(t_hi) b'^2
    b_at_lo = b_slope * (t_lo - t_hi)
    a_at_hi = a_slope * (t_hi - t_lo)
    required = np.array([b_at_lo * a_slope ** 2, a_at_hi * b_slope ** 2])
    got = hfun(np.array([t_lo, t_hi]))
    for t_end, h_end, req, ok in zip((t_lo, t_hi), got, required,
                                     vertex_rule(got, required)):
        if not ok:
            raise IncompatibleEndpoint(
                "density %.17g at t=%.17g, endpoint structure needs %.17g"
                % (h_end, t_end, req))
    # the endpoint split: the numerator of q vanishes at both ends
    c_a, c_b = got / required
    eps = np.finfo(float).eps

    def q(s):
        # q at the points s, with ab and h there for the noise floor
        av = a_slope * (s - t_lo)
        bv = b_slope * (s - t_hi)
        den = av * bv
        hs = hfun(s)
        bad = den <= 0.0
        qs = np.where(bad, 0.0,
                      (hs - c_a * a_slope ** 2 * bv - c_b * b_slope ** 2 * av)
                      / np.where(bad, 1.0, den))
        return qs, den, hs

    tscale = max(1.0, abs(t_lo), abs(t_hi))
    # breadth-first bisection over the pending panels of one level, in
    # order; level 0 integrates the edge whole and in halves in one call,
    # later levels only the halves
    lo, hi = np.array([t_lo]), np.array([t_hi])
    mid, k = 0.5 * (lo + hi), 1
    whole, halves = np.split(_gauss_panels(q, np.r_[lo, lo, mid],
                                           np.r_[hi, mid, hi]), [k])
    accepted = []
    depth = 0
    while True:
        left, right = halves[:k], halves[k:]
        err = np.abs(whole[:, 0] - left[:, 0] - right[:, 0]) \
            + np.abs(whole[:, 1] - left[:, 1] - right[:, 1])
        dmin = np.minimum(np.minimum(whole[:, 2], left[:, 2]), right[:, 2])
        hmax = np.maximum(np.maximum(np.maximum(whole[:, 3], left[:, 3]),
                                     right[:, 3]), 1e-30)
        noise = 64.0 * eps * (hmax / np.maximum(dmin, 1e-300)) * (hi - lo) \
            * tscale
        ok = err <= np.maximum(0.01 * tol * (hi - lo) / L, noise)
        accepted += [np.column_stack([lo, mid, left])[ok],
                     np.column_stack([mid, hi, right])[ok]]
        if np.all(ok):
            break
        if depth >= _MAX_DEPTH:
            i = int(np.argmin(ok))
            raise QuadratureFailure(
                "panel [%.17g, %.17g] did not converge at depth %d"
                % (lo[i], hi[i], depth))
        # children of the rejected panels, left before right; each takes
        # its half of the parent as its whole-panel estimate
        fail = ~ok
        lo = np.column_stack([lo[fail], mid[fail]]).ravel()
        hi = np.column_stack([mid[fail], hi[fail]]).ravel()
        whole = np.stack([left[fail], right[fail]], axis=1).reshape(
            -1, left.shape[1])
        mid = 0.5 * (lo + hi)
        k = len(lo)
        halves = _gauss_panels(q, np.concatenate([lo, mid]),
                               np.concatenate([mid, hi]))
        depth += 1

    # rows of start, end and _gauss_panels, sorted by start; a zero-width
    # panel sorts before the panel that shares its start
    panels = np.concatenate(accepted)
    panels = panels[np.lexsort((panels[:, 1], panels[:, 0]))]
    starts, ends, mom0, mom1 = panels[:, :4].T.copy()
    cum0 = np.concatenate([[0.0], np.cumsum(mom0)])[:-1]
    cum1 = np.concatenate([[0.0], np.cumsum(mom1)])[:-1]

    # w(t_lo) and w(t_hi) from the vertex values; a log a and b log b
    # vanish at their own endpoints
    w0 = alpha_lo - c_b * b_at_lo * np.log(b_at_lo)
    w1 = alpha_hi - c_a * a_at_hi * np.log(a_at_hi)
    G1 = t_hi * float(np.sum(mom0)) - float(np.sum(mom1))
    c = (w1 - w0 - G1) / L

    return EdgeProfile(t_lo, t_hi, a_slope, b_slope, float(c_a), float(c_b),
                       float(w0), float(c), starts, ends, cum0, cum1,
                       panels[:, 6:] @ _SECOND_INTEGRAL.T)


class _VertexTrace(NamedTuple):
    value: float

    def u(self, x):
        return np.full(len(x), self.value)


class _EdgeTrace(NamedTuple):
    restriction: object
    profile: object

    def u(self, x):
        return self.profile.u(self.restriction.from_face(x)[:, 0])


class _FaceTrace(NamedTuple):
    """A face of dimension two or more, read through its interior
    solution; :meth:`BoundaryData.u` hands the points on its relative
    boundary to the subface traces instead."""

    restriction: object
    solution: object

    def u(self, x):
        xi = self.restriction.from_face(x)
        return (self.solution.v(xi) + guillemin.potential_values(
            self.restriction.problem.polytope, xi))


class BoundaryData:
    """Complete boundary trace of the solution, face by face.

    ``u(x)`` evaluates the trace at boundary points by dispatching on the
    active set; ``v(x)`` subtracts the canonical potential
    sum_i l_i log l_i, so it is the boundary value of the regular part.
    Both take one point (shape (n,), giving a float) or k points (shape
    (k, n), giving k values); a batch is grouped by canonical active set
    and each face trace is evaluated once on its group.
    ``consistency`` reports the largest gap found between each face trace
    and its subface traces where they meet; see
    :func:`build_boundary_data`.
    """

    def __init__(self, problem, traces, consistency):
        self.problem = problem
        self.traces = traces
        self.consistency = consistency

    def u(self, x):
        """Trace values at boundary points.

        Raises
        ------
        OutsideDomain
            Some point is outside the closed polytope or strictly interior.
        MissingTrace
            The active facets at some point do not cut out a face.
        """
        P = self.problem.polytope
        x = np.asarray(x, dtype=float)
        X = np.atleast_2d(x)
        dist = P.distances(X)
        if float(np.min(dist)) < -P.tau:
            raise OutsideDomain("point is outside the closed polytope")
        active = dist <= P.tau
        if not np.all(np.any(active, axis=1)):
            raise OutsideDomain("point is interior; the trace lives on the "
                                "boundary")
        # an integer code per active set, in Python integers past 62 facets
        N = active.shape[1]
        codes = active @ (1 << np.arange(N, dtype=object if N > 62 else int))
        _, first, group = np.unique(codes, return_index=True,
                                    return_inverse=True)
        out = np.empty(len(X))
        for g, row in enumerate(first):
            gamma = tuple(int(i) for i in np.nonzero(active[row])[0])
            key = P.canonical_active(gamma)
            if key is None or key not in self.traces:
                raise MissingTrace("no face with active set %s" % (gamma,))
            rows = group == g
            out[rows] = self.traces[key].u(X[rows])
        return float(out[0]) if x.ndim == 1 else out

    def v(self, x):
        """Regular part u(x) - sum_i l_i log l_i at boundary points."""
        P = self.problem.polytope
        x = np.asarray(x, dtype=float)
        out = self.u(x) - guillemin.potential_values(P, x)
        return float(out) if x.ndim == 1 else out


class _SubfaceValues(NamedTuple):
    """Boundary values of a face problem, read off the ambient traces.

    ``v`` maps face coordinates to ambient points, evaluates the ambient
    traces there (all on faces of lower dimension) and subtracts the
    face polytope's own potential.  Only the face solve holds it, so no
    trace refers back to the ambient :class:`BoundaryData`.
    """

    ambient: object
    restriction: object

    def v(self, xi):
        res = self.restriction
        return (self.ambient.u(res.to_ambient(xi))
                - guillemin.potential_values(res.problem.polytope, xi))


def build_boundary_data(problem, grid=None, tol=1e-10, threads=None):
    """Assemble boundary traces for all proper faces.

    The face lattice is walked once, in increasing dimension, and every
    face is restricted and solved exactly once.  Vertices carry the
    prescribed values.  Edges are solved by :func:`solve_edge` on their
    restricted one dimensional problems.  A face of dimension two or
    more is solved by :func:`gma.solver.newton_solve` on its restricted
    problem, with boundary values read off the traces of its subfaces,
    which are already built.

    Each face is checked where it is built, against its subfaces:

    - an edge: its profile at both endpoints against the vertex values;
    - a face of dimension two or more: the values its solution stores
      on the chart boundary nodes against the subface traces at those
      nodes.  The solve must report convergence, and the discrete
      residual re-assembled from the stored values must flag no node
      and stay within ``tol``.

    Parameters
    ----------
    problem : GuilleminProblem
    grid : int, optional
        Grid parameter handed to the face solver.
    tol : float
        Quadrature tolerance for the edge profiles and residual
        tolerance of the face solves.
    threads : object, optional
        Read by nothing: the build is one sequential walk.  Kept only
        for callers that still pass ``threads=None``.

    Returns
    -------
    BoundaryData
        ``consistency`` holds ``max_mismatch`` (the largest gap),
        ``tolerance`` (10 ``tol`` max(1, |alpha(p)|, |sum l log l(p)|)
        over the vertices p) and ``pairs`` (the points compared: two
        per edge, and the chart boundary nodes of every face of
        dimension two or more).

    Raises
    ------
    NonSimpleVertex
        Some vertex does not lie on exactly n facets.
    IncompatibleEndpoint
        The density violates a vertex matching condition.
    SolverError
        The interior solve of some face did not converge, or its stored
        values fail the residual audit; the message names the face.
    InconsistentTraces
        A face trace and a subface trace disagree beyond tolerance.
    """
    P = problem.polytope
    n = P.dimension
    if not problem.compatibility_ok():
        res = problem.compatibility_residuals()
        worst = int(np.argmax(np.abs(res)))
        raise IncompatibleEndpoint(
            "vertex %d violates the matching condition by %.3g"
            % (worst, res[worst]))
    # imported here: solver imports this module
    from .solver import assemble_residual, newton_solve

    traces = {}
    for key, face in P.faces.items():
        if face.dim == 0:
            vid = face.vertex_ids[0]
            traces[key] = _VertexTrace(float(problem.vertex_values[vid]))
    # filled in increasing dimension; a face solve reads only the traces
    # of lower dimension
    bd = BoundaryData(problem, traces, None)
    # the s log s terms round relative to the size of the data
    tolerance = 10.0 * tol * max(
        1.0, float(np.max(np.abs(problem.vertex_values))),
        float(np.max(np.abs(guillemin.potential_values(P, P.vertices)))))

    max_mismatch = 0.0
    pairs = 0
    # a stable sort: faces of one dimension keep their lattice order
    for key in sorted((k for k, f in P.faces.items() if 0 < f.dim < n),
                      key=lambda k: P.faces[k].dim):
        res = restrict_problem(problem, key)
        if P.faces[key].dim == 1:
            trace = _EdgeTrace(res, solve_edge(res.problem, tol=tol))
            ids = list(P.faces[key].vertex_ids)
            x = P.vertices[ids]
            gaps = np.abs(trace.u(x) - problem.vertex_values[ids])
        else:
            subfaces = _SubfaceValues(bd, res)
            sol, rep = newton_solve(res.problem, boundary=subfaces,
                                    grid=grid, tol=tol)
            if not rep["converged"]:
                raise SolverError(
                    "face %s did not converge: residual %.3g after %d "
                    "iterations" % (key, rep["residual_norm"],
                                    rep["iterations"]))
            # NaN at flagged nodes, so they fail the audit too
            R, flagged = assemble_residual(sol.values, res.problem, sol.chart)
            audit = float(np.max(np.abs(R)))
            if not audit <= tol:
                raise SolverError(
                    "face %s fails the residual audit: %d flagged nodes, "
                    "residual %.3g against tol %.3g"
                    % (key, flagged.size, audit, tol))
            trace = _FaceTrace(res, sol)
            chart = sol.chart
            xi = chart.to_problem(chart.nodes[chart.boundary])
            x = res.to_ambient(xi)
            gaps = np.abs(sol.values[chart.boundary] - subfaces.v(xi))
        i = int(np.argmax(gaps))
        if not gaps[i] <= tolerance:
            active = np.nonzero(P.distances(x[i]) <= P.tau)[0]
            raise InconsistentTraces(
                "faces %s and %s disagree by %.3g (tolerance %.3g)"
                % (key, P.canonical_active(tuple(active)), gaps[i],
                   tolerance))
        traces[key] = trace
        max_mismatch = max(max_mismatch, float(gaps[i]))
        pairs += len(gaps)

    bd.consistency = {
        "max_mismatch": max_mismatch,
        "tolerance": tolerance,
        "pairs": pairs,
    }
    return bd
