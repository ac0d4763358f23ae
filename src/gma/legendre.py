"""Partial Legendre transform and the half-space model solver.

Two coordinate changes matter near a facet where one functional
degenerates.  The partial Legendre transform dualizes the tangential
directions only: with y = (x1, D_tan u) the graph map sends a convex
field u to u*(y) = x_tan . y_tan - u(x), and the equation
x1 det D2u = h becomes an equation linear in the transversal second
derivative, y1 u*_11 + h det D2_tan u* = 0.  The square-root change
z1 = 2 sqrt(x1) regularizes the model problem det D2u = h/x1 instead:
writing u = x1 log x1 + v and v(x) = w(2 sqrt(x1), x_tan), the model
equation turns into det(D2w + (1 - w_1/z1) e1 e1^T) = h with a plain
Neumann-type closure at z1 = 0 supplied by even reflection.

Both are implemented in the plane: one transversal and one tangential
direction, which is the setting every companion check exercises.
"""

import numpy as np
# not called here; perfbench/tracer.py patches gma.legendre.spsolve by name
from scipy.sparse.linalg import spsolve  # noqa: F401

from .errors import (
    DegenerateTransversalHessian,
    NonEllipticIterate,
    OutsideDomain,
    ValidationError,
)
from .solver import (Stencil, damped_newton, dissection_order,
                     freudenthal_cells, inverses, pivots, require_lattice)

__all__ = [
    "PartialLegendrePair",
    "legendre_forward",
    "local_quadratic_eval",
    "ModelSolution",
    "model_solve_z",
]

# least tangential second derivative the partial Legendre transform accepts
_U22_FLOOR = 1e-8


def local_quadratic_eval(values, node_ids, strides, top, s, simplex=False):
    """Quadratic Lagrange (P2) read of lattice data at lattice coordinates.

    The cells of the even sublattice are split by Freudenthal's rule
    (:func:`gma.solver.freudenthal_cells`); on each macro-simplex the P2
    element (Ciarlet 1978) weights the n + 1 corner values by
    l_i (2 l_i - 1) and the edge midpoints by 4 l_i l_j, l being the
    barycentric coordinates.  Exact on quadratics, third order on smooth
    data, continuous when 2 divides top.  ``values[node_ids[i @ strides]]``
    is the value at lattice index i, ``top`` the last index (one per axis
    on a box), ``s`` one point (n,) or points (k, n) in node units,
    clipped to the lattice, and ``simplex`` selects the lattice
    {i >= 0, sum i <= top}.  Returns a float or an array (k,).
    """
    weights, corners = freudenthal_cells(
        np.atleast_2d(np.asarray(s, dtype=float)), top, 2, simplex)
    i, j = np.triu_indices(weights.shape[1], 1)
    nodes = np.concatenate([corners, (corners[:, i] + corners[:, j]) // 2],
                           axis=1)
    w = np.concatenate([weights * (2.0 * weights - 1.0),
                        4.0 * weights[:, i] * weights[:, j]], axis=1)
    out = np.sum(w * values[node_ids[nodes @ strides]], axis=1)
    return float(out[0]) if np.ndim(s) == 1 else out


def _uniform_spacing(axis, label):
    axis = np.asarray(axis, dtype=float)
    if axis.ndim != 1 or len(axis) < 3:
        raise ValidationError("%s axis needs at least 3 nodes" % label)
    steps = np.diff(axis)
    if np.min(steps) <= 0:
        raise ValidationError("%s axis must increase strictly" % label)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValidationError("%s axis must be uniformly spaced" % label)
    return axis, float(steps[0])


class PartialLegendrePair:
    """Forward partial Legendre data at the interior nodes of an x-grid.

    Attributes
    ----------
    x_points : ndarray, shape (K, 2)
        Interior grid nodes, transversal coordinate first.
    y_points : ndarray, shape (K, 2)
        Images (x1, tangential derivative of u).
    ustar : ndarray, shape (K,)
        Transformed values x2 * u_2 - u.
    hessians : ndarray, shape (K, 2, 2)
        Second derivatives of u used by the transform identities.
    """

    def __init__(self, x_points, y_points, ustar, hessians):
        self.x_points = x_points
        self.y_points = y_points
        self.ustar = ustar
        self.hessians = hessians

    def transversal_residual(self, h):
        """Residual y1 u*_11 + h(y) det D2_tan u* at the sample points.

        The dual derivatives come from the exact transform identities
        u*_11 = -(u_11 - u_12^2 / u_22) and det D2_tan u* = 1 / u_22,
        so the residual is evaluated to the accuracy of the input
        Hessian with no resampling error.

        Parameters
        ----------
        h : callable
            Density on the dual chart, batched over points (K, 2).

        Returns
        -------
        ndarray, shape (K,)
        """
        u11 = self.hessians[:, 0, 0]
        u12 = self.hessians[:, 0, 1]
        u22 = self.hessians[:, 1, 1]
        ustar11 = -(u11 - u12 ** 2 / u22)
        hvals = np.asarray(h(self.y_points), dtype=float)
        return self.y_points[:, 0] * ustar11 + hvals / u22


def second_differences(values, d1, d2):
    """Centred V_11, V_12, V_22 of a planar grid field at interior nodes."""
    core = values[1:-1, 1:-1]
    v11 = (values[2:, 1:-1] + values[:-2, 1:-1] - 2.0 * core) / d1 ** 2
    v22 = (values[1:-1, 2:] + values[1:-1, :-2] - 2.0 * core) / d2 ** 2
    v12 = (values[2:, 2:] - values[2:, :-2]
           - values[:-2, 2:] + values[:-2, :-2]) / (4.0 * d1 * d2)
    return v11, v12, v22


def legendre_forward(values, axes, gradient=None):
    """Partial Legendre transform of a grid field, tangential dual only.

    The transversal coordinate x1 is kept; the tangential one is
    replaced by the derivative of u.  Works at the interior nodes of
    the grid (a one-node collar is dropped) where full second-order
    stencils exist; the Hessian is always read from them.

    Parameters
    ----------
    values : ndarray, shape (m1, m2)
        Field u at the tensor-grid nodes, x1 along the first axis.
    axes : tuple of ndarray
        (x1_axis, x2_axis), each uniformly spaced.
    gradient : callable, optional
        Analytic tangential derivative, batched over points (..., 2).
        Default: central differences on the grid.

    Returns
    -------
    PartialLegendrePair

    Raises
    ------
    DegenerateTransversalHessian
        If the tangential second derivative is at most 1e-8 somewhere on
        the chart.
    """
    values = np.asarray(values, dtype=float)
    if len(axes) != 2 or values.ndim != 2:
        raise ValidationError("planar fields only: values (m1, m2), two axes")
    x1, d1 = _uniform_spacing(axes[0], "transversal")
    x2, d2 = _uniform_spacing(axes[1], "tangential")
    if values.shape != (len(x1), len(x2)):
        raise ValidationError(
            "values shape %s does not match the axes" % (values.shape,))

    X1, X2 = np.meshgrid(x1[1:-1], x2[1:-1], indexing="ij")
    pts = np.column_stack([X1.ravel(), X2.ravel()])
    u = values[1:-1, 1:-1].ravel()

    if gradient is not None:
        g = np.asarray(gradient(pts), dtype=float)
    else:
        g = ((values[1:-1, 2:] - values[1:-1, :-2]) / (2.0 * d2)).ravel()

    H = np.empty((len(pts), 2, 2))
    u11, u12, u22 = (d.ravel() for d in second_differences(values, d1, d2))
    H[:, 0, 0], H[:, 1, 1] = u11, u22
    H[:, 0, 1] = H[:, 1, 0] = u12

    worst = int(np.argmin(u22))
    if u22[worst] <= _U22_FLOOR:
        raise DegenerateTransversalHessian(
            "tangential second derivative %.3e at (%.4f, %.4f)"
            % (u22[worst], pts[worst, 0], pts[worst, 1]))

    y = np.column_stack([pts[:, 0], g])
    ustar = pts[:, 1] * g - u
    return PartialLegendrePair(pts, y, ustar, H)


class ModelSolution:
    """Solution of the half-space model in square-root coordinates.

    Attributes
    ----------
    z1_axis, z2_axis : ndarray
        Tensor grid axes; z1 = 2 sqrt(x1) runs from the face outward.
    values : ndarray, shape (m1, m2)
        Regular part w at the nodes, so u = x1 log x1 + w(z(x)).
    report : dict
        Solve diagnostics; same keys as the chart solver plus the face
        checks.
    """

    def __init__(self, z1_axis, z2_axis, values, report):
        self.z1_axis = z1_axis
        self.z2_axis = z2_axis
        self.values = values
        self.report = report

    def v(self, x):
        """Regular part at x-coordinates, v(x) = w(2 sqrt(x1), x2).

        Takes one point (2,) or points (k, 2); OutsideDomain off the chart.
        """
        X = np.atleast_2d(np.asarray(x, dtype=float))
        z = np.column_stack([2.0 * np.sqrt(np.abs(X[:, 0])), X[:, 1]])
        lo, hi = (0.0, self.z2_axis[0]), (self.z1_axis[-1], self.z2_axis[-1])
        if np.min(X[:, 0]) < 0 or np.any(z < lo) or np.any(z > hi):
            raise OutsideDomain("point outside the model chart")
        # P2 reads are exact on the quadratic model and kink-free between
        # lattice nodes, unlike bilinear interpolation
        flat = np.ravel(self.values)
        top = np.array(np.shape(self.values)) - 1
        out = local_quadratic_eval(
            flat, np.arange(flat.size), np.array([top[1] + 1, 1]), top,
            (z - lo) / np.subtract(hi, lo) * top)
        return float(out[0]) if np.ndim(x) == 1 else out


def _model_stencil(z1, z2, I, J):
    """The model operator M(w) = D2 w + (1 - w_1/z1) e1 e1^T as a Stencil.

    Built over the 9-point offsets of the (z1, z2) grid on the unknowns
    at the nodes (I, J), in that order (face row z1 = 0 included, outer
    rows excluded), with one coefficient table per node and base
    e1 e1^T.  Body rows carry D2 w - (w_1/z1) e1 e1^T: centred second
    differences, and the ratio coefficient -+1/(2 d1 z1) on the (+-1, 0)
    offsets.  On the face row the L'Hopital value of w_1/z1 is w_11, so
    the two transversal terms cancel, M11 is the base's 1 and the row
    carries w_22 alone; its unused offsets point at the known corner
    value (0, 0) with zero coefficient, so the Jacobian drops them.
    """
    d1, d2 = z1[1] - z1[0], z2[1] - z2[0]
    di = np.array([0, 1, -1, 0, 0, 1, 1, -1, -1])
    dj = np.array([0, 0, 0, 1, -1, 1, -1, 1, -1])
    body = I > 0
    coeffs = np.zeros((2, 2, len(di), len(I)))
    coeffs[1, 1, :5] = np.array([[-2.0], [0.0], [0.0], [1.0], [1.0]]) / d2 ** 2
    coeffs[0, 0, :3, body] = (np.array([-2.0, 1.0, 1.0]) / d1 ** 2
                              - di[:3] / (2.0 * d1 * z1[I[body], None]))
    coeffs[0, 1, 5:, body] = coeffs[1, 0, 5:, body] = \
        di[5:] * dj[5:] / (4.0 * d1 * d2)
    neighbors = np.ravel_multi_index(
        (I + di[:, None], J + dj[:, None]), (len(z1), len(z2)), mode="clip")
    neighbors[np.ix_(di != 0, ~body)] = 0
    columns = np.full(len(z1) * len(z2), -1)
    columns[I * len(z2) + J] = np.arange(len(I))
    return Stencil(neighbors, columns, coeffs, np.diag([1.0, 0.0]))


def _model_system(V, stencil, hq):
    """Concave residual det(M)^(1/2) - h^(1/2) and admissibility.

    A node is admissible when M is positive definite, M11 > 0 and
    det M > 0: both pivots of :func:`gma.solver.pivots` positive.
    """
    p = pivots(stencil.matrices(V.ravel()))
    ok = np.all(p > 0, axis=0)
    det = np.prod(p, axis=0)
    return np.where(ok, np.sqrt(np.where(ok, det, 1.0)) - hq, np.nan), ok


def _model_jacobian(V, stencil):
    """Derivative of the concave residual, tr(M^-1 dM) sqrt(det M) / 2."""
    M = stencil.matrices(V.ravel())
    det = np.prod(pivots(M), axis=0)
    return stencil.jacobian(0.5 * np.sqrt(det) * inverses(M))


def model_solve_z(h, trace, x_depth=0.25, lateral=(-1.0, 1.0), grid=17,
                  tol=1e-10, max_iter=30):
    """Solve det D2u = h/x1 near the face x1 = 0 in z-coordinates.

    The substitution z1 = 2 sqrt(x1), u = x1 log x1 + w turns the model
    equation into det(D2w + (1 - w_1/z1) e1 e1^T) = h(z1^2/4, z2) on the
    box [0, 2 sqrt(x_depth)] x lateral.  Even reflection across z1 = 0
    closes the stencils at the face, where the transversal entry of the
    operator collapses to 1 and the equation degenerates to the
    tangential trace equation.  Dirichlet data from `trace` is imposed
    on the outer boundary only; the face values are unknowns.  The
    iteration is :func:`gma.solver.damped_newton`, the chart solver's
    driver: single-precision LU factors, reused for chord steps, in the
    nested-dissection order of the unknowns, and each solve refined once.

    Parameters
    ----------
    h : callable
        Positive density in x-coordinates, batched over points (..., 2).
    trace : callable
        Regular part of the solution on the closure, x-coordinates,
        batched; supplies the outer Dirichlet data and the initial
        iterate.
    x_depth : float
        Extent of the chart in x1; the z1 axis runs to 2 sqrt(x_depth).
    lateral : tuple of float
        (lo, hi) range of the tangential coordinate.
    grid : int
        Nodes along each of z1 and z2.
    tol : float
        Convergence threshold on the sup norm of the concave residual
        det(M)^(1/2) - h^(1/2).
    max_iter : int
        Cap on accepted steps, chord and Newton alike; exceeding it is
        reported, not raised.

    Returns
    -------
    (ModelSolution, dict)
        The report carries iterations, converged, residual_norm,
        line_search_total, factorizations (LU factorizations of the
        Jacobian) and the face checks.

    Raises
    ------
    ChartTooLarge
        If grid^2 exceeds the chart solver's lattice limit.
    NonEllipticIterate
        If the transversal operator entry or the determinant is not
        positive at the starting iterate.
    SingularJacobian
        If the linearized system cannot be factored.
    LineSearchStall
        If no trial step reduces the residual; the message says whether
        every trial left the elliptic cone.
    """
    if x_depth <= 0:
        raise ValidationError("x_depth must be positive")
    lo, hi = float(lateral[0]), float(lateral[1])
    if hi <= lo:
        raise ValidationError("lateral range must be increasing")
    m1 = m2 = int(grid)
    if m1 < 5:
        raise ValidationError("model grid needs at least 5 nodes per axis")
    require_lattice(m1, 2)
    if tol <= 0:
        raise ValidationError("tolerance must be positive")

    Z = 2.0 * np.sqrt(x_depth)
    z1 = np.linspace(0.0, Z, m1)
    z2 = np.linspace(lo, hi, m2)
    d1 = z1[1] - z1[0]
    d2 = z2[1] - z2[0]
    Z1, Z2 = np.meshgrid(z1, z2, indexing="ij")
    xpts = np.stack([Z1 ** 2 / 4.0, Z2], axis=-1)

    V = np.asarray(trace(xpts.reshape(-1, 2)), dtype=float).reshape(m1, m2)

    # unknowns in nested-dissection order, face row in, outer rows out
    nodes = np.indices((m1 - 1, m2 - 2)).reshape(2, -1).T + (0, 1)
    I, J = nodes[dissection_order(nodes)].T
    stencil = _model_stencil(z1, z2, I, J)

    hvals = np.asarray(h(xpts[I, J]), dtype=float)
    if np.min(hvals) <= 0:
        raise ValidationError("density must stay positive on the chart")
    hq = np.sqrt(hvals)

    F, okv = _model_system(V, stencil, hq)
    if not np.all(okv):
        raise NonEllipticIterate(
            "initial iterate loses ellipticity at %d nodes"
            % int(np.sum(~okv)))

    def full(x):
        Vt = V.copy()
        Vt[I, J] = x
        return Vt

    def residual(x):
        Ft, okt = _model_system(full(x), stencil, hq)
        return Ft, bool(np.all(okt))

    x, norm, iterations, line_total, factorizations = damped_newton(
        residual, lambda x: _model_jacobian(full(x), stencil),
        V[I, J], F, tol, max_iter)
    V = full(x)

    # a posteriori face checks: one-sided Neumann derivative (even
    # reflection demands zero) and the tangential trace equation
    jj = slice(1, m2 - 1)
    neumann = np.max(np.abs(
        (-3.0 * V[0, jj] + 4.0 * V[1, jj] - V[2, jj]) / (2.0 * d1)))
    d22_face = (V[0, 2:] + V[0, :-2] - 2.0 * V[0, 1:-1]) / d2 ** 2
    h_face = np.asarray(
        h(np.column_stack([np.zeros(m2 - 2), z2[1:-1]])), dtype=float)
    if np.min(d22_face) > 0:
        gap = float(np.max(np.abs(np.sqrt(d22_face) - np.sqrt(h_face))))
    else:
        gap = np.inf

    report = {
        "iterations": iterations,
        "converged": bool(norm <= tol),
        "residual_norm": norm,
        "line_search_total": line_total,
        "factorizations": factorizations,
        "grid": (m1, m2),
        "n_unknown": int(len(hq)),
        "tol": tol,
        "face_neumann": float(neumann),
        "face_relation_gap": gap,
    }
    return ModelSolution(z1, z2, V, report), report
