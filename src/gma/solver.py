"""Damped Newton solver for the regular part on reference charts.

The unknown is the regular part v = u - sum_i l_i log l_i sampled on a
finite difference lattice.  The problem is first mapped to a reference
domain (the standard simplex when the polytope has n + 1 facets, the
unit box when it is an affine image of a box); functional values are
preserved by the map, so boundary data and the singular part transfer
without change.  The interior residual is

    R_i = log det(D2 v + sum_j n_j n_j^t / l_j) - log h + sum_j log l_j

with the mixed second differences formed from diagonal and antidiagonal
stencils.  The singular part is analytic and never differenced, so the
scheme is exact whenever v restricted to the lattice has cubic accuracy.
"""

import functools
import itertools

import numpy as np

from .boundary import build_boundary_data
from .errors import (ChartTooLarge, GmaError, LineSearchStall,
                     NonConvexIterate, OutsideDomain, SingularJacobian,
                     ValidationError)
from .guillemin import potential_values

# largest m^n a chart may allocate; the dense index box has m^n entries
_MAX_LATTICE = 2 ** 22
# a chord step on kept LU factors is accepted only if it divides the sup
# norm residual by at least 1/_CHORD_CONTRACTION
_CHORD_CONTRACTION = 0.25


def LinearNDInterpolator(*args, **kwargs):
    """scipy's LinearNDInterpolator on first call; only the tracer binds it."""
    from scipy.interpolate import LinearNDInterpolator
    return LinearNDInterpolator(*args, **kwargs)


def splu(*args, **kwargs):
    """scipy's splu on first call; the tests patch it by name."""
    from scipy.sparse.linalg import splu
    return splu(*args, **kwargs)


def spsolve(*args, **kwargs):
    """scipy's spsolve on first call; the tracer binds it by name."""
    from scipy.sparse.linalg import spsolve
    return spsolve(*args, **kwargs)


def _simplex_map(P):
    verts = P.vertices[np.lexsort(P.vertices.T[::-1])]
    return (verts[1:] - verts[0]).T, verts[0]


def _box_map(P):
    n = P.dimension
    if len(P.vertices) != 2 ** n:
        return None
    v0_id = np.lexsort(P.vertices.T[::-1])[0]
    b = P.vertices[v0_id]
    a0 = set(P.vertex_active[v0_id])
    edges = [P.vertices[j] - b for j, a in enumerate(P.vertex_active)
             if j != v0_id and len(a0 & set(a)) == n - 1]
    if len(edges) != n:
        return None
    M = np.array(sorted(edges, key=tuple)).T
    ref = np.linalg.solve(M, (P.vertices - b).T).T
    if np.max(np.abs(ref - np.round(ref))) > 1e-9 or \
            not np.all((np.round(ref) >= 0) & (np.round(ref) <= 1)):
        return None
    return M, b


def _lattice(kind, n, m):
    # np.indices in C order matches itertools.product(range(m), repeat=n)
    idx = np.indices((m,) * n).reshape(n, -1).T
    if kind == "simplex":
        idx = idx[idx.sum(axis=1) <= m - 1]
        interior = np.all(idx >= 1, axis=1) & (idx.sum(axis=1) <= m - 2)
    else:
        interior = np.all((idx >= 1) & (idx <= m - 2), axis=1)
    return idx, np.nonzero(interior)[0], np.nonzero(~interior)[0]


def dissection_order(idx):
    """Nested-dissection permutation of integer lattice rows (K, n).

    Recursive coordinate bisection of the index box (George, SIAM J.
    Numer. Anal. 10, 1973): the middle hyperplanes of the axes in turn
    cut every box, separators included, into two halves and a separator,
    down to single nodes, and each half comes before its separator.  The
    cuts a coordinate meets on its own axis depend on it alone, so each
    axis is a small table of digits (0 below the middle, 1 above, 2 on
    it) and the order is one sort of the interleaved base-3 keys.
    """
    cols = (idx - np.min(idx, axis=0)).T
    tables = []
    for size in np.max(cols, axis=1) + 1:
        t = np.arange(size)
        lo, hi, table = np.zeros_like(t), np.full_like(t, size - 1), []
        while np.any(lo < hi):
            # a single value is not cut: its middle is itself
            mid = np.where(lo < hi, (lo + hi) // 2, t)
            table.append(np.where(lo < hi, (t > mid) + 2 * (t == mid), 0))
            lo = np.where(t > mid, mid + 1, np.where(t == mid, t, lo))
            hi = np.where(t < mid, mid - 1, np.where(t == mid, t, hi))
        tables.append(table)
    key = np.zeros(len(idx), dtype=np.int64)
    for d in range(max(map(len, tables))):
        for col, table in zip(cols, tables):
            if d < len(table):
                key = 3 * key + table[d][col]
    return np.argsort(key, kind="stable")


class Stencil:
    """Matrix field M(v) = base + sum_o coeffs_o v[neighbors[o]].

    The chart solver's D2 v + sum_j n_j n_j^t / l_j and the model
    solver's D2 w + (1 - w_1/z1) e1 e1^T take this form.  Arrays are
    component-major, nodes last: ``neighbors`` (O, K), ``coeffs``
    (n, n, O) shared or (n, n, O, K), ``base`` (n, n) or (n, n, K).
    With G a node's residual derivative in M, the derivative in the
    value at offset o is tr(G coeffs_o).  ``columns`` numbers the
    unknowns among the value indices, negative for known values, which
    the Jacobian drops; its CSC ``pattern`` is built once, holding the
    offset of every entry as data, its node as row, read-only indices.
    """

    def __init__(self, neighbors, columns, coeffs, base):
        import scipy.sparse as sp
        self.neighbors, self.columns, self.coeffs = neighbors, columns, coeffs
        self.base = np.reshape(base, coeffs.shape[:2] + (-1,))
        O, K = neighbors.shape
        cols = columns[neighbors].T
        keep = cols >= 0
        # scipy's CSR-to-CSC transpose sorts the entries in one linear pass
        p = self.pattern = sp.csr_matrix(
            (np.broadcast_to(np.arange(O, dtype=np.int16), cols.shape)[keep],
             cols[keep], np.r_[0, np.cumsum(keep.sum(1))]), (K, K)).tocsc()
        p.indices.flags.writeable = p.indptr.flags.writeable = False

    def matrices(self, v):
        """The (n, n, K) stack of matrices M(v)."""
        c, values = self.coeffs, v[self.neighbors]
        return self.base + (c @ values if c.ndim == 3
                            else np.sum(c * values, axis=2))

    def weights(self, G):
        """tr(G coeffs_o) as (O, K); G is (n, n, K) or (n, n, 1)."""
        c = self.coeffs
        w = np.tensordot(c, G, ([0, 1], [1, 0])) if c.ndim == 3 else \
            np.sum(c * np.swapaxes(G, 0, 1)[:, :, None], axis=(0, 1))
        return np.broadcast_to(w, self.neighbors.shape)

    def jacobian(self, G):
        """CSC matrix of the weights of G at the unknown columns."""
        p = self.pattern
        return type(p)((self.weights(G)[p.data, p.indices], p.indices,
                        p.indptr), shape=p.shape)


def pivots(H):
    """Pivots (n, K) of elimination without row exchanges on (n, n, K).

    Their partial products are the leading principal minors, the last
    the determinant; a symmetric matrix is positive definite exactly
    when all are positive.  A zero pivot makes the later ones inf or NaN.
    """
    A = np.array(H, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for a in range(len(A) - 1):
            lower = A[a + 1:, a:a + 1] / A[a:a + 1, a:a + 1]
            A[a + 1:, a + 1:] -= lower * A[a:a + 1, a + 1:]
    return A[range(len(A)), range(len(A))]


def inverses(H):
    """Inverses of positive definite (n, n, K) by in-place Gauss-Jordan."""
    A = np.array(H, dtype=float)
    for a in range(len(A)):
        pivot, A[a, a] = A[a, a].copy(), 1.0
        A[a] /= pivot
        lower = A[:, a].copy()
        lower[a], A[np.arange(len(A)) != a, a] = 0.0, 0.0
        A -= lower[:, None] * A[a]
    return A


def require_lattice(m, n):
    """ChartTooLarge if m^n lattice slots exceed the limit; every solver
    asks before it solves or allocates anything."""
    if int(m) ** n > _MAX_LATTICE:
        raise ChartTooLarge(
            "grid %d in dimension %d needs %d lattice slots, above the "
            "limit %d" % (m, n, int(m) ** n, _MAX_LATTICE))


class GridChart:
    """Reference finite difference lattice for one global or face problem.

    Parameters
    ----------
    problem : GuilleminProblem
        Must have n + 1 facets (simplex) or be an affine image of a box
        with 2n facets; anything else raises ChartTooLarge.
    m : int
        Nodes per edge of the reference domain; the mesh width is
        1/(m - 1).  m^n above 2^22 raises ChartTooLarge before any
        allocation, and a lattice without interior nodes raises
        ValidationError.

    Attributes
    ----------
    nodes : ndarray, shape (K, n)
        Reference coordinates of every lattice node, in a fixed
        lexicographic order.
    interior, boundary : ndarray of node ids
        ``interior`` in nested-dissection order, which numbers the
        unknowns of the residual and the Jacobian.
    stencil : Stencil
        D2 v + sum_j n_j n_j^t / l_j, the analytic singular part as base.
    ref_problem : GuilleminProblem
        The problem transported to the reference domain; functional
        values agree with the original at corresponding points.
    """

    def __init__(self, problem, m=17):
        if m < 3:
            raise ValidationError("grid needs at least 3 nodes per edge")
        P = problem.polytope
        n = P.dimension
        require_lattice(m, n)
        N = len(P.facets)
        if N == n + 1:
            kind = "simplex"
            M, b = _simplex_map(P)
        elif N == 2 * n:
            mapped = _box_map(P)
            if mapped is None:
                raise ChartTooLarge(
                    "%d facets in dimension %d but not an affine box" % (N, n))
            kind = "box"
            M, b = mapped
        else:
            raise ChartTooLarge(
                "global chart covers simplices and affine boxes only; "
                "got %d facets in dimension %d" % (N, n))

        self.problem, self.kind, self.matrix, self.shift = problem, kind, M, b
        self.m, self.delta = int(m), 1.0 / (m - 1)
        self.ref_problem = problem.transform(M, b)

        idx, interior, bdry = _lattice(kind, n, m)
        if len(interior) == 0:
            raise ValidationError(
                "grid %d leaves no interior node on the reference %s"
                % (m, kind))
        self.nodes = idx * self.delta
        self.interior = interior = interior[dissection_order(idx[interior])]
        self.boundary = bdry

        # second differences run along the axes, then along the diagonals
        # e_a - e_c; direction s owns the offsets 1 + 2s and 2 + 2s
        eye = np.eye(n, dtype=int)
        pairs = list(itertools.combinations(range(n), 2))
        dirs = list(eye) + [eye[a] - eye[c] for a, c in pairs]
        self.offsets = np.array([0 * eye[0]] + [s * d for d in dirs
                                                for s in (1, -1)])
        # interior coordinates lie in [1, m - 2], so unit offsets stay on
        # the dense m^n index box and never wrap around a row
        self.strides = strides = m ** np.arange(n - 1, -1, -1)
        self.node_ids = ids = np.full(m ** n, -1, dtype=int)
        ids[idx @ strides] = np.arange(len(idx))
        nb = ids[(self.offsets @ strides)[:, None]
                 + (idx[interior] @ strides)[None, :]]
        if np.any(nb < 0):
            raise GmaError("interior stencil leaves the %s lattice" % kind)
        second = np.vstack([np.full(len(dirs), -2.0),
                            np.repeat(np.eye(len(dirs)), 2, axis=0)]).T
        coeffs = np.zeros((n, n, len(nb)))
        coeffs[range(n), range(n)] = second[:n]
        for p, (a, c) in enumerate(pairs):
            coeffs[a, c] = coeffs[c, a] = 0.5 * (
                second[a] + second[c] - second[n + p])
        columns = np.full(len(idx), -1, dtype=int)
        columns[interior] = np.arange(len(interior))

        Q = self.ref_problem.polytope
        gvals = Q.evaluate_all(self.nodes[interior])
        if np.min(gvals) <= 0:
            raise ValidationError("interior lattice node on the boundary")
        singular = np.tensordot(Q.normals[:, :, None] * Q.normals[:, None],
                                1.0 / gvals, (0, 1))
        self.stencil = Stencil(nb, columns, coeffs / self.delta ** 2, singular)
        h = np.asarray(self.ref_problem.density(self.nodes[interior]),
                       dtype=float)
        if np.min(h) <= 0:
            raise ValidationError("density must be positive at lattice nodes")
        self.rhslog = np.log(h) - np.sum(np.log(gvals), axis=1)

    def to_problem(self, xi):
        return np.asarray(xi, dtype=float) @ self.matrix.T + self.shift

    def to_reference(self, x):
        x = np.asarray(x, dtype=float) - self.shift
        return np.linalg.solve(self.matrix, x.T).T


def assemble_residual(v, problem, chart):
    """Interior residual of the discrete equation and the flagged nodes.

    A node is admissible exactly when its discrete Hessian
    M = D2 v + sum_j n_j n_j^t / l_j is positive definite, tested by the
    pivots of elimination without row exchanges (:func:`pivots`): all
    must be positive.  log det M is then the sum of their logs.  A sign
    test on det M alone would pass a Hessian with an even number of
    negative eigenvalues.

    Parameters
    ----------
    v : ndarray, shape (len(chart.nodes),)
        Regular part values on every lattice node.
    problem : GuilleminProblem
        The problem the chart was built for.
    chart : GridChart

    Returns
    -------
    R : ndarray over chart.interior
        log det applied to the discrete Hessian minus the log of the
        right hand side; NaN where the discrete Hessian is not positive
        definite.
    flagged : ndarray
        Node ids whose discrete Hessian is not positive definite; these
        are not evaluated.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (len(chart.nodes),):
        raise ValidationError("value array does not match the lattice")
    if problem is not None and problem is not chart.problem:
        raise ValidationError("chart was built for a different problem")
    p = pivots(chart.stencil.matrices(v))
    ok = np.all(p > 0, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        R = np.sum(np.log(p), axis=0) - chart.rhslog
    R[~ok] = np.nan
    return R, chart.interior[~ok]


def _jacobian_matrix(chart, v):
    """Sparse derivative of the interior residual in the interior values."""
    return chart.stencil.jacobian(inverses(chart.stencil.matrices(v)))


def _dst1(x):
    """Unnormalised type-I sine transform along every axis in turn, as
    ``scipy.fft.dstn(x, type=1)``: along an axis of length N it is -Im of
    the real FFT of the odd extension [0, x, 0, -x reversed]."""
    for a in range(x.ndim):
        z = np.moveaxis(x, a, -1)
        zero = np.zeros(z.shape[:-1] + (1,))
        z = np.concatenate([zero, z, zero, -z[..., ::-1]], axis=-1)
        x = np.moveaxis(-np.fft.rfft(z)[..., 1:-1].imag, -1, a)
    return x


def _harmonic_lift(chart, v):
    """Fill interior values by a discrete Laplace solve from the boundary.

    The Laplacian, the (2n+1)-point one, is the trace of the chart's
    stencil.  On a box lattice it is diagonalised by the type-I discrete
    sine transform, so box charts and 1-D charts are solved by one forward
    and one inverse DST (:func:`_dst1`, through numpy's FFT) of the values
    placed by their lattice coordinates.  The 2-D simplex lattice is the half
    i + j <= m - 1 of the square, and the reflection
    (i, j) -> (m - 1 - j, m - 1 - i) across the hypotenuse maps the
    stencil onto itself: with the right hand side mirrored with its sign
    flipped, the square solution vanishes on the hypotenuse and its lower
    half is the triangle's.  Simplices with n >= 3 fall back to a sparse
    LU solve.
    """
    st = chart.stencil
    n = chart.nodes.shape[1]
    d2 = chart.delta ** 2
    eye = np.eye(n)[:, :, None]
    # known boundary values move to the right hand side
    known = st.columns[st.neighbors] < 0
    rhs = -np.sum(st.weights(eye) * np.where(known, v[st.neighbors], 0.0),
                  axis=0)

    m = chart.m
    if chart.kind == "simplex" and n >= 3:
        # drop the zero-trace diagonal offsets from a copy of the pattern
        A = st.jacobian(eye).copy()
        A.eliminate_zeros()
        return spsolve(A, rhs, permc_spec="NATURAL")

    # eigenvalues of the Laplacian on the (m-2)^n interior box
    lam1 = (2.0 * np.cos(np.pi * np.arange(1, m - 1) / (m - 1)) - 2.0) / d2
    lam = functools.reduce(np.add.outer, [lam1] * n)
    ref = np.round(chart.nodes[chart.interior] * (m - 1)).astype(int)
    at = tuple(ref.T - 1)
    F = np.zeros((m - 2,) * n)
    F[at] = rhs
    if chart.kind == "simplex" and n == 2:
        F -= F.T[::-1, ::-1]
    # the inverse transform is the forward one over 2(m - 1) per axis
    return (_dst1(_dst1(F) / lam) / (2 * (m - 1)) ** n)[at]


def freudenthal_cells(s, top, width, simplex):
    """Freudenthal simplices of the lattice cells of side ``width`` at s.

    ``s`` (k, n) holds lattice coordinates, clipped to [0, top]; ``top``
    is the last node index, one value or one per axis.  Cell bases are
    multiples of ``width``, the last clipped to top - width, so when
    width does not divide top the last layer of cells is shifted back.
    A simplex lattice {i >= 0, sum i <= top} is read in suffix sums
    y_a = s_a + ... + s_n, where it is top >= y_1 >= ... >= y_n >= 0, a
    union of whole cell simplices when width divides top.  Otherwise
    the axes before the widest gap of that chain take bases shifted by
    top % width; with top >= n + 1, as on every chart with an interior
    node, that gap is at least one node, so both runs of cells fit and
    the corners stay ordered.  Returns the barycentric weights (k, n + 1)
    and the corners (k, n + 1, n), integer lattice indices.
    """
    s = np.clip(s, 0.0, top)
    shift = 0
    if simplex:
        s = np.minimum(np.cumsum(s[:, ::-1], axis=1)[:, ::-1], top)
        if top % width:
            gaps = -np.diff(s, prepend=top, append=0.0, axis=1)
            shift = (top % width) * (np.arange(s.shape[1])
                                     < np.argmax(gaps, axis=1)[:, None])
    base = np.minimum(width * np.floor((s - shift) / width) + shift,
                      top - width)
    frac = (s - base) / width
    order = np.argsort(-frac, axis=1, kind="stable")
    weights = -np.diff(np.take_along_axis(frac, order, axis=1),
                       prepend=1.0, append=0.0, axis=1)
    # corner k steps up along the k largest fractional parts
    steps = np.arange(s.shape[1] + 1)[None, :, None]
    rank = np.argsort(order, axis=1)[:, None, :]
    corners = (base[:, None, :] + width * (rank < steps)).astype(int)
    if simplex:
        corners = -np.diff(corners, append=0, axis=2)
    return weights, corners


class RegularizedSolution:
    """Computed regular part on a chart; u adds the singular part back.

    Evaluation maps the query point to reference coordinates, applies the
    piecewise linear interpolant of the lattice values on Freudenthal's
    triangulation of the lattice cells, and for u adds
    sum_i l_i log l_i analytically.
    """

    def __init__(self, problem, chart, values, report):
        self.problem, self.chart, self.report = problem, chart, report
        self.values = np.asarray(values, dtype=float)

    def _eval_ref(self, xi):
        chart = self.chart
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        Q = chart.ref_problem.polytope
        if np.min(Q.distances(xi), initial=0.0) < -Q.tau:
            raise OutsideDomain("evaluation outside the polytope")
        # points within tau outside are clipped onto the polytope
        weights, corners = freudenthal_cells(
            xi * (chart.m - 1), chart.m - 1, 1, chart.kind == "simplex")
        ids = chart.node_ids[corners @ chart.strides]
        return np.sum(weights * self.values[ids], axis=1)

    def v(self, x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        vals = self._eval_ref(self.chart.to_reference(np.atleast_2d(x)))
        return float(vals[0]) if single else vals

    def u(self, x):
        return self.v(x) + potential_values(self.problem.polytope, x)


def _refined_solve(lu, J, b):
    """J s = b on fresh single-precision factors of J, refined once."""
    s = lu.solve(b.astype(np.float32)).astype(float)
    return s + lu.solve((b - J @ s).astype(np.float32))


def damped_newton(residual, jacobian, x, R, tol, max_iter):
    """Damped Newton iteration on a vector of unknowns, reusing LU factors.

    ``splu`` factors the Jacobian in single precision as numbered
    (``permc_spec="NATURAL"``); both solvers number their unknowns by
    :func:`dissection_order`.  The Newton step on fresh factors is
    refined once against the double-precision Jacobian
    (:func:`_refined_solve`); a chord step on kept factors takes one
    solve, the stale Jacobian erring far more than single precision.
    It is taken when it keeps every node admissible and lowers the sup
    norm residual, and the factors are kept while it cuts the residual
    at least fourfold.  Otherwise Newton refactors at the current
    iterate and backtracks, halving lambda down to 2^-31 until
    |R(x + lambda s)| <= (1 - lambda/4) |R(x)|.

    Parameters
    ----------
    residual : callable
        x -> (R, ok); ``ok`` is false when some node leaves the
        admissible cone, and R is then not read.
    jacobian : callable
        x -> sparse matrix, the derivative of R at x.
    x, R : ndarray
        Admissible starting unknowns and the residual there.
    tol : float
        Convergence threshold on the sup norm of the residual.
    max_iter : int
        Cap on accepted steps, chord and Newton alike.

    Returns
    -------
    (x, norm, iterations, trials, factorizations)
        The last iterate and its residual sup norm, the accepted steps,
        the residual evaluations of trial steps (chord trials included)
        and the LU factorizations.

    Raises
    ------
    SingularJacobian
        ``splu`` fails or the Newton step is not finite.
    LineSearchStall
        No trial step is accepted; the message says whether every trial
        left the admissible cone.
    """
    norm = float(np.max(np.abs(R)))
    iterations = trials = factorizations = 0
    lu = None
    while norm > tol and iterations < max_iter:
        if lu is not None:
            # chord step on the kept factors: taken if it lowers the
            # residual, the factors kept if it contracts it fast enough
            xt = x + lu.solve((-R).astype(np.float32))
            Rt, ok = residual(xt)
            trials += 1
            nt = float(np.max(np.abs(Rt))) if ok else np.inf
            if nt > _CHORD_CONTRACTION * norm:
                # free the old factors first: two live LUs double peak memory
                lu = None
            if nt < norm:
                x, R, norm = xt, Rt, nt
                iterations += 1
                continue
        try:
            J = jacobian(x)
            lu = splu(J.astype(np.float32), permc_spec="NATURAL")
        except RuntimeError as exc:
            raise SingularJacobian(
                "linearized system failed at iteration %d: %s"
                % (iterations, exc)) from exc
        factorizations += 1
        step = _refined_solve(lu, J, -R)
        if not np.all(np.isfinite(step)):
            raise SingularJacobian(
                "linearized system failed at iteration %d" % iterations)
        lam = 1.0
        left_cone = True
        while lam >= 2.0 ** -31:
            xt = x + lam * step
            Rt, ok = residual(xt)
            trials += 1
            if ok:
                left_cone = False
                nt = float(np.max(np.abs(Rt)))
                if nt <= (1.0 - 0.25 * lam) * norm + 1e-14 * (1.0 + norm):
                    break
            lam *= 0.5
        else:
            raise LineSearchStall(
                "no acceptable step at iteration %d, residual %.3e%s"
                % (iterations, norm, "; every trial left the admissible "
                   "cone" if left_cone else ""))
        x, R, norm = xt, Rt, nt
        iterations += 1
    return x, norm, iterations, trials, factorizations


def newton_solve(problem, boundary=None, grid=None, tol=1e-10, max_iter=30):
    """Solve the discrete problem by damped Newton iteration.

    The interior values start from the harmonic lift of the boundary
    values (:func:`_harmonic_lift`) and are iterated by
    :func:`damped_newton`, in the chart's nested-dissection order.

    Parameters
    ----------
    problem : GuilleminProblem
    boundary : BoundaryData, optional
        Built on demand when omitted.  Any object whose ``v`` maps an
        array of k points (shape (k, n)) to their k regular-part values
        will do; it is called once, on all boundary nodes of the chart.
    grid : int, optional
        Nodes per edge (default 17).
    tol : float
        Convergence threshold on the sup norm of the residual.
    max_iter : int
        Cap on accepted steps, chord and Newton alike; exceeding it is
        reported, not raised.

    Returns
    -------
    (RegularizedSolution, dict)
        The report carries iterations (accepted chord and Newton steps),
        converged, residual_norm, line_search_total (residual
        evaluations of trial steps, chord trials included),
        factorizations (LU factorizations of the Jacobian), grid, kind,
        n_interior and tol.

    Raises
    ------
    ChartTooLarge, NonConvexIterate, SingularJacobian, LineSearchStall
    """
    chart = GridChart(problem, m=17 if grid is None else int(grid))
    if boundary is None:
        boundary = build_boundary_data(problem, grid=chart.m,
                                       tol=min(tol, 1e-10))

    v = np.zeros(len(chart.nodes))
    bpts = chart.to_problem(chart.nodes[chart.boundary])
    v[chart.boundary] = boundary.v(bpts)
    v[chart.interior] = _harmonic_lift(chart, v)

    R, flagged = assemble_residual(v, problem, chart)
    if flagged.size:
        # halve the interior toward the zero field up to 60 times; next to
        # the boundary the differences still read the boundary values, so
        # even the zero field can stay flagged, and then the start fails
        blend = 1.0
        base = v[chart.interior].copy()
        for _ in range(60):
            blend *= 0.5
            v[chart.interior] = blend * base
            R, flagged = assemble_residual(v, problem, chart)
            if flagged.size == 0:
                break
        else:
            raise NonConvexIterate("initial iterate is not convexifiable")

    def full(x):
        vt = v.copy()
        vt[chart.interior] = x
        return vt

    def residual(x):
        Rt, fl = assemble_residual(full(x), problem, chart)
        return Rt, fl.size == 0

    x, norm, iterations, ls_total, factorizations = damped_newton(
        residual, lambda x: _jacobian_matrix(chart, full(x)),
        v[chart.interior], R, tol, max_iter)
    v = full(x)
    report = {
        "iterations": iterations,
        "converged": bool(norm <= tol),
        "residual_norm": norm,
        "line_search_total": ls_total,
        "factorizations": factorizations,
        "grid": chart.m,
        "kind": chart.kind,
        "n_interior": int(len(chart.interior)),
        "tol": float(tol),
    }
    return RegularizedSolution(problem, chart, v, report), report
