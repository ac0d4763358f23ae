"""Simple convex polytopes cut out by affine functionals.

A polytope is stored as the intersection of halfspaces l_i(x) >= 0 with
l_i(x) = normal_i . x - offset_i.  Construction enumerates vertices by
solving every n-subset of facet equations, validates boundedness (no
extreme ray of {d : N d >= 0}), a nonempty interior (vertices of affine
rank n) and nondegeneracy without a linear program, and builds the face
lattice from vertex active sets.  Faces and affine images are pulled
back from that lattice with no rebuild: a face of a simple polytope is
a simple polytope whose faces are the ambient faces that contain it.
The raw functionals are preserved exactly as given, because several
downstream quantities are not invariant under rescaling them.
"""

import itertools

import numpy as np

from .errors import (
    DegenerateNormals,
    EmptyInterior,
    NonSimpleVertex,
    RedundantFacet,
    Unbounded,
)

_PARALLEL_TOL = 1e-9
_RANK_TOL = 1e-8
_RECESSION_TOL = 1e-9


class AffineFunctional:
    """Affine function l(x) = normal . x - offset.

    Parameters
    ----------
    normal : array_like, shape (n,)
        Nonzero gradient of the functional.
    offset : float
        Constant so that the zero set is {x : normal . x = offset}.
    """

    __slots__ = ("normal", "offset")

    def __init__(self, normal, offset):
        self.normal = np.atleast_1d(np.asarray(normal, dtype=float))
        self.offset = float(offset)
        if self.normal.ndim != 1:
            raise ValueError("normal must be one dimensional")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return x @ self.normal - self.offset

    def __repr__(self):
        return "AffineFunctional(normal=%s, offset=%r)" % (
            np.array2string(self.normal, separator=", "), self.offset)


class Face:
    """One face of the lattice: canonical active set, dimension, vertices."""

    __slots__ = ("active", "dim", "vertex_ids")

    def __init__(self, active, dim, vertex_ids):
        self.active, self.dim = tuple(active), int(dim)
        self.vertex_ids = tuple(vertex_ids)

    def __repr__(self):
        return "Face(active=%s, dim=%d, nverts=%d)" % (
            self.active, self.dim, len(self.vertex_ids))


def _affine_rank(points, scale):
    points = np.asarray(points, dtype=float)
    if len(points) <= 1:
        return 0
    diffs = points[1:] - points[0]
    sv = np.linalg.svd(diffs, compute_uv=False)
    return int(np.sum(sv > _RANK_TOL * max(1.0, scale)))


class Polytope:
    """Bounded intersection of halfspaces with vertex and face data.

    Not meant to be constructed directly; use :func:`build_polytope` or
    :func:`pull_back`.  ``tau`` defaults to 1e-9 times the diameter and
    bounds distances, as :meth:`distances` reads them.  Instances are
    immutable after construction.
    """

    def __init__(self, facets, vertices, vertex_active, faces, tau=None):
        self.facets = tuple(facets)
        self.dimension = self.facets[0].normal.size
        self.vertices = v = np.asarray(vertices, dtype=float)
        self.diameter = float(np.max(np.linalg.norm(
            v[:, None, :] - v[None, :, :], axis=-1)))
        self.vertex_active = tuple(tuple(a) for a in vertex_active)
        self.faces = dict(faces)
        self.tau = 1e-9 * self.diameter if tau is None else float(tau)
        self.normals = np.array([f.normal for f in self.facets])
        self.offsets = np.array([f.offset for f in self.facets])
        self._lengths = np.linalg.norm(self.normals, axis=1)

    def evaluate_all(self, x):
        """Values of every facet functional at x; batched over leading axes."""
        x = np.asarray(x, dtype=float)
        return x @ self.normals.T - self.offsets

    def distances(self, x):
        """Signed distances of x to every facet hyperplane, for tau."""
        return self.evaluate_all(x) / self._lengths

    def canonical_active(self, gamma):
        """Smallest face active set containing gamma, or None if no vertex has it."""
        g = set(gamma)
        hits = [set(a) for a in self.vertex_active if g <= set(a)]
        if not hits:
            return None
        return tuple(sorted(set.intersection(*hits)))

    def __repr__(self):
        return "Polytope(n=%d, facets=%d, vertices=%d)" % (
            self.dimension, len(self.facets), len(self.vertices))


def linprog(*args, **kwargs):
    """scipy's linprog on first call; no caller, only the tracer binds it."""
    from scipy.optimize import linprog
    return linprog(*args, **kwargs)


def _rank_deficient(normals):
    """Rank below n, up to a threshold scaled by the largest normal."""
    m, n = normals.shape
    thresh = _RECESSION_TOL * float(np.max(np.linalg.norm(normals, axis=1)))
    return m < n or np.linalg.svd(normals, compute_uv=False)[-1] <= thresh


def _has_recession_direction(normals):
    """True when some nonzero d has N d >= 0, i.e. the set is unbounded.

    A rank deficient N has a null direction.  Otherwise the cone
    {d : N d >= 0} is pointed, so it holds a nonzero d exactly when it
    has an extreme ray: the null direction d of n - 1 independent rows
    of N, with N d >= 0 or N d <= 0.  One batched SVD over the
    (n - 1)-subsets of rows gives every candidate.  Both tests read the
    unit normals, which cut out the same cone, so that a long normal
    loosens no test on a short one.
    """
    m, n = normals.shape
    units = normals / np.linalg.norm(normals, axis=1)[:, None]
    if _rank_deficient(units):
        return True
    subsets = np.array(list(itertools.combinations(range(m), n - 1)), int)
    _, sv, Vt = np.linalg.svd(units[subsets])
    slopes = units @ Vt[:, -1].T
    ray = (np.all(slopes >= -_RECESSION_TOL, axis=0)
           | np.all(slopes <= _RECESSION_TOL, axis=0))
    return bool(np.any(ray & np.all(sv > _RECESSION_TOL, axis=-1)))


def build_polytope(functionals, tau_geom=None):
    """Build a bounded polytope {x : l_i(x) >= 0 for all i}.

    Vertices are enumerated by solving all n-subsets of facet equations
    and filtering by feasibility; the face lattice is the intersection
    closure of the vertex active sets.  A bounded set is the hull of its
    vertices, so its interior is empty exactly when their affine rank is
    below n.

    Parameters
    ----------
    functionals : sequence of AffineFunctional
        The facet functionals, kept in the given order.
    tau_geom : float, optional
        Geometric tolerance.  Defaults to 1e-9 times the diameter.

    Returns
    -------
    Polytope

    Raises
    ------
    DegenerateNormals
        A normal is zero or two normals are positively parallel.
    Unbounded
        The halfspace intersection admits a recession direction; normals
        of rank below n always do.
    EmptyInterior
        No vertex is found, or the vertices span less than dimension n,
        so no point satisfies all inequalities strictly.
    RedundantFacet
        Some functional supports no face of dimension n-1.
    """
    facets = list(functionals)
    if not facets:
        raise DegenerateNormals("no functionals given")
    normals = np.array([f.normal for f in facets], dtype=float)
    offsets = np.array([f.offset for f in facets], dtype=float)
    m, n = normals.shape

    lengths = np.linalg.norm(normals, axis=1)
    if np.any(lengths == 0):
        bad = int(np.argmin(lengths))
        raise DegenerateNormals("facet %d has zero normal" % bad)
    units = normals / lengths[:, None]
    for i, j in itertools.combinations(range(m), 2):
        if np.linalg.norm(units[i] - units[j]) < _PARALLEL_TOL:
            raise DegenerateNormals(
                "facets %d and %d have positively parallel normals" % (i, j))

    if _has_recession_direction(normals):
        raise Unbounded("halfspace intersection has a recession direction")

    # solve every n-subset of facets that is nonsingular on the unit
    # normals, keep the feasible; feasibility and activity read distances
    # to the hyperplanes, so scaling a functional drops or adds no vertex
    subsets = np.array(list(itertools.combinations(range(m), n)), int)
    sv = np.linalg.svd(units[subsets], compute_uv=False)
    subsets = subsets[sv[:, -1] > 1e-12 * sv[:, 0]]
    pts = np.linalg.solve(normals[subsets], offsets[subsets, None])[..., 0]
    slack = np.min((pts @ normals.T - offsets) / lengths, axis=1)
    pts = pts[slack >= -1e-9 * np.maximum(1.0, np.max(np.abs(pts), axis=1))]
    if not len(pts):
        raise EmptyInterior("no vertex found")
    span = max(1.0, float(np.abs(pts).max()))
    rounded = np.round(pts / (1e-9 * span)).astype(np.int64)
    _, keep = np.unique(rounded, axis=0, return_index=True)
    pts = pts[sorted(keep)]

    diam = float(np.max(np.linalg.norm(pts[:, None] - pts[None], axis=-1)))
    tau = float(tau_geom) if tau_geom is not None else 1e-9 * diam

    values = (pts @ normals.T - offsets) / lengths
    keep = np.min(values, axis=1) >= -tau
    pts = pts[keep]
    values = values[keep]
    rank = _affine_rank(pts, diam)
    if rank < n:
        raise EmptyInterior("halfspace intersection has empty interior: "
                            "its vertices span dimension %d" % rank)
    # Python ints, so face keys print as (2, 3) in messages
    vertex_active = [tuple(int(i) for i in np.nonzero(np.abs(row) <= tau)[0])
                     for row in values]

    for i in range(m):
        on_facet = pts[[i in a for a in vertex_active]]
        if _affine_rank(on_facet, diam) != n - 1:
            raise RedundantFacet(
                "facet %d supports no face of dimension %d" % (i, n - 1))

    # face lattice: intersection closure of vertex active sets
    sets = {frozenset(a) for a in vertex_active}
    while True:
        fresh = {a & b for a, b in itertools.combinations(sets, 2)
                 if a & b not in sets}
        if not fresh:
            break
        sets |= fresh
    sets.add(frozenset())

    # every set of the closure is the intersection of the vertex active
    # sets that contain it, so it is its face's canonical key
    faces = {}
    for s in sets:
        ids = [k for k, a in enumerate(vertex_active) if s <= set(a)]
        if ids:
            key = tuple(sorted(s))
            faces[key] = Face(key, _affine_rank(pts[ids], diam), ids)

    return Polytope(facets, pts, vertex_active, faces, tau)


def pull_back(P, key, A, c, tau=None):
    """The face ``key`` of P (all of P for ``key == ()``) in coordinates
    xi with x = A xi + c, built from the data P holds.

    The facets are the pullbacks of the ambient facets outside ``key``
    that vanish at some vertex of the face, and the vertices are those
    of the face, both in ambient order; each vertex is solved from its
    own active facets, as :func:`build_polytope` solves it.  Active sets
    and faces are the ambient ones that contain ``key``, re-indexed.

    Raises
    ------
    NonSimpleVertex
        A vertex of the face is not on exactly d = A.shape[1] of its facets.
    Unbounded
        The pulled-back normals have rank below d: A is (nearly) singular.
    """
    A = np.asarray(A, dtype=float)
    d = A.shape[1]
    ids = list(P.faces[key].vertex_ids)
    kept = sorted(set().union(*(P.vertex_active[v] for v in ids)) - set(key))
    index = {j: i for i, j in enumerate(kept)}
    facets = [AffineFunctional(A.T @ P.facets[j].normal,
                               P.facets[j].offset - P.facets[j].normal @ c)
              for j in kept]
    active = [[index[j] for j in P.vertex_active[v] if j in index]
              for v in ids]
    for v, a in zip(ids, active):
        if len(a) != d:
            raise NonSimpleVertex("vertex %d of face %s lies on %d of its "
                                  "facets, expected %d" % (v, key, len(a), d))
    normals = np.array([f.normal for f in facets])
    offsets = np.array([f.offset for f in facets])
    if _rank_deficient(normals):
        raise Unbounded("pulled-back normals of face %s have rank below %d"
                        % (key, d))
    act = np.array(active)
    pts = np.linalg.solve(normals[act], offsets[act][..., None])[..., 0]
    pos = {v: i for i, v in enumerate(ids)}
    faces = {}
    for k, f in P.faces.items():
        if set(key) <= set(k):
            sub = tuple(index[j] for j in k if j in index)
            faces[sub] = Face(sub, f.dim, [pos[v] for v in f.vertex_ids])
    return Polytope(facets, pts, active, faces, tau)


def is_simple(P):
    """Check that every vertex lies on exactly n facets.

    Parameters
    ----------
    P : Polytope

    Returns
    -------
    ok : bool
    bad : list of int
        Ids of the vertices that do not lie on exactly n facets, in
        ascending order; empty when ``ok``.
    """
    bad = [k for k, active in enumerate(P.vertex_active)
           if len(active) != P.dimension]
    return not bad, bad


def face_frame(P, key):
    """Base point and tangent basis of the face with active set ``key``.

    The base is the mean of the face's vertices.  The tangent columns are
    an orthonormal basis of the null space of the active normals, each
    signed so that its largest entry in magnitude is positive; there are
    n - len(key) of them.
    """
    base = P.vertices[list(P.faces[key].vertex_ids)].mean(axis=0)
    _, _, Vt = np.linalg.svd(P.normals[list(key)], full_matrices=True)
    tangent = Vt[len(key):].T
    for j in range(tangent.shape[1]):
        lead = int(np.argmax(np.abs(tangent[:, j])))
        if tangent[lead, j] < 0:
            tangent[:, j] = -tangent[:, j]
    return base, tangent


def sample_interior(P, count, rng, margin=0.0):
    """Uniform rejection sample of ``count`` interior points.

    Points satisfy min_i l_i(x) > margin.  Deterministic for a given rng
    state.
    """
    lo = P.vertices.min(axis=0)
    hi = P.vertices.max(axis=0)
    out = []
    need = int(count)
    guard = 0
    while need > 0:
        guard += 1
        if guard > 10000:
            raise RuntimeError("rejection sampling stalled; margin too large?")
        batch = rng.uniform(lo, hi, size=(max(4 * need, 64), P.dimension))
        vals = P.evaluate_all(batch)
        good = batch[np.min(vals, axis=1) > margin]
        take = good[:need]
        if take.size:
            out.append(take)
            need -= len(take)
    return np.vstack(out)[:count]
