"""Independent reference computations used by the test suite.

Everything in this module is deliberately written against a different code
path than the package under test: vertex enumeration goes through scipy's
halfspace intersection, derivatives through central differences, integrals
through QUADPACK.  Tests freeze values produced here and compare the package
against them.
"""

import itertools

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import HalfspaceIntersection


def chebyshev_center(normals, offsets):
    """Interior point of {x : normals @ x - offsets >= 0} by LP.

    Maximizes the inradius r subject to n_i . x - c_i >= r |n_i|.
    Returns (center, radius).
    """
    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    m, n = normals.shape
    norms = np.linalg.norm(normals, axis=1)
    # variables (x, r); maximize r
    c = np.zeros(n + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-normals, norms[:, None]])
    b_ub = -offsets
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=[(None, None)] * (n + 1),
                  method="highs")
    if not res.success:
        raise RuntimeError("chebyshev LP failed: " + res.message)
    return res.x[:-1], res.x[-1]


def hull_vertices(normals, offsets):
    """Vertices of {x : normals @ x >= offsets} via scipy halfspace code.

    Returns an array of unique vertices, lexicographically sorted.
    """
    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    center, radius = chebyshev_center(normals, offsets)
    if radius <= 0:
        raise RuntimeError("no interior point")
    halfspaces = np.hstack([-normals, offsets[:, None]])
    hs = HalfspaceIntersection(halfspaces, center)
    pts = hs.intersections
    # dedupe with a scale-aware tolerance
    scale = max(1.0, np.abs(pts).max())
    rounded = np.round(pts / (1e-9 * scale)).astype(np.int64)
    _, idx = np.unique(rounded, axis=0, return_index=True)
    verts = pts[sorted(idx)]
    order = np.lexsort(verts.T[::-1])
    return verts[order]


def brute_force_vertices(normals, offsets, tol=1e-9):
    """Vertex enumeration by trying every n-subset of facets.

    Kept independent of the package: plain linear solves plus a feasibility
    filter.  Quadratic-ish in the number of subsets, fine for test sizes.
    """
    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    m, n = normals.shape
    out = []
    for subset in itertools.combinations(range(m), n):
        A = normals[list(subset)]
        b = offsets[list(subset)]
        # conditioned on the unit normals, which cut out the same set
        sv = np.linalg.svd(A / np.linalg.norm(A, axis=1)[:, None],
                           compute_uv=False)
        if sv[-1] <= 1e-12 * sv[0]:
            continue
        x = np.linalg.solve(A, b)
        if np.all(normals @ x - offsets >= -tol):
            out.append(x)
    if not out:
        return np.zeros((0, n))
    pts = np.array(out)
    scale = max(1.0, np.abs(pts).max())
    rounded = np.round(pts / (1e-9 * scale)).astype(np.int64)
    _, idx = np.unique(rounded, axis=0, return_index=True)
    verts = pts[sorted(idx)]
    order = np.lexsort(verts.T[::-1])
    return verts[order]


def fd_hessian(f, x, h=None):
    """Central difference Hessian, second order, off-diagonals by 4 point rule."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if h is None:
        h = (np.finfo(float).eps) ** (1.0 / 4.0) * max(1.0, np.abs(x).max())
    H = np.zeros((n, n))
    f0 = f(x)
    for a in range(n):
        ea = np.zeros(n)
        ea[a] = h
        H[a, a] = (f(x + ea) - 2 * f0 + f(x - ea)) / h**2
        for b in range(a + 1, n):
            eb = np.zeros(n)
            eb[b] = h
            H[a, b] = (f(x + ea + eb) - f(x + ea - eb)
                       - f(x - ea + eb) + f(x - ea - eb)) / (4 * h**2)
            H[b, a] = H[a, b]
    return H


def induced_density(normals, values):
    """Induced density by its distinct-index expansion (Cauchy-Binet).

    (prod_i l_i) det(sum_i n_i n_i^t / l_i) is the sum over n-subsets S
    of the facets of det(N_S)^2 times the product of l_i over i not in S,
    a polynomial in the functional values.  ``values`` holds them on its
    last axis.
    """
    normals = np.asarray(normals, dtype=float)
    values = np.asarray(values, dtype=float)
    m, n = normals.shape
    acc = np.zeros(values.shape[:-1])
    for subset in itertools.combinations(range(m), n):
        rest = [i for i in range(m) if i not in subset]
        acc = acc + (np.linalg.det(normals[list(subset)]) ** 2
                     * np.prod(values[..., rest], axis=-1))
    return acc


def random_polytope_2d(rng, nfacets=6):
    """Random bounded 2d polygon: tangent halfspaces of a convex curve."""
    angles = np.sort(rng.uniform(0, 2 * np.pi, size=nfacets))
    # ensure angular gaps stay below pi so the intersection is bounded
    while np.max(np.diff(np.append(angles, angles[0] + 2 * np.pi))) > 2.5:
        angles = np.sort(rng.uniform(0, 2 * np.pi, size=nfacets))
    radii = rng.uniform(0.5, 1.5, size=nfacets)
    normals = -np.column_stack([np.cos(angles), np.sin(angles)])
    offsets = -radii
    return normals, offsets
