"""Closed-form potential with log boundary structure and its induced density.

The canonical potential sum_i l_i(x) log l_i(x) solves the degenerate
Monge-Ampere problem with a computable right-hand side: its induced
density h_G = (prod_i l_i) det(sum_i n_i n_i^t / l_i) extends continuously
to the closed polytope when the polytope is simple.  This module evaluates
the potential, the induced density (with a stable near-boundary route),
the vertex compatibility residual, the inclusion-exclusion boundary
extension, and the one finite difference Hessian the package uses.
"""

import itertools

import numpy as np
from scipy.special import xlogy

from .errors import (
    MissingTrace,
    NonSimpleVertex,
    OutsideDomain,
)

_EXPANSION_SWITCH = 1e-6


def _require_inside(P, x, what):
    x = np.asarray(x, dtype=float)
    vals = P.evaluate_all(x)
    if np.min(vals) < -P.tau:
        raise OutsideDomain("%s evaluated outside the closed polytope" % what)
    return x, vals


def potential_values(P, xs):
    """Values of sum_i l_i log l_i at many points (0 log 0 = 0)."""
    xs, vals = _require_inside(P, xs, "potential")
    return xlogy(np.clip(vals, 0.0, None), np.clip(vals, 0.0, None)).sum(-1)


def _distinct_index_terms(P):
    """Cached (complement indices, squared normal determinant) pairs.

    These are the distinct-index terms in the expansion of
    (prod l) det(sum n n^t / l): one term per nondegenerate n-subset of
    facets, with the product running over the complement.  The expansion
    is a polynomial and therefore the continuous extension of the density
    to the boundary.
    """
    terms = getattr(P, "_distinct_index_terms", None)
    if terms is None:
        n = P.dimension
        terms = []
        for subset in itertools.combinations(range(len(P.facets)), n):
            d = np.linalg.det(P.normals[list(subset)])
            if d != 0.0:
                comp = [i for i in range(len(P.facets)) if i not in subset]
                terms.append((np.array(comp, dtype=int), d * d))
        object.__setattr__(P, "_distinct_index_terms", terms)
    return terms


def guillemin_density(P, x, force_expansion=False):
    """Induced density h_G(x) = (prod_i l_i) det(sum_i n_i n_i^t / l_i).

    Within 1e-6 * diameter of the boundary the evaluation switches to the
    distinct-index polynomial expansion, which is the continuous extension
    of the interior formula; ``force_expansion`` selects it everywhere.

    Accepts a single point (shape (n,)) or a batch (shape (m, n)).

    Raises
    ------
    OutsideDomain
    """
    x, vals = _require_inside(P, x, "density")
    single = vals.ndim == 1
    V = np.atleast_2d(vals)
    out = np.empty(len(V))
    near = (V.min(axis=1) < _EXPANSION_SWITCH * P.diameter) | force_expansion
    if np.any(near):
        Vn = V[near]
        acc = np.zeros(len(Vn))
        for comp, det2 in _distinct_index_terms(P):
            acc += det2 * np.prod(Vn[:, comp], axis=1)
        out[near] = acc
    if not np.all(near):
        Vi = V[~near]
        H = np.einsum("pi,ia,ib->pab", 1.0 / Vi, P.normals, P.normals)
        out[~near] = np.prod(Vi, axis=1) * np.linalg.det(H)
    return float(out[0]) if single else out


def check_vertex_compatibility(P, h, vertex_id):
    """Signed residual of the vertex matching condition for the density.

    The density must equal, at each vertex p with active normals
    n_{i_1}, ..., n_{i_n}, the product of the inactive functionals at p
    times the squared determinant of the active normals.  Returns
    h(p) - that value.  The value is not invariant under rescaling the
    functionals; the facet list is taken as given.

    Raises
    ------
    NonSimpleVertex
        The vertex does not lie on exactly n facets.
    """
    n = P.dimension
    active = P.vertex_active[vertex_id]
    if len(active) != n:
        raise NonSimpleVertex(
            "vertex %d lies on %d facets, expected %d"
            % (vertex_id, len(active), n))
    p = P.vertices[vertex_id]
    vals = P.evaluate_all(p)
    inactive = [i for i in range(len(P.facets)) if i not in active]
    required = np.prod(vals[inactive]) * np.linalg.det(P.normals[list(active)]) ** 2
    return float(h(p) - required)


class DensitySpec:
    """Positive density on the closed polytope.

    Wraps a vectorized evaluator together with its family: a tuple whose
    first entry names it ("constant", "polynomial", "guillemin",
    "perturbed" or "callable") followed by its parameters.
    """

    def __init__(self, fn, family=("callable",)):
        self._fn = fn
        self.family = family

    def __call__(self, x):
        return self._fn(np.asarray(x, dtype=float))

    @classmethod
    def constant(cls, c):
        c = float(c)
        return cls(lambda x: (np.full(x.shape[:-1], c)
                              if x.ndim > 1 else c),
                   family=("constant", c))

    @classmethod
    def polynomial(cls, coeffs, dim):
        """Density sum_alpha c_alpha x^alpha from a {exponents: coeff} map."""
        items = []
        for alpha, c in coeffs.items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != dim:
                raise ValueError("exponent tuple %s has wrong length" % (alpha,))
            items.append((np.array(alpha), float(c)))

        def fn(x):
            acc = np.zeros(x.shape[:-1])
            for alpha, c in items:
                acc = acc + c * np.prod(x ** alpha, axis=-1)
            return acc if acc.ndim else float(acc)

        return cls(fn, family=("polynomial", dict(coeffs)))

    @classmethod
    def guillemin(cls, P):
        """The induced density of the canonical potential of P."""
        return cls(lambda x: guillemin_density(P, x), family=("guillemin",))

    @classmethod
    def perturbed(cls, P, c):
        """h_G * (1 + c prod_i l_i); agrees with h_G at every vertex."""
        c = float(c)

        def fn(x):
            l = P.evaluate_all(x)
            return guillemin_density(P, x) * (1.0 + c * np.prod(l, axis=-1))

        return cls(fn, family=("perturbed", c))

    @classmethod
    def from_callable(cls, fn):
        return cls(fn)


def smooth_extension(trace_fn, x, k):
    """Inclusion-exclusion extension of boundary traces into the corner.

    F(x) = sum over nonempty subsets S of the first k coordinates of
    (-1)^(|S|+1) v(x with coordinates in S set to zero).  F agrees with v
    wherever some of the first k coordinates vanish, and only ever
    evaluates v at such points.

    Parameters
    ----------
    trace_fn : callable
        Boundary data; must accept points whose first k coordinates are
        partially zeroed and may be vectorized over leading axes.
    x : array_like, shape (..., n)
    k : int
        Number of singular coordinates.

    Raises
    ------
    MissingTrace
        The trace evaluator produced a non-finite value.
    """
    x = np.asarray(x, dtype=float)
    acc = None
    for r in range(1, k + 1):
        for S in itertools.combinations(range(k), r):
            y = x.copy()
            y[..., list(S)] = 0.0
            term = np.asarray(trace_fn(y), dtype=float)
            if not np.all(np.isfinite(term)):
                raise MissingTrace(
                    "trace evaluator returned non-finite data on {x_%s = 0}"
                    % ",".join(str(s) for s in S))
            sign = 1.0 if r % 2 == 1 else -1.0
            acc = sign * term if acc is None else acc + sign * term
    if acc is None:
        raise ValueError("k must be at least 1")
    return float(acc) if acc.ndim == 0 else acc


def fd_hessian(f, x, scale=1.0):
    """Central difference Hessian of a scalar function at one point.

    Second order, with step eps^(1/4) max(scale, |x|_inf) and the four
    point rule off the diagonal.  Floating point warnings are silenced:
    a function that is singular near x yields non-finite entries, which
    the caller can reject.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    h = np.finfo(float).eps ** 0.25 * max(scale, float(np.max(np.abs(x))))
    H = np.empty((n, n))
    with np.errstate(all="ignore"):
        f0 = f(x)
        for a in range(n):
            ea = np.zeros(n)
            ea[a] = h
            H[a, a] = (f(x + ea) - 2 * f0 + f(x - ea)) / (h * h)
            for b in range(a + 1, n):
                eb = np.zeros(n)
                eb[b] = h
                H[a, b] = H[b, a] = (f(x + ea + eb) - f(x + ea - eb)
                                     - f(x - ea + eb)
                                     + f(x - ea - eb)) / (4 * h * h)
    return H
