"""Closed-form potential with log boundary structure and its induced density.

The canonical potential sum_i l_i(x) log l_i(x) solves the degenerate
Monge-Ampere problem with a computable right-hand side: its induced
density h_G = (prod_i l_i) det(sum_i n_i n_i^t / l_i) extends continuously
to the closed polytope when the polytope is simple.  This module evaluates
the potential, the induced density and the density families.
"""

import numpy as np

from .errors import OutsideDomain


def xlogx(x):
    """x log x elementwise, with 0 log 0 = 0 (also at -0.0)."""
    x = np.asarray(x, dtype=float)
    return np.where(x == 0, 0.0, x * np.log(np.where(x == 0, 1.0, x)))


def _require_inside(P, x, what):
    x = np.asarray(x, dtype=float)
    if np.min(P.distances(x)) < -P.tau:
        raise OutsideDomain("%s evaluated outside the closed polytope" % what)
    return x, P.evaluate_all(x)


def potential_values(P, xs):
    """Values of sum_i l_i log l_i at many points (0 log 0 = 0)."""
    xs, vals = _require_inside(P, xs, "potential")
    return xlogx(np.clip(vals, 0.0, None)).sum(-1)


def _bordered_determinant(P, vals):
    """det [[diag l, N], [-N^t, 0]] for functional values l on the last axis."""
    k, n = P.normals.shape
    M = np.zeros(vals.shape[:-1] + (k + n, k + n))
    np.einsum("...ii->...i", M)[..., :k] = vals
    M[..., :k, k:] = P.normals
    M[..., k:, :k] = -P.normals.T
    out = np.linalg.det(M)
    return float(out) if out.ndim == 0 else out


def guillemin_density(P, x):
    """Induced density h_G(x) = (prod_i l_i) det(sum_i n_i n_i^t / l_i).

    Evaluated as det [[diag l(x), N], [-N^t, 0]] for the N x n normal
    matrix N: the Schur complement on diag l gives the product above, and
    the determinant, a polynomial in l, is its continuous extension to
    the closed polytope, vertices included.

    Accepts a single point (shape (n,)) or a batch (shape (m, n)).

    Raises
    ------
    OutsideDomain
    """
    return _bordered_determinant(P, _require_inside(P, x, "density")[1])


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
