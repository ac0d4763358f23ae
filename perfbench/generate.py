"""Seeded problem generator for the benchmark.

Every problem is an affine image of a reference polytope, the standard
simplex or the unit box in two or three dimensions, carrying one of two
density families:

* ``perturbed``: the induced density times 1 + c prod_i l_i;
* ``polynomial``: 1 + a x1 x2 on simplices, 1 + sum_i a x_i (1 - x_i) on
  boxes, written in reference coordinates and carried to the image by
  ``GuilleminProblem.transform``.

The strength c or a is a stratum of [0.2, 3] chosen by the caller (the
workloads alternate the two ends).  The seed draws everything else: the
affine map, with singular values in [0.6, 1.6] so that every image is well
conditioned, and the vertex values, which are those of a random affine
function.  Each reference problem is symmetric under the symmetries of
its polytope up to that affine part, which the discrete solution carries
exactly, and the solver works on a reference chart of the same polytope.
So the cost and the discretization error of a problem do not depend on
the seed, while the program sees a different polytope for every seed.
(The box chart is not equivariant under frame changes that swap the
diagonals of its mixed stencil; on symmetric data the two discrete
solutions are mirror images, with equal two-grid differences.)  Draws
that fail ``compatibility_ok()`` are rejected and redrawn.

The program receives only what this module returns: problem objects, or
JSON problem files for the command line.
"""

from typing import NamedTuple

import numpy as np

from gma import geometry
from gma.guillemin import DensitySpec
from gma.problem import GuilleminProblem

STRENGTH_RANGE = (0.2, 3.0)
SINGULAR_VALUES = (0.6, 1.6)
SHIFT = 1.0
VERTEX_SLOPE = 0.3
MAX_DRAWS = 20


class Recipe(NamedTuple):
    """Everything needed to rebuild one generated problem from scratch."""

    shape: str
    n: int
    family: str
    strength: float
    slope: np.ndarray
    M: np.ndarray
    b: np.ndarray


def reference_facets(shape, n):
    """Facet functionals of the standard simplex or the unit box."""
    eye = np.eye(n)
    facets = [geometry.AffineFunctional(eye[i], 0.0) for i in range(n)]
    if shape == "simplex":
        facets.append(geometry.AffineFunctional(-np.ones(n), -1.0))
    elif shape == "box":
        facets.extend(geometry.AffineFunctional(-eye[i], -1.0)
                      for i in range(n))
    else:
        raise ValueError("unknown shape %r" % (shape,))
    return facets


def random_affine(rng, n):
    """(M, b) with M = U diag(s) V^t, s in SINGULAR_VALUES, b in a cube."""
    U, _ = np.linalg.qr(rng.normal(size=(n, n)))
    V, _ = np.linalg.qr(rng.normal(size=(n, n)))
    s = rng.uniform(*SINGULAR_VALUES, size=n)
    return U @ np.diag(s) @ V.T, rng.uniform(-SHIFT, SHIFT, size=n)


def reference_density(shape, n, family, strength, P):
    if family == "perturbed":
        return DensitySpec.perturbed(P, strength)
    if family == "induced":
        return DensitySpec.guillemin(P)
    if family != "polynomial":
        raise ValueError("unknown density family %r" % (family,))
    coeffs = {(0,) * n: 1.0}
    if shape == "simplex":
        coeffs[(1, 1) + (0,) * (n - 2)] = strength
    else:
        for i in range(n):
            linear = [0] * n
            linear[i] = 1
            square = [0] * n
            square[i] = 2
            coeffs[tuple(linear)] = strength
            coeffs[tuple(square)] = -strength
    return DensitySpec.polynomial(coeffs, n)


def image_of(reference, M, b):
    """The problem carried to the image {M x + b : x in P}."""
    Minv = np.linalg.inv(M)
    return reference.transform(Minv, -Minv @ b)


def reference_problem(recipe):
    P = geometry.build_polytope(reference_facets(recipe.shape, recipe.n))
    dens = reference_density(recipe.shape, recipe.n, recipe.family,
                             recipe.strength, P)
    values = 0.0 if recipe.family == "induced" else P.vertices @ recipe.slope
    name = "%s%d-%s" % (recipe.shape, recipe.n, recipe.family)
    return GuilleminProblem(P, dens, values, name=name)


def build(recipe, M=None, b=None):
    """A fresh problem object for the recipe, optionally in another frame."""
    return image_of(reference_problem(recipe),
                    recipe.M if M is None else M,
                    recipe.b if b is None else b)


def draw(rng, shape, n, family, strength):
    """Draw a recipe whose problem passes compatibility_ok()."""
    lo, hi = STRENGTH_RANGE
    if family != "induced" and not lo <= strength <= hi:
        raise ValueError("strength %g outside [%g, %g]" % (strength, lo, hi))
    for _ in range(MAX_DRAWS):
        slope = rng.uniform(-VERTEX_SLOPE, VERTEX_SLOPE, size=n)
        M, b = random_affine(rng, n)
        recipe = Recipe(shape, n, family, float(strength), slope, M, b)
        if build(recipe).compatibility_ok():
            return recipe
    raise RuntimeError("no compatible draw for %s%d/%s in %d tries"
                       % (shape, n, family, MAX_DRAWS))


def problem_json(prob):
    """JSON problem schema for the command line (perturbed or induced)."""
    fam = prob.density.family
    if fam[0] == "perturbed":
        density = {"type": "perturbed", "amplitude": float(fam[1])}
    elif fam[0] == "guillemin":
        density = {"type": "guillemin"}
    else:
        raise ValueError("density family %r has no JSON form" % (fam[0],))
    P = prob.polytope
    return {
        "dimension": int(P.dimension),
        "name": prob.name,
        "facets": [{"normal": [float(c) for c in f.normal],
                    "offset": float(f.offset)} for f in P.facets],
        "density": density,
        "vertex_values": [{"point": [float(c) for c in p], "value": float(v)}
                          for p, v in zip(P.vertices, prob.vertex_values)],
    }


def model_density(strength):
    """Positive, non-constant density for the half-space model problem."""
    def h(x):
        x = np.asarray(x, dtype=float)
        return 1.0 + strength * x[..., 0] + 0.25 * strength * x[..., 1] ** 2
    return h


def model_trace(slope, shift):
    """Outer Dirichlet data: the flat model trace plus an affine part in x2."""
    def trace(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * x[..., 1] ** 2 + slope * x[..., 1] + shift
    return trace
