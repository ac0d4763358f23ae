"""Problem container: polytope, density, vertex values, and JSON loading.

A problem is the data of the boundary value problem det D2u = h / prod l_i
with the logarithmic boundary structure: the polytope, a positive density
on its closure, and one real value per vertex.  Problems are immutable and
remember which density family they came from, so they transform exactly
under affine maps.
"""

import json

import numpy as np

from . import geometry
from .errors import GmaError, NonSimpleVertex, ParseError, ValidationError
from .guillemin import DensitySpec, _bordered_determinant

SCHEMA_VERSION = 1
# vertex residuals may reach this fraction of |h(p)|; `gma check`, the
# boundary build and the edge solve all apply it through vertex_rule
COMPATIBILITY_RTOL = 1e-8


def vertex_rule(h, h_required):
    """True where h is finite and within COMPATIBILITY_RTOL |h| of the
    value h_required that the vertex matching condition forces."""
    tol = COMPATIBILITY_RTOL * np.maximum(np.abs(h), 1e-30)
    return np.isfinite(h) & (np.abs(h - h_required) <= tol)


class GuilleminProblem:
    """Polytope + density + vertex values.

    Parameters
    ----------
    polytope : Polytope
    density : DensitySpec
    vertex_values : array_like or float
        One value per polytope vertex (in vertex order), or a single
        float broadcast to every vertex.
    name : str, optional
    """

    def __init__(self, polytope, density, vertex_values=0.0, name=None):
        self.polytope = polytope
        self.density = density
        nv = len(polytope.vertices)
        vv = np.asarray(vertex_values, dtype=float)
        if vv.ndim == 0:
            vv = np.full(nv, float(vv))
        if vv.shape != (nv,):
            raise ValidationError(
                "expected %d vertex values, got shape %s" % (nv, vv.shape))
        if not np.all(np.isfinite(vv)):
            raise ValidationError("vertex values must be finite")
        self.vertex_values = vv
        self.name = name

    @property
    def dimension(self):
        return self.polytope.dimension

    def _vertex_densities(self):
        """h(p) by one density call and h_G(p) by one bordered determinant,
        at every vertex p; raises NonSimpleVertex first if some vertex does
        not lie on exactly n facets."""
        P = self.polytope
        for i, active in enumerate(P.vertex_active):
            if len(active) != P.dimension:
                raise NonSimpleVertex(
                    "vertex %d lies on %d facets, expected %d"
                    % (i, len(active), P.dimension))
        return (np.asarray(self.density(P.vertices), dtype=float),
                _bordered_determinant(P, P.evaluate_all(P.vertices)))

    def compatibility_residuals(self):
        """Vertex matching residuals h(p) - h_G(p), one per vertex; they
        scale with the functionals, taken as given."""
        h, h_G = self._vertex_densities()
        return h - h_G

    def compatibility_ok(self):
        """True when the vertex rule holds at every vertex."""
        return bool(np.all(vertex_rule(*self._vertex_densities())))

    def transform(self, M, b):
        """The problem in new coordinates xi with x = M xi + b.

        Functionals pull back to l(M xi + b); the density picks up the
        squared Jacobian determinant.  The induced and perturbed families
        transform exactly into the same family on the image polytope.
        The image keeps the vertex order, so the vertex values carry
        over; a singular or nearly singular M raises Unbounded.
        """
        M = np.asarray(M, dtype=float)
        b = np.asarray(b, dtype=float)
        det2 = float(np.linalg.det(M)) ** 2
        Q = geometry.pull_back(self.polytope, (), M, b)
        fam = self.density.family
        if fam[0] == "constant":
            dens = DensitySpec.constant(fam[1] * det2)
        elif fam[0] == "guillemin":
            dens = DensitySpec.guillemin(Q)
        elif fam[0] == "perturbed":
            dens = DensitySpec.perturbed(Q, fam[1])
        else:
            h = self.density
            dens = DensitySpec.from_callable(
                lambda xi: h(np.asarray(xi) @ M.T + b) * det2)
        return GuilleminProblem(Q, dens, self.vertex_values.copy(),
                                name=self.name)


def _finite(value, field):
    value = float(value)
    if not np.isfinite(value):
        raise ValidationError("density '%s' must be finite, got %r"
                              % (field, value))
    return value


def _density_from_dict(d, P):
    kind = d.get("type")
    if kind == "constant":
        if "value" not in d:
            raise ParseError("constant density needs a 'value'")
        c = _finite(d["value"], "value")
        if c <= 0:
            raise ValidationError("constant density must be positive")
        return DensitySpec.constant(c)
    if kind == "polynomial":
        terms = d.get("terms")
        if not isinstance(terms, list) or not terms:
            raise ParseError("polynomial density needs a nonempty 'terms' list")
        coeffs = {}
        for t in terms:
            try:
                coeffs[tuple(int(e) for e in t["exponents"])] = _finite(
                    t["coeff"], "coeff")
            except (KeyError, TypeError) as exc:
                raise ParseError("bad polynomial term %r" % (t,)) from exc
        return DensitySpec.polynomial(coeffs, P.dimension)
    if kind == "guillemin":
        return DensitySpec.guillemin(P)
    if kind == "perturbed":
        return DensitySpec.perturbed(P, _finite(d.get("amplitude", 0.0),
                                                "amplitude"))
    raise ParseError("unknown density type %r" % (kind,))


def problem_from_dict(data):
    """Build a GuilleminProblem from the JSON problem schema.

    Schema: {"dimension": n, "facets": [{"normal": [...], "offset": r}],
    "density": {...}, "vertex_values": number | [{"point", "value"}],
    "name": optional}.
    """
    if not isinstance(data, dict):
        raise ParseError("problem description must be a JSON object")
    try:
        n = int(data["dimension"])
        raw_facets = data["facets"]
    except KeyError as exc:
        raise ParseError("missing required field %s" % exc) from exc
    if not isinstance(raw_facets, list) or len(raw_facets) < n + 1:
        raise ParseError("need at least dimension+1 facets")
    facets = []
    for i, f in enumerate(raw_facets):
        try:
            normal = [float(c) for c in f["normal"]]
            offset = float(f["offset"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError("bad facet entry %d: %r" % (i, f)) from exc
        if len(normal) != n:
            raise ParseError("facet %d normal has length %d, expected %d"
                             % (i, len(normal), n))
        facets.append(geometry.AffineFunctional(normal, offset))
    P = geometry.build_polytope(facets)

    density = _density_from_dict(data.get("density", {"type": "constant",
                                                      "value": 1.0}), P)

    vv = data.get("vertex_values", 0.0)
    if isinstance(vv, (int, float)):
        values = float(vv)
    elif isinstance(vv, list):
        values = np.zeros(len(P.vertices))
        named = set()
        for entry in vv:
            try:
                pt = np.asarray([float(c) for c in entry["point"]])
                val = float(entry["value"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError("bad vertex value entry %r" % (entry,)) from exc
            dists = np.linalg.norm(P.vertices - pt, axis=1)
            i = int(np.argmin(dists))
            if dists[i] > 1e-6 * max(1.0, P.diameter):
                raise ValidationError(
                    "vertex value point %s matches no vertex" % (pt,))
            if i in named:
                raise ValidationError(
                    "vertex %s is given two values" % (P.vertices[i],))
            named.add(i)
            values[i] = val
    else:
        raise ParseError("vertex_values must be a number or a list")

    return GuilleminProblem(P, density, values, name=data.get("name"))


def load_problem(path):
    """Read a problem JSON file.

    Raises
    ------
    ParseError
        Malformed JSON or schema violations.
    ValidationError
        Schema-valid but semantically wrong content.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON in %s: %s" % (path, exc)) from exc
    try:
        return problem_from_dict(data)
    except GmaError:
        raise
    except Exception as exc:
        raise ParseError("while building problem from %s: %s"
                         % (path, exc)) from exc
