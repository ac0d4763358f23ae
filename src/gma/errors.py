"""Exception hierarchy for the gma package.

Every error raised by the package derives from :class:`GmaError`, so callers
can catch the whole family with one clause.  Geometry validation, boundary
induction, the interior solver, the model problems and the command line each
have their own small set of subclasses; nothing here carries state beyond the
message.
"""


class GmaError(Exception):
    """Base class for all errors raised by this package."""


class SolverError(GmaError):
    """Base class for solves, quadratures and face checks that fail."""


# ---------------------------------------------------------------------------
# polytope construction and face charts


class Unbounded(GmaError):
    """The halfspace intersection has a recession direction."""


class EmptyInterior(GmaError):
    """The halfspace intersection has no interior point."""


class RedundantFacet(GmaError):
    """A listed halfspace does not contribute an (n-1)-dimensional facet."""


class DegenerateNormals(GmaError):
    """A facet normal is zero, or two facets repeat the same halfspace."""


class NotAFace(GmaError):
    """The requested active set does not label a face of the polytope."""


class ChartTooLarge(GmaError):
    """A chart cannot be built at the requested size or shape.

    Raised when a global chart is asked for a polytope that is neither a
    simplex nor an affine box, and when a lattice of m^n slots would
    exceed the size limit.
    """


# ---------------------------------------------------------------------------
# densities and boundary structure


class OutsideDomain(GmaError):
    """Evaluation point lies outside the closed polytope."""


class NonSimpleVertex(GmaError):
    """A vertex has more active facets than the dimension allows."""


class MissingTrace(GmaError):
    """Boundary data for a required face was not supplied."""


class IncompatibleEndpoint(GmaError):
    """Edge data violates the vertex matching condition."""


class QuadratureFailure(SolverError):
    """Adaptive quadrature could not reach the requested tolerance."""


class InconsistentTraces(SolverError):
    """Face solutions disagree where faces meet."""


# ---------------------------------------------------------------------------
# interior solver


class NonConvexIterate(SolverError):
    """An iterate lost positive definiteness of the regularized Hessian."""


class LineSearchStall(SolverError):
    """Backtracking reduced the step below the minimum damping factor."""


class SingularJacobian(SolverError):
    """The linearized system was numerically singular."""


# ---------------------------------------------------------------------------
# partial Legendre transform and model problems


class DegenerateTransversalHessian(SolverError):
    """The Hessian block in the transformed directions is singular."""


class NonEllipticIterate(SolverError):
    """A model-problem iterate left the ellipticity cone."""


# ---------------------------------------------------------------------------
# command line front end


class ParseError(GmaError):
    """A problem description file could not be parsed."""


class ValidationError(GmaError):
    """A problem description parsed but failed semantic validation."""
