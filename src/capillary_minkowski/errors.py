"""Exception taxonomy shared across the solver stack."""


class CapillaryError(Exception):
    """Base class for all package-specific errors."""


class InvalidExponentsError(CapillaryError):
    """Exponent pair outside the supported regime: p > q, a finite positive start density."""


class NonConvexError(CapillaryError):
    """A candidate field fails the positive-definiteness (convexity) requirement."""

    def __init__(self, message, margin=None):
        super().__init__(message)
        self.margin = margin


class DegenerateBoundaryError(CapillaryError):
    """Mesh boundary loop too short to define normals/angles."""


class NotAxisymmetricError(CapillaryError):
    """Data varies in the angular direction where a radial profile is required."""


class SolverError(CapillaryError):
    """Base class for iteration failures; carries the best iterate seen so far.

    ``best_v`` is the log-variable field of the last accepted iterate and
    ``report`` whatever history object the failing routine had built.
    """

    def __init__(self, message, best_v=None, report=None):
        super().__init__(message)
        self.best_v = best_v
        self.report = report


class MaxIterationsError(SolverError):
    """Newton loop hit the iteration cap before reaching tolerance."""


class LineSearchStallError(SolverError):
    """Backtracking line search shrank the step below its floor (LINE_SEARCH_MIN_STEP)."""


class SingularSystemError(SolverError):
    """A Newton step's linear solve failed: SuperLU found J singular, GMRES
    missed its tolerance, or the step is not finite."""


class ContinuationStallError(SolverError):
    """Homotopy march failed: its t-step was halved below the schedule's
    min_step; carries the last successful (t, v)."""

    def __init__(self, message, t=None, best_v=None, report=None):
        super().__init__(message, best_v=best_v, report=report)
        self.t = t
