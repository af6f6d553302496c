"""Shared exception types.

Every numerical failure mode that callers are expected to catch gets its own
class; the ``code`` attribute is what the CLI maps to exit codes.
"""


class DynbifError(Exception):
    code = "ERROR"


class PreconditionError(DynbifError):
    """An argument violated a documented precondition."""

    code = "PRECONDITION"


class NoConvergenceError(DynbifError):
    code = "NO_CONVERGENCE"


class DegenerateMapError(DynbifError):
    """The two homogeneous forms share a root (vanishing resultant)."""

    code = "DEGENERATE_MAP"


class OrbitMismatchError(DynbifError):
    """A periodic-point candidate whose forward orbit fails to close up."""

    code = "ORBIT_MISMATCH"


class ParabolicContaminationError(DynbifError):
    """The dynatomic root set contains lower-period points with root-of-unity
    multiplier, so the exact-period multiplier spectrum is not well defined."""

    code = "PARABOLIC_CONTAMINATION"


class ExceptionalStartError(DynbifError):
    code = "EXCEPTIONAL_START"


class IllConditionedError(DynbifError):
    code = "ILL_CONDITIONED"


class PathLossError(DynbifError):
    """Predictor-corrector continuation lost the solution branch."""

    code = "PATH_LOSS"


class NotInComponentError(DynbifError):
    """Continuation left the hyperbolic component (cycle period changed)."""

    code = "NOT_IN_COMPONENT"


class CountMismatchError(DynbifError):
    code = "COUNT_MISMATCH"


class CountOverflowError(DynbifError):
    code = "COUNT_OVERFLOW"


class EmptyMeasureError(DynbifError):
    code = "EMPTY_MEASURE"


class IncompleteEnumerationWarning(UserWarning):
    """Fewer solutions found than the Bezout count predicts."""
