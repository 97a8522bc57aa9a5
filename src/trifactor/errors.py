"""Exception types shared across the package."""


class TrifactorError(Exception):
    """Base class for all library errors."""


class InternalError(TrifactorError):
    """A soundness gate failed: the library produced a result that its own
    check rejects.  This is a bug, never a property of the input; the gates
    raise it explicitly so that they also run under ``python -O``."""


class ParameterError(TrifactorError, ValueError):
    """A generator or sweep parameter lies outside the range it accepts.
    Also a ValueError, the type Python code raises for such a value."""


# -- graph construction / queries ------------------------------------------

class WithinClassEdgeError(TrifactorError):
    """An edge was given whose endpoints lie in the same vertex class."""


class IndexOutOfRangeError(TrifactorError):
    """A vertex index is not in [0, N)."""


class SameClassQueryError(TrifactorError):
    """cross_degree asked for the vertex's own class."""


class SameClassError(TrifactorError):
    """density() called with two sets from the same class."""


class EmptySetError(TrifactorError):
    """density() called with an empty vertex set."""


# -- families ---------------------------------------------------------------

class NotANonEdgeError(TrifactorError):
    """mutate_add_edge target is already an edge or not cross-class."""


# -- exact oracle -----------------------------------------------------------

class BudgetExceededError(TrifactorError):
    """Search node budget exhausted; the decision is indeterminate."""


# -- cover solver -----------------------------------------------------------

class PreconditionDegreeError(TrifactorError):
    """A stated minimum-degree precondition does not hold."""


class InternalHallFailureError(TrifactorError):
    """A matching that is guaranteed by the degree hypothesis was not found.

    This cannot happen when the caller's precondition holds; it indicates
    a bug rather than a property of the input.
    """


class PreconditionViolatedError(TrifactorError):
    """augment_once called outside its stated preconditions."""


class NoTriangleExistsError(TrifactorError):
    """reduce_mod3 could not find a triangle to remove."""


class PreconditionDivisibilityError(TrifactorError):
    """reduce_mod3 called on a graph with N divisible by 3."""


# -- extremal structure -----------------------------------------------------

class NotTriangleFreeError(TrifactorError):
    """classify_theta32 input contains triangles and no witness exists."""


class SizeOutOfRangeError(TrifactorError):
    """classify_theta32 class sizes are incompatible with the target scale."""


class SizeBandViolatedError(TrifactorError):
    """The degree-based partition has sizes outside the allowed bands,
    so the supplied witness was not genuinely extreme."""


class ModelMismatchError(TrifactorError):
    """find_parity_triangles called with an unsupported structure model."""


class WitnessInvalidError(TrifactorError):
    """extreme_cover could not complete a cover from the given witness."""


class OddSizeError(TrifactorError):
    """balanced_random_split needs an even-size cluster."""


# -- i/o ---------------------------------------------------------------------

class ParseError(TrifactorError):
    """Malformed .tri3 or cover file; carries the offending line number."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason
