"""Exception types shared across the package."""


class DompackError(Exception):
    """Base class for all package-specific errors."""


class GraphError(DompackError, ValueError):
    """Invalid graph construction or graph operation."""


class VertexRangeError(GraphError):
    """A vertex index lies outside 0..n-1."""


class ParseError(DompackError, ValueError):
    """Malformed graph6 or edge-list input."""


class EmbeddingError(DompackError, ValueError):
    """A rotation system is inconsistent or not planar (genus > 0)."""


class PreconditionError(DompackError, ValueError):
    """A documented operation precondition was violated by the caller."""


class ConstructionError(DompackError, RuntimeError):
    """A constructive algorithm produced a certificate that failed revalidation."""


class GenerationBudgetError(DompackError, RuntimeError):
    """Rejection sampling exhausted its budget of `attempts` attempts."""

    def __init__(self, message: str, attempts: int):
        super().__init__(message)
        self.attempts = attempts

    def __reduce__(self):  # a process pool pickles what its workers raise
        return type(self), (str(self), self.attempts)
