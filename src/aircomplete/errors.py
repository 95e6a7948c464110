"""Exception types shared across the toolkit."""


class InvalidInput(ValueError):
    """Raised when an argument violates a documented precondition."""


class NumericOverflow(ArithmeticError):
    """Raised when an elementwise exponential would overflow float64."""


class ParseError(ValueError):
    """Malformed input file (PGM or CSV). Carries the byte offset where
    parsing failed, or None when the parser does not report one."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class DivergenceError(ArithmeticError):
    """Raised when training produces NaN or Inf. Names the iteration."""

    def __init__(self, iteration: int, what: str = "parameters"):
        super().__init__(f"non-finite {what} at iteration {iteration}")
        self.iteration = iteration


class ImputeError(ValueError):
    """Raised when an imputation baseline cannot fill a missing entry."""
