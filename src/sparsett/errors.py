"""Exception types shared across the package."""

__all__ = ["FormatError", "ContractViolationError"]


class FormatError(ValueError):
    """Malformed input data: coordinate lists, text files, matrix headers."""

    positions = None  # a repeated entry's input positions: (first, repeat)


class ContractViolationError(RuntimeError):
    """An operation was invoked outside its documented precondition."""
