"""Exception types shared across the package."""


class OddClusterError(Exception):
    """Base class for errors raised by this package."""


class ResourceLimitError(OddClusterError):
    """An exhaustive search or exact computation exceeded its size cap.

    Raised instead of silently falling back to a heuristic: several callers
    rely on exhaustiveness (e.g. the hitting-set procedure treats an empty
    oracle answer as a proof of absence).
    """


class InternalConsistencyError(OddClusterError):
    """Two components that must agree disagreed.

    With exact oracles this never fires; if it does, it indicates a bug,
    not a property of the input.
    """


class ParseError(OddClusterError):
    """Malformed input file; ``line`` is None for a structural JSON error."""

    def __init__(self, line, message):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
