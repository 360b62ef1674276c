"""Exception taxonomy shared by all patgf modules.

Every error raised on purpose by the library derives from PatgfError, so
callers (notably the CLI) can map them to stable exit codes.
"""


class PatgfError(Exception):
    """Base class for all library errors."""


class ParseError(PatgfError):
    """Malformed pattern text, or a command line that the CLI cannot run."""


class LengthTooLarge(PatgfError):
    """An exhaustive census was requested beyond the feasibility bound."""

    def __init__(self, n: int, bound: int):
        super().__init__(f"census over S_{n} exceeds the feasibility bound {bound}")
        self.n = n
        self.bound = bound


class DuplicateEntries(PatgfError):
    """A word with repeated values cannot be flattened to a permutation."""


class IndexOutOfRange(PatgfError):
    """A recurrence or continued-fraction index outside its defined range."""


class Not132Avoiding(PatgfError):
    """Canonical decomposition requested for a pattern containing 132."""


class DivisionByZero(PatgfError, ZeroDivisionError):
    """Division by the zero rational function."""


class PoleAtOrigin(PatgfError):
    """Series expansion requested at x=0 for a function with den(0)=0."""


class DegenerateContinuedFraction(PatgfError):
    """An intermediate continued-fraction denominator is identically zero."""


class PreconditionViolated(PatgfError):
    """A documented operation precondition does not hold."""
