"""Exception types shared across the package.

The CLI maps these onto exit codes: ParseError -> 2, DomainError and its
NotInZ2Error / IndecomposableError -> 3, the "no answer exists" kinds
NotFoundError / ResolutionFailedError / NoSolutionError -> 4, and
VerificationError -> 5 (an answer was computed but failed its own check,
which is a fault in the program, not in the input).  Any other exception
reaching the CLI is an internal error, exit 70.
"""


class JqError(Exception):
    """Base class for package errors."""


class ParseError(JqError, ValueError):
    """Input text does not match the expected grammar."""


class DomainError(JqError, ValueError):
    """Arguments are outside the domain of the requested operation."""


class NotInZ2Error(DomainError):
    """A scalar with even denominator appeared where a 2-adic integer is required."""


class IndecomposableError(DomainError):
    """No decomposition of the requested kind exists."""


class NotFoundError(JqError):
    """The search space was exhausted without finding the requested object."""


class ResolutionFailedError(NotFoundError):
    """A decomposition search ran to completion but no admissible candidate appeared."""


class NoSolutionError(NotFoundError):
    """A linear problem is inconsistent.

    index is the first constraint that contradicts the constraints before
    it: those before it have a solution, and with it they have none.
    """

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"no solution; first inconsistent constraint at index {index}")


class VerificationError(JqError):
    """A computed answer failed the check it carries; raised instead of returned."""
