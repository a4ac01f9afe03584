"""Exception types shared across the library.

Errors that report a structural violation carry the offending basis data as a
``witness`` attribute so callers (and the CLI) can surface it verbatim.
"""

from __future__ import annotations

__all__ = [
    "LsvError",
    "GroupConfigError",
    "GroupMismatchError",
    "InvalidKeyError",
    "ShapeError",
    "DomainError",
    "FactorError",
    "NotACocycleError",
    "OutputError",
    "ParseError",
]


class LsvError(Exception):
    """Base class for every error raised by this package; ``witness`` is None
    unless the error names the data where a violation was observed."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class GroupConfigError(LsvError):
    """Invalid group description (field, generators, or the shift)."""


class GroupMismatchError(LsvError):
    """Operands belong to different group configurations."""


class InvalidKeyError(LsvError):
    """Basis key whose index lies outside the allowed set for its kind."""


class ShapeError(LsvError):
    """Operator output violates the expected shape.

    ``witness`` holds the basis key, pair, or triple where the violation was
    observed.
    """


class DomainError(ShapeError):
    """A value was asked for where the data is not defined, or the window is too
    small for the computation: the input does not fit, no check failed."""


class FactorError(LsvError):
    """Automorphism factorization failed; ``step`` names the stage."""

    def __init__(self, step, message, witness=None):
        super().__init__(f"{step}: {message}", witness)
        self.step = step


class NotACocycleError(LsvError):
    """Bilinear form fails antisymmetry or the cocycle identity."""


class OutputError(LsvError):
    """A result cannot be printed exactly, such as a numeral past the int-string digit limit."""


class ParseError(LsvError):
    """Input text was rejected; carries the position and what was expected."""

    def __init__(self, message, position=None, expected=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position
        self.expected = expected
