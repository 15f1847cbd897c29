"""Exception types shared across the package."""

from __future__ import annotations


class PdaError(Exception):
    """Base class for all package errors; ``report`` is the failing check's report or None."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class InvalidPdaError(PdaError):
    """An operation that requires a valid PDA was given a failing array.

    Carries the validation report when one is available.
    """


class GridParseError(PdaError):
    """Grid text could not be parsed; ``line``/``column`` are 1-based."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at ({line},{column})")
        self.line = line
        self.column = column


class CompatibilityError(PdaError):
    """A required Blackburn-compatibility check failed.

    Carries the offending ``CompatReport`` so callers can inspect witnesses.
    """


class LiftError(PdaError):
    """A lifting precondition failed: member count or labels, reference
    labels, star balance, C3 between members, C-star, or the lifted array's
    validation.  Non-``Pda``, misshaped or differently starred arguments
    are ValueErrors."""


class DecodeError(PdaError):
    """Decoding cannot go on: the user is not a column of the array, a
    subfile or transmission it needs is missing, or a value has the wrong
    length.  A missing peer subfile signals an invalid PDA reaching the
    simulator, not a runtime condition of valid schemes.
    """
