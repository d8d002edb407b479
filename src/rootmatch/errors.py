"""Exception types shared across the package."""

from __future__ import annotations


class RootmatchError(Exception):
    """Base class for all errors raised by this package."""


class UnknownFamilyError(RootmatchError):
    """Root-system family label is not one of A, B, C, D, BC."""


class InvalidParamsError(RootmatchError):
    """Family parameters are out of range (e.g. p < q for SU(p,q))."""


class UnknownSpaceError(RootmatchError):
    """Space name not present in the catalogue."""


class DimensionMismatchError(RootmatchError):
    """Vector length does not match the coordinate space of the flat."""


class ZeroVectorError(RootmatchError):
    """Operation requires a nonzero vector."""


class ExcludedSpaceError(RootmatchError):
    """The operation is undefined on the excluded SL(3,R) entry."""


class EmptyFrameError(RootmatchError):
    """A frame needs at least one vector."""


class NotInFlatError(RootmatchError):
    """Vector does not lie in the flat: an entry that is no rational number
    (nan, inf, None, a string that is no number), or a nonzero trace for
    an A-family space."""


class MalformedMatrixError(RootmatchError):
    """Matrix input is empty, ragged, or not 0/1."""


class NoMatchingError(RootmatchError):
    """The matrix has no two-per-row matching, so the greedy selection
    stranded a row.

    Carries the partial trace of the plain leftmost pass for inspection.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class BNotInQError(RootmatchError):
    """Test direction lies outside the invariant complement Q_v."""


class EpsilonTooLargeError(RootmatchError):
    """Perturbation size is not below 1/(rank+1)^2."""


class MatchFailedError(RootmatchError):
    """A pipeline could not complete because no column matching exists."""


class FrameFileError(RootmatchError):
    """Frame file is missing, unreadable, or not rational vectors."""


class CheckFailedError(RootmatchError):
    """An acceptance check found a counterexample; the message is the failing detail."""
