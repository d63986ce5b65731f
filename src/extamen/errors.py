"""Shared exception types.

Every resource or precondition failure in the library raises one of these,
so callers (and the CLI) can map them to exit codes without string matching.
"""


class ExtamenError(Exception):
    """Base class for library errors."""


class CapExceeded(ExtamenError):
    """A configured resource cap (word length, orbit size, support size) was hit."""


class SearchExhausted(ExtamenError):
    """A constructor search ran out of room before meeting its target.

    Carries ``frontier``, a small dict describing how far the search got,
    so a caller can widen caps deterministically.
    """

    def __init__(self, msg, frontier=None):
        super().__init__(msg)
        self.frontier = frontier or {}


class ZeroBase(ExtamenError):
    """A ratio check was requested against a zero base value."""


class StructuralAssertFailed(ExtamenError):
    """A computed configuration contradicts the asserted graph structure."""


class PreconditionFailed(ExtamenError):
    """The input function does not satisfy a required hypothesis."""


class PropertySelfTestFailed(ExtamenError):
    """A user-supplied function failed its randomized property self-test."""
