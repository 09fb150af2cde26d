"""Typed errors shared across the library.

Every failure mode that a caller can meaningfully react to gets its own
class; law verification catches the "inconclusive" subset and reports it
instead of crashing.
"""


class ArithsurfError(Exception):
    """Base class for all library errors."""


class ZeroPolynomial(ArithsurfError):
    """An operation received the zero polynomial where nonzero is required."""


class ParseError(ArithsurfError):
    """Malformed input text; carries the offending position when known."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{message} (at {position})")
        self.position = position


class NonIrreducibleBase(ArithsurfError):
    """A factored-function base failed the irreducibility spot-check."""


class UnsupportedFactorization(ArithsurfError):
    """p-adic cluster outside the supported class (deg >= 3 ramified, etc.)."""


class FactorizationTimeout(ArithsurfError):
    """Integer factorization exceeded its budget."""


class UnsupportedOrder(ArithsurfError):
    """The curve/point data falls outside the supported desk-scale class:
    p divides the leading coefficient of a curve of degree >= 2 at a finite
    point, a support prime is not below 2^63, or a curve is of the wrong
    kind for the request.  A non-maximal order is not refused: its branches
    are the p-adic factors of the curve."""


class RootFindingDivergence(ArithsurfError):
    """The roots of a curve were not certified (no double start, Newton
    stalled, or the inclusion test failed), or a certified non-real root
    rounds onto the real axis."""


class EvaluationAtZero(ArithsurfError):
    """Archimedean evaluation hit a zero of the stripped function."""


class NotExact(ArithsurfError):
    """Data that must be exact (sequence not exact, map not volume-compatible),
    or an exact identity that a computation must keep (a Hensel lift)."""


class DegeneratePosition(ArithsurfError):
    """Chosen representatives are linearly dependent where independence is required."""


class NonCommuting(ArithsurfError):
    """Commutator pairing requires commuting operators."""


class WindowTooSmall(ArithsurfError):
    """The truncation window cannot hold the requested lattice data.

    Carries the minimal admissible window when it can be computed.
    """

    def __init__(self, message, minimal_window=None):
        if minimal_window is not None:
            message = f"{message}; minimal admissible window is {minimal_window}"
        super().__init__(message)
        self.minimal_window = minimal_window
