"""Exception types shared across the package."""


class SignetError(Exception):
    """Base class for all library errors."""


class ValidationError(SignetError):
    """Input data violates a structural requirement."""


class ParseError(SignetError):
    """Config document is not valid JSON or has the wrong shape."""


class DimensionMismatch(ValidationError):
    """Vector length does not match the graph dimensions."""


class InvalidGrid(ValidationError):
    """Sampling grid is non-positive or too coarse."""


class Disconnected(ValidationError):
    """Operation requires a connected graph."""


class CapExceeded(SignetError):
    """Path or cycle enumeration refused: graph exceeds the configured cap."""


class NotAnInterval(SignetError):
    """Zero set of an edge function around the origin is not an interval."""


class NoConvergence(SignetError):
    """Operating-point iteration hit its cap before meeting the tolerance."""


class NonFiniteState(SignetError):
    """Simulation produced NaN or infinite state values."""


class Inapplicable(SignetError):
    """Preconditions of the requested prediction are not met."""
