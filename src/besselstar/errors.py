"""Exception types shared across the library."""


class BesselstarError(Exception):
    """Base class for all library errors."""


class PoleError(BesselstarError):
    """Evaluation requested at (or too close to) a pole."""


class MaxTermsExceeded(BesselstarError):
    """Series did not reach the requested tolerance within the term cap."""


class BranchError(BesselstarError):
    """Point lies on the selected branch cut or outside the branch domain."""


class NotNormalized(BesselstarError):
    """Series is not normalized (expected a(0) = 0 and a(1) = 1)."""


class NonvanishingAtZero(BesselstarError):
    """Operator requires the constant coefficient to vanish."""


class OutOfDomain(BesselstarError):
    """Argument outside the documented domain of the operation."""


class ZeroDenominator(BesselstarError):
    """A ratio quantity was evaluated where its denominator vanishes."""


class ConsistencyError(BesselstarError):
    """A verified sufficient condition held but its guaranteed conclusion failed."""
