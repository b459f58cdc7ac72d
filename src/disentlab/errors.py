"""Error types shared across the laboratory modules."""


class DisentLabError(Exception):
    """Base class for all laboratory-specific errors."""


class NumericFailure(DisentLabError):
    """An iterative numerical routine failed to converge or diverged."""


class NotPositiveSemidefinite(DisentLabError):
    """A matrix required to be PSD has an eigenvalue below the clamp tolerance."""


class SingularCovariance(DisentLabError):
    """A covariance matrix that must be invertible is singular or nearly so."""


class DegenerateConditional(DisentLabError):
    """The conditional code covariance is singular; mutual information diverges."""


class UndefinedDivergence(DisentLabError):
    """The requested divergence is undefined for the given dimensions."""


class DegenerateEncoder(DisentLabError):
    """An encoder produced no usable code dimensions for the requested metric."""
