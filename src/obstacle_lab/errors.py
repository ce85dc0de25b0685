"""Exception types shared across the package.

A class exists where some caller catches it by name; a failure no caller
tells apart is an InconclusiveError.
"""


class ObstacleLabError(Exception):
    """Base class for all package-specific errors."""


class OutOfDomainError(ObstacleLabError):
    """A query point or ball leaves the grid box."""


class NonFiniteFieldError(ObstacleLabError):
    """A field operation produced or received NaN/Inf values."""


class SnapshotFormatError(ObstacleLabError):
    """A field snapshot file could not be parsed."""


class FitFailedError(ObstacleLabError):
    """A model fit (quadratic or half-space) was degenerate."""


class DegenerateDirectionError(ObstacleLabError):
    """The first-moment direction integral has no usable signal."""


class InconclusiveError(ObstacleLabError):
    """A computation could not certify its output: a radius below the
    resolution floor, no balanced rescaling, too few cells or samples to fit,
    an empty point cloud, an auxiliary solve that failed."""


class ScenarioError(ObstacleLabError):
    """Unknown scenario name or parameters outside the documented range."""
