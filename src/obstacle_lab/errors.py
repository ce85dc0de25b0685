"""Exception types shared across the package."""


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


class NoBalancedScaleError(ObstacleLabError):
    """The measure bracket for the balanced rescaling does not hold."""


class DegenerateFitError(ObstacleLabError):
    """Too few cells (or no interior) to sustain an ellipsoid fit."""


class UndefinedDistanceError(ObstacleLabError):
    """Hausdorff distance requested for an empty set."""


class InsufficientDataError(ObstacleLabError):
    """Not enough positive samples for an asymptotics fit."""


class InconclusiveError(ObstacleLabError):
    """A computation could not certify its output (e.g. empty coincidence set)."""


class ResolutionError(ObstacleLabError):
    """A radius or window is too small for the grid spacing."""


class ScenarioError(ObstacleLabError):
    """Unknown scenario name or parameters outside the documented range."""
