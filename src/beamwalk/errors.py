"""Exception types shared across the package."""


class ScheduleError(ValueError):
    """A phase schedule does not cover a mesh point the walk needs."""


class CapacityError(ValueError):
    """A path-sum enumeration would exceed its step guard."""


class ConfigError(ValueError):
    """A run configuration document is malformed or out of range."""


class NumericalInvariantError(RuntimeError):
    """A runtime numerical check failed (norm drift, path-sum disagreement)."""
