"""Exception types shared across the package."""


class UmbilicsError(Exception):
    """Base class for all package errors."""


class SpecError(UmbilicsError):
    """Malformed or out-of-domain surface specification."""


class InvalidChartPoint(UmbilicsError):
    """Chart-domain coordinates fall outside the chart's validity region."""


class MarginTooSmall(UmbilicsError):
    """Point is valid but too close to the chart boundary for the stencil."""


class NotApplicable(UmbilicsError):
    """Closed-form result does not exist for the given parameters."""


class StartsAtUmbilic(UmbilicsError):
    """Curve tracing requested from an umbilic point."""


class NotIsolated(UmbilicsError):
    """Index requested for a non-isolated umbilic record."""


class CircleInvalid(UmbilicsError):
    """No admissible sampling circle around the umbilic in its chart."""


class NonConvergentLift(UmbilicsError):
    """The line field on an index ring is unresolved: a sample with both
    signs of beta 0, or a hop of +-pi between samples."""


class MissingIndex(UmbilicsError):
    """Index sum requested but some records carry no index."""
