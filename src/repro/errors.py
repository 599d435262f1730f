"""Exception hierarchy for the repro package.

Every error raised by the package derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.  Subclasses are
grouped by subsystem: addressing, topology construction, measurement, and
analysis.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class ConfigurationError(ReproError):
    """A scenario, model, or builder received inconsistent parameters."""


class AddressError(ReproError):
    """Invalid IPv4 address or prefix, or an exhausted address pool."""


class TopologyError(ReproError):
    """The simulated topology is malformed (unknown AS, dangling link...)."""


class MeasurementError(ReproError):
    """A probing campaign was mis-configured or produced no usable data."""


class RateLimitError(MeasurementError):
    """A looking-glass client violated the one-query-per-minute limit."""


class AnalysisError(ReproError):
    """Statistical post-processing failed (empty sample, bad fit...)."""


class EconomicsError(ReproError):
    """The economic model received parameters outside its valid domain."""
