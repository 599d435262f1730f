"""Exception hierarchy contract: one catchable base class."""

import pytest

from repro import errors


@pytest.mark.parametrize(
    "exc",
    [
        errors.ConfigurationError,
        errors.AddressError,
        errors.TopologyError,
        errors.MeasurementError,
        errors.RateLimitError,
        errors.AnalysisError,
        errors.EconomicsError,
    ],
)
def test_all_derive_from_repro_error(exc):
    assert issubclass(exc, errors.ReproError)


def test_rate_limit_is_measurement_error():
    assert issubclass(errors.RateLimitError, errors.MeasurementError)


def test_catching_base_catches_subclass():
    with pytest.raises(errors.ReproError):
        raise errors.AddressError("bad octet")
