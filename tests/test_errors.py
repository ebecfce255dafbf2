"""Tests for the exception hierarchy."""

import pytest

from repro import errors


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.ConfigurationError,
            errors.NetworkError,
            errors.AddressError,
            errors.AllocationError,
            errors.RoutingError,
            errors.DnsError,
            errors.NameError_,
            errors.ZoneError,
            errors.ResolutionError,
            errors.DpsError,
            errors.PortalError,
            errors.PlanError,
            errors.SimulationError,
            errors.MeasurementError,
        ],
    )
    def test_everything_derives_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_subsystem_bases(self):
        assert issubclass(errors.AddressError, errors.NetworkError)
        assert issubclass(errors.AllocationError, errors.NetworkError)
        assert issubclass(errors.ZoneError, errors.DnsError)
        assert issubclass(errors.ResolutionError, errors.DnsError)
        assert issubclass(errors.PortalError, errors.DpsError)
        assert issubclass(errors.PlanError, errors.DpsError)

    def test_one_catch_all_at_api_boundary(self):
        with pytest.raises(errors.ReproError):
            raise errors.PortalError("not a customer")

    def test_name_error_does_not_shadow_builtin(self):
        # The trailing underscore keeps Python's NameError intact.
        assert errors.NameError_ is not NameError
        assert not issubclass(errors.NameError_, NameError)
