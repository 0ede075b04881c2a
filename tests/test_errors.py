"""Tests for the exception hierarchy."""

import pytest

from repro import errors


def test_all_errors_derive_from_repro_error():
    for name in dir(errors):
        obj = getattr(errors, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            assert issubclass(obj, errors.ReproError), name


def test_substrate_errors_are_distinguishable():
    assert issubclass(errors.FilterSyntaxError, errors.LdapError)
    assert issubclass(errors.DnSyntaxError, errors.LdapError)
    assert issubclass(errors.ClassAdSyntaxError, errors.ClassAdError)
    assert issubclass(errors.SqlSyntaxError, errors.SqlError)
    assert issubclass(errors.SchemaError, errors.SqlError)
    assert not issubclass(errors.SqlError, errors.LdapError)


def test_simulation_errors():
    for cls in (
        errors.ServiceUnavailableError,
        errors.RequestTimeoutError,
        errors.ServiceCrashError,
    ):
        assert issubclass(cls, errors.SimulationError)


def test_catching_the_base_class_catches_everything():
    with pytest.raises(errors.ReproError):
        raise errors.RegistryError("nope")
    with pytest.raises(errors.ReproError):
        raise errors.EntryExistsError("dup")
