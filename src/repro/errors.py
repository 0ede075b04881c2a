"""Exception hierarchy shared by every ``repro`` subpackage.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Substrate-specific parse/evaluation failures get their
own subclasses because tests (and users) often need to distinguish a bad
query from a failed simulation.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class SimulationError(ReproError):
    """An inconsistency inside the discrete-event simulation engine."""


class ServiceUnavailableError(SimulationError):
    """A simulated RPC was refused (backlog full) or the service crashed."""


class RequestTimeoutError(SimulationError):
    """A simulated RPC did not complete within the client's deadline."""


class CircuitOpenError(ServiceUnavailableError):
    """A client-side circuit breaker rejected the call without trying.

    Subclasses :class:`ServiceUnavailableError` so existing workload
    loops treat fast-failed calls like refused connections.
    """


class ServiceCrashError(SimulationError):
    """A simulated service exceeded a hard resource limit and crashed.

    Mirrors the crashes the paper reports (GIIS past 200/500 registered
    GRIS, Hawkeye Startd past 98 modules).
    """


class LdapError(ReproError):
    """Base class for LDAP substrate errors."""


class DnSyntaxError(LdapError):
    """A distinguished name could not be parsed."""


class FilterSyntaxError(LdapError):
    """An RFC-1960 search filter could not be parsed."""


class NoSuchEntryError(LdapError):
    """Search base (or delete/modify target) does not exist in the DIT."""


class EntryExistsError(LdapError):
    """Attempted to add an entry at a DN that is already populated."""


class ClassAdError(ReproError):
    """Base class for ClassAd substrate errors."""


class ClassAdSyntaxError(ClassAdError):
    """A ClassAd expression could not be tokenized or parsed."""


class SqlError(ReproError):
    """Base class for relational substrate errors."""


class SqlSyntaxError(SqlError):
    """A SQL statement could not be tokenized or parsed."""


class SchemaError(SqlError):
    """Table/column mismatch: unknown table, unknown column, arity, type."""


class RegistryError(ReproError):
    """R-GMA registry-level failure (unknown table, no producers, ...)."""
