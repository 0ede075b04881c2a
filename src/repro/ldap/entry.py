"""LDAP entries: a DN plus a multi-valued, case-insensitive attribute map."""

from __future__ import annotations

import typing as _t

from repro.ldap.dn import DN

__all__ = ["Entry"]


class Entry:
    """One directory entry.

    Attribute names are case-insensitive (stored with their first-seen
    spelling); values are ordered lists of strings, as in LDAP.  Values
    supplied as ints/floats are stringified on insertion.
    """

    __slots__ = ("dn", "_attrs", "_display", "_ldif_len")

    def __init__(self, dn: DN | str, attributes: _t.Mapping[str, _t.Any] | None = None) -> None:
        self.dn = dn if isinstance(dn, DN) else DN.parse(dn)
        self._attrs: dict[str, list[str]] = {}
        self._display: dict[str, str] = {}
        self._ldif_len: int | None = None  # ldif_length(), until the next mutation
        if attributes:
            for name, value in attributes.items():
                self.put(name, value)
        # The RDN attribute is implicitly present (LDAP requires it).
        if self.dn.depth and not self.get(self.dn.rdn.attr):
            self.put(self.dn.rdn.attr, self.dn.rdn.value)

    # -- mutation ---------------------------------------------------------------
    def put(self, name: str, value: _t.Any) -> None:
        """Replace attribute ``name`` with ``value`` (scalar or iterable)."""
        values = value if isinstance(value, (list, tuple)) else [value]
        key = name.lower()
        self._display[key] = name
        self._attrs[key] = [str(v) for v in values]
        self._ldif_len = None

    def add_value(self, name: str, value: _t.Any) -> None:
        """Append one value to attribute ``name``.

        LDAP attribute values form a set: an exact duplicate is a no-op.
        """
        key = name.lower()
        self._display.setdefault(key, name)
        values = self._attrs.setdefault(key, [])
        text = str(value)
        if text not in values:
            values.append(text)
            self._ldif_len = None

    def remove(self, name: str) -> None:
        """Delete attribute ``name`` if present."""
        key = name.lower()
        self._attrs.pop(key, None)
        self._display.pop(key, None)
        self._ldif_len = None

    # -- access -----------------------------------------------------------------
    def get(self, name: str) -> list[str]:
        """All values of ``name`` (empty list when absent).

        The list is the entry's own: callers read it and never mutate it,
        which is what lets :meth:`ldif_length` stay memoized.
        """
        return self._attrs.get(name.lower(), [])

    def first(self, name: str, default: str | None = None) -> str | None:
        """First value of ``name``, or ``default``."""
        values = self._attrs.get(name.lower())
        return values[0] if values else default

    def has(self, name: str) -> bool:
        """Attribute presence test (used by ``(attr=*)`` filters)."""
        return name.lower() in self._attrs

    def attribute_names(self) -> list[str]:
        """Attribute names with their original spelling, insertion order."""
        return [self._display[k] for k in self._attrs]

    @property
    def nattrs(self) -> int:
        """Number of attributes (drives serialized-size cost models)."""
        return len(self._attrs)

    def ldif_length(self) -> int:
        """``len(entry_to_ldif(self))``, memoized until the entry next changes."""
        if self._ldif_len is None:
            size = len("dn: ") + len(str(self.dn))
            for key, values in self._attrs.items():
                line = len(self._display[key]) + len("\n: ")
                for value in values:
                    size += line + len(value)
            self._ldif_len = size
        return self._ldif_len

    def project(self, attributes: _t.Sequence[str] | None) -> "Entry":
        """This entry cut down to ``attributes`` (itself when None).

        The RDN attribute is always kept, with this entry's own spelling
        and values, as in LDAP.
        """
        if attributes is None:
            return self
        wanted = {a.lower() for a in attributes}
        if self.dn.depth:
            wanted.add(self.dn.rdn.attr.lower())
        projected = Entry(self.dn)
        for key, values in self._attrs.items():
            if key in wanted:
                projected.put(self._display[key], values)
        return projected

    def copy(self) -> "Entry":
        """Deep-enough copy (values are immutable strings)."""
        clone = Entry(self.dn)
        for key, values in self._attrs.items():
            clone.put(self._display[key], list(values))
        return clone

    def to_dict(self) -> dict[str, list[str]]:
        """Plain-dict view for assertions and serialization."""
        return {self._display[k]: list(v) for k, v in self._attrs.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Entry):
            return NotImplemented
        return self.dn == other.dn and self._attrs == other._attrs

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Entry {self.dn} ({self.nattrs} attrs)>"
