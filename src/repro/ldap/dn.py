"""Distinguished-name parsing and manipulation.

MDS 2.1 names every entry with an LDAP distinguished name such as
``Mds-Device-name=cpu, Mds-Host-hn=lucky7.mcs.anl.gov, Mds-Vo-name=local,
o=grid``.  A DN is an ordered sequence of relative DNs (RDNs), most
specific first; the suffix identifies the containing subtree.

This module implements the subset of RFC 2253 the study needs:
``attr=value`` RDNs separated by commas, with backslash escaping for
commas/equals inside values.  Multi-valued RDNs (``+``) are not used by
the MDS schema and are rejected.
"""

from __future__ import annotations

import typing as _t

from repro.errors import DnSyntaxError

__all__ = ["DN", "RDN", "parse_dn"]

# DN.parse memo, safe to share because a DN is immutable; dropped whole when full.
_PARSED: dict[str, "DN"] = {}
_PARSED_MAX = 4096


class RDN(_t.NamedTuple):
    """One relative distinguished name: an (attribute, value) pair."""

    attr: str
    value: str

    def __str__(self) -> str:
        escaped = self.value.replace("\\", "\\\\").replace(",", "\\,").replace("=", "\\=")
        return f"{self.attr}={escaped}"


class DN:
    """An immutable distinguished name (sequence of RDNs, leaf first)."""

    __slots__ = ("rdns", "_norm")

    def __init__(self, rdns: _t.Iterable[RDN]) -> None:
        self.rdns: tuple[RDN, ...] = tuple(rdns)
        # Case-insensitive attribute types, case-sensitive values.
        self._norm = tuple((r.attr.lower(), r.value) for r in self.rdns)

    # -- constructors ----------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "DN":
        """Parse a string DN; ``DN.parse("")`` is the root DN.

        Successful parses are memoized (malformed text raises every time).
        """
        found = _PARSED.get(text)
        if found is None:
            found = parse_dn(text)
            if len(_PARSED) >= _PARSED_MAX:
                _PARSED.clear()
            _PARSED[text] = found
        return found

    def child(self, attr: str, value: str) -> "DN":
        """DN one level below this one."""
        return DN((RDN(attr, value), *self.rdns))

    # -- structure --------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of RDN components (0 for the root)."""
        return len(self.rdns)

    @property
    def rdn(self) -> RDN:
        """The leaf (most specific) RDN."""
        if not self.rdns:
            raise DnSyntaxError("root DN has no RDN")
        return self.rdns[0]

    @property
    def parent(self) -> "DN":
        """DN with the leaf RDN removed."""
        if not self.rdns:
            raise DnSyntaxError("root DN has no parent")
        return DN(self.rdns[1:])

    def is_descendant_of(self, ancestor: "DN") -> bool:
        """True when ``self`` lies strictly below ``ancestor``."""
        offset = len(self._norm) - len(ancestor._norm)
        if offset <= 0:
            return False
        return self._norm[offset:] == ancestor._norm

    def is_equal_or_descendant_of(self, base: "DN") -> bool:
        """True when ``self`` equals ``base`` or lies below it."""
        return self == base or self.is_descendant_of(base)

    # -- value semantics --------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DN):
            return NotImplemented
        return self._norm == other._norm

    def __hash__(self) -> int:
        return hash(self._norm)

    def __str__(self) -> str:
        return ", ".join(str(r) for r in self.rdns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DN({str(self)!r})"


def parse_dn(text: str) -> DN:
    """Parse an RFC-2253-style DN string into a :class:`DN`.

    Raises :class:`~repro.errors.DnSyntaxError` on malformed input.
    """
    text = text.strip()
    if not text:
        return DN(())
    rdns: list[RDN] = []
    # Split on unescaped commas.
    parts: list[str] = []
    buf: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\":
            if i + 1 >= len(text):
                raise DnSyntaxError(f"dangling escape at end of DN: {text!r}")
            buf.append(text[i + 1])
            i += 2
            continue
        if ch == ",":
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
        i += 1
    parts.append("".join(buf))
    for part in parts:
        part = part.strip()
        if not part:
            raise DnSyntaxError(f"empty RDN component in {text!r}")
        if "+" in part.split("=", 1)[0]:
            raise DnSyntaxError(f"multi-valued RDNs are not supported: {part!r}")
        if "=" not in part:
            raise DnSyntaxError(f"RDN missing '=': {part!r}")
        attr, value = part.split("=", 1)
        attr = attr.strip()
        value = value.strip()
        if not attr:
            raise DnSyntaxError(f"RDN missing attribute type: {part!r}")
        rdns.append(RDN(attr, value))
    return DN(rdns)
