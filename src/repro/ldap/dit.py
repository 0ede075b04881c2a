"""The Directory Information Tree (DIT) with scoped search.

This is the storage engine behind the simulated GIIS merge: a
tree of entries addressed by DN, searchable with RFC 1960 filters at the
three standard LDAP scopes (``base``, ``one``, ``sub``).  Search results
are returned in deterministic insertion order, which keeps every
experiment reproducible.  A search scans the scope with the filter's
compiled predicate (:mod:`repro.ldap.compile`).
"""

from __future__ import annotations

import typing as _t

from repro.errors import EntryExistsError, NoSuchEntryError
from repro.ldap.compile import resolve_filter
from repro.ldap.dn import DN
from repro.ldap.entry import Entry
from repro.ldap.filter import Filter

__all__ = ["DIT", "SCOPE_BASE", "SCOPE_ONE", "SCOPE_SUB"]

SCOPE_BASE = "base"
SCOPE_ONE = "one"
SCOPE_SUB = "sub"


class _Node:
    __slots__ = ("entry", "children")

    def __init__(self, entry: Entry | None) -> None:
        self.entry = entry
        self.children: dict[tuple[str, str], _Node] = {}


class DIT:
    """An in-memory LDAP directory tree."""

    def __init__(self) -> None:
        self._root = _Node(None)
        self._count = 0

    # -- bookkeeping --------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    def _find(self, dn: DN) -> _Node | None:
        node = self._root
        for rdn in reversed(dn.rdns):
            node = node.children.get((rdn.attr.lower(), rdn.value))
            if node is None:
                return None
        return node

    # -- mutation ---------------------------------------------------------------
    def add(self, entry: Entry, *, create_parents: bool = False) -> None:
        """Insert ``entry``; parents must exist unless ``create_parents``.

        Raises :class:`EntryExistsError` when the DN is already populated.
        """
        dn = entry.dn
        if dn.depth == 0:
            raise NoSuchEntryError("cannot add an entry at the root DN")
        node = self._root
        for depth, rdn in enumerate(reversed(dn.rdns), start=1):
            key = (rdn.attr.lower(), rdn.value)
            child = node.children.get(key)
            if child is None:
                if depth < dn.depth and not create_parents:
                    missing = DN(dn.rdns[dn.depth - depth :])
                    raise NoSuchEntryError(f"parent entry does not exist: {missing}")
                child = node.children[key] = _Node(None)
            node = child
        if node.entry is not None:
            raise EntryExistsError(f"entry already exists: {dn}")
        node.entry = entry
        self._count += 1
        # Materialize glue entries for auto-created parents.
        if create_parents:
            probe = self._root
            for depth, rdn in enumerate(reversed(dn.rdns), start=1):
                probe = probe.children[(rdn.attr.lower(), rdn.value)]
                if depth < dn.depth and probe.entry is None:
                    probe.entry = Entry(DN(dn.rdns[dn.depth - depth :]))
                    self._count += 1

    def upsert(self, entry: Entry) -> None:
        """Insert or replace the entry at ``entry.dn`` (parents created)."""
        node = self._find(entry.dn)
        if node is not None and node.entry is not None:
            node.entry = entry
            return
        self.add(entry, create_parents=True)

    def delete(self, dn: DN, *, recursive: bool = False) -> int:
        """Remove the entry (and descendants when ``recursive``).

        Returns the number of entries removed.
        """
        if dn.depth == 0:
            raise NoSuchEntryError("cannot delete the root DN")
        parent = self._find(dn.parent)
        if parent is None:
            raise NoSuchEntryError(f"no such entry: {dn}")
        key = (dn.rdn.attr.lower(), dn.rdn.value)
        node = parent.children.get(key)
        if node is None or node.entry is None:
            raise NoSuchEntryError(f"no such entry: {dn}")
        if node.children and not recursive:
            raise EntryExistsError(f"entry has children (use recursive=True): {dn}")
        removed = self._count_subtree(node)
        del parent.children[key]
        self._count -= removed
        return removed

    def _count_subtree(self, node: _Node) -> int:
        total = 1 if node.entry is not None else 0
        for child in node.children.values():
            total += self._count_subtree(child)
        return total

    # -- lookup -------------------------------------------------------------
    def get(self, dn: DN | str) -> Entry:
        """The entry at ``dn``; raises :class:`NoSuchEntryError` if absent."""
        if isinstance(dn, str):
            dn = DN.parse(dn)
        node = self._find(dn)
        if node is None or node.entry is None:
            raise NoSuchEntryError(f"no such entry: {dn}")
        return node.entry

    def exists(self, dn: DN | str) -> bool:
        """Entry-presence test."""
        if isinstance(dn, str):
            dn = DN.parse(dn)
        node = self._find(dn)
        return node is not None and node.entry is not None

    def search(
        self,
        base: DN | str,
        scope: str = SCOPE_SUB,
        filter: Filter | str = "(objectclass=*)",
        attributes: _t.Sequence[str] | None = None,
    ) -> list[Entry]:
        """Scoped, filtered search rooted at ``base``.

        ``attributes`` optionally projects results to the named
        attributes (the RDN attribute is always retained, as in LDAP).
        """
        if isinstance(base, str):
            base = DN.parse(base)
        predicate = resolve_filter(filter).predicate
        if scope not in (SCOPE_BASE, SCOPE_ONE, SCOPE_SUB):
            raise ValueError(f"unknown scope: {scope!r}")
        node = self._find(base)
        if node is None:
            raise NoSuchEntryError(f"search base does not exist: {base}")
        if scope == SCOPE_BASE:
            candidates: _t.Iterable[_Node] = [node] if node.entry else []
        elif scope == SCOPE_ONE:
            candidates = node.children.values()
        else:
            candidates = self._walk(node)
        hits: list[Entry] = []
        for cand in candidates:
            entry = cand.entry
            if entry is not None and predicate(entry):
                hits.append(entry.project(attributes))
        return hits

    def _walk(self, node: _Node) -> _t.Iterator[_Node]:
        if node.entry is not None:
            yield node
        for child in node.children.values():
            yield from self._walk(child)

    def entries(self) -> list[Entry]:
        """Every entry in the tree, DFS order."""
        return [n.entry for n in self._walk(self._root) if n.entry is not None]
