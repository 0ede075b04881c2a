"""The Directory Information Tree (DIT) with scoped search.

This is the storage engine behind the simulated GIIS merge: a
tree of entries addressed by DN, searchable with RFC 1960 filters at the
three standard LDAP scopes (``base``, ``one``, ``sub``).  Search results
are returned in deterministic insertion order, which keeps every
experiment reproducible.

With compilation on (:mod:`repro.queryplane`), subtree searches use
attribute-value equality/presence indexes to prune to candidate entry
sets instead of walking the whole tree.  The indexes are built lazily on
the first pruned search (throwaway DITs that are only merged and never
searched — the GIIS aggregation path — pay nothing) and maintained
incrementally by ``add``/``upsert``/``delete`` afterwards.  Candidates
are re-sorted by each node's DFS path so pruned results are byte-
identical to the scan order.
"""

from __future__ import annotations

import typing as _t

from repro.errors import EntryExistsError, NoSuchEntryError
from repro.ldap.compile import AnyTerm, EqTerm, Plan, PresTerm, index_key, resolve_filter
from repro.ldap.dn import DN
from repro.ldap.entry import Entry
from repro.ldap.filter import Filter

__all__ = ["DIT", "SCOPE_BASE", "SCOPE_ONE", "SCOPE_SUB"]

SCOPE_BASE = "base"
SCOPE_ONE = "one"
SCOPE_SUB = "sub"

_EMPTY: frozenset = frozenset()


class _Node:
    __slots__ = ("entry", "children", "path", "_next_child")

    def __init__(self, entry: Entry | None, path: tuple[int, ...] = ()) -> None:
        self.entry = entry
        self.children: dict[tuple[str, str], _Node] = {}
        # DFS-order fingerprint: parent's path plus a per-parent counter.
        # Lexicographic path order == scan order; prefix match == subtree
        # membership.  Both are what index pruning needs to restore the
        # deterministic result order after set-based candidate selection.
        self.path = path
        self._next_child = 0

    def new_child(self, key: tuple[str, str]) -> "_Node":
        child = _Node(None, self.path + (self._next_child,))
        self._next_child += 1
        self.children[key] = child
        return child


class DIT:
    """An in-memory LDAP directory tree."""

    def __init__(self) -> None:
        self._root = _Node(None)
        self._count = 0
        # Equality/presence indexes over entry attributes, keyed by
        # lowercased attribute name (and, for equality, the normalized
        # value key from repro.ldap.compile.index_key).  Built lazily.
        self._eq_index: dict[tuple[str, tuple[str, _t.Any]], set[_Node]] = {}
        self._pres_index: dict[str, set[_Node]] = {}
        self._indexes_ready = False
        self.pruned_searches = 0
        self.scanned_searches = 0

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

    # -- index maintenance --------------------------------------------------
    def _ensure_indexes(self) -> None:
        if self._indexes_ready:
            return
        for node in self._walk(self._root):
            self._index_entry(node)
        self._indexes_ready = True

    def _index_entry(self, node: _Node) -> None:
        entry = node.entry
        if entry is None:
            return
        for attr, values in entry._attrs.items():
            self._pres_index.setdefault(attr, set()).add(node)
            for value in values:
                self._eq_index.setdefault((attr, index_key(value)), set()).add(node)

    def _unindex_entry(self, node: _Node, entry: Entry | None) -> None:
        if entry is None:
            return
        for attr, values in entry._attrs.items():
            bucket = self._pres_index.get(attr)
            if bucket is not None:
                bucket.discard(node)
            for value in values:
                eq_bucket = self._eq_index.get((attr, index_key(value)))
                if eq_bucket is not None:
                    eq_bucket.discard(node)

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
                child = node.new_child(key)
            node = child
        if node.entry is not None:
            raise EntryExistsError(f"entry already exists: {dn}")
        node.entry = entry
        self._count += 1
        if self._indexes_ready:
            self._index_entry(node)
        # Materialize glue entries for auto-created parents.
        if create_parents:
            probe = self._root
            for depth, rdn in enumerate(reversed(dn.rdns), start=1):
                probe = probe.children[(rdn.attr.lower(), rdn.value)]
                if depth < dn.depth and probe.entry is None:
                    probe.entry = Entry(DN(dn.rdns[dn.depth - depth :]))
                    self._count += 1
                    if self._indexes_ready:
                        self._index_entry(probe)

    def upsert(self, entry: Entry) -> None:
        """Insert or replace the entry at ``entry.dn`` (parents created)."""
        node = self._find(entry.dn)
        if node is not None and node.entry is not None:
            if self._indexes_ready:
                self._unindex_entry(node, node.entry)
            node.entry = entry
            if self._indexes_ready:
                self._index_entry(node)
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
        if self._indexes_ready:
            for victim in self._walk(node):
                self._unindex_entry(victim, victim.entry)
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
        *,
        compiled: bool | None = None,
    ) -> list[Entry]:
        """Scoped, filtered search rooted at ``base``.

        ``attributes`` optionally projects results to the named
        attributes (the RDN attribute is always retained, as in LDAP).
        ``compiled`` overrides the :mod:`repro.queryplane` global for
        this call; the interpreted path is the legacy full scan.
        """
        if isinstance(base, str):
            base = DN.parse(base)
        resolved = resolve_filter(filter, compiled)
        predicate, plan = resolved.predicate, resolved.plan
        if scope not in (SCOPE_BASE, SCOPE_ONE, SCOPE_SUB):
            raise ValueError(f"unknown scope: {scope!r}")
        node = self._find(base)
        if node is None:
            raise NoSuchEntryError(f"search base does not exist: {base}")
        hits: list[Entry] = []
        if scope == SCOPE_SUB and plan is not None:
            self._ensure_indexes()
            base_path = node.path
            depth = len(base_path)
            members = [n for n in self._resolve_plan(plan) if n.path[:depth] == base_path]
            members.sort(key=lambda n: n.path)  # restore DFS order
            self.pruned_searches += 1
            for cand in members:
                entry = cand.entry
                if entry is not None and predicate(entry):
                    hits.append(entry.project(attributes))
            return hits
        if scope == SCOPE_BASE:
            candidates: _t.Iterable[_Node] = [node] if node.entry else []
        elif scope == SCOPE_ONE:
            candidates = node.children.values()
        else:
            candidates = self._walk(node)
            self.scanned_searches += 1
        for cand in candidates:
            entry = cand.entry
            if entry is not None and predicate(entry):
                hits.append(entry.project(attributes))
        return hits

    def _resolve_plan(self, plan: Plan) -> _t.Collection[_Node]:
        if isinstance(plan, EqTerm):
            return self._eq_index.get((plan.attr, plan.key), _EMPTY)
        if isinstance(plan, PresTerm):
            return self._pres_index.get(plan.attr, _EMPTY)
        if isinstance(plan, AnyTerm):
            union: set[_Node] = set()
            for option in plan.options:
                union.update(self._resolve_plan(option))
            return union
        # PickTerm: every option over-approximates, so the smallest wins.
        return min((self._resolve_plan(o) for o in plan.options), key=len)

    def _walk(self, node: _Node) -> _t.Iterator[_Node]:
        if node.entry is not None:
            yield node
        for child in node.children.values():
            yield from self._walk(child)

    def entries(self) -> list[Entry]:
        """Every entry in the tree, DFS order."""
        return [n.entry for n in self._walk(self._root) if n.entry is not None]
