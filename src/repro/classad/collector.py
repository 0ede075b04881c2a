"""An indexed resident database of ClassAds (the Condor *collector*).

The Hawkeye Manager "collects and stores (in an indexed resident
database) monitoring information from each Agent" (paper §2.3).  This
collector keeps the latest ad per name, maintains hash indexes over
chosen attributes for O(1) equality lookups, and supports constraint
queries that fall back to a full matchmaking scan — reporting the scan
cost so the simulation can charge for it.  That scan is an incrementally
maintained view: a query re-evaluates only the ads advertised since the
same constraint was last asked, and reports the cost of the scan it
stands for.

Soft state: each ad carries a deadline; :meth:`expire` sweeps ads whose
lease lapsed (Condor's 15-minute ClassAd lifetime by default).
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

from repro.classad.ads import ClassAd
from repro.classad.ast import AttrRef, BinaryOp, Expr, Literal
from repro.classad.matchmaker import match, match_pool, rank
from repro.classad.parser import parse_expr
from repro.classad.values import is_scalar

__all__ = ["AdCollector", "QueryOutcome"]

DEFAULT_LIFETIME = 900.0  # Condor's classad lifetime: 15 minutes

# Attributes the synthetic query ad itself carries: an unscoped reference
# to one of these resolves in MY (the query) rather than the candidate,
# so conjuncts over them must never prune by index.
_QUERY_AD_ATTRS = frozenset({"mytype", "requirements"})


@dataclass(frozen=True)
class QueryOutcome:
    """Constraint-query result plus its evaluation cost."""

    ads: list[ClassAd]
    scanned: int
    ops: int
    index_hit: bool


class _View:
    """One constraint text parsed once, and its maintained full-scan answer.

    ``request`` is the synthetic query ad.  ``equal`` and ``conjuncts``
    are the index plan: the ``(attr, value)`` lookup when the whole
    constraint is an indexed ``Attr == literal``, and the index keys of
    the indexed equality terms in its top-level ``&&`` chain (in the
    order the chain is walked, which breaks ties between buckets).

    A constraint with neither is a ``full_scan``, and the remaining fields
    are its answer, maintained per ad: ``ops_of`` is what matching each
    resident ad cost, ``ops`` their sum, ``rank_of`` the rank of the ads
    that matched, and ``dirty`` the keys advertised, removed or expired
    since those were computed.

    Sound because ``match(request, ad)`` is a pure function of the
    constraint text and the ad's bindings — every builtin in
    ``evaluator._apply_builtin`` is pure, there is no clock and no RNG —
    and nothing mutates an ad after ``advertise``: a changed ad arrives as
    a new ``advertise``, which dirties its key whether or not it is the
    same object, so a row always describes the ad resident under its key.
    """

    __slots__ = ("request", "equal", "conjuncts", "full_scan", "ops_of", "ops", "rank_of", "dirty")

    def __init__(self, constraint: str, indexed: tuple[str, ...]) -> None:
        expr = parse_expr(constraint)
        self.request = ClassAd({"MyType": "Query"})
        self.request["Requirements"] = expr
        self.equal: tuple[str, _t.Any] | None = None
        if (
            isinstance(expr, BinaryOp)
            and expr.op == "=="
            and isinstance(expr.left, AttrRef)
            and expr.left.scope is None
            and isinstance(expr.right, Literal)
            and expr.left.name.lower() in indexed
        ):
            self.equal = (expr.left.name, expr.right.value)
        self.conjuncts = _indexed_conjuncts(expr, indexed)
        self.full_scan = self.equal is None and not self.conjuncts
        self.ops_of: dict[str, int] = {}
        self.ops = 0
        self.rank_of: dict[str, float] = {}
        self.dirty: set[str] = set()


def _indexed_conjuncts(expr: Expr, indexed: tuple[str, ...]) -> list[tuple[str, _t.Any]]:
    """Index keys of the indexed ``Attr == literal`` terms in the
    top-level ``&&`` chain of ``expr``.

    Pruning to such a term's bucket is sound because an ad outside it
    makes that conjunct FALSE/UNDEFINED/ERROR, so the whole conjunction
    cannot be TRUE — assuming indexed attributes are literal-valued in
    the resident ads, the documented collector indexing contract.
    """
    keys: list[tuple[str, _t.Any]] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, BinaryOp) and node.op == "&&":
            stack.append(node.left)
            stack.append(node.right)
            continue
        if not (isinstance(node, BinaryOp) and node.op == "=="):
            continue
        left, right = node.left, node.right
        if isinstance(left, Literal) and isinstance(right, AttrRef):
            left, right = right, left
        if not (isinstance(left, AttrRef) and isinstance(right, Literal)):
            continue
        if left.scope == "my":  # resolves in the query ad, not candidates
            continue
        attr = left.name.lower()
        if attr not in indexed or attr in _QUERY_AD_ATTRS:
            continue
        if not is_scalar(right.value) or right.value is None:
            continue
        keys.append((attr, _norm(right.value)))
    return keys


class AdCollector:
    """Latest-ad-per-name store with equality indexes and constraint scans."""

    MAX_VIEWS = 16  # distinct constraint texts kept parsed (and, for full scans, answered)

    def __init__(self, indexed_attrs: _t.Sequence[str] = ("Name", "Machine")) -> None:
        self._ads: dict[str, ClassAd] = {}
        self._expiry: dict[str, float] = {}
        self._indexed = tuple(a.lower() for a in indexed_attrs)
        self._index: dict[tuple[str, _t.Any], set[str]] = {}
        # First-advertise sequence per key: pruned query paths sort their
        # candidates by it so result order matches the insertion-ordered
        # full scan (re-advertising keeps the original slot, like dicts).
        self._seq: dict[str, int] = {}
        self._seq_next = 0
        # Constraint text -> view, least recently asked first.
        self._views: dict[str, _View] = {}
        self.updates = 0
        self.expired_total = 0

    # -- updates --------------------------------------------------------------
    def advertise(self, ad: ClassAd, now: float = 0.0, lifetime: float = DEFAULT_LIFETIME) -> str:
        """Insert or replace the ad keyed by its ``Name`` attribute."""
        name = ad.get_scalar("Name")
        if not isinstance(name, str) or not name:
            raise ValueError("ClassAd must carry a string Name attribute to be advertised")
        key = name.lower()
        if key in self._ads:
            self._unindex(key, self._ads[key])
        self._ads[key] = ad
        self._expiry[key] = now + lifetime
        self._reindex(key, ad)
        if key not in self._seq:
            self._seq[key] = self._seq_next
            self._seq_next += 1
        self._touch(key)
        self.updates += 1
        return key

    def remove(self, name: str) -> bool:
        """Drop the ad named ``name``; returns whether it existed."""
        key = name.lower()
        ad = self._ads.pop(key, None)
        if ad is None:
            return False
        self._expiry.pop(key, None)
        self._seq.pop(key, None)
        self._unindex(key, ad)
        self._touch(key)
        return True

    def expire(self, now: float) -> int:
        """Sweep ads whose lease has lapsed; returns how many were dropped."""
        stale = [k for k, deadline in self._expiry.items() if deadline <= now]
        for key in stale:
            self.remove(key)
        self.expired_total += len(stale)
        return len(stale)

    def _reindex(self, key: str, ad: ClassAd) -> None:
        for attr in self._indexed:
            value = ad.get_scalar(attr)
            if is_scalar(value) and value is not None:
                self._index.setdefault((attr, _norm(value)), set()).add(key)

    def _unindex(self, key: str, ad: ClassAd) -> None:
        for attr in self._indexed:
            value = ad.get_scalar(attr)
            if is_scalar(value) and value is not None:
                index_key = (attr, _norm(value))
                bucket = self._index.get(index_key)
                if bucket:
                    bucket.discard(key)
                    if not bucket:  # or one empty set per value ever seen stays behind
                        del self._index[index_key]

    def _touch(self, key: str) -> None:
        """The ad under ``key`` was replaced or left: every full-scan view
        owes it a re-evaluation.  A view that owes more than a scan of the
        pool would cost is dropped, so a constraint nobody asks again
        cannot hold memory while names churn."""
        stale = []
        for constraint, view in self._views.items():
            if view.full_scan:
                view.dirty.add(key)
                if len(view.dirty) > len(self._ads):
                    stale.append(constraint)
        for constraint in stale:
            del self._views[constraint]

    # -- queries --------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ads)

    def get(self, name: str) -> ClassAd | None:
        """Indexed O(1) lookup by Name."""
        return self._ads.get(name.lower())

    def ads(self) -> list[ClassAd]:
        """Every resident ad (insertion order)."""
        return list(self._ads.values())

    def lookup_equal(self, attr: str, value: _t.Any) -> list[ClassAd]:
        """O(1) equality lookup when ``attr`` is indexed, else a scan."""
        attr_l = attr.lower()
        if attr_l in self._indexed:
            keys = self._index.get((attr_l, _norm(value)), ())
            return [self._ads[k] for k in sorted(keys)]
        return [ad for ad in self._ads.values() if _norm(ad.get_scalar(attr)) == _norm(value)]

    def query(self, constraint: str) -> QueryOutcome:
        """Return ads satisfying ``constraint`` (a ClassAd boolean expr).

        Simple ``Attr == "value"`` constraints on indexed attributes take
        the index path.  Conjunctive constraints containing an indexed
        ``Attr == literal`` term prune the matchmaking scan to that term's
        bucket (candidates still run the full bilateral match).
        Everything else is answered from the constraint's view, which
        matches only the ads advertised since it was last asked yet
        reports the ``scanned`` and ``ops`` of the full scan.
        """
        view = self._view(constraint)
        if view.equal is not None:
            indexed = self.lookup_equal(*view.equal)
            return QueryOutcome(ads=indexed, scanned=len(indexed), ops=len(indexed), index_hit=True)
        ads, seq = self._ads, self._seq
        if view.conjuncts:
            bucket = min((self._index.get(k, ()) for k in view.conjuncts), key=len)
            pool = [ads[k] for k in sorted(bucket, key=seq.__getitem__)]
            matches, ops = match_pool(view.request, pool)
            return QueryOutcome(
                ads=[ad for _rank, ad in matches], scanned=len(pool), ops=ops, index_hit=True
            )
        self._refresh(view)
        # Insertion order, then the stable descending-rank sort: match_pool's order.
        rank_of = view.rank_of
        ordered = sorted(rank_of, key=lambda k: (-rank_of[k], seq[k]))
        return QueryOutcome(
            ads=[ads[k] for k in ordered], scanned=len(ads), ops=view.ops, index_hit=False
        )

    def _view(self, constraint: str) -> _View:
        """The view of ``constraint``, opened (owing every resident ad) if new."""
        view = self._views.pop(constraint, None)
        if view is None:
            view = _View(constraint, self._indexed)
            view.dirty.update(self._ads)
            if len(self._views) >= self.MAX_VIEWS:
                del self._views[next(iter(self._views))]
        self._views[constraint] = view  # most recently asked last
        return view

    def _refresh(self, view: _View) -> None:
        """Re-match the dirty keys; they stay dirty if evaluation raises."""
        request, ops_of, rank_of = view.request, view.ops_of, view.rank_of
        for key in view.dirty:
            view.ops -= ops_of.pop(key, 0)
            rank_of.pop(key, None)
            ad = self._ads.get(key)
            if ad is None:
                continue
            result = match(request, ad)
            ops_of[key] = result.ops
            view.ops += result.ops
            if result.matched:
                rank_of[key] = rank(request, ad)
        view.dirty.clear()


def _norm(value: _t.Any) -> _t.Any:
    """Index normalization: case-insensitive strings, bool≠int preserved."""
    if isinstance(value, str):
        return value.lower()
    return value
