"""TTL caching, the mechanism the paper finds decisive for MDS scaling.

Both the GRIS (caching provider output) and the GIIS (caching data
pulled from registered GRIS) use time-to-live caches controlled by the
``cachettl`` parameter — the knob the paper turns between the
"cache"/"nocache" GRIS configurations (§3.3) and sets "to a very large
value" to isolate GIIS directory behaviour (§3.4).
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

from repro.ldap.entry import Entry
from repro.ldap.ldif import to_ldif

__all__ = ["TtlCache", "CacheStats", "EncodedAnswer", "EncodedResult", "AnswerMemo"]

V = _t.TypeVar("V")


@dataclass
class CacheStats:
    """Cumulative hit/miss counters."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class TtlCache(_t.Generic[V]):
    """Map with per-entry expiry at ``insert_time + ttl``.

    ``ttl=0`` disables caching entirely (every lookup misses);
    ``ttl=float('inf')`` never expires (the paper's "always in cache").
    """

    def __init__(self, ttl: float) -> None:
        if ttl < 0:
            raise ValueError(f"ttl must be >= 0, got {ttl}")
        self.ttl = ttl
        self._store: dict[_t.Any, tuple[float, V]] = {}
        self.stats = CacheStats()

    def get(self, key: _t.Any, now: float) -> V | None:
        """Value if fresh at time ``now``, else None (counted as a miss)."""
        if self.ttl > 0:
            item = self._store.get(key)
            if item is not None:
                expires, value = item
                if now < expires:
                    self.stats.hits += 1
                    return value
                del self._store[key]
        self.stats.misses += 1
        return None

    def put(self, key: _t.Any, value: V, now: float) -> None:
        """Insert ``value`` valid until ``now + ttl`` (no-op when ttl=0)."""
        if self.ttl <= 0:
            return
        self._store[key] = (now + self.ttl, value)

    def stale_count(self, now: float, keys: _t.Iterable[_t.Any] | None = None) -> int:
        """How many of ``keys`` would miss at time ``now``.

        Pure inspection — no eviction, no stats — so callers (the GRIS
        service adapter predicting provider re-execution, planners
        sizing a refresh) can ask without perturbing the cache.  With
        ``keys=None`` it counts expired resident entries instead.
        """
        if keys is None:
            if self.ttl <= 0:
                return 0
            return sum(1 for expires, _value in self._store.values() if now >= expires)
        wanted = list(keys)
        if self.ttl <= 0:
            return len(wanted)
        stale = 0
        for key in wanted:
            item = self._store.get(key)
            if item is None or now >= item[0]:
                stale += 1
        return stale

    def invalidate(self, key: _t.Any) -> None:
        self._store.pop(key, None)

    def clear(self) -> None:
        self._store.clear()

    def __len__(self) -> int:
        return len(self._store)


class EncodedAnswer:
    """One reply's entries, the size the model charges for them, their LDIF bytes."""

    __slots__ = ("entries", "size", "_wire")

    def __init__(self, entries: list[Entry]) -> None:
        self.entries = entries
        # len(to_ldif(entries)), in characters, not bytes: the records, a blank
        # line between each two, one final newline.
        self.size = sum(e.ldif_length() for e in entries) + 2 * len(entries) - 1 if entries else 64
        self._wire: bytes | None = None

    def wire(self) -> bytes:
        """The reply body, encoded on the first ask: the DES never asks, and keeps none."""
        if self._wire is None:
            self._wire = to_ldif(self.entries).encode()
        return self._wire


class EncodedResult:
    """What GRIS and GIIS results share: size and wire read off the memoized answer."""

    entries: list[Entry]
    _answer: EncodedAnswer | None  # filled by the server from its memo

    def estimated_size(self) -> int:
        """Serialized (LDIF) size of the result in bytes."""
        return (self._answer or EncodedAnswer(self.entries)).size

    def wire(self) -> bytes:
        """The LDIF reply body, the same bytes for as long as the answer is memoized."""
        return (self._answer or EncodedAnswer(self.entries)).wire()


class AnswerMemo:
    """Answers to the questions asked of one data generation.

    A server's generation only grows, so an answer to an older one can
    never be asked for again: the memo is dropped when the generation
    moves, and reply bytes live exactly as long as the data they encode.
    """

    MAX_QUESTIONS = 64  # distinct questions kept within one generation

    def __init__(self) -> None:
        self._generation = -1
        self._answers: dict[tuple, EncodedAnswer] = {}

    def answer(
        self, generation: int, question: tuple, select: _t.Callable[[], list[Entry]]
    ) -> EncodedAnswer:
        """The memoized answer to ``question``; ``select()`` computes a missing one."""
        if generation != self._generation or len(self._answers) > self.MAX_QUESTIONS:
            self._answers.clear()
            self._generation = generation
        found = self._answers.get(question)
        if found is None:
            found = self._answers[question] = EncodedAnswer(select())
        return found
