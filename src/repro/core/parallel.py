"""Parallel sweep execution with deterministic merge and a point-level cache.

Every figure of the paper is a sweep over independent ``(system, x,
seed)`` points, and each point builds its own
:class:`~repro.sim.engine.Simulator` and
:class:`~repro.sim.randomness.RngHub` — so points can run in any order,
on any worker, and still produce bit-identical results.  This module
exploits that twice:

* :func:`run_specs` fans a list of :class:`PointSpec` out over this
  process's one pool of ``jobs`` workers, largest point first, and
  merges the results back **by index**, so output ordering, figure
  tables and bench JSON are byte-identical to the serial path;
* a content-addressed :class:`PointCache` (keyed by the fully-resolved
  call — function, arguments, :class:`~repro.core.params.StudyParams`
  contents — plus a source-version stamp) lets repeated figure or
  bench runs skip already-computed points entirely.

Specs whose arguments cannot be canonicalized (shared mutable objects
like :class:`~repro.sim.rpc.RetryPolicy`) are executed inline, serially,
in submission order — exactly as the serial path would — because farming
them out would silently fork their state.

Cache invalidation: the key embeds ``source_stamp()``, a digest of
every ``repro`` source file, so *any* source change invalidates every
cached point; stale entries are simply never looked up again (prune the
directory at will).  Corrupt or undecodable entries degrade to misses.

Configuration: :func:`configure` sets process-wide defaults; the
``REPRO_JOBS`` and ``REPRO_POINTCACHE`` environment variables seed them
(the CLI ``--jobs``/``--cache-dir`` flags win).  See docs/BENCHMARKS.md.
"""

from __future__ import annotations

import contextvars
import dataclasses
import gc
import hashlib
import importlib
import json
import os
import pathlib
import typing as _t
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from time import perf_counter

from repro.core.metrics import MetricsSummary, ResilienceSummary
from repro.core.runner import PointResult
from repro.core.stats import ReplicationInfo, SteadyStateInfo

__all__ = [
    "PointSpec",
    "PointCache",
    "SweepStats",
    "Uncanonicalizable",
    "canonical",
    "configure",
    "default_cache",
    "default_jobs",
    "register_codec",
    "run_specs",
    "source_stamp",
    "counters_snapshot",
    "last_stats",
]

CACHE_SCHEMA = 1


# -- canonical call forms -----------------------------------------------------


class Uncanonicalizable(TypeError):
    """Raised when a call argument has no stable, content-addressed form."""


def canonical(value: _t.Any) -> _t.Any:
    """A JSON-able canonical form of ``value``, or raise Uncanonicalizable.

    Primitives pass through; tuples/lists/dicts recurse; *frozen*
    dataclasses (the parameter bundles — ``StudyParams`` and friends)
    canonicalize field-by-field under their class name, so two
    parameter sets hash equal exactly when their contents are equal.
    Anything else — live RNGs, retry policies, fault plans, lambdas —
    refuses, which marks the spec serial-only and uncacheable.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [canonical(v) for v in value]
    if isinstance(value, dict):
        out = {}
        for k in sorted(value):
            if not isinstance(k, str):
                raise Uncanonicalizable(f"non-string dict key {k!r}")
            out[k] = canonical(value[k])
        return out
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        params = getattr(type(value), "__dataclass_params__", None)
        if params is not None and params.frozen:
            return {
                "__dataclass__": type(value).__qualname__,
                **{
                    f.name: canonical(getattr(value, f.name))
                    for f in dataclasses.fields(value)
                },
            }
    raise Uncanonicalizable(f"cannot canonicalize {type(value).__name__} value {value!r}")


_SOURCE_STAMP: str | None = None


def source_stamp() -> str:
    """Digest of every ``repro`` source file (memoized per process).

    Embedding this in cache keys gives the invalidation story: touch
    any file under ``src/repro`` and every previously cached point
    misses on the next run.
    """
    global _SOURCE_STAMP
    if _SOURCE_STAMP is None:
        import repro

        root = pathlib.Path(repro.__file__).parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _SOURCE_STAMP = digest.hexdigest()
    return _SOURCE_STAMP


# -- result codecs ------------------------------------------------------------

# Cached results round-trip through JSON via registered dataclasses.
# json floats round-trip exactly (repr-based), so a decoded PointResult
# compares equal, field for field, to the one the simulator produced.
_CODECS: dict[str, type] = {}


def register_codec(cls: type) -> type:
    """Register a dataclass for exact JSON round-tripping in the cache.

    Experiment modules register their own wrappers (``ScalePoint``,
    ``FaultPointResult``) at import time; unknown tags found on decode
    degrade to cache misses.
    """
    _CODECS[cls.__name__] = cls
    return cls


for _cls in (PointResult, MetricsSummary, ResilienceSummary, ReplicationInfo, SteadyStateInfo):
    register_codec(_cls)


class CacheDecodeError(ValueError):
    """A cache entry references a codec this process does not know."""


def encode_result(value: _t.Any) -> _t.Any:
    """Encode a (possibly nested) sweep result to JSON-able data."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, (list, tuple)):
        return [encode_result(v) for v in value]
    if isinstance(value, dict):
        return {str(k): encode_result(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value) and type(value).__name__ in _CODECS:
        return {
            "__type__": type(value).__name__,
            **{
                f.name: encode_result(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    raise CacheDecodeError(f"no codec for {type(value).__name__}")


def decode_result(data: _t.Any) -> _t.Any:
    """Inverse of :func:`encode_result`."""
    if isinstance(data, list):
        return [decode_result(v) for v in data]
    if isinstance(data, dict):
        tag = data.get("__type__")
        if tag is None:
            return {k: decode_result(v) for k, v in data.items()}
        cls = _CODECS.get(tag)
        if cls is None:
            raise CacheDecodeError(f"unknown cached result type {tag!r}")
        fields = {k: decode_result(v) for k, v in data.items() if k != "__type__"}
        return cls(**fields)
    return data


# -- point specs --------------------------------------------------------------


@dataclass(frozen=True)
class PointSpec:
    """One independent sweep point: a module-level function plus arguments.

    ``fn_ref`` is a ``"module:qualname"`` string so the call pickles to
    any worker (fork or spawn) and addresses the cache stably.
    """

    fn_ref: str
    args: tuple
    kwargs: tuple  # sorted (name, value) pairs, hash-friendly

    @classmethod
    def from_call(
        cls, fn: _t.Callable, args: _t.Sequence, kwargs: dict[str, _t.Any] | None = None
    ) -> "PointSpec":
        if fn.__qualname__ != fn.__name__:
            raise ValueError(f"{fn.__qualname__} is not module-level; cannot spec it")
        return cls(
            fn_ref=f"{fn.__module__}:{fn.__name__}",
            args=tuple(args),
            kwargs=tuple(sorted((kwargs or {}).items())),
        )

    def canonical_call(self) -> dict[str, _t.Any] | None:
        """The content-addressed call form, or None when uncanonicalizable."""
        try:
            return {
                "fn": self.fn_ref,
                "args": canonical(list(self.args)),
                "kwargs": canonical(dict(self.kwargs)),
            }
        except Uncanonicalizable:
            return None

    def resolve(self) -> _t.Callable:
        module, name = self.fn_ref.split(":")
        return getattr(importlib.import_module(module), name)


def _run_spec(spec: PointSpec) -> tuple[_t.Any, float]:
    """Execute one spec, timing its busy seconds.

    A finished point's simulator, deployment and processes form one large
    reference cycle that only a full collection frees.  Collecting here,
    once the point has returned, frees it before the next point starts,
    so a sweep's peak memory is its largest point, not whichever points
    the collector's own thresholds happened to leave behind.  Under
    :func:`run_specs` everything older than the sweep is frozen, so this
    collection walks only what the point allocated.
    """
    start = perf_counter()
    result = spec.resolve()(*spec.args, **dict(spec.kwargs))
    gc.collect()
    return result, perf_counter() - start


def _run_pooled(spec: PointSpec) -> tuple[_t.Any, float]:
    """Pool entry point: :func:`_run_spec` in an empty context.

    A worker's own context is whatever the sweep that forked it had set,
    which a later sweep must not see.
    """
    return contextvars.Context().run(_run_spec, spec)


# -- the point cache ----------------------------------------------------------


class PointCache:
    """Content-addressed store of sweep results under one directory.

    Layout: ``<root>/<key[:2]>/<key>.json`` where ``key`` is the SHA-256
    of the canonical call plus :func:`source_stamp`.  Entries are
    self-describing JSON; anything unreadable is treated as a miss.
    """

    def __init__(self, root: pathlib.Path | str) -> None:
        self.root = pathlib.Path(root)

    def key_for(self, spec: PointSpec) -> str | None:
        call = spec.canonical_call()
        if call is None:
            return None
        payload = json.dumps(
            {"schema": CACHE_SCHEMA, "stamp": source_stamp(), "call": call},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def _path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> tuple[bool, _t.Any]:
        """(hit, result) — any decode problem is a miss, never an error."""
        try:
            data = json.loads(self._path(key).read_text())
            if data.get("schema") != CACHE_SCHEMA:
                return False, None
            return True, decode_result(data["result"])
        except (OSError, ValueError, KeyError, TypeError):
            return False, None

    def put(self, key: str, spec: PointSpec, result: _t.Any) -> bool:
        """Store one result; unencodable results are skipped silently."""
        try:
            encoded = encode_result(result)
        except CacheDecodeError:
            return False
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"schema": CACHE_SCHEMA, "fn": spec.fn_ref, "result": encoded}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True) + "\n")
        tmp.replace(path)  # atomic: concurrent writers race benignly
        return True


# -- configuration ------------------------------------------------------------

_DEFAULT_JOBS: int | None = None
_DEFAULT_CACHE: PointCache | None = None
_CACHE_CONFIGURED = False


def configure(
    jobs: int | None = None, cache_dir: pathlib.Path | str | None = None
) -> None:
    """Set process-wide defaults for :func:`run_specs`.

    ``jobs=None`` leaves the worker count to the environment
    (``REPRO_JOBS``, else serial); ``cache_dir=None`` likewise defers to
    ``REPRO_POINTCACHE``; ``cache_dir=""`` disables caching explicitly.
    Every call also shuts down this process's worker pool, so the next
    pooled sweep forks workers that see the process as it is now.
    """
    global _DEFAULT_JOBS, _DEFAULT_CACHE, _CACHE_CONFIGURED
    _drop_pool()
    if jobs is not None:
        _DEFAULT_JOBS = max(1, int(jobs))
    if cache_dir is not None:
        _CACHE_CONFIGURED = True
        _DEFAULT_CACHE = PointCache(cache_dir) if str(cache_dir) else None


def default_jobs() -> int:
    """Configured worker count, else ``REPRO_JOBS``, else 1 (serial)."""
    if _DEFAULT_JOBS is not None:
        return _DEFAULT_JOBS
    try:
        return max(1, int(os.environ.get("REPRO_JOBS", "1")))
    except ValueError:
        return 1


def default_cache() -> PointCache | None:
    """Configured cache, else ``REPRO_POINTCACHE``, else disabled."""
    if _CACHE_CONFIGURED:
        return _DEFAULT_CACHE
    env = os.environ.get("REPRO_POINTCACHE", "")
    return PointCache(env) if env else None


# -- execution ----------------------------------------------------------------


@dataclass
class SweepStats:
    """Accounting for one :func:`run_specs` call."""

    jobs: int = 1
    points: int = 0
    executed: int = 0
    cache_hits: int = 0
    busy_seconds: float = 0.0  # summed per-point execution time
    wall_seconds: float = 0.0

    @property
    def wall_speedup(self) -> float:
        """Summed point time over wall time — the fan-out's payoff."""
        return self.busy_seconds / self.wall_seconds if self.wall_seconds > 0 else 0.0


# Process-wide totals over every run_specs call (see counters_snapshot).
_counters = {
    "points": 0,
    "executed": 0,
    "cache_hits": 0,
    "busy_seconds": 0.0,
}
_last_stats = SweepStats()


def counters_snapshot() -> dict[str, float]:
    """Copy of the process-wide sweep counters."""
    return dict(_counters)


def last_stats() -> SweepStats:
    """Stats of the most recent :func:`run_specs` call."""
    return _last_stats


# This process's worker pool and the (jobs, pid) it was forked for.
_POOL: ProcessPoolExecutor | None = None
_POOL_KEY: tuple[int, int] | None = None
_IN_WORKER = False  # set in pool workers, whose own sweeps run inline


def _mark_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True


def _pool(jobs: int) -> ProcessPoolExecutor:
    """This process's pool of ``jobs`` fork workers, forked on first use.

    One pool serves every pooled sweep of the process.  It is replaced
    when ``jobs`` changes, when it is broken (a worker died) and in a
    forked child, whose inherited executor belongs to its parent; the
    old pool is shut down first, so a new one never forks beside a
    live one's threads.  :func:`configure` drops it, and
    ``concurrent.futures`` joins it at exit.

    Workers are forked once, so they do not see what the parent changes
    later: a point must be a pure function of its :class:`PointSpec` and
    the source, the same contract the point-cache key relies on.
    """
    global _POOL, _POOL_KEY
    key = (jobs, os.getpid())
    if _POOL is not None and (_POOL_KEY != key or getattr(_POOL, "_broken", False)):
        _drop_pool()
    if _POOL is None:
        try:
            import multiprocessing

            ctx = multiprocessing.get_context("fork")  # cheap start, shared imports
        except ValueError:  # pragma: no cover - platforms without fork
            ctx = None
        _POOL = ProcessPoolExecutor(max_workers=jobs, mp_context=ctx, initializer=_mark_worker)
        _POOL_KEY = key
    return _POOL


def _drop_pool() -> None:
    """Shut this process's pool down, or forget a parent's after a fork."""
    global _POOL, _POOL_KEY
    if _POOL is not None and _POOL_KEY[1] == os.getpid():
        _POOL.shutdown(wait=True, cancel_futures=True)
    _POOL = _POOL_KEY = None


def run_specs(
    specs: _t.Sequence[PointSpec],
    *,
    jobs: int | None = None,
    cache: PointCache | None | str = "default",
) -> list[_t.Any]:
    """Execute specs — cached, pooled or inline — and merge in order.

    The returned list is index-aligned with ``specs`` whatever mix of
    cache hits, worker results and inline runs produced it, so callers
    observe exactly the serial path's output.  Pooled points go to the
    process's one pool (:func:`_pool`) in reverse order: every study
    grid ascends in x and a point's cost grows with x, so the largest
    starts first and the sweep does not end waiting on it.  A point must
    be a pure function of its spec and the source, because a reused
    worker does not see what the parent changed after it forked; it runs
    each point in an empty ``contextvars`` context.  When
    a pooled point raises, the sweep's points not yet started are
    cancelled.  Uncacheable specs, and every spec in a pool worker, run
    inline in submission order.

    While points execute, the objects that existed before them are
    frozen out of the cyclic collector (``gc.freeze``, after one full
    collection), so the collection after each point does not re-walk
    them; the freeze is released before returning, also on error.  A
    sweep with nothing to execute, a nested sweep and a caller's own
    freeze leave the collector as they found it.
    """
    global _last_stats
    jobs = 1 if _IN_WORKER else default_jobs() if jobs is None else max(1, int(jobs))
    store = default_cache() if cache == "default" else cache
    start = perf_counter()
    stats = SweepStats(jobs=jobs, points=len(specs))

    results: list[_t.Any] = [None] * len(specs)
    keys: list[str | None] = [None] * len(specs)
    pending: list[int] = []  # indices still to execute, in order
    for i, spec in enumerate(specs):
        key = store.key_for(spec) if store is not None else None
        keys[i] = key
        if key is not None:
            hit, value = store.get(key)
            if hit:
                results[i] = value
                stats.cache_hits += 1
                continue
        pending.append(i)

    # Largest (last) point first; results still land by index.
    pooled = [i for i in reversed(pending) if jobs > 1 and specs[i].canonical_call() is not None]
    inline = [i for i in pending if i not in set(pooled)]

    # Collect before freezing, or the garbage left since the last sweep is
    # frozen too.  A nested sweep (adaptive replications inside a point)
    # sees a non-zero count and leaves the outer freeze alone.
    freeze = bool(pending) and gc.get_freeze_count() == 0
    if freeze:
        gc.collect()
        gc.freeze()
    try:
        if pooled:
            # Workers fork inside the first pooled sweep's freeze and keep it.
            pool = _pool(jobs)
            futures = {i: pool.submit(_run_pooled, specs[i]) for i in pooled}
            try:
                for i, future in futures.items():
                    results[i], busy = future.result()
                    stats.busy_seconds += busy
                    stats.executed += 1
            except BaseException:
                for future in futures.values():
                    future.cancel()  # or they would run ahead of the next sweep
                raise
        for i in inline:
            results[i], busy = _run_spec(specs[i])
            stats.busy_seconds += busy
            stats.executed += 1
    finally:
        if freeze:
            gc.unfreeze()

    if store is not None:
        for i in pending:
            if keys[i] is not None:
                store.put(keys[i], specs[i], results[i])

    stats.wall_seconds = perf_counter() - start
    _counters["points"] += stats.points
    _counters["executed"] += stats.executed
    _counters["cache_hits"] += stats.cache_hits
    _counters["busy_seconds"] += stats.busy_seconds
    _last_stats = stats
    return results
