"""Unit tests for the parallel sweep executor and the point cache."""

from __future__ import annotations

import contextvars
import dataclasses
import gc
import json
import multiprocessing
import os
import threading
import time
import warnings
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core import parallel
from repro.core.metrics import MetricsSummary
from repro.core.params import default_params
from repro.core.parallel import (
    PointCache,
    PointSpec,
    Uncanonicalizable,
    canonical,
    decode_result,
    encode_result,
    run_specs,
)
from repro.core.runner import PointResult
from repro.sim.randomness import RngHub
from repro.sim.rpc import RetryPolicy


def make_point(
    system: str, x: int, seed: int = 1, *, scale: float = 1.0, params=None
) -> PointResult:
    """A synthetic, deterministic PointResult — no simulator involved."""
    summary = MetricsSummary(
        throughput=x * scale + 0.1,
        response_time=0.123456789012345,  # full double precision must survive
        load1=1.5,
        cpu_load=52.25,
        completed=int(x),
        refused=0,
        timeouts=0,
        errors=1,
        window=60.0,
        latency_p50=0.0123,
        latency_p95=0.0456,
    )
    return PointResult(system=system, x=float(x), summary=summary, sim_events=100 * x)


@pytest.fixture(autouse=True)
def _fresh_pool():
    """Every test forks its own workers and leaves none behind."""
    parallel.configure()
    yield
    parallel.configure()


def stateful_point(system: str, x: int, seed: int = 1, *, retry=None) -> PointResult:
    """A run_point look-alike taking an uncanonicalizable keyword."""
    if retry is not None:
        retry.stats.attempts += 1
    return make_point(system, x, seed)


# -- canonical forms ----------------------------------------------------------


def test_canonical_primitives_and_containers():
    value = {"b": [1, 2.5, "x", None, True], "a": (3,)}
    assert canonical(value) == {"a": [3], "b": [1, 2.5, "x", None, True]}


def test_canonical_frozen_dataclass_is_content_addressed():
    p1, p2 = default_params(), default_params()
    assert canonical(p1) == canonical(p2)
    p3 = dataclasses.replace(p1, gris=dataclasses.replace(p1.gris, cpu_per_query=0.009))
    assert canonical(p3) != canonical(p1)
    assert canonical(p1)["__dataclass__"] == "StudyParams"


def test_canonical_rejects_stateful_objects():
    retry = RetryPolicy(max_attempts=2, base_backoff=0.1, rng=RngHub(1).stream("t"))
    with pytest.raises(Uncanonicalizable):
        canonical(retry)
    with pytest.raises(Uncanonicalizable):
        canonical(lambda: None)


# -- codecs -------------------------------------------------------------------


def test_codec_roundtrip_is_exact():
    point = make_point("mds-gris-cache", 37)
    data = json.loads(json.dumps(encode_result(point)))
    assert decode_result(data) == point


def test_codec_roundtrip_nested_shapes():
    points = {"a": [make_point("s", 1), make_point("s", 2)], "b": None}
    data = json.loads(json.dumps(encode_result(points)))
    assert decode_result(data) == points


def test_unknown_codec_tag_degrades_to_miss(tmp_path):
    cache = PointCache(tmp_path)
    spec = PointSpec.from_call(make_point, ("s", 1))
    key = cache.key_for(spec)
    path = cache._path(key)
    path.parent.mkdir(parents=True)
    path.write_text(
        json.dumps({"schema": 1, "result": {"__type__": "NoSuchClass", "x": 1}})
    )
    hit, _value = cache.get(key)
    assert not hit


# -- specs and execution ------------------------------------------------------


def test_spec_requires_module_level_function():
    class Holder:
        def method(self):  # pragma: no cover - never called
            pass

    with pytest.raises(ValueError):
        PointSpec.from_call(Holder.method, ())


def test_run_specs_preserves_submission_order():
    specs = [PointSpec.from_call(make_point, ("s", x)) for x in (5, 1, 3)]
    serial = run_specs(specs, jobs=1, cache=None)
    pooled = run_specs(specs, jobs=2, cache=None)
    assert [p.x for p in serial] == [5.0, 1.0, 3.0]
    assert serial == pooled


def test_run_specs_stats_accounting():
    specs = [PointSpec.from_call(make_point, ("s", x)) for x in (1, 2)]
    run_specs(specs, jobs=1, cache=None)
    stats = parallel.last_stats()
    assert stats.points == 2
    assert stats.executed == 2
    assert stats.cache_hits == 0
    assert stats.wall_seconds > 0


def frozen_count_point(system: str, x: int, seed: int = 1) -> PointResult:
    """A point that reports how many objects the collector had frozen."""
    return make_point(system, gc.get_freeze_count())


def failing_point(system: str, x: int, seed: int = 1) -> PointResult:
    raise RuntimeError("point failed")


def test_run_specs_freezes_only_while_points_execute():
    gc.unfreeze()
    specs = [PointSpec.from_call(frozen_count_point, ("s", 1))]
    (inline,) = run_specs(specs, jobs=1, cache=None)
    assert inline.x > 0  # the point ran with the sweep's elders frozen
    assert gc.get_freeze_count() == 0
    for _ in range(2):  # the second sweep reuses the first one's workers
        (pooled,) = run_specs(specs, jobs=2, cache=None)
        assert pooled.x > 0  # workers fork inside the first sweep's freeze
        assert gc.get_freeze_count() == 0


def test_run_specs_releases_the_freeze_when_a_point_raises():
    gc.unfreeze()
    with pytest.raises(RuntimeError, match="point failed"):
        run_specs([PointSpec.from_call(failing_point, ("s", 1))], jobs=1, cache=None)
    assert gc.get_freeze_count() == 0


def test_run_specs_leaves_a_callers_freeze_alone():
    gc.freeze()
    try:
        held = gc.get_freeze_count()
        (point,) = run_specs(
            [PointSpec.from_call(frozen_count_point, ("s", 1))], jobs=1, cache=None
        )
        # Frozen objects may still die by reference counting, so the
        # count can only shrink: neither re-frozen nor released.
        assert 0 < gc.get_freeze_count() <= held
        assert 0 < point.x <= held
    finally:
        gc.unfreeze()


def test_all_hit_sweep_collects_nothing(tmp_path):
    cache = PointCache(tmp_path)
    specs = [PointSpec.from_call(make_point, ("s", x)) for x in (1, 2)]
    run_specs(specs, jobs=1, cache=cache)
    collections: list[dict] = []

    def observe(phase, info):
        if phase == "start":
            collections.append(info)

    gc.disable()  # only explicit collections would show
    gc.callbacks.append(observe)
    try:
        run_specs(specs, jobs=1, cache=cache)
    finally:
        gc.callbacks.remove(observe)
        gc.enable()
    assert parallel.last_stats().cache_hits == 2
    assert collections == []
    assert gc.get_freeze_count() == 0


# -- the worker pool ----------------------------------------------------------


def pid_point(system: str, x: int, seed: int = 1) -> PointResult:
    """A point that reports the process it ran in."""
    return make_point(system, os.getpid())


def exiting_point(system: str, x: int, seed: int = 1) -> PointResult:
    os._exit(3)


def marker_point(system: str, x: int, seed: int = 1, *, where: str = "") -> PointResult:
    """A slow point that leaves a file behind as soon as it starts."""
    open(os.path.join(where, str(x)), "w").close()
    time.sleep(0.2)
    return make_point(system, x)


def started_point(system: str, x: int, seed: int = 1) -> PointResult:
    """A point that reports when it started (CLOCK_MONOTONIC, same in every process)."""
    started = time.monotonic()
    time.sleep(0.05)
    return dataclasses.replace(make_point(system, x), sim_events=int(started * 1e9))


def counting_point(system: str, x: int, seed: int = 1, *, retry=None) -> PointResult:
    """An inline point that reports how many inline points ran before it."""
    retry.stats.attempts += 1
    return make_point(system, retry.stats.attempts)


def nested_point(system: str, x: int, seed: int = 1) -> PointResult:
    """A point that runs a pooled sweep of its own and reports where it ran."""
    inner = run_specs([PointSpec.from_call(pid_point, ("s", 1))] * 2, jobs=2, cache=None)
    return make_point(system, int(all(p.x == os.getpid() for p in inner)))


def pids_of(jobs: int, n: int = 4) -> set[int]:
    specs = [PointSpec.from_call(pid_point, ("s", x)) for x in range(n)]
    return {int(p.x) for p in run_specs(specs, jobs=jobs, cache=None)}


def test_pooled_sweeps_share_one_set_of_workers():
    first = pids_of(2)
    second = pids_of(2)
    workers = {child.pid for child in multiprocessing.active_children()}
    assert len(workers) == 2 and os.getpid() not in workers
    assert first | second <= workers


def test_a_dead_worker_fails_its_sweep_and_the_next_gets_a_fresh_pool():
    before = pids_of(2)
    with pytest.raises(BrokenProcessPool):
        run_specs([PointSpec.from_call(exiting_point, ("s", 1))], jobs=2, cache=None)
    after = pids_of(2)
    assert after and not after & before


# Python threads alive at each fork of this process.  Python 3.12+ warns
# on a fork beside other threads, but it counts OS threads, and numpy's
# BLAS threads alone trip it; the Python threads are the pools' own.
_threads_at_fork: list[int] = []
os.register_at_fork(before=lambda: _threads_at_fork.append(threading.active_count()))


def test_changing_jobs_shuts_the_old_pool_down_before_forking():
    alone = threading.active_count()
    old = pids_of(2)
    assert threading.active_count() > alone  # the pool's own threads
    del _threads_at_fork[:]
    new = pids_of(3, n=6)
    assert _threads_at_fork == [alone] * 3
    workers = {child.pid for child in multiprocessing.active_children()}
    assert len(workers) == 3 and new <= workers and not old & workers


def test_a_failing_sweep_cancels_its_unstarted_points(tmp_path):
    specs = [
        PointSpec.from_call(marker_point, ("s", x), {"where": str(tmp_path)}) for x in range(12)
    ]
    # Submitted last-first, so the failing point goes out first.
    specs.append(PointSpec.from_call(failing_point, ("s", 1)))
    with pytest.raises(RuntimeError, match="point failed"):
        run_specs(specs, jobs=2, cache=None)
    pids_of(2, n=1)  # queued behind whatever the failed sweep had started
    assert len(list(tmp_path.iterdir())) < 12


def test_a_forked_child_never_reuses_the_parents_pool():
    parents = pids_of(2)
    reader, writer = multiprocessing.Pipe(duplex=False)

    def child() -> None:
        writer.send((pids_of(2), parallel._POOL_KEY, os.getpid()))
        parallel.configure()

    process = multiprocessing.get_context("fork").Process(target=child)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # forking beside the pool's thread
        process.start()
    try:
        assert reader.poll(60), "the child's sweep never finished"
        workers, key, pid = reader.recv()
    finally:
        process.join(timeout=10)
        process.kill()
    assert process.exitcode == 0
    assert key == (2, pid)
    assert workers and not workers & parents and pid not in workers
    assert pids_of(2) <= parents  # the parent's pool is still its own


_sweep_tag: contextvars.ContextVar[int] = contextvars.ContextVar("sweep_tag", default=0)


def tag_point(system: str, x: int, seed: int = 1) -> PointResult:
    return make_point(system, _sweep_tag.get())


def test_pooled_points_run_in_an_empty_context():
    spec = PointSpec.from_call(tag_point, ("s", 1))
    token = _sweep_tag.set(7)  # set while the first sweep forks the workers
    try:
        (first,) = run_specs([spec], jobs=2, cache=None)
    finally:
        _sweep_tag.reset(token)
    (second,) = run_specs([spec], jobs=2, cache=None)
    (inline,) = run_specs([spec], jobs=1, cache=None)
    assert first.x == second.x == inline.x == 0


def test_a_sweep_inside_a_worker_runs_inline():
    (point,) = run_specs([PointSpec.from_call(nested_point, ("s", 1))], jobs=2, cache=None)
    assert point.x == 1


def test_pooled_points_start_largest_first_and_merge_by_index():
    xs = range(1, 7)
    specs = [PointSpec.from_call(started_point, ("s", x)) for x in xs]
    started = run_specs(specs, jobs=2, cache=None)
    assert [p.x for p in started] == list(map(float, xs))
    assert started[-1].sim_events < started[0].sim_events

    specs = [PointSpec.from_call(make_point, ("s", x)) for x in xs]
    fifo = run_specs(specs, jobs=1, cache=None)
    fifo_stats = parallel.last_stats()
    pooled = run_specs(specs, jobs=2, cache=None)
    stats = parallel.last_stats()
    assert pooled == fifo
    assert (stats.points, stats.executed, stats.cache_hits) == (
        fifo_stats.points, fifo_stats.executed, fifo_stats.cache_hits
    )


def test_inline_specs_run_in_submission_order_beside_pooled_ones():
    retry = RetryPolicy(max_attempts=2, base_backoff=0.1, rng=RngHub(1).stream("t"))
    specs = []
    for x in (7, 8, 9):
        specs.append(PointSpec.from_call(counting_point, ("s", x), {"retry": retry}))
        specs.append(PointSpec.from_call(make_point, ("s", x)))
    results = run_specs(specs, jobs=2, cache=None)
    assert [p.x for p in results] == [1.0, 7.0, 2.0, 8.0, 3.0, 9.0]


# -- the cache ----------------------------------------------------------------


def test_cache_second_run_is_all_hits(tmp_path):
    cache = PointCache(tmp_path)
    specs = [PointSpec.from_call(make_point, ("s", x)) for x in (1, 2, 3)]
    first = run_specs(specs, jobs=1, cache=cache)
    assert parallel.last_stats().executed == 3
    second = run_specs(specs, jobs=1, cache=cache)
    stats = parallel.last_stats()
    assert stats.executed == 0
    assert stats.cache_hits == 3
    assert first == second


def test_cache_key_covers_arguments(tmp_path):
    cache = PointCache(tmp_path)
    base = PointSpec.from_call(make_point, ("s", 1), {"scale": 1.0})
    assert cache.key_for(base) != cache.key_for(PointSpec.from_call(make_point, ("s", 2)))
    assert cache.key_for(base) != cache.key_for(
        PointSpec.from_call(make_point, ("s", 1), {"scale": 2.0})
    )
    assert cache.key_for(base) == cache.key_for(
        PointSpec.from_call(make_point, ("s", 1), {"scale": 1.0})
    )


def test_params_change_invalidates_cached_point(tmp_path):
    """A StudyParams edit changes the content-addressed key."""
    cache = PointCache(tmp_path)
    p = default_params()
    changed = dataclasses.replace(p, gris=dataclasses.replace(p.gris, cpu_per_query=0.5))
    k_default = cache.key_for(PointSpec.from_call(make_point, ("s", 1), {"params": p}))
    k_changed = cache.key_for(
        PointSpec.from_call(make_point, ("s", 1), {"params": changed})
    )
    assert k_default is not None and k_changed is not None
    assert k_default != k_changed


def test_source_stamp_invalidates(tmp_path, monkeypatch):
    cache = PointCache(tmp_path)
    spec = PointSpec.from_call(make_point, ("s", 1))
    key_now = cache.key_for(spec)
    monkeypatch.setattr(parallel, "_SOURCE_STAMP", "deadbeef")
    assert cache.key_for(spec) != key_now


def test_uncacheable_spec_runs_inline_and_skips_cache(tmp_path):
    cache = PointCache(tmp_path)
    retry = RetryPolicy(max_attempts=2, base_backoff=0.1, rng=RngHub(1).stream("t"))
    spec = PointSpec.from_call(stateful_point, ("s", 1), {"retry": retry})
    assert spec.canonical_call() is None
    results = run_specs([spec], jobs=4, cache=cache)
    assert results[0] == make_point("s", 1)
    # Ran inline in this process: the shared retry object mutated here.
    assert retry.stats.attempts == 1
    assert list(tmp_path.rglob("*.json")) == []


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cache = PointCache(tmp_path)
    spec = PointSpec.from_call(make_point, ("s", 9))
    run_specs([spec], jobs=1, cache=cache)
    (entry,) = tmp_path.rglob("*.json")
    entry.write_text("{not json")
    results = run_specs([spec], jobs=1, cache=cache)
    assert parallel.last_stats().executed == 1
    assert results[0] == make_point("s", 9)


# -- configuration ------------------------------------------------------------


def test_default_jobs_from_env(monkeypatch):
    monkeypatch.setattr(parallel, "_DEFAULT_JOBS", None)
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert parallel.default_jobs() == 3
    monkeypatch.setenv("REPRO_JOBS", "bogus")
    assert parallel.default_jobs() == 1


def test_default_cache_from_env(monkeypatch, tmp_path):
    monkeypatch.setattr(parallel, "_CACHE_CONFIGURED", False)
    monkeypatch.setenv("REPRO_POINTCACHE", str(tmp_path / "pc"))
    store = parallel.default_cache()
    assert store is not None and store.root == tmp_path / "pc"
    monkeypatch.delenv("REPRO_POINTCACHE")
    assert parallel.default_cache() is None


def test_configure_overrides_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_JOBS", "7")
    monkeypatch.setattr(parallel, "_DEFAULT_JOBS", None)
    parallel.configure(jobs=2)
    try:
        assert parallel.default_jobs() == 2
    finally:
        parallel._DEFAULT_JOBS = None
    monkeypatch.setattr(parallel, "_CACHE_CONFIGURED", False)
    monkeypatch.setattr(parallel, "_DEFAULT_CACHE", None)
    parallel.configure(cache_dir=str(tmp_path))
    try:
        store = parallel.default_cache()
        assert store is not None and store.root == tmp_path
        parallel.configure(cache_dir="")
        assert parallel.default_cache() is None
    finally:
        parallel._CACHE_CONFIGURED = False
        parallel._DEFAULT_CACHE = None
