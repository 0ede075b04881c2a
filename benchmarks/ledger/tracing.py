"""In-memory span tracer and the timing wrappers the ledger installs.

A span is ``(name, start, end, parent, op)``: ``start``/``end`` are
``perf_counter`` seconds (CLOCK_MONOTONIC, so spans recorded in forked
pool workers line up with the parent's), ``parent`` is the id of the
span that caused it (-1 for none) and ``op`` is the identifier shared by
every span of one request or one simulated point.  Spans live in flat
arrays, indexed by id in begin order, and are only written out when the
run ends.

The "current span" is a :class:`contextvars.ContextVar`, so nesting is
right both in the synchronous DES stack and across the interleaved
asyncio tasks of the live plane.  Server-side ``LiveService.request``
spans start in the listener's task, which shares no context with the
client task that caused them; :meth:`Tracer.adopt` links them afterwards
by interval containment.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import os
import pathlib
import pickle
from array import array
from time import perf_counter

# (module, class, method, span name).  Span names are the stems of the
# per-layer metric names: ``<stem>_ms`` and ``<stem>_calls``.
METHOD_WRAPS = (
    ("repro.sim.engine", "Simulator", "run", "sim.engine.run"),
    ("repro.core.topology.adapters", "SystemAdapter", "compile", "core.topology.compile"),
    ("repro.mds.gris", "GRIS", "search", "mds.gris.search"),
    ("repro.mds.giis", "GIIS", "query", "mds.giis.query"),
    ("repro.hawkeye.agent", "Agent", "query", "hawkeye.agent.query"),
    ("repro.hawkeye.manager", "Manager", "query", "hawkeye.manager.query"),
    ("repro.hawkeye.manager", "Manager", "receive_ad", "hawkeye.manager.receive_ad"),
    ("repro.rgma.producer_servlet", "ProducerServlet", "answer", "rgma.producer_servlet.answer"),
    ("repro.rgma.registry", "Registry", "lookup", "rgma.registry.lookup"),
    ("repro.ldap.dit", "DIT", "search", "ldap.dit.search"),
    ("repro.relational.database", "Database", "query", "relational.database.query"),
    ("repro.classad.collector", "AdCollector", "query", "classad.collector.query"),
    ("repro.classad.collector", "AdCollector", "advertise", "classad.collector.advertise"),
    ("repro.core.parallel", "PointCache", "key_for", "core.parallel.key"),
    ("repro.core.parallel", "PointCache", "get", "core.parallel.get"),
    ("repro.core.parallel", "PointCache", "put", "core.parallel.put"),
)
ASYNC_WRAPS = (("repro.live.runtime", "LiveService", "request", "live.runtime.service"),)
# Module-level functions, looked up by name at call time by their callers
# (``PointSpec.resolve`` and ``reproduce_figure``), so replacing the
# module attribute is enough — in this process and in forked workers.
EXPERIMENT_MODULES = tuple(f"repro.core.experiments.exp{n}" for n in (1, 2, 3, 4))
POINT_SPAN = "core.experiments.point"
SWEEP_SPAN = "core.experiments.sweep"


class Tracer:
    """Span store plus install/remove of the timing wrappers."""

    def __init__(self, spool_dir: pathlib.Path | None = None) -> None:
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "ledger_span", default=-1
        )
        self.pid = os.getpid()
        self.spool_dir = spool_dir  # where forked workers leave their spans
        self.sweep_stats: list[dict] = []  # one SweepStats copy per sweep call
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def name_id(self, name: str) -> int:
        ix = self._name_ix.get(name)
        if ix is None:
            ix = self._name_ix[name] = len(self.names)
            self.names.append(name)
        return ix

    def begin(self, name_ix: int, op: int = -1) -> tuple[int, contextvars.Token]:
        """Open a span under the current one; pair with :meth:`finish`."""
        sid = len(self.start)
        self.name.append(name_ix)
        self.parent.append(self.current.get())
        self.op.append(op)
        self.end.append(0.0)
        token = self.current.set(sid)
        self.start.append(perf_counter())
        return sid, token

    def finish(self, sid: int, token: contextvars.Token) -> None:
        self.end[sid] = perf_counter()
        self.current.reset(token)

    def __len__(self) -> int:
        return len(self.start)

    # -- wrappers -------------------------------------------------------------

    def _sync_wrapper(self, fn, span_name: str):
        name_ix = self.name_id(span_name)
        begin, finish = self.begin, self.finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, token = begin(name_ix)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(sid, token)

        return traced

    def _async_wrapper(self, fn, span_name: str):
        name_ix = self.name_id(span_name)
        begin, finish = self.begin, self.finish

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            sid, token = begin(name_ix)
            try:
                return await fn(*args, **kwargs)
            finally:
                finish(sid, token)

        return traced

    def _point_wrapper(self, fn):
        """``expN.run_point``: one op per point; workers spool their spans."""
        name_ix = self.name_id(POINT_SPAN)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            first = len(self.start)
            sid, token = self.begin(name_ix, op=first)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(sid, token)
                if os.getpid() != self.pid:
                    self._spool(first)

        return traced

    def _sweep_wrapper(self, fn, parallel):
        """``expN.sweep``: keep the SweepStats of each call (public counters)."""
        name_ix = self.name_id(SWEEP_SPAN)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, token = self.begin(name_ix)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(sid, token)
                stats = parallel.last_stats()
                self.sweep_stats.append(
                    {
                        "span": sid,
                        "jobs": stats.jobs,
                        "points": stats.points,
                        "executed": stats.executed,
                        "cache_hits": stats.cache_hits,
                        "busy_s": stats.busy_seconds,
                        "wall_s": stats.wall_seconds,
                    }
                )

        return traced

    def install(self) -> None:
        """Replace the public methods with timing wrappers (see :meth:`remove`)."""
        for module, cls_name, method, span_name in METHOD_WRAPS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._replace(cls, method, self._sync_wrapper(cls.__dict__[method], span_name))
        for module, cls_name, method, span_name in ASYNC_WRAPS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._replace(cls, method, self._async_wrapper(cls.__dict__[method], span_name))
        parallel = importlib.import_module("repro.core.parallel")
        for module in EXPERIMENT_MODULES:
            exp = importlib.import_module(module)
            self._replace(exp, "run_point", self._point_wrapper(exp.run_point))
            self._replace(exp, "sweep", self._sweep_wrapper(exp.sweep, parallel))

    def _replace(self, owner: object, attr: str, wrapper: object) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        """Put every original back, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- spans from forked pool workers ---------------------------------------

    def _spool(self, first: int) -> None:
        """In a worker: append spans ``first..`` to this pid's file, then drop them."""
        assert self.spool_dir is not None
        columns = (self.name, self.start, self.end, self.parent, self.op)
        with open(self.spool_dir / f"spans-{os.getpid()}.pkl", "ab") as fh:
            pickle.dump((first, [col[first:] for col in columns]), fh)
        for col in columns:
            del col[first:]

    def collect_spooled(self) -> int:
        """In the parent: merge and delete the workers' span files."""
        if self.spool_dir is None:
            return 0
        merged = 0
        for path in sorted(self.spool_dir.glob("spans-*.pkl")):
            # These bytes were written by this run's own forked workers.
            with open(path, "rb") as fh:
                while True:
                    try:
                        first, cols = pickle.load(fh)
                    except EOFError:
                        break
                    shift = len(self.start) - first
                    names, starts, ends, parents, ops = cols
                    self.name.extend(names)
                    self.start.extend(starts)
                    self.end.extend(ends)
                    # Ids at or past ``first`` were the worker's own; older
                    # ones are pre-fork spans the parent holds under the same id.
                    self.parent.extend(p + shift if p >= first else p for p in parents)
                    self.op.extend(o + shift if o >= first else o for o in ops)
                    merged += len(starts)
            path.unlink()
        return merged

    # -- analysis -------------------------------------------------------------

    def adopt(self, child_name: str, parent_names: tuple[str, ...]) -> int:
        """Give parentless ``child_name`` spans the open span that contains them.

        Candidates are spans named in ``parent_names``; among several that
        contain a child the earliest-started unclaimed one wins (listeners
        accept in connect order).  Returns how many were adopted.
        """
        child_ix = self._name_ix.get(child_name)
        parent_ix = {self._name_ix[n] for n in parent_names if n in self._name_ix}
        if child_ix is None or not parent_ix:
            return 0
        name, start, end, parent = self.name, self.start, self.end, self.parent
        parents = sorted((i for i in range(len(start)) if name[i] in parent_ix), key=start.__getitem__)
        children = sorted(
            (i for i in range(len(start)) if name[i] == child_ix and parent[i] < 0),
            key=start.__getitem__,
        )
        adopted = 0
        open_spans: list[int] = []
        claimed: set[int] = set()
        nxt = 0
        for c in children:
            while nxt < len(parents) and start[parents[nxt]] <= start[c]:
                open_spans.append(parents[nxt])
                nxt += 1
            open_spans = [p for p in open_spans if end[p] >= start[c]]
            for p in open_spans:
                if p not in claimed and end[p] >= end[c]:
                    parent[c] = p
                    claimed.add(p)
                    adopted += 1
                    break
        return adopted

    def inherit_ops(self) -> None:
        """Spans without an op id take their parent's (parents precede children)."""
        op, parent = self.op, self.parent
        for i in range(len(op)):
            if op[i] < 0 and parent[i] >= 0:
                op[i] = op[parent[i]]

    def child_cover(self) -> array:
        """Per span: seconds of its interval covered by its direct children."""
        start, end, parent = self.start, self.end, self.parent
        cover = array("d", bytes(8 * len(start)))
        reach = array("d", bytes(8 * len(start)))  # right edge of children seen so far
        for i in sorted(range(len(start)), key=start.__getitem__):
            p = parent[i]
            if p < 0:
                continue
            lo = max(start[i], reach[p], start[p])
            hi = min(end[i], end[p])
            if hi > lo:
                cover[p] += hi - lo
                reach[p] = hi
        return cover

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds."""
        cover = self.child_cover()
        out = {n: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for n in self.names}
        for i in range(len(self.start)):
            row = out[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["busy_s"] += dur
            row["self_s"] += dur - cover[i]
        return out

    def durations(self, span_name: str) -> list[float]:
        ix = self._name_ix.get(span_name)
        return [
            self.end[i] - self.start[i] for i in range(len(self.start)) if self.name[i] == ix
        ]

    def coverage(self, windows: list[tuple[float, float]]) -> float:
        """Share of the (disjoint, ordered) ``windows`` covered by parentless spans."""
        spans = sorted(
            (self.start[i], self.end[i]) for i in range(len(self.start)) if self.parent[i] < 0
        )
        covered = 0.0
        for lo, hi in windows:
            reach = lo
            for s, e in spans:
                s, e = max(s, reach), min(e, hi)
                if e > s:
                    covered += e - s
                    reach = e
        total = sum(hi - lo for lo, hi in windows)
        return covered / total if total > 0 else 0.0

    def overruns(self) -> int:
        """Children whose interval sticks out of their parent's (must be 0)."""
        slack = 1e-6
        return sum(
            1
            for i in range(len(self.start))
            if self.parent[i] >= 0
            and (
                self.start[i] < self.start[self.parent[i]] - slack
                or self.end[i] > self.end[self.parent[i]] + slack
            )
        )

    def to_json(self, origin: float) -> dict:
        """The span list, times in seconds since ``origin``."""
        return {
            "names": self.names,
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [
                [self.name[i], self.start[i] - origin, self.end[i] - origin, self.parent[i], self.op[i]]
                for i in range(len(self.start))
            ],
        }
