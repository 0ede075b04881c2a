"""Hawkeye service kernels: the Agent and the Manager's three faces.

Op sequences mirror the former inline DES handlers exactly — see the
module docstring in :mod:`repro.core.kernels.mds` for why ordering is
load-bearing.
"""

from __future__ import annotations

import typing as _t

from repro.core.kernels.ops import (
    CLOCK,
    Acquire,
    Busy,
    Compute,
    Fanout,
    Held,
    KernelResponse,
    KernelSpec,
    QueueDepth,
    Release,
)

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.params import AgentParams, ManagerParams
    from repro.hawkeye.agent import Agent
    from repro.hawkeye.manager import Manager

__all__ = [
    "AgentKernel",
    "ManagerDirectoryKernel",
    "ManagerAggregateKernel",
    "ManagerIngestKernel",
    "ManagerFanoutKernel",
]


class AgentKernel:
    """The Hawkeye Agent: per-query module re-collection under the Startd lock.

    The Agent "has to retrieve new information for each query" (§3.3);
    the quadratic integration cost plus lock-convoy inflation produce
    the paper's post-threshold decline (Figs 5, 7).
    """

    def __init__(
        self, agent: "Agent", params: "AgentParams", *, startd_lock: _t.Any, wire: bool = False
    ) -> None:
        self.agent = agent
        self.params = params
        self.startd_lock = startd_lock
        self.wire = wire

    def spec(self) -> KernelSpec:
        p = self.params
        return KernelSpec(
            f"agent:{self.agent.machine}",
            self.handle,
            max_threads=p.max_threads,
            backlog=p.backlog,
            conn_overhead=p.conn_overhead,
        )

    def handle(self, payload: _t.Any) -> _t.Generator:
        p, agent = self.params, self.agent
        yield Compute(p.cpu_per_query)
        m = agent.module_count
        # Convoy degradation: the hold inflates with the queue this
        # request joins — depth must be read *before* acquiring.
        depth = yield QueueDepth(self.startd_lock)
        hold = p.fetch_quad_coeff * (m * m) * (1.0 + p.convoy_coeff * depth)
        yield Acquire(self.startd_lock)
        try:
            yield Busy(hold, p.fetch_cpu_fraction)
            now = yield CLOCK
            answer = agent.query(now=now)
        finally:
            yield Release(self.startd_lock)
        text, size = answer.ad.sized_text()
        return KernelResponse(
            value={"attrs": len(answer.ad), "modules": answer.modules_run},
            size=size,
            wire=text.encode() if self.wire else None,
        )


class ManagerDirectoryKernel:
    """The Manager in its directory role (Experiment 2): indexed lookups."""

    def __init__(self, manager: "Manager", params: "ManagerParams", *, wire: bool = False) -> None:
        self.manager = manager
        self.params = params
        self.wire = wire

    def spec(self) -> KernelSpec:
        p = self.params
        return KernelSpec(
            f"manager:{self.manager.name}:dir",
            self.handle,
            max_threads=p.max_threads,
            backlog=p.backlog,
            conn_overhead=p.conn_overhead,
        )

    def handle(self, payload: _t.Any) -> _t.Generator:
        yield Compute(self.params.cpu_per_query)
        machine = None
        if isinstance(payload, dict):
            machine = payload.get("machine")
        if machine:
            answer = self.manager.query_machine(machine)
        else:
            answer = self.manager.query('Name == "lucky4.mcs.anl.gov"')
        text, size = answer.sized_text()
        return KernelResponse(
            value={"ads": len(answer.ads)},
            size=max(size, 512),
            wire=text.encode() if self.wire else None,
        )


class ManagerAggregateKernel:
    """The Manager in its aggregate role (Experiment 4).

    Queries run the paper's worst case — "a constraint that was not met
    by any machine" — scanning every resident Startd ad under the
    collector lock (shared with the ingest kernel).
    """

    def __init__(
        self, manager: "Manager", params: "ManagerParams", *, collector_lock: _t.Any
    ) -> None:
        self.manager = manager
        self.params = params
        self.collector_lock = collector_lock

    def spec(self) -> KernelSpec:
        p = self.params
        return KernelSpec(
            f"manager:{self.manager.name}:agg",
            self.handle,
            max_threads=p.max_threads,
            backlog=p.backlog,
            conn_overhead=p.conn_overhead,
        )

    def handle(self, payload: _t.Any) -> _t.Generator:
        p = self.params
        yield Compute(p.cpu_per_query)
        pool = self.manager.pool_size
        scan_cost = p.scan_cpu_per_ad * pool
        yield Acquire(self.collector_lock)
        try:
            if scan_cost > 0:
                yield Compute(scan_cost)
            answer = self.manager.query("TARGET.CpuLoad > 50")  # matches nothing
        finally:
            yield Release(self.collector_lock)
        return KernelResponse(
            value={"ads": len(answer.ads), "scanned": answer.scanned}, size=512
        )


class ManagerIngestKernel:
    """The Manager's ad-ingestion path (hawkeye_advertise traffic)."""

    #: Condor's collector admits few concurrent updaters; these bounds
    #: are part of the calibrated model, not per-deployment knobs.
    MAX_THREADS = 16
    BACKLOG = 256

    def __init__(
        self, manager: "Manager", params: "ManagerParams", *, collector_lock: _t.Any
    ) -> None:
        self.manager = manager
        self.params = params
        self.collector_lock = collector_lock

    def spec(self) -> KernelSpec:
        return KernelSpec(
            f"manager:{self.manager.name}:ingest",
            self.handle,
            max_threads=self.MAX_THREADS,
            backlog=self.BACKLOG,
        )

    def handle(self, payload: _t.Any) -> _t.Generator:
        p = self.params
        yield Compute(p.ad_ingest_cpu)
        yield Held(self.collector_lock, p.ad_ingest_hold, 1.0)
        ad = payload["ad"]
        now = yield CLOCK
        self.manager.receive_ad(ad, now=now)
        return KernelResponse(value={"ok": True}, size=64)


class ManagerFanoutKernel:
    """An interior Manager forwarding constraint scans to child Managers.

    Each child scans its own pool concurrently; this node only merges
    the k child answers (CPU-cheap, like the directory path).
    """

    def __init__(
        self,
        children: _t.Sequence[_t.Any],
        params: "ManagerParams",
        *,
        label: str = "manager:top",
        top: bool = True,
    ) -> None:
        self.children = tuple(children)
        self.params = params
        self.label = label
        self.top = top

    def spec(self) -> KernelSpec:
        p = self.params
        return KernelSpec(
            self.label,
            self.handle,
            max_threads=p.max_threads,
            backlog=p.backlog,
            conn_overhead=p.conn_overhead if self.top else None,
        )

    def handle(self, payload: _t.Any) -> _t.Generator:
        p = self.params
        k = len(self.children)
        yield Compute(p.cpu_per_query * max(1, k))
        results = yield Fanout(self.children, payload, p.request_size)
        ads = sum(v["ads"] for ok, v in results if ok and isinstance(v, dict))
        scanned = sum(v["scanned"] for ok, v in results if ok and isinstance(v, dict))
        return KernelResponse(value={"ads": ads, "scanned": scanned}, size=512)
