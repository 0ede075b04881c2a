"""R-GMA service kernels: ProducerServlet, ConsumerServlet, Registry.

Op sequences mirror the former inline DES handlers exactly — see the
module docstring in :mod:`repro.core.kernels.mds` for why ordering is
load-bearing.
"""

from __future__ import annotations

import typing as _t

from repro.core.kernels.ops import (
    CLOCK,
    Call,
    Compute,
    Held,
    KernelResponse,
    KernelSpec,
    QueueDepth,
)
from repro.relational.types import encode_result

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.params import (
        ConsumerServletParams,
        ProducerServletParams,
        RegistryParams,
    )
    from repro.rgma.producer_servlet import ProducerServlet
    from repro.rgma.registry import Registry

__all__ = [
    "ProducerServletKernel",
    "ConsumerServletKernel",
    "RegistryKernel",
]


class ProducerServletKernel:
    """The ProducerServlet: SQL answers serialized on the buffer database.

    The hold grows with the number of attached producers (linear +
    quadratic mediation term) and inflates with the lock convoy past
    saturation (Figs 5, 7).
    """

    def __init__(
        self,
        servlet: "ProducerServlet",
        params: "ProducerServletParams",
        *,
        db_lock: _t.Any,
        wire: bool = False,
    ) -> None:
        self.servlet = servlet
        self.params = params
        self.db_lock = db_lock
        self.wire = wire

    def spec(self) -> KernelSpec:
        p = self.params
        return KernelSpec(
            f"ps:{self.servlet.name}",
            self.handle,
            max_threads=p.max_threads,
            backlog=p.backlog,
            conn_overhead=p.conn_overhead,
        )

    def handle(self, payload: _t.Any) -> _t.Generator:
        p, servlet = self.params, self.servlet
        yield Compute(p.cpu_per_query)
        m = servlet.producer_count
        hold = p.db_hold_linear * m + p.db_hold_quad * (m * m)
        # Convoy inflation uses the queue this request joins: read the
        # depth *before* queueing on the lock.
        depth = yield QueueDepth(self.db_lock)
        hold *= 1.0 + p.convoy_coeff * depth
        yield Held(self.db_lock, hold, p.db_cpu_fraction)
        sql = "SELECT * FROM cpuLoad"
        if isinstance(payload, dict):
            sql = payload.get("sql", sql)
        answer = servlet.answer(sql)
        return KernelResponse(
            value={"rows": len(answer.result.rows)},
            size=answer.estimated_size(),
            wire=(
                encode_result(answer.result.columns, answer.result.rows).encode()
                if self.wire
                else None
            ),
        )


class ConsumerServletKernel:
    """An R-GMA ConsumerServlet forwarding mediated queries upstream.

    Registry consultation is mediated once per distinct query and then
    cached (R-GMA's mediation plans), so the steady-state path is
    CS -> PS -> CS.  ``retry`` is an opaque runtime-owned policy making
    the CS->PS hop resilient during ProducerServlet outages.
    """

    def __init__(
        self,
        name: str,
        upstream: _t.Any,
        params: "ConsumerServletParams",
        *,
        mediation_lock: _t.Any,
        retry: _t.Any = None,
    ) -> None:
        self.name = name
        self.upstream = upstream
        self.params = params
        self.mediation_lock = mediation_lock
        self.retry = retry

    def spec(self) -> KernelSpec:
        p = self.params
        return KernelSpec(
            f"cs:{self.name}",
            self.handle,
            max_threads=p.max_threads,
            backlog=p.backlog,
        )

    def handle(self, payload: _t.Any) -> _t.Generator:
        p = self.params
        yield Compute(p.cpu_per_query)
        yield Held(self.mediation_lock, p.mediation_hold, 1.0)
        value = yield Call(self.upstream, payload, p.request_size, self.retry)
        return KernelResponse(value=value, size=1024)


class RegistryKernel:
    """The R-GMA Registry as a directory server (Experiment 2).

    Thread-per-request Java over a small worker pool: queries are
    CPU-bound, so the run queue climbs well past the other directory
    servers' — Figures 9 and 11.
    """

    def __init__(self, registry: "Registry", params: "RegistryParams") -> None:
        self.registry = registry
        self.params = params

    def spec(self) -> KernelSpec:
        p = self.params
        return KernelSpec(
            f"registry:{self.registry.name}",
            self.handle,
            max_threads=p.max_threads,
            backlog=p.backlog,
            conn_overhead=p.conn_overhead,
        )

    def handle(self, payload: _t.Any) -> _t.Generator:
        yield Compute(self.params.cpu_per_query)
        table = "cpuLoad"
        if isinstance(payload, dict):
            table = payload.get("table", table)
        now = yield CLOCK
        regs = self.registry.lookup(table, now=now)
        return KernelResponse(
            value={"producers": len(regs)}, size=max(256, 128 * len(regs))
        )
