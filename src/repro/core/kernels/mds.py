"""MDS2 service kernels: GRIS and GIIS in every Table-1 role.

Each kernel reproduces, op for op, the handler the DES services used to
inline — the byte-identity of the figures depends on the *sequence* of runtime effects staying exactly as
it was (same computes, same lock order, same clock reads relative to
time-advancing ops).  Comments mark the spots where ordering is load-
bearing.
"""

from __future__ import annotations

import typing as _t

from repro.core.kernels.ops import (
    CLOCK,
    Acquire,
    Busy,
    Compute,
    CrashSelf,
    Fanout,
    Held,
    KernelResponse,
    KernelSpec,
    Release,
)
from repro.errors import RegistryError

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.core.params import GiisParams, GrisParams
    from repro.mds.giis import GIIS
    from repro.mds.gris import GRIS

__all__ = [
    "GrisKernel",
    "GiisDirectoryKernel",
    "GiisAggregateKernel",
    "GiisRegistrationKernel",
    "GiisLeafKernel",
    "GiisFanoutKernel",
]


def _stale_count(gris: "GRIS", now: float) -> int:
    """How many providers a search at ``now`` would re-run (no side effects)."""
    return gris.cache.stale_count(now, (provider.name for provider in gris.providers))


class GrisKernel:
    """The GRIS: TTL-cached providers behind a serialized slapd worker."""

    def __init__(
        self,
        gris: "GRIS",
        params: "GrisParams",
        *,
        providers_lock: _t.Any,
        wire: bool = False,
    ) -> None:
        self.gris = gris
        self.params = params
        self.providers_lock = providers_lock
        self.wire = wire

    def spec(self) -> KernelSpec:
        p = self.params
        return KernelSpec(
            f"gris:{self.gris.hostname}",
            self.handle,
            max_threads=p.max_threads,
            backlog=p.backlog,
            conn_overhead=p.conn_overhead,
        )

    def handle(self, payload: _t.Any) -> _t.Generator:
        p, gris = self.params, self.gris
        yield Compute(p.cpu_per_query)
        now = yield CLOCK
        if _stale_count(gris, now):
            yield Acquire(self.providers_lock)
            try:
                now = yield CLOCK
                stale = _stale_count(gris, now)  # recheck after queueing
                if stale:
                    yield Busy(stale * p.provider_hold, p.provider_cpu_fraction)
                    now = yield CLOCK
                result = gris.search(now=now)
            finally:
                yield Release(self.providers_lock)
        else:
            result = gris.search(now=now)
        yield Compute(len(result.entries) * p.cpu_per_entry)
        return KernelResponse(
            value={"entries": len(result.entries), "fetched": result.fetched},
            size=result.estimated_size(),
            wire=result.wire() if self.wire else None,
        )


class GiisDirectoryKernel:
    """The GIIS in its directory-server role: warm cache, pure backend CPU."""

    def __init__(self, giis: "GIIS", params: "GiisParams", *, wire: bool = False) -> None:
        self.giis = giis
        self.params = params
        self.wire = wire

    def spec(self) -> KernelSpec:
        p = self.params
        return KernelSpec(
            f"giis:{self.giis.name}",
            self.handle,
            max_threads=p.max_threads,
            backlog=p.backlog,
            conn_overhead=p.conn_overhead,
        )

    def handle(self, payload: _t.Any) -> _t.Generator:
        yield Compute(self.params.cpu_per_query)
        now = yield CLOCK
        result = self.giis.query(now=now)
        return KernelResponse(
            value={"entries": len(result.entries)},
            size=result.estimated_size(),
            wire=result.wire() if self.wire else None,
        )


class GiisAggregateKernel:
    """The GIIS in its aggregate role: superlinear serialized assembly.

    ``query_part`` asks for a fixed-size registrant subset (the paper's
    second query type); query-all past the registrant limit crashes the
    server, as observed in §3.6.
    """

    def __init__(
        self,
        giis: "GIIS",
        params: "GiisParams",
        *,
        assembly_lock: _t.Any,
        query_part: bool = False,
        part_size: int = 10,
        wire: bool = False,
    ) -> None:
        self.giis = giis
        self.params = params
        self.assembly_lock = assembly_lock
        self.query_part = query_part
        self.part_size = part_size
        self.wire = wire

    def spec(self) -> KernelSpec:
        p = self.params
        suffix = "part" if self.query_part else "all"
        return KernelSpec(
            f"giis:{self.giis.name}:{suffix}",
            self.handle,
            max_threads=p.max_threads,
            backlog=p.backlog,
            conn_overhead=p.conn_overhead,
        )

    def handle(self, payload: _t.Any) -> _t.Generator:
        p, giis = self.params, self.giis
        g = giis.registrant_count
        if not self.query_part and p.max_queryall_registrants and g > p.max_queryall_registrants:
            giis.crashed = True
            yield CrashSelf(
                f"query-all over {g} registrants",
                f"GIIS {giis.name} crashed answering query-all over {g} registrants",
            )
        scale = p.part_fraction if self.query_part else 1.0
        cost = scale * p.aggregate_cpu_coeff * (g ** p.aggregate_cpu_exp)
        yield Held(self.assembly_lock, cost, 0.85)
        now = yield CLOCK
        if self.query_part:
            names = [reg.name for reg in giis.registrations.alive(now)][: self.part_size]
            result = giis.query(now=now, subset=names)
        else:
            result = giis.query(now=now)
        size = max(result.estimated_size(), len(result.entries) * p.entry_wire_bytes)
        return KernelResponse(
            value={"entries": len(result.entries)},
            size=size,
            wire=result.wire() if self.wire else None,
        )


class GiisRegistrationKernel:
    """The GIIS's soft-state registration endpoint.

    Accepts ``{"op": "register"|"renew", "name": ..., "ttl": ...}``; a
    renew of an expired/unknown name answers ``{"renewed": False}`` so
    the client falls back to a full re-register.  ``pullers`` maps
    registrant names to their pull callbacks (the wire carries names;
    the in-process GIIS needs the callable).
    """

    def __init__(
        self,
        giis: "GIIS",
        params: "GiisParams",
        pullers: _t.Mapping[str, _t.Callable[[float], tuple[list, float]]],
    ) -> None:
        self.giis = giis
        self.params = params
        self.pullers = pullers

    def spec(self) -> KernelSpec:
        p = self.params
        return KernelSpec(
            f"giis:{self.giis.name}:reg",
            self.handle,
            max_threads=p.max_threads,
            backlog=p.backlog,
        )

    def handle(self, payload: _t.Any) -> _t.Generator:
        yield Compute(self.params.cpu_per_query)
        payload = payload if isinstance(payload, dict) else {}
        op = payload.get("op", "renew")
        name = payload.get("name", "")
        ttl = float(payload.get("ttl", 600.0))
        now = yield CLOCK
        if op == "register":
            puller = self.pullers.get(name)
            if puller is None:
                raise RegistryError(f"no puller known for registrant {name!r}")
            self.giis.register(name, puller, now=now, ttl=ttl)
            return KernelResponse(value={"registered": True}, size=128)
        renewed = self.giis.renew(name, now=now)
        return KernelResponse(value={"renewed": renewed}, size=96)


class GiisLeafKernel:
    """A mid-/leaf-level GIIS inside a hierarchy (§3.6's suggested fix).

    Answers from its own primed cache with pure CPU assembly cost — the
    serialized-backend bottleneck belongs to the node users hit.
    """

    def __init__(self, giis: "GIIS", params: "GiisParams", *, wire: bool = False) -> None:
        self.giis = giis
        self.params = params
        self.wire = wire

    def spec(self) -> KernelSpec:
        p = self.params
        return KernelSpec(
            f"giis:{self.giis.name}",
            self.handle,
            max_threads=p.max_threads,
            backlog=p.backlog,
        )

    def handle(self, payload: _t.Any) -> _t.Generator:
        p, giis = self.params, self.giis
        cost = p.aggregate_cpu_coeff * (giis.registrant_count ** p.aggregate_cpu_exp)
        yield Compute(cost)
        now = yield CLOCK
        result = giis.query(now=now)
        size = max(result.estimated_size(), len(result.entries) * p.entry_wire_bytes)
        return KernelResponse(
            value={"entries": len(result.entries), "size": size},
            size=size,
            wire=result.wire() if self.wire else None,
        )


class GiisFanoutKernel:
    """An interior GIIS aggregating child GIIS services concurrently.

    The node's own assembly cost covers only its direct children; the
    heavy per-registrant work happens in parallel at the children.
    ``top`` adds client connection overhead (only the root faces users).
    """

    def __init__(
        self,
        children: _t.Sequence[_t.Any],
        params: "GiisParams",
        *,
        label: str = "giis:top",
        top: bool = True,
    ) -> None:
        self.children = tuple(children)
        self.params = params
        self.label = label
        self.top = top
        k = len(self.children)
        self.cost = params.aggregate_cpu_coeff * (k ** params.aggregate_cpu_exp)

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
        yield Compute(self.cost)
        results = yield Fanout(self.children, payload, 512)
        entries = sum(v["entries"] for ok, v in results if ok and isinstance(v, dict))
        size = sum(v["size"] for ok, v in results if ok and isinstance(v, dict))
        return KernelResponse(
            value={"entries": entries, "size": max(size, 512)}, size=max(size, 512)
        )
