"""Resilient GRIS→GIIS soft-state registration over simulated RPC.

The seed reproduction registers GRIS into a GIIS by direct method call
at scenario-build time; real MDS keeps registrations alive with
periodic re-registration over the wire, which is exactly the traffic a
GIIS outage disrupts.  :func:`soft_state_registrar` is that loop as a
simulation process: renew every ``interval`` seconds through a
:class:`~repro.sim.rpc.RetryPolicy`, fall back to a full re-register
when the GIIS answers "unknown name" (its lease table lost us while it
was down), and count what an outage cost.

Pairs with :class:`repro.core.kernels.mds.GiisRegistrationKernel` (the
GIIS's ``:registration`` service) on the server side.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

from repro.errors import RequestTimeoutError, ServiceUnavailableError, SimulationError

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.host import Host
    from repro.sim.network import Network
    from repro.sim.rpc import RetryPolicy, Service

__all__ = ["RegistrarStats", "soft_state_registrar"]


@dataclass
class RegistrarStats:
    """What one registrant's soft-state loop experienced."""

    renewals: int = 0  # successful in-place lease renewals
    re_registrations: int = 0  # full registers (first contact or post-outage)
    missed_cycles: int = 0  # cycles where even retries could not reach the GIIS
    registered: bool = False  # belief after the latest cycle
    last_confirmed: float = -1.0  # sim time of the last acked renew/register
    history: list[tuple[float, str]] = field(default_factory=list)

    def note(self, now: float, event: str) -> None:
        self.history.append((now, event))


def soft_state_registrar(
    sim: "Simulator",
    net: "Network",
    client_host: "Host",
    reg_service: Service,
    name: str,
    *,
    interval: float,
    ttl: float,
    retry: RetryPolicy | None = None,
    request_size: int = 256,
    stats: RegistrarStats | None = None,
    gate: _t.Callable[[], bool] | None = None,
) -> _t.Generator:
    """One GRIS keeping its GIIS registration alive; run with ``sim.spawn``.

    The classic soft-state invariant: as long as the registrar confirms
    a cycle at least once per ``ttl`` seconds, the GIIS keeps serving
    this registrant's data.  An outage longer than ``ttl`` expires the
    lease; the first successful cycle after restart re-registers.

    ``gate`` (when given) is consulted before each cycle: while it
    returns False the registrar stays silent — the node itself is down
    (scenario churn), so its lease expires server-side exactly like a
    crashed daemon's would, and the first cycle after the gate reopens
    re-registers.  A gate that always returns True changes nothing:
    no extra events, no extra RNG draws.
    """
    from repro.sim.rpc import call  # runtime-only: keeps the module sim-free at import

    if ttl <= interval:
        raise SimulationError(f"ttl ({ttl}) must exceed renew interval ({interval})")
    st = stats if stats is not None else RegistrarStats()

    def cycle() -> _t.Generator:
        answer = yield from call(
            sim,
            net,
            client_host,
            reg_service,
            {"op": "renew", "name": name, "ttl": ttl},
            size=request_size,
            retry=retry,
        )
        if isinstance(answer, dict) and answer.get("renewed"):
            st.renewals += 1
            st.note(sim.now, "renewed")
        else:
            yield from call(
                sim,
                net,
                client_host,
                reg_service,
                {"op": "register", "name": name, "ttl": ttl},
                size=request_size,
                retry=retry,
            )
            st.re_registrations += 1
            st.note(sim.now, "registered")
        st.registered = True
        st.last_confirmed = sim.now

    while True:
        if gate is not None and not gate():
            st.registered = st.last_confirmed >= 0 and sim.now - st.last_confirmed < ttl
            yield sim.timeout(interval)
            continue
        try:
            yield from cycle()
        except (ServiceUnavailableError, RequestTimeoutError):
            # Refused/timed out even after the policy's retries: the
            # lease keeps ticking down server-side.
            st.missed_cycles += 1
            st.registered = st.last_confirmed >= 0 and sim.now - st.last_confirmed < ttl
            st.note(sim.now, "missed")
        yield sim.timeout(interval)
