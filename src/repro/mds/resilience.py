"""Resilient GRIS→GIIS soft-state registration, written once as kernel ops.

The seed reproduction registers GRIS into a GIIS by direct method call
at scenario-build time; real MDS keeps registrations alive with
periodic re-registration over the wire, which is exactly the traffic a
GIIS outage disrupts.  :func:`soft_state_registrar` is that loop as an
op generator (:mod:`repro.core.kernels.ops`): renew every ``interval``
seconds through the ``Call``'s retry policy, fall back to a full
re-register when the GIIS answers "unknown name" (its lease table lost
us while it was down), and count what an outage cost.  Both runtimes
host it: :func:`repro.core.kernels.build.activate_plan` yields it for
every soft-state registration edge.

Pairs with :class:`repro.core.kernels.mds.GiisRegistrationKernel` (the
GIIS's ``:registration`` service) on the server side.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass, field

from repro.core.kernels.ops import CLOCK, Busy, Call
from repro.errors import RequestTimeoutError, ServiceUnavailableError, SimulationError

__all__ = ["RegistrarStats", "soft_state_registrar"]


@dataclass
class RegistrarStats:
    """What one registrant's soft-state loop experienced."""

    renewals: int = 0  # successful in-place lease renewals
    re_registrations: int = 0  # full registers (first contact or post-outage)
    missed_cycles: int = 0  # cycles where even retries could not reach the GIIS
    registered: bool = False  # belief after the latest cycle
    last_confirmed: float = -1.0  # model time of the last acked renew/register
    history: list[tuple[float, str]] = field(default_factory=list)

    def note(self, now: float, event: str) -> None:
        self.history.append((now, event))

    def lapse(self, now: float, ttl: float) -> None:
        """Believe registered only while the last confirmation is within ``ttl``."""
        self.registered = self.last_confirmed >= 0 and now - self.last_confirmed < ttl


def soft_state_registrar(
    reg_service: _t.Any,
    name: str,
    *,
    interval: float,
    ttl: float,
    retry: _t.Any = None,
    request_size: int = 256,
    stats: RegistrarStats | None = None,
    gate: _t.Callable[[], bool] | None = None,
) -> _t.Generator:
    """One GRIS keeping its GIIS registration alive, as kernel ops.

    ``reg_service`` is the runtime's call target for the GIIS's
    ``:registration`` door; ``retry`` rides every ``Call`` (``None``:
    one attempt per cycle).

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
    if ttl <= interval:
        raise SimulationError(f"ttl ({ttl}) must exceed renew interval ({interval})")
    st = stats if stats is not None else RegistrarStats()
    renew = {"op": "renew", "name": name, "ttl": ttl}
    register = {"op": "register", "name": name, "ttl": ttl}
    while True:
        if gate is not None and not gate():
            now = yield CLOCK
            st.lapse(now, ttl)
        else:
            try:
                answer = yield Call(reg_service, renew, request_size, retry)
                if isinstance(answer, dict) and answer.get("renewed"):
                    st.renewals += 1
                    event = "renewed"
                else:
                    yield Call(reg_service, register, request_size, retry)
                    st.re_registrations += 1
                    event = "registered"
                now = yield CLOCK
                st.note(now, event)
                st.registered = True
                st.last_confirmed = now
            except (ServiceUnavailableError, RequestTimeoutError):
                # Refused/timed out even after the policy's retries: the
                # lease keeps ticking down server-side.
                now = yield CLOCK
                st.missed_cycles += 1
                st.lapse(now, ttl)
                st.note(now, "missed")
        yield Busy(interval, 0.0)
