"""Resilient Hawkeye Agent→Manager advertisement, written once as kernel ops.

The seed's advertiser (``repro.core.experiments.common``) injects ads
into the Manager by direct callback; a Manager outage is invisible to
it.  :func:`resilient_advertiser` is the honest version: each cycle
pushes the Startd ad through the Manager's ingest *service* with the
``Call``'s retry policy, so a collector restart shows up as missed ads,
stale pool state, and a measurable catch-up burst.  Both runtimes host
it: :func:`repro.core.kernels.build.activate_plan` yields it for every
``mode="resilient"`` registration edge.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

from repro.core.kernels.ops import CLOCK, Busy, Call
from repro.errors import RequestTimeoutError, ServiceUnavailableError
from repro.hawkeye.agent import Agent

__all__ = ["AdvertiserStats", "resilient_advertiser"]


@dataclass
class AdvertiserStats:
    """Delivery accounting for one advertising Agent."""

    delivered: int = 0
    missed: int = 0  # cycles lost even after the policy's retries
    last_delivered: float = -1.0  # model time of the last acked ad
    max_gap: float = 0.0  # widest interval the Manager went without an ad

    def staleness(self, now: float) -> float:
        """How old the Manager's view of this Agent is at ``now``."""
        return now - self.last_delivered if self.last_delivered >= 0 else now


def resilient_advertiser(
    ingest_service: _t.Any,
    agent: Agent,
    *,
    interval: float = 30.0,
    ad_size: int = 15_000,
    retry: _t.Any = None,
    stats: AdvertiserStats | None = None,
) -> _t.Generator:
    """One Agent pushing Startd ads every ``interval``, as kernel ops.

    ``ingest_service`` is the runtime's call target for the Manager's
    ``:ingest`` door; ``retry`` rides every ``Call`` (``None``: one
    attempt per cycle).  A cycle that fails after all retries is
    *dropped*, not queued — like ``hawkeye_advertise``, the next cycle
    sends a fresher ad instead, so an outage costs staleness rather
    than a backlog flood on restart.
    """
    st = stats if stats is not None else AdvertiserStats()
    while True:
        yield Busy(interval, 0.0)
        now = yield CLOCK
        ad, _answer = agent.make_startd_ad(now=now)
        try:
            yield Call(ingest_service, {"ad": ad}, ad_size, retry)
        except (ServiceUnavailableError, RequestTimeoutError):
            st.missed += 1
            continue
        now = yield CLOCK
        st.delivered += 1
        st.max_gap = max(st.max_gap, st.staleness(now))
        st.last_delivered = now
