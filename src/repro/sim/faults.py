"""Per-request fault injectors for simulated services.

The paper measures saturation but never outright failure — yet its
successor deployment reports (R-GMA's "first results after deployment")
found registry/servlet *crashes* dominating early operational
experience.  A scenario's :class:`~repro.core.scenario.model.FaultModel`
supplies that regime; crash/restart outages are
:meth:`~repro.sim.rpc.Service.fail`/:meth:`~repro.sim.rpc.Service.restore`
windows (:func:`repro.core.scenario.apply.apply_scenario`), and this
module holds the per-request half :mod:`repro.sim.rpc` consults: a
:class:`FaultInjector` attached as ``service.faults``, which resets a
fraction of arriving requests (a flaky NAT, a dying servlet thread) and
stalls a fraction of admitted ones for a fixed extra dwell while
*holding a handler thread*, modelling the provider/cache-miss stalls
MDS deployments reported.

All randomness is drawn from generators handed in by the caller
(:class:`~repro.sim.randomness.RngHub` streams), so injected faults are
exactly reproducible from the experiment seed.
"""

from __future__ import annotations

import typing as _t

import numpy as np

from repro.errors import SimulationError

__all__ = ["FaultInjector"]


class FaultInjector:
    """Per-request drops and stalls for one or more services.

    ``drop`` is the probability an arriving request is reset; ``stall``
    the probability an admitted request stalls ``stall_seconds`` extra
    seconds.  ``streams(name)`` supplies the generator for the
    ``"drop"`` and ``"stall"`` streams; each is created, and drawn from,
    only when its probability is positive.
    """

    def __init__(
        self,
        streams: _t.Callable[[str], np.random.Generator],
        drop: float = 0.0,
        stall: float = 0.0,
        stall_seconds: float = 0.0,
    ) -> None:
        if not 0.0 <= drop <= 1.0:
            raise SimulationError(f"drop probability out of range: {drop}")
        if not 0.0 <= stall <= 1.0:
            raise SimulationError(f"stall probability out of range: {stall}")
        if stall_seconds < 0:
            raise SimulationError(f"stall must be non-negative: {stall_seconds}")
        self.drop = drop
        self.stall = stall
        self.stall_seconds = stall_seconds
        self._drop_rng = streams("drop") if drop > 0 else None
        self._stall_rng = streams("stall") if stall > 0 else None

    def drop_request(self) -> bool:
        """Whether to reset this arriving request (one draw when drops are on)."""
        return self._drop_rng is not None and bool(self._drop_rng.random() < self.drop)

    def stall_delay(self) -> float:
        """Extra seconds this admitted request holds its handler thread."""
        if self._stall_rng is not None and self._stall_rng.random() < self.stall:
            return self.stall_seconds
        return 0.0
