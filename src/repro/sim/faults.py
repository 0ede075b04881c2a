"""Per-request fault injectors for simulated services.

The paper measures saturation but never outright failure — yet its
successor deployment reports (R-GMA's "first results after deployment")
found registry/servlet *crashes* dominating early operational
experience.  A scenario's :class:`~repro.core.scenario.model.FaultModel`
supplies that regime; crash/restart outages are
:meth:`~repro.sim.rpc.Service.fail`/:meth:`~repro.sim.rpc.Service.restore`
windows (:func:`repro.core.scenario.apply.apply_scenario`), and this
module holds the per-request half :mod:`repro.sim.rpc` consults:

* :class:`DropInjector` — transient connection drops (a fraction of
  arriving requests see an immediate connection reset);
* :class:`StallInjector` — a fraction of admitted requests stall for a
  fixed extra dwell while *holding a handler thread*, modelling the
  provider/cache-miss stalls MDS deployments reported;
* :class:`FaultInjector` — the pair, attached as ``service.faults``.

All randomness is drawn from generators handed in by the caller
(:class:`~repro.sim.randomness.RngHub` streams), so injected faults are
exactly reproducible from the experiment seed.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError

__all__ = ["DropInjector", "StallInjector", "FaultInjector"]


class DropInjector:
    """Transient connection drops: each arriving request is reset with
    probability ``probability`` (a flaky NAT, a dying servlet thread)."""

    def __init__(self, probability: float, rng: np.random.Generator) -> None:
        if not 0.0 <= probability <= 1.0:
            raise SimulationError(f"drop probability out of range: {probability}")
        self.probability = probability
        self.rng = rng
        self.dropped = 0
        self.passed = 0

    def should_drop(self) -> bool:
        drop = bool(self.rng.random() < self.probability)
        if drop:
            self.dropped += 1
        else:
            self.passed += 1
        return drop


class StallInjector:
    """Server-side stalls: each admitted request stalls ``stall`` extra
    seconds with probability ``probability``, holding its handler thread
    the whole time (an information provider hanging under the lock)."""

    def __init__(
        self, probability: float, stall: float, rng: np.random.Generator
    ) -> None:
        if not 0.0 <= probability <= 1.0:
            raise SimulationError(f"stall probability out of range: {probability}")
        if stall < 0:
            raise SimulationError(f"stall must be non-negative: {stall}")
        self.probability = probability
        self.stall = stall
        self.rng = rng
        self.stalled = 0

    def sample(self) -> float:
        if self.probability and self.rng.random() < self.probability:
            self.stalled += 1
            return self.stall
        return 0.0


class FaultInjector:
    """The per-service hook :mod:`repro.sim.rpc` consults, attached as
    ``service.faults``."""

    def __init__(
        self,
        drop: DropInjector | None = None,
        stall: StallInjector | None = None,
    ) -> None:
        self.drop = drop
        self.stall = stall

    def drop_request(self) -> bool:
        return self.drop.should_drop() if self.drop is not None else False

    def stall_delay(self) -> float:
        return self.stall.sample() if self.stall is not None else 0.0
