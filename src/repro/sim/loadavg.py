"""Unix-style exponentially damped one-minute load average.

The paper's ``load1`` metric is Ganglia's ``load_one``: the kernel's
one-minute load average, i.e. the run-queue length passed through an
exponential moving average with a 60-second time constant, updated every
5 seconds.  We reproduce that calculation exactly so simulated hosts
report the same statistic.
"""

from __future__ import annotations

import math

__all__ = ["LoadAverage"]

# exp(-dt/60) memoized by dt: the Ganglia monitor samples every host on
# a fixed tick, so in steady state every call hits the cache instead of
# paying a math.exp() per host per tick.  Values are bit-identical to
# recomputation (same expression, computed once).
_DECAY_CACHE: dict[float, float] = {}


class LoadAverage:
    """The one-minute damped average of a sampled quantity."""

    def __init__(self) -> None:
        self._load1 = 0.0

    @property
    def load1(self) -> float:
        """One-minute load average (the paper's ``load1``)."""
        return self._load1

    def sample(self, runnable: float, dt: float) -> None:
        """Fold one observation of the run-queue length into the average.

        ``dt`` is the time since the previous sample (the kernel uses a
        fixed 5 s tick; our Ganglia monitor does too, but the math is
        exact for any spacing).
        """
        if dt <= 0:
            return
        decay = _DECAY_CACHE.get(dt)
        if decay is None:
            decay = math.exp(-dt / 60.0)
            if len(_DECAY_CACHE) < 4096:  # bound growth under adversarial dt spreads
                _DECAY_CACHE[dt] = decay
        self._load1 = self._load1 * decay + runnable * (1.0 - decay)
