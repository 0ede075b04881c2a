"""Named, reproducible random streams.

Every stochastic element of an experiment draws from its own named
stream derived from the experiment seed, so adding a new source of
randomness never perturbs existing ones — a standard reproducibility
idiom for parallel simulation.
"""

from __future__ import annotations

import numpy as np

from repro.core.stablehash import stable_hash

__all__ = ["RngHub", "stable_hash"]


class RngHub:
    """Factory of independent :class:`numpy.random.Generator` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    def stream(self, *names: str) -> np.random.Generator:
        """Generator for the stream identified by ``names``.

        The same (seed, names) pair always yields an identical stream;
        distinct names yield statistically independent streams.
        """
        return np.random.default_rng(
            np.random.SeedSequence([self.seed & 0xFFFFFFFF, stable_hash(*names)])
        )
