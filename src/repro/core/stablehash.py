"""A hash that names random streams the same way in every process.

``hash(str)`` changes with ``PYTHONHASHSEED``; anything that seeds a
random stream from a name (the DES :class:`~repro.sim.randomness.RngHub`,
the live plane's synthetic advertisers) must use this instead, or the
same plan publishes different data from one run to the next.  Lives
outside :mod:`repro.sim` because the live plane imports without it.
"""

from __future__ import annotations

import zlib

__all__ = ["stable_hash"]


def stable_hash(*parts: str) -> int:
    """A process-independent 32-bit hash of the given name parts."""
    return zlib.crc32("\x1f".join(parts).encode("utf-8"))
