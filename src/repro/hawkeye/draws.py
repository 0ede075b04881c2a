"""Bit-exact batched draws from a numpy PCG64 ``Generator``.

A :class:`DrawPlan` fixes a sequence of ``rng.integers(lo, hi)`` and
``rng.uniform(lo, hi)`` calls up front and makes them all from one
``bit_generator.random_raw`` batch.  The values, their order and the
generator's state afterwards are exactly those of the scalar calls,
because numpy's own algorithms are reproduced here:

* ``uniform``: ``lo + (hi - lo) * ((w >> 11) * 2**-53)`` on one 64-bit word.
* ``integers`` with ``hi - lo <= 2**32``: Lemire's bounded method on 32-bit
  halves.  PCG64 hands out the low half of a word and keeps the upper half
  for the next 32-bit request, *across* calls; that buffer is read from
  ``bit_generator.state`` on entry and written back on exit.

The batch is the exact word count when no Lemire draw is rejected.  A
rejection (about one draw in a million for the ranges used here) pulls
one more word, so the generator is never over-drawn.
"""

from __future__ import annotations

import typing as _t

import numpy as np

__all__ = ["Integers", "Uniform", "DrawPlan"]

_MASK32 = 0xFFFFFFFF
_UNIT = 2.0**-53  # numpy's next_double: (w >> 11) * (1.0 / 9007199254740992.0)
_UNIFORM, _INTEGERS = 0, 1


class Integers(_t.NamedTuple):
    """``int(rng.integers(lo, hi))``: ``lo <= x < hi``."""

    lo: int
    hi: int


class Uniform(_t.NamedTuple):
    """``float(rng.uniform(lo, hi))``, then ``round(x, digits)`` unless ``digits`` is None."""

    lo: float
    hi: float
    digits: int | None = None


class DrawPlan:
    """A fixed sequence of :class:`Integers`/:class:`Uniform` draws."""

    def __init__(self, specs: _t.Iterable[Integers | Uniform]) -> None:
        ops = []
        halves = uniforms = 0
        for spec in specs:
            if isinstance(spec, Uniform):
                lo, hi = float(spec.lo), float(spec.hi)
                ops.append((_UNIFORM, lo, hi - lo, 0, spec.digits))
                uniforms += 1
                continue
            span = spec.hi - spec.lo
            if not 2 <= span <= 2**32:  # numpy draws nothing for one value, 64 bits past 2**32
                raise ValueError(f"integers range {spec} is outside 2..2**32 values")
            # Lemire: accept unless the low 32 bits of x * span fall under
            # 2**32 mod span (numpy checks ``< span`` first, the same set).
            ops.append((_INTEGERS, spec.lo, span, 2**32 % span, None))
            halves += 1
        self._ops = tuple(ops)
        # Words drawn with no rejection, by whether a half is buffered on entry.
        self._words = (uniforms + (halves + 1) // 2, uniforms + halves // 2)

    def draw(self, rng: np.random.Generator) -> list[_t.Any]:
        """The plan's values, drawn from ``rng`` exactly as the scalar calls would."""
        bg = rng.bit_generator
        state = bg.state
        has, half = entry = state["has_uint32"], state["uinteger"]
        words = iter(bg.random_raw(self._words[has]).tolist())
        out: list[_t.Any] = []
        append = out.append
        for kind, lo, scale, threshold, digits in self._ops:
            if kind == _INTEGERS:
                while True:
                    if has:
                        x, has = half, 0
                    else:
                        try:
                            w = next(words)
                        except StopIteration:  # a rejection ran past the batch
                            w = bg.random_raw()
                        x, half, has = w & _MASK32, w >> 32, 1
                    m = x * scale
                    if m & _MASK32 >= threshold:
                        break
                append(lo + (m >> 32))
            else:
                try:
                    w = next(words)
                except StopIteration:
                    w = bg.random_raw()
                x = lo + scale * ((w >> 11) * _UNIT)
                append(x if digits is None else round(x, digits))
        if (has, half) != entry:
            state = bg.state
            state["has_uint32"], state["uinteger"] = has, half
            bg.state = state
        return out
