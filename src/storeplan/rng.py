"""Named, reproducible random streams derived from a single master seed.

Every stochastic work unit (a dataset row, a simulation trial, a training run)
owns a stream keyed by a purpose tag plus integer indices, so results do not
depend on the order in which units execute.
"""

from __future__ import annotations

import itertools
import zlib

import numpy as np

__all__ = ["stream", "spawn_key", "BlockDraws"]

_UNIT = 1.0 / (1 << 53)
_LOW32 = 0xFFFFFFFF
_BLOCK = 1024  # raw words read per refill


def spawn_key(tag: str, *indices: int) -> tuple[int, ...]:
    """Stable integer key for a purpose tag and optional work-unit indices."""
    return (zlib.crc32(tag.encode("utf-8")),) + tuple(int(i) for i in indices)


def stream(master_seed: int, tag: str, *indices: int) -> np.random.Generator:
    """Generator for the (tag, indices) work unit under the given master seed."""
    entropy = (int(master_seed),) + spawn_key(tag, *indices)
    return np.random.default_rng(np.random.SeedSequence(entropy))


class BlockDraws:
    """The draws a PCG64 `Generator` would make, read from raw words in blocks.

    `random()` and `integers(n)` return exactly what the wrapped generator's
    methods would, in the same order, but each costs a list read rather than
    a numpy call. A double is a word's top 53 bits times 2**-53.
    `integers(n)`, for 1 <= n < 2**32, is Lemire's bounded method (ACM
    TOMACS 29(1), 2019) on 32-bit draws, as numpy runs it: a 32-bit draw is
    the low half of a fresh word, and the high half is kept for the next
    32-bit draw; doubles never touch the kept half, and `integers(1)` draws
    nothing. The wrapped generator runs up to a block of 1,024 words ahead,
    so it is not drawn from again.
    """

    def __init__(self, generator: np.random.Generator):
        bits = generator.bit_generator
        state = bits.state
        self._half = state["uinteger"] if state["has_uint32"] else None
        self._words = itertools.chain.from_iterable(
            iter(lambda: bits.random_raw(_BLOCK).tolist(), None))
        self._word = self._words.__next__

    def random(self, size: int | None = None):
        """One double in [0, 1), or a list of `size` of them."""
        if size is None:
            return (self._word() >> 11) * _UNIT
        return [(w >> 11) * _UNIT for w in itertools.islice(self._words, size)]

    def _uint32(self) -> int:
        half = self._half
        if half is None:
            word = self._word()
            self._half = word >> 32
            return word & _LOW32
        self._half = None
        return half

    def integers(self, n: int) -> int:
        """A uniform integer in [0, n)."""
        if not 1 <= n <= _LOW32:
            raise ValueError(f"n must be in [1, 2**32), got {n}")
        if n == 1:
            return 0
        m = self._uint32() * n
        if m & _LOW32 < n:
            threshold = (1 << 32) % n
            while m & _LOW32 < threshold:
                m = self._uint32() * n
        return m >> 32
