"""Named, reproducible random streams derived from a single master seed.

Every stochastic work unit (a dataset row or trial, an evaluation, a training
run) owns a stream keyed by a purpose tag plus integer indices, so results do
not depend on the order in which units execute. `stream` seeds one unit's
generator; `stream_seeds` computes the seeds of many units of one tag at
once, as a gen-data block does for its trials, and gives each the state
`stream` gives it, either as a generator (`streams`) or as the bit
generator's raw words (`raw_words`). A unit that draws raw words compares
a word's top 53 bits with `word_thresholds` of an array of chances, and
takes `word_index` of it for a uniform pick.
"""

from __future__ import annotations

import zlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["stream", "stream_seeds", "streams", "raw_words", "spawn_key",
           "word_thresholds", "word_index"]

_SCALE = float(1 << 53)  # a word's double is (word >> 11) / _SCALE
_LOW32 = 0xFFFFFFFF
# numpy SeedSequence's hash: a pool of four 32-bit words, mixed with
# constants that step by a fixed multiplier at every use, (initial, step)
_POOL = 4
_HASH_POOL = (0x43B0D7E5, 0x931E8875)
_HASH_STATE = (0x8B51F9DD, 0x58F38DED)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def spawn_key(tag: str, *indices: int) -> tuple[int, ...]:
    """Stable integer key for a purpose tag and optional work-unit indices."""
    return (zlib.crc32(tag.encode("utf-8")),) + tuple(int(i) for i in indices)


def stream(master_seed: int, tag: str, *indices: int) -> np.random.Generator:
    """Generator for the (tag, indices) work unit under the given master seed."""
    entropy = (int(master_seed),) + spawn_key(tag, *indices)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _words(value: int) -> list[int]:
    """`value`'s 32-bit words, lowest first, as `SeedSequence` splits an int."""
    if value < 0:
        raise ValueError(f"seeds and indices must be non-negative, got {value}")
    words = [value & _LOW32]
    value >>= 32
    while value:
        words.append(value & _LOW32)
        value >>= 32
    return words


def _hashmix(initial: int, step: int):
    """`SeedSequence`'s hashmix over uint32 arrays. Its constant steps the
    same way whatever it hashes, so one call hashes a word of every key."""
    const = initial

    def hashmix(words: np.ndarray) -> np.ndarray:
        nonlocal const
        xor = np.uint32(const)
        const = const * step & _LOW32
        words = (words ^ xor) * np.uint32(const)
        return words ^ words >> _SHIFT
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_L * x - _MIX_R * y
    return out ^ out >> _SHIFT


def _pcg_seeds(entropy: np.ndarray) -> np.ndarray:
    """`SeedSequence(e).generate_state(4, uint64)` for each column e of the
    (words, keys) uint32 array `entropy`, as rows of a (keys, 4) array."""
    length, keys = entropy.shape
    hashmix = _hashmix(*_HASH_POOL)
    zero = np.zeros(keys, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < length else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, length):  # words beyond the pool
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(entropy[src]))
    hashmix = _hashmix(*_HASH_STATE)
    halves = [hashmix(pool[i % _POOL]).astype(np.uint64)
              for i in range(2 * _POOL)]
    seeds = [lo | hi << np.uint64(32)
             for lo, hi in zip(halves[::2], halves[1::2])]
    return np.ascontiguousarray(np.transpose(seeds))


class _SeedState(ISeedSequence):
    """Hands `PCG64` the seed words `_pcg_seeds` computed for one key. PCG64
    asks once, for `generate_state(4, np.uint64)`; nothing else asks."""

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self._state


def stream_seeds(master_seed: int, tag: str, keys) -> np.ndarray:
    """The PCG64 seed words of `stream(master_seed, tag, *key)` for each
    index tuple in `keys`, one (4,) uint64 row per key.

    `SeedSequence`'s hash runs once over all keys of a length in words, in
    wrapping uint32 array arithmetic, so no key needs a `SeedSequence` of
    its own. A negative seed or index raises `ValueError`, as
    `SeedSequence` does.
    """
    head = _words(int(master_seed)) + list(spawn_key(tag))
    groups: dict[int, tuple[list[int], list[list[int]]]] = {}
    count = 0
    for key in keys:
        words = head.copy()
        for i in key:
            i = int(i)
            if 0 <= i <= _LOW32:
                words.append(i)
            else:
                words += _words(i)
        positions, rows = groups.setdefault(len(words), ([], []))
        positions.append(count)
        rows.append(words)
        count += 1
    seeds = np.empty((count, _POOL), dtype=np.uint64)
    for positions, rows in groups.values():
        seeds[positions] = _pcg_seeds(np.array(rows, dtype=np.uint32).T)
    return seeds


def _pcg64(seed: np.ndarray) -> np.random.PCG64:
    return np.random.PCG64(_SeedState(seed))


def streams(master_seed: int, tag: str, keys) -> list[np.random.Generator]:
    """`stream(master_seed, tag, *key)` for each index tuple in `keys`,
    seeded by one `stream_seeds` call."""
    return [np.random.Generator(_pcg64(seed))
            for seed in stream_seeds(master_seed, tag, keys)]


def raw_words(seeds: np.ndarray, count: int) -> np.ndarray:
    """The first `count` raw 64-bit words of each seed row's PCG64, one row
    per seed: the words a fresh `stream` generator draws from, without a
    `Generator` object."""
    words = np.empty((len(seeds), count), dtype=np.uint64)
    for row, seed in zip(words, seeds):
        row[:] = _pcg64(seed).random_raw(count)
    return words


def word_thresholds(p) -> np.ndarray:
    """ceil(min(p, 1) * 2**53) for each chance p > 0 of the float64 array
    `p`, else 0 (for NaN too), as uint64.

    `Generator.random()` turns a 64-bit word w into u = (w >> 11) * 2**-53.
    Scaling by a power of two is exact, so u < p holds exactly when the
    integer w >> 11 is below p * 2**53, that is below this threshold: no
    word is below the 0 of a `p` of 0 or less, and every word is below the
    2**53 of a `p` of 1 or more, just as u < p behaves.
    """
    scaled = np.ceil(np.minimum(p, 1.0) * _SCALE)
    return np.where(p > 0.0, scaled, 0.0).astype(np.uint64)


def word_index(word: int, n: int) -> int:
    """floor(u * n) for the word's double u = (word >> 11) * 2**-53, worked
    out exactly in integers: a pick from range(n) whose every index has a
    share of the words within 2**-53 of 1/n."""
    return (word >> 11) * n >> 53
