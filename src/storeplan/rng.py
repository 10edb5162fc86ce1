"""Named, reproducible random streams derived from a single master seed.

Every stochastic work unit (a dataset row or trial, an evaluation, a training
run) owns a stream keyed by a purpose tag plus integer indices, so results do
not depend on the order in which units execute. `stream` seeds one unit's
generator; `stream_seeds` computes the seeds of many units of one tag at
once, as a gen-data block does for its trials, from an (n, m) array of
their indices, and `StreamWords` reads those units' raw words, the ones
`stream` would give. A unit that draws raw words compares a word's top 53
bits with `word_thresholds` of an array of chances, and takes `word_index`
of it for a uniform pick.

`StreamWords` computes any word of a stream without running the stream up
to it. numpy's PCG64 keeps a 128-bit state s and an odd 128-bit increment
inc, and all its arithmetic is mod 2**128. From the seed words (a, b, c, d)
of `generate_state(4, uint64)` it sets inc = 2 * (c * 2**64 + d) + 1 and
the start state s0 = (inc + a * 2**64 + b) * M + inc, with M =
0x2360ED051FC65DA44385DF649FCCF645. Each draw steps s to s * M + inc and
returns XSL-RR(s): the xor of s's high and low 64-bit halves, rotated right
by s's top 6 bits. So word c, counting from 0, is XSL-RR(A_c * s0 + B_c *
inc) with A_c = M**(c + 1) and B_c = 1 + M + ... + M**c (LCG jump-ahead:
F. B. Brown, "Random Number Generation with Arbitrary Strides", 1994).
"""

from __future__ import annotations

import zlib
from functools import lru_cache

import numpy as np

__all__ = ["stream", "stream_seeds", "StreamWords", "spawn_key",
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
# PCG64's 128-bit multiplier, and uint64 constants for its 128-bit
# arithmetic on (high, low) halves
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_ONE, _U32, _LOW = np.uint64(1), np.uint64(32), np.uint64(_LOW32)
_U58, _U63, _U64 = np.uint64(58), np.uint64(63), np.uint64(64)


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


def _index_block(keys) -> np.ndarray:
    """`keys` as an (n, m) integer array of indices in [0, 2**32); keys
    without indices are (n, 0). Keys of mixed widths, an index of 2**32
    or more and a non-integer dtype (a float array, never truncated) raise
    `ValueError` naming the keys, the index or the dtype; a negative index
    says "non-negative", as `SeedSequence` does."""
    try:
        block = np.asarray(keys)
    except ValueError:  # rows of mixed widths
        block = None
    if block is None or block.ndim != 2 and block.size:
        raise ValueError(f"keys must be rows of one width, got {keys!r}")
    if not block.size:  # no index to check
        return np.zeros((len(block), 0), dtype=np.uint32)
    if block.dtype.kind not in "iu":
        raise ValueError(f"indices must be integers below 2**32, got "
                         f"{block.dtype} keys")
    if block.min() < 0:
        raise ValueError(f"seeds and indices must be non-negative, "
                         f"got {block.min()}")
    if block.max() > _LOW32:
        raise ValueError(f"indices must be below 2**32, got {block.max()}")
    return block


def stream_seeds(master_seed: int, tag: str, keys) -> np.ndarray:
    """The PCG64 seed words of `stream(master_seed, tag, *key)` for each
    row `key` of `keys`, an (n, m) integer array of indices below 2**32
    (or a list `np.asarray` makes one of), one (4,) uint64 row per key.

    `SeedSequence` takes each index as one 32-bit word, so the indices are
    stacked under the seed's and the tag's words and its hash runs once
    over all keys, in wrapping uint32 array arithmetic: no key needs a
    `SeedSequence` of its own. A negative seed or index raises
    `ValueError`, as `SeedSequence` does.
    """
    head = _words(int(master_seed)) + list(spawn_key(tag))
    block = _index_block(keys)
    entropy = np.empty((len(head) + block.shape[1], len(block)),
                       dtype=np.uint32)
    entropy[:len(head)] = np.array(head, dtype=np.uint32)[:, None]
    entropy[len(head):] = block.T
    return _pcg_seeds(entropy)


def _mul128(ah, al, bh, bl):
    """(a * b) mod 2**128 of the 128-bit numbers a = (ah, al) and b = (bh,
    bl), held as uint64 arrays of their high and low halves. The high half
    of al * bl comes from its 32-bit limbs."""
    a0, a1 = al & _LOW, al >> _U32
    b0, b1 = bl & _LOW, bl >> _U32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> _U32) + (p01 & _LOW) + (p10 & _LOW)
    carry = a1 * b1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    return carry + al * bh + ah * bl, al * bl


def _add128(ah, al, bh, bl):
    """(a + b) mod 2**128, on halves as `_mul128` takes them."""
    lo = al + bl
    return ah + bh + (lo < al), lo


def _halves(values) -> tuple[np.ndarray, np.ndarray]:
    """The 128-bit Python ints `values` as uint64 arrays of their halves."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & 0xFFFFFFFFFFFFFFFF for v in values], dtype=np.uint64))


_MULT = _halves([_PCG_MULT])


@lru_cache(maxsize=16)
def _jumps(width: int):
    """The halves of A_c = M**(c + 1) and of B_c = 1 + M + ... + M**c, mod
    2**128, for c in range(width), as the module docstring defines them."""
    a, b = [_PCG_MULT], [1]
    for _ in range(1, width):
        b.append((a[-1] + b[-1]) & _MASK128)
        a.append(a[-1] * _PCG_MULT & _MASK128)
    return _halves(a) + _halves(b)


class StreamWords:
    """The (n, width) matrix of the first `width` raw words of each seed
    row's PCG64, as `np.random.PCG64` seeded with the row draws them, but
    computed only where it is read: `words[rows, cols]`, for integer arrays
    (or ints) that broadcast together, is an array of the words at those
    positions, as the same index of the matrix gives them.

    Each stream's start state is set up in one pass over all seed rows,
    and each word read is one jump from it (see the module docstring).
    """

    ndim = 2

    def __init__(self, seeds: np.ndarray, width: int):
        seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1, _POOL)
        self.shape = (len(seeds), int(width))
        state_hi, state_lo, seq_hi, seq_lo = seeds.T
        self._inc = (seq_hi << _ONE | seq_lo >> _U63, seq_lo << _ONE | _ONE)
        self._s0 = _add128(*_mul128(*_add128(*self._inc, state_hi, state_lo),
                                    *_MULT), *self._inc)

    def __getitem__(self, index) -> np.ndarray:
        rows, cols = np.broadcast_arrays(*(np.asarray(i, dtype=np.intp)
                                           for i in index))
        shape, rows, cols = rows.shape, rows.ravel(), cols.ravel()
        a_hi, a_lo, b_hi, b_lo = (c[cols] for c in _jumps(self.shape[1]))
        hi, lo = _add128(*_mul128(a_hi, a_lo, *(h[rows] for h in self._s0)),
                         *_mul128(b_hi, b_lo, *(h[rows] for h in self._inc)))
        word, rot = hi ^ lo, hi >> _U58
        return (word >> rot | word << (_U64 - rot & _U63)).reshape(shape)


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
