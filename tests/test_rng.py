import math
from fractions import Fraction

import numpy as np
import pytest

from storeplan.rng import (StreamWords, spawn_key, stream, stream_seeds,
                           word_index, word_thresholds)

from reference import word_limit

TOP = 2**64 - 1  # the largest raw word


def test_same_key_same_draws():
    a = stream(42, "demo", 1, 2).random(8)
    b = stream(42, "demo", 1, 2).random(8)
    assert np.array_equal(a, b)


def test_different_tags_decorrelate():
    a = stream(42, "demo").random(8)
    b = stream(42, "other").random(8)
    assert not np.array_equal(a, b)


def test_different_indices_decorrelate():
    a = stream(42, "demo", 0).random(8)
    b = stream(42, "demo", 1).random(8)
    assert not np.array_equal(a, b)


def test_spawn_key_is_stable():
    # crc32("train") pins the tag hash; a silent change here would scramble
    # every stored artifact's reproducibility
    assert spawn_key("train") == (1550247075,)
    assert spawn_key("train", 5, 7) == (1550247075, 5, 7)


def as_double(word):
    return (word >> 11) * 2.0**-53


def test_word_limit_identity():
    """`word < word_limit(p)` is `as_double(word) < p`, on and next to each
    limit and at both ends of the words."""
    rand = np.random.default_rng(1729)
    ps = [0.0, 2.0**-53, 0.5, 0.7, np.nextafter(1.0, 0.0), 1.0,
          -0.5, 1.5, 5e-324, 2.0**-54, 1.0 - 2.0**-52]
    ps += rand.random(200).tolist()
    for p in ps:
        limit = word_limit(p)
        assert 0 <= limit <= 2**64 and limit % 2048 == 0
        for w in (limit - 1, limit, 0, TOP):
            w = min(max(w, 0), TOP)
            assert (w < limit) == (as_double(w) < p), (p, w)
    assert word_limit(0.0) == 0 and word_limit(1.0) == 2**64


def test_word_thresholds_equal_word_limit():
    """The array form gives `word_limit(p) >> 11` for each p, on the edges
    0, 1, NaN and 1 - 2**-53 too."""
    ps = [0.0, 1.0, math.nan, 1.0 - 2.0**-53, 2.0**-53, 5e-324, 0.7, -0.5,
          1.5, math.inf]
    thresholds = word_thresholds(np.array(ps))
    assert thresholds.dtype == np.uint64
    assert [int(t) << 11 for t in thresholds] == list(map(word_limit, ps))


@pytest.mark.parametrize("seed", [0, 7, 1729])
def test_raw_words_are_the_generators_doubles(seed):
    """The words `random_raw` reads are the ones `random()` turns into its
    doubles, and each fires against a probability above its double and not
    against its double."""
    words = stream(seed, "train").bit_generator.random_raw(2_000).tolist()
    doubles = stream(seed, "train").random(2_000).tolist()
    assert list(map(as_double, words)) == doubles
    for w, u in zip(words[:200], doubles):
        assert w < word_limit(np.nextafter(u, 2.0)) and not w < word_limit(u)


@pytest.mark.parametrize("n", [1, 2, 3, 13, 2**32 + 1])
def test_word_index_at_the_ends(n):
    assert word_index(0, n) == 0
    assert word_index(TOP, n) == n - 1


@pytest.mark.parametrize("n", [2, 3, 13])
def test_word_index_bucket_edges(n):
    """Index k's first word is ceil(k * 2**53 / n) << 11, the least word
    whose double u has u * n >= k; the word below it gives k - 1."""
    for k in range(1, n):
        first = -(-k * 2**53 // n) << 11
        assert Fraction(first >> 11, 2**53) * n >= k
        assert Fraction((first >> 11) - 1, 2**53) * n < k
        assert word_index(first, n) == k
        assert word_index(first - 1, n) == k - 1


@pytest.mark.parametrize("keys, named", [
    ([(0, 1), (2,)], r"\[\(0, 1\), \(2,\)\]"),  # mixed widths
    ([(0, 1), ()], r"\(\)"),
    ([(0, 2**32)], "4294967296"),  # an index of 2**32
    (np.array([[1, 2**32 + 5]], dtype=np.uint64), "4294967301"),
    (np.array([[0.5, 1.0]]), "float64 keys"),  # a float array
    ([(1, 1.5)], "float64 keys"),
    (np.array([[1.0, 2.0]]), "float64 keys"),  # whole, but still floats
    ([(0, 2**64)], "object keys"),  # past every integer dtype
])
def test_stream_seeds_refuse_mixed_widths_wide_indices_and_floats(keys,
                                                                  named):
    """Keys are rows of one width of integer indices below 2**32; any
    other form is refused, naming the keys, the index or the dtype, rather
    than truncated or split into words."""
    with pytest.raises(ValueError, match=named):
        stream_seeds(1, "mixed", keys)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # uint64 wraps
def test_raw_words_are_the_stream_words():
    keys = [(0, 1), (2**32 - 1, 5), (0, 0), (7, 2**31)]
    words = StreamWords(stream_seeds(3, "raw", keys), 9)
    assert words.shape == (4, 9)
    full = words[np.arange(4)[:, None], np.arange(9)]
    assert full.dtype == np.uint64 and full.shape == (4, 9)
    for key, row in zip(keys, full):
        assert row.tolist() == stream(3, "raw", *key).bit_generator.random_raw(
            9).tolist()
    assert StreamWords(stream_seeds(3, "raw", []), 9).shape == (0, 9)


WIDTH = 71  # a case-study trace's words


def stream_rows(seed, keys, width=WIDTH):
    return [stream(seed, "jump", *key).bit_generator.random_raw(
        width).tolist() for key in keys]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", [0, 1729, 2**32, 2**64 + 1])
def test_stream_words_jump_to_every_word(seed):
    """Every word of every column is the stream's own, for keys from 0 to
    the largest index, 2**32 - 1, and for no keys."""
    keys = [(0, 0), (5, 39), (2**32 - 1, 1), (3, 2**31 + 7), (2**32 - 3, 2),
            (2**32 - 1, 2**32 - 1), (11, 0)]
    words = StreamWords(stream_seeds(seed, "jump", keys), WIDTH)
    rows = np.arange(len(keys))[:, None]
    assert words[rows, np.arange(WIDTH)].tolist() == stream_rows(seed, keys)
    assert words[rows[:, 0], 0].tolist() == [
        row[0] for row in stream_rows(seed, keys, 1)]
    empty = StreamWords(stream_seeds(seed, "jump", []), WIDTH)
    got = empty[np.empty(0, dtype=int), np.empty(0, dtype=int)]
    assert got.dtype == np.uint64 and got.shape == (0,)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", [0, 1729, 2**32, 2**64 + 1])
def test_stream_words_gather_in_any_order(seed):
    """A gather of random (row, col) pairs, with repeats and in any order,
    reads the full matrix's entries; so do scalar indices."""
    keys = [(r, t) for r in range(6) for t in range(5)]
    words = StreamWords(stream_seeds(seed, "jump", np.array(keys)), WIDTH)
    full = np.array(stream_rows(seed, keys), dtype=np.uint64)
    pick = np.random.default_rng(seed % 2**32)
    for size in (1, 7, 500):
        rows = pick.integers(0, len(keys), size)
        cols = pick.integers(0, WIDTH, size)
        assert words[rows, cols].tolist() == full[rows, cols].tolist()
    rows = pick.integers(0, len(keys), (3, 4))
    assert words[rows, 5].tolist() == full[rows, 5].tolist()
    assert int(words[2, WIDTH - 1]) == int(full[2, WIDTH - 1])


@pytest.mark.parametrize("width", range(7))
@pytest.mark.parametrize("tag", ["", "dataset:trial", "eval:trial"])
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 1])
def test_stream_seeds_of_an_index_array(seed, tag, width):
    """An (n, m) integer array of keys, of any integer dtype, and its list
    of tuples give `SeedSequence`'s own seed words. With the seed's and
    the tag's words, 3 or more indices overflow its 4-word pool and reach
    its loop over the remaining words."""
    keys = [tuple((7 * j + 13 * i) % 50 for i in range(width))
            for j in range(6)] + [(2**32 - 1,) * width]
    want = [np.random.SeedSequence((seed,) + spawn_key(tag, *key))
            .generate_state(4, np.uint64).tolist() for key in keys]
    assert stream_seeds(seed, tag, keys).tolist() == want
    for dtype in (np.int64, np.uint32, np.uint64):
        block = np.array(keys, dtype=dtype).reshape(len(keys), width)
        assert stream_seeds(seed, tag, block).tolist() == want


@pytest.mark.parametrize("keys", [
    [], np.empty(0), np.empty((0, 2), dtype=np.int64),
    np.empty((0, 5), dtype=np.uint32), np.empty((0, 3))])
def test_stream_seeds_of_no_keys(keys):
    """A block of no keys, of any width or dtype, holds no value to refuse
    and gives no seed rows."""
    seeds = stream_seeds(1729, "dataset:trial", keys)
    assert seeds.shape == (0, 4) and seeds.dtype == np.uint64


@pytest.mark.parametrize("width, column", [
    (1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_stream_seeds_take_2_32_minus_1_and_refuse_2_32(width, column):
    """Every column takes indices up to 2**32 - 1 as `SeedSequence` does,
    and refuses 2**32, which `SeedSequence` would split into two words."""
    key = [5] * width
    key[column] = 2**32 - 1
    want = np.random.SeedSequence((7,) + spawn_key("edge", *key)) \
        .generate_state(4, np.uint64).tolist()
    assert stream_seeds(7, "edge", [key]).tolist() == [want]
    key[column] = 2**32
    with pytest.raises(ValueError, match="4294967296"):
        stream_seeds(7, "edge", [key])


@pytest.mark.parametrize("seed, keys", [
    (-1, [(0,)]),
    (-1, []),
    (1, [(0, 1), (2, -1)]),
    (1, [(-2**40,)]),
    (1, np.array([[0, 1], [2, -1]])),
])
def test_stream_seeds_refuse_negative_seeds_and_indices(seed, keys):
    with pytest.raises(ValueError, match="non-negative"):
        stream_seeds(seed, "neg", keys)
