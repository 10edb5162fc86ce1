import math
from fractions import Fraction

import numpy as np
import pytest

from storeplan.rng import (raw_words, spawn_key, stream, stream_seeds,
                           streams, word_index, word_thresholds)

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


def assert_streams_match(seed, tag, keys):
    gens = streams(seed, tag, keys)
    assert len(gens) == len(keys)
    for key, gen in zip(keys, gens):
        ref = stream(seed, tag, *key)
        assert gen.bit_generator.state == ref.bit_generator.state, key
        # an odd count of 32-bit draws leaves a kept half in the state
        assert gen.integers(2**32, size=3).tolist() == \
            ref.integers(2**32, size=3).tolist()
        assert gen.bit_generator.state == ref.bit_generator.state, key
        assert gen.random(4).tolist() == ref.random(4).tolist()


@pytest.mark.parametrize("width", range(7))
@pytest.mark.parametrize("tag", ["", "dataset:trial", "eval:trial"])
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 1])
def test_streams_match_stream(seed, tag, width):
    # with the seed's and the tag's words, 3 or more indices overflow
    # SeedSequence's 4-word pool and reach its loop over the remaining words
    keys = [tuple((7 * j + 13 * i) % 50 for i in range(width))
            for j in range(6)]
    assert_streams_match(seed, tag, keys)


@pytest.mark.parametrize("seed", [0, 2**32, 2**64 + 1])
def test_streams_mix_word_counts_in_one_batch(seed):
    # indices of 2**32 and up take two or three words, so the batch holds
    # keys of several entropy lengths, index counts too
    keys = [(0, 1), (2**32, 5), (3, 2**40 + 7), (2**64 + 3, 2**32 - 1),
            (9, 9), (), (1,), (2**32 - 1, 0, 2**33, 4, 5)]
    assert_streams_match(seed, "mixed", keys)


def test_raw_words_are_the_stream_words():
    keys = [(0, 1), (2**32, 5), (), (7,)]
    words = raw_words(stream_seeds(3, "raw", keys), 9)
    assert words.dtype == np.uint64 and words.shape == (4, 9)
    for key, row in zip(keys, words):
        assert row.tolist() == stream(3, "raw", *key).bit_generator.random_raw(
            9).tolist()
    assert raw_words(stream_seeds(3, "raw", []), 9).shape == (0, 9)


def test_streams_of_no_keys():
    assert streams(1729, "dataset:trial", []) == []


@pytest.mark.parametrize("seed, keys", [
    (-1, [(0,)]),
    (-1, []),
    (1, [(0, 1), (2, -1)]),
    (1, [(-2**40,)]),
])
def test_streams_reject_negative_seeds_and_indices(seed, keys):
    with pytest.raises(ValueError, match="non-negative"):
        streams(seed, "neg", keys)
