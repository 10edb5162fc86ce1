import numpy as np
import pytest

from storeplan import rng
from storeplan.rng import BlockDraws, spawn_key, stream


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


@pytest.mark.parametrize("block", [1024, 3])
@pytest.mark.parametrize("seed", [0, 7, 1729])
def test_block_draws_match_generator(seed, block, monkeypatch):
    # block 3 refills mid-sequence, between a word's two 32-bit halves too;
    # the 2,000 calls read more than 1,024 words, so block 1,024 refills too
    monkeypatch.setattr(rng, "_BLOCK", block)
    gen, draws = stream(seed, "train"), BlockDraws(stream(seed, "train"))
    calls = np.random.default_rng(seed).integers(3, size=2_000)
    sizes = [1, 2, 3, 7, 13, 3_000_000_000, 2**32 - 1]
    for i, call in enumerate(calls):
        if call == 0:
            assert draws.random() == gen.random()
        elif call == 1:
            assert draws.random(i % 5) == gen.random(i % 5).tolist()
        else:
            n = sizes[i % len(sizes)]
            assert draws.integers(n) == gen.integers(n)


def test_block_draws_integers_one_draws_nothing():
    gen, draws = stream(3, "one"), BlockDraws(stream(3, "one"))
    assert [draws.integers(1) for _ in range(5)] == [0] * 5
    assert draws.random(4) == gen.random(4).tolist()


def test_block_draws_rejection_loop_matches(monkeypatch):
    # 2**32 mod 3e9 leaves a rejection zone of 30 % of the 32-bit draws
    monkeypatch.setattr(rng, "_BLOCK", 5)
    gen, draws = stream(5, "lemire"), BlockDraws(stream(5, "lemire"))
    picks = [draws.integers(3_000_000_000) for _ in range(500)]
    assert picks == gen.integers(3_000_000_000, size=500).tolist()
    assert draws.random() == gen.random()


def test_block_draws_reject_out_of_range():
    draws = BlockDraws(stream(0, "range"))
    for n in (0, 2**32):
        with pytest.raises(ValueError):
            draws.integers(n)
