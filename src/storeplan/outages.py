"""Stochastic grid-outage traces driven by the SAIFI and CAIDI reliability indices.

Outage arrivals form a homogeneous Poisson process with rate SAIFI per year;
each duration is 1 + Poisson(CAIDI - 1) hours, which guarantees a one-hour
minimum while keeping the stated mean. `sample_outages` draws n traces from
one generator in three vectorised calls, and `generate_outages` is its one
trace. `draw_outages` draws one trace from each of many trial streams, in
array passes over the streams' raw PCG64 words, and gives each trace the
bits `generate_outages` gives it on the stream's generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import HOURS_PER_YEAR
from .rng import raw_words, stream_seeds, streams

__all__ = ["OutageTrace", "OutageBatch", "sample_outages", "generate_outages",
           "draw_outages"]

# numpy's Poisson sampler multiplies uniforms below this mean and switches
# to PTRS from it on
_MULT_LIMIT = 10.0
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT_DOUBLE = np.uint64(11)  # a word's double is (word >> 11) * 2**-53
_ULP = 2.0 ** -53
# A stream reads the mean word count of its traces plus this many standard
# deviations; a stream that needs more is drawn by `generate_outages`.
_SPREAD = 4.0
_COUNT_WINDOW = 32  # words read ahead for an outage count
_SCAN = 16  # word columns scanned per window for durations


@dataclass(frozen=True)
class OutageTrace:
    """Time-ordered, non-overlapping outages over a stated horizon.

    Outage i starts at hour `starts[i]` and lasts `durations[i]` hours.
    """

    starts: tuple[int, ...]
    durations: tuple[int, ...]
    horizon_years: float

    def total_hours(self) -> int:
        return sum(self.durations)


class OutageBatch(NamedTuple):
    """The merged outages of many traces, as flat int64 arrays.

    Trace i holds `counts[i]` outages, after those of traces 0..i-1 in
    `starts` and `durations`.
    """

    starts: np.ndarray
    durations: np.ndarray
    counts: np.ndarray


def _horizon_hours(saifi: float, caidi: float, horizon_years: float) -> int:
    """The horizon in whole hours, once the parameters are checked."""
    if saifi <= 0:
        raise ValueError(f"saifi must be > 0, got {saifi}")
    if caidi <= 1:
        raise ValueError(f"caidi must exceed the 1-hour minimum duration, got {caidi}")
    if horizon_years < 1:
        raise ValueError(f"horizon must be at least one year, got {horizon_years}")
    return int(round(horizon_years * HOURS_PER_YEAR))


def _merge(keys: np.ndarray, durations: np.ndarray, n: int,
           hours: int) -> OutageBatch:
    """The merged outages of n traces over `hours` hours each. `keys` holds
    `trace * (hours + 1) + start` of every outage drawn, in ascending order,
    and `durations` their durations in that order. An outage is cut at the
    horizon edge and joins the one before it when it starts before that one
    ends; the key offsets keep the traces apart."""
    width = hours + 1
    trace = keys // width
    origin = trace * width
    stop = np.minimum(keys + durations, origin + hours)
    reach = np.maximum.accumulate(stop)
    new = np.ones(len(keys), dtype=bool)  # starts a merged outage
    new[1:] = keys[1:] >= reach[:-1]
    closes = np.ones_like(new)  # ends one
    closes[:-1] = new[1:]
    begin = keys[new]
    return OutageBatch(begin - origin[new], reach[closes] - begin,
                       np.bincount(trace[new], minlength=n))


def sample_outages(saifi: float, caidi: float, horizon_years: float,
                   rng: np.random.Generator, n: int) -> OutageBatch:
    """n traces from one generator: Poisson(saifi * years) outages each,
    uniform starts, merged overlaps.

    Three vectorised draws make all n traces: the n counts (`poisson`),
    then all their starts (`integers`), then all their durations
    (`poisson`), trace after trace. Each trace's starts are sorted and
    paired with its durations in the order they were drawn.
    """
    hours = _horizon_hours(saifi, caidi, horizon_years)
    counts = rng.poisson(saifi * horizon_years, n)
    total = int(counts.sum())
    starts = rng.integers(0, hours, total)
    durations = 1 + rng.poisson(caidi - 1, total)
    keys = np.repeat(np.arange(n, dtype=np.int64) * (hours + 1), counts)
    return _merge(np.sort(keys + starts), durations, n, hours)


def generate_outages(saifi: float, caidi: float, horizon_years: float,
                     rng: np.random.Generator) -> OutageTrace:
    """One trace of `sample_outages`: the draws are `poisson` for the
    count, `integers` for the starts and `poisson` for the durations, in
    that order."""
    starts, durations, _ = sample_outages(saifi, caidi, horizon_years, rng, 1)
    return OutageTrace(tuple(starts.tolist()), tuple(durations.tolist()),
                       horizon_years)


def _doubles_at(flat: np.ndarray, first, end, offsets) -> np.ndarray:
    """The doubles `Generator.random()` makes of the raw words
    `flat[first + offsets]`, and 0.0 where that is at or past `end`, the
    index after the stream's last word."""
    at = first + offsets
    words = flat[np.minimum(at, end - 1)]
    u = (words >> _SHIFT_DOUBLE).astype(np.float64) * _ULP
    u[at >= end] = 0.0
    return u


def _word_budget(lam_count: float, lam_duration: float) -> int:
    """Raw words a stream reads for its trace: the mean plus `_SPREAD`
    standard deviations. A trace of C outages reads C + 1 words for its
    count, half a word per start and D + 1 words per Poisson(lam_duration)
    duration D."""
    step = lam_duration + 2.5
    mean = 1.0 + lam_count * step
    variance = lam_count * (lam_duration + step * step)
    return max(1, math.ceil(mean + _SPREAD * math.sqrt(variance)))


def _replay(words: np.ndarray, hours: int, limit_count: float,
            limit_duration: float) -> tuple[OutageBatch, np.ndarray]:
    """The trace of each row of raw words, as `generate_outages` draws it
    from the generator whose words they are, all rows at once.

    A Poisson draw of mean lam (< 10) reads doubles until their running
    product falls to exp(-lam) or below and counts the ones before; a start
    is Lemire's method on a 32-bit half, the low half of a fresh word first
    and its high half for the next start. Returns the merged outages of the
    rows that could be replayed and which rows those are: a row that would
    read past its words or reject a Lemire draw gets no outages.
    """
    n, budget = words.shape
    flat = words.ravel()
    base = np.arange(n) * budget  # each row's first word in `flat`
    end = base + budget

    u = _doubles_at(flat, base[:, None], end[:, None],
                    np.arange(_COUNT_WINDOW))
    count = np.count_nonzero(np.cumprod(u, axis=1) > limit_count, axis=1)
    alive = count < _COUNT_WINDOW  # else the draw ends past the window
    pos = count + 1  # each row's next unread word
    count[~alive] = 0

    row = np.repeat(np.arange(n), count)
    half = 2 * pos[row] + np.arange(len(row)) - np.repeat(
        np.cumsum(count) - count, count)
    # half 2w + 1 is word w's high half, 2w its low half
    word = flat[base[row] + np.minimum(half >> 1, budget - 1)]
    m = np.where(half & 1, word >> np.uint64(32), word & _LOW32)
    m *= np.uint64(hours)
    alive[row[(m & _LOW32) < np.uint64((1 << 32) % hours)]] = False
    pos += (count + 1) >> 1
    keys = row * (hours + 1) + (m >> np.uint64(32)).astype(np.int64)

    # durations: scan word columns, the running product restarting after
    # each word that ends a draw
    need = np.where(alive, count, 0)
    found = np.zeros(n, dtype=np.int64)
    prod = np.ones(n)
    scan_window = np.arange(_SCAN)[:, None]
    stops = []
    while (found < need).any():
        u = _doubles_at(flat, base + pos + _SCAN * len(stops), end,
                        scan_window)
        stop = np.empty(u.shape, dtype=bool)
        for col, ends in zip(u, stop):
            np.multiply(prod, col, out=prod)
            np.less_equal(prod, limit_duration, out=ends)
            np.copyto(prod, 1.0, where=ends)
        found += np.count_nonzero(stop, axis=0)
        stops.append(stop)
    durations = owner = pos[:0]  # each duration and the row it is of
    if stops:
        owner, col = np.nonzero(np.concatenate(stops).T)
        rank = np.arange(len(owner)) - np.repeat(np.cumsum(found) - found,
                                                 found)
        mine = rank < need[owner]
        owner, col, rank = owner[mine], col[mine], rank[mine]
        after = np.empty_like(col)  # word offset where the draw began
        after[1:] = col[:-1]
        after[rank == 0] = -1
        durations = col - after
        last = need > 0
        pos[last] += col[np.cumsum(need)[last] - 1] + 1
    # past its budget a row reads doubles of 0.0, which end every draw and
    # move it on, so a row that ran out ends its trace past it
    alive &= pos <= budget

    keys = np.sort(keys[alive[row]])
    return _merge(keys, durations[alive[owner]], n, hours), alive


def draw_outages(saifi: float, caidi: float, horizon_years: float,
                 master_seed: int, tag: str, keys) -> OutageBatch:
    """The trace of each key's stream, merged outages as flat arrays.

    Trace i of the batch is `generate_outages` on `stream(master_seed, tag,
    *keys[i])`, bit for bit. All streams' traces are replayed from one
    `random_raw` read of each stream (`_replay`). A stream goes to
    `generate_outages`, on a fresh generator, when it needs more words than
    its budget or meets a Lemire rejection, and every stream does when
    numpy would not draw as `_replay` replays: a mean count or duration of
    10 or more (numpy's PTRS) or a horizon of 2**32 hours or more (a
    64-bit Lemire draw).
    """
    hours = _horizon_hours(saifi, caidi, horizon_years)
    keys = list(keys)
    lam_count, lam_duration = saifi * horizon_years, caidi - 1
    if max(lam_count, lam_duration) < _MULT_LIMIT and hours < 1 << 32:
        words = raw_words(stream_seeds(master_seed, tag, keys),
                          _word_budget(lam_count, lam_duration))
        batch, alive = _replay(words, hours, math.exp(-lam_count),
                               math.exp(-lam_duration))
    else:
        empty = np.zeros(0, dtype=np.int64)
        batch = OutageBatch(empty, empty, np.zeros(len(keys), dtype=np.int64))
        alive = np.zeros(len(keys), dtype=bool)
    dead = np.flatnonzero(~alive)
    if not dead.size:
        return batch
    counts = batch.counts
    at = np.cumsum(counts) - counts  # where each trace goes in the arrays
    places, starts, durations = [], [], []
    for i, rng in zip(dead, streams(master_seed, tag,
                                    [keys[i] for i in dead])):
        trace = generate_outages(saifi, caidi, horizon_years, rng)
        places += [at[i]] * len(trace.starts)
        starts += trace.starts
        durations += trace.durations
        counts[i] = len(trace.starts)
    return OutageBatch(np.insert(batch.starts, places, starts),
                       np.insert(batch.durations, places, durations), counts)
