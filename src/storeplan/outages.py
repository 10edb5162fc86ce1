"""Stochastic grid-outage traces driven by the SAIFI and CAIDI reliability indices.

Outage arrivals form a homogeneous Poisson process with rate SAIFI per year;
each duration is 1 + Poisson(CAIDI - 1) hours, which guarantees a one-hour
minimum while keeping the stated mean. `generate_outages` defines a trace:
two flat tuples, start hours and durations, merged from plain lists.
`draw_outages` draws the traces of many trial streams at once, in array
passes over the streams' raw PCG64 words, and gives each trace the bits
`generate_outages` gives it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import sub
from typing import NamedTuple

import numpy as np

from .config import HOURS_PER_YEAR
from .rng import raw_words, stream_seeds, streams

__all__ = ["OutageTrace", "OutageBatch", "generate_outages", "draw_outages"]

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


def generate_outages(saifi: float, caidi: float, horizon_years: float,
                     rng: np.random.Generator) -> OutageTrace:
    """Sample a trace: Poisson(saifi * years) outages, uniform starts, merged overlaps.

    The draws are `poisson` for the count, `integers` for the starts and
    `poisson` for the durations, in that order.
    """
    horizon_hours = _horizon_hours(saifi, caidi, horizon_years)
    count = rng.poisson(saifi * horizon_years)
    starts = rng.integers(0, horizon_hours, size=count)
    starts.sort()
    durations = 1 + rng.poisson(caidi - 1, size=count)

    begins: list[int] = []  # start and end hour of each merged outage
    ends: list[int] = []
    for start, dur in zip(starts.tolist(), durations.tolist()):
        end = min(start + dur, horizon_hours)  # truncate at the horizon edge
        if ends and start < ends[-1]:
            if end > ends[-1]:
                ends[-1] = end
        else:
            begins.append(start)
            ends.append(end)
    return OutageTrace(starts=tuple(begins),
                       durations=tuple(map(sub, ends, begins)),
                       horizon_years=horizon_years)


def _doubles_at(flat: np.ndarray, first, end, offsets) -> np.ndarray:
    """The doubles `Generator.random()` makes of the raw words
    `flat[first + offsets]`, and 0.0 where that is at or past `end`, the
    index after the stream's last word."""
    at = first + offsets
    words = flat[np.minimum(at, end - 1)]
    u = (words >> _SHIFT_DOUBLE).astype(np.float64) * _ULP
    u[at >= end] = 0.0
    return u


def _word_budget(lam_count: float, lam_duration: float, per: int) -> int:
    """Raw words a stream reads for `per` traces: their mean plus `_SPREAD`
    standard deviations. A trace of C outages reads C + 1 words for its
    count, half a word per start and D + 1 words per Poisson(lam_duration)
    duration D."""
    step = lam_duration + 2.5
    mean = per * (1.0 + lam_count * step)
    variance = per * lam_count * (lam_duration + step * step)
    return max(1, math.ceil(mean + _SPREAD * math.sqrt(variance)))


def _replay(words: np.ndarray, hours: int, per: int, limit_count: float,
            limit_duration: float) -> tuple[OutageBatch, np.ndarray]:
    """`per` traces from each row of raw words, as `generate_outages` draws
    them from the generator whose words they are, all rows at once.

    A Poisson draw of mean lam (< 10) reads doubles until their running
    product falls to exp(-lam) or below and counts the ones before; a start
    is Lemire's method on a 32-bit half, the low half of a fresh word first
    and its high half kept for the next 32-bit draw, across traces too.
    Returns the merged outages of the rows that could be replayed and which
    rows those are: a row that would read past its words or reject a Lemire
    draw gets no outages.
    """
    n, budget = words.shape
    flat = words.ravel()
    base = np.arange(n) * budget  # each row's first word in `flat`
    end = base + budget
    pos = np.zeros(n, dtype=np.int64)  # each row's next unread word
    kept = np.full(n, -1, dtype=np.int64)  # word whose high half is kept
    alive = np.ones(n, dtype=bool)
    threshold = np.uint64((1 << 32) % hours)
    width = hours + 1  # a (trace, start) pair sorts as trace * width + start
    count_window = np.arange(_COUNT_WINDOW)
    scan_window = np.arange(_SCAN)[:, None]
    ranks = []  # trace * width + start of each start drawn
    durations, traces = [pos[:0]], [pos[:0]]
    for j in range(per):
        u = _doubles_at(flat, (base + pos)[:, None], end[:, None],
                        count_window)
        count = np.count_nonzero(np.cumprod(u, axis=1) > limit_count, axis=1)
        alive &= count < _COUNT_WINDOW  # else the draw ends past the window
        pos += count + 1
        count[~alive] = 0

        owner = np.repeat(np.arange(n), count)
        has = kept >= 0
        k = np.arange(len(owner)) - np.repeat(np.cumsum(count) - count, count)
        k -= has[owner]  # position among the fresh halves; -1: the kept one
        half = np.where(k < 0, 2 * kept[owner] + 1, 2 * pos[owner] + k)
        # half 2w + 1 is word w's high half, 2w its low half
        word = flat[base[owner] + np.minimum(half >> 1, budget - 1)]
        m = np.where(half & 1, word >> np.uint64(32), word & _LOW32)
        m *= np.uint64(hours)
        alive[owner[(m & _LOW32) < threshold]] = False
        fresh = np.maximum(count - has, 0)  # 32-bit draws from fresh words
        used = (fresh + 1) >> 1
        kept = np.where(count > 0, np.where(fresh & 1, pos + used - 1, -1),
                        kept)
        pos += used
        ranks.append((owner * per + j) * width
                     + (m >> np.uint64(32)).astype(np.int64))

        # durations: scan word columns, the running product restarting
        # after each word that ends a draw
        need = np.where(alive, count, 0)
        found = np.zeros(n, dtype=np.int64)
        prod = np.ones(n)
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
        if stops:
            row, col = np.nonzero(np.concatenate(stops).T)
            rank = np.arange(len(row)) - np.repeat(np.cumsum(found) - found,
                                                   found)
            mine = rank < need[row]
            row, col, rank = row[mine], col[mine], rank[mine]
            after = np.empty_like(col)  # word offset where the draw began
            after[1:] = col[:-1]
            after[rank == 0] = -1
            durations.append(col - after)
            traces.append(row * per + j)
            last = need > 0
            pos[last] += col[np.cumsum(need)[last] - 1] + 1
        # past its budget a row reads doubles of 0.0, which end every draw
        # and move it on, so a row that ran out ends the trace past it
        alive &= pos <= budget

    key = np.sort(np.concatenate(ranks))
    trace = key // width
    live = alive[trace // per]
    key, trace = key[live], trace[live]
    duration, owner = np.concatenate(durations), np.concatenate(traces)
    if per > 1:
        order = np.argsort(owner, kind="stable")
        duration, owner = duration[order], owner[order]
    duration = duration[alive[owner // per]]
    origin = trace * width
    stop = np.minimum(key + duration, origin + hours)  # truncate at the edge
    reach = np.maximum.accumulate(stop)  # trace offsets keep traces apart
    new = np.empty(len(key), dtype=bool)
    new[:1] = True
    np.greater_equal(key[1:], reach[:-1], out=new[1:])
    closes = np.empty_like(new)
    closes[:-1] = new[1:]
    closes[-1:] = True
    begin = key[new]
    return OutageBatch(begin - origin[new], reach[closes] - begin,
                       np.bincount(trace[new], minlength=n * per)), alive


def draw_outages(saifi: float, caidi: float, horizon_years: float,
                 master_seed: int, tag: str, keys, per: int = 1
                 ) -> OutageBatch:
    """`per` traces from each key's stream, merged outages as flat arrays.

    Trace `i * per + j` of the batch is the j-th of `per` `generate_outages`
    calls on `stream(master_seed, tag, *keys[i])`, bit for bit. All
    streams' traces are replayed from one `random_raw` read of each stream
    (`_replay`). A stream goes to `generate_outages`, on a fresh generator,
    when it needs more words than its budget or meets a Lemire rejection,
    and every stream does when numpy would not draw as `_replay` replays:
    a mean count or duration of 10 or more (numpy's PTRS) or a horizon of
    2**32 hours or more (a 64-bit Lemire draw).
    """
    hours = _horizon_hours(saifi, caidi, horizon_years)
    keys = list(keys)
    lam_count, lam_duration = saifi * horizon_years, caidi - 1
    if max(lam_count, lam_duration) < _MULT_LIMIT and hours < 1 << 32:
        words = raw_words(stream_seeds(master_seed, tag, keys),
                          _word_budget(lam_count, lam_duration, per))
        batch, alive = _replay(words, hours, per, math.exp(-lam_count),
                               math.exp(-lam_duration))
    else:
        empty = np.zeros(0, dtype=np.int64)
        batch = OutageBatch(empty, empty, np.zeros(len(keys) * per,
                                                   dtype=np.int64))
        alive = np.zeros(len(keys), dtype=bool)
    dead = np.flatnonzero(~alive)
    if not dead.size:
        return batch
    counts = batch.counts
    at = np.cumsum(counts) - counts  # where each trace goes in the arrays
    places, starts, durations = [], [], []
    for i, rng in zip(dead, streams(master_seed, tag,
                                    [keys[i] for i in dead])):
        for t in range(i * per, (i + 1) * per):
            trace = generate_outages(saifi, caidi, horizon_years, rng)
            places += [at[t]] * len(trace.starts)
            starts += trace.starts
            durations += trace.durations
            counts[t] = len(trace.starts)
    return OutageBatch(np.insert(batch.starts, places, starts),
                       np.insert(batch.durations, places, durations), counts)
