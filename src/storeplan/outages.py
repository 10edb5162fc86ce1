"""Stochastic grid-outage traces driven by the SAIFI and CAIDI reliability indices.

Outage arrivals form a homogeneous Poisson process with rate SAIFI per year;
each duration is 1 + Poisson(CAIDI - 1) hours, which guarantees a one-hour
minimum while keeping the stated mean. `sample_outages` draws n traces from
one generator in three vectorised calls, and `generate_outages` is its one
trace. `draw_outages` draws one trace from each of many trial streams, a
function of the stream's raw PCG64 words alone, not of numpy's samplers.
Word w gives u = (w >> 11) * 2**-53, and over H = round(years * 8760) hours:
- word 0 gives the count C = F^-1(u), for F = F_(saifi * years);
- words 1..C give the starts, floor(u * H) in floats, capped at H - 1;
- words C+1..2C give the durations, 1 + F^-1(u) each, for F = F_(caidi - 1).
That is `sample_outages`' order, and its merge: each trace's starts sorted,
paired with its durations in draw order. F^-1(u) is the smallest j with
u < F(j), or the table's last j (inversion by table lookup: Devroye,
Non-Uniform Random Variate Generation, 1986). F_m, the Poisson(m) CDF, is
a table of floats, each step left to right as written: weights w(k) = 1 at
the mode k = floor(m), w(j - 1) = w(j) * j / m below it and w(j + 1) =
w(j) * m / (j + 1) above, each side until a weight is 0.0 (and 0.0 past
it), so none underflows at any mean; S is their sum in order of j, and
F_m(j) = F_m(j - 1) + w(j) / S from F_m(-1) = 0.0. The table ends at the
first j where F_m reaches 1.0, or just before the first j above the mode
where F_m does not grow.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .config import HOURS_PER_YEAR
from .rng import raw_words, stream_seeds

__all__ = ["OutageTrace", "OutageBatch", "sample_outages", "generate_outages",
           "draw_outages"]


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


def _poisson_cdf(mean: float) -> np.ndarray:
    """The table of F_mean, as the module docstring defines it."""
    mode = j = int(mean)
    weights = [1.0]  # w(mode), w(mode - 1), ..., to w(0) or the first 0.0
    while j > 0 and weights[-1] > 0.0:
        weights.append(weights[-1] * j / mean)
        j -= 1
    weights.reverse()  # now w(j), ..., w(mode), with w(i) = 0.0 for i < j
    while weights[-1] > 0.0:
        weights.append(weights[-1] * mean / (j + len(weights)))
    *_, total = accumulate(weights)
    cdf = [0.0] * j
    for j, f in enumerate(accumulate(w / total for w in weights), j):
        if j > mode and f == cdf[-1]:
            break
        cdf.append(f)
        if f >= 1.0:
            break
    return np.array(cdf)


def _doubles(words: np.ndarray) -> np.ndarray:
    """u = (w >> 11) * 2**-53 of each raw word w."""
    return (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def _inverse(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The smallest j with u < cdf[j] for each u, or the table's last j."""
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)


def draw_outages(saifi: float, caidi: float, horizon_years: float,
                 master_seed: int, tag: str, keys) -> OutageBatch:
    """The trace of each key's stream `stream(master_seed, tag, *keys[i])`,
    as the module docstring defines it, merged outages as flat arrays.

    A trace of C outages reads 1 + 2C words, and C is at most the count
    table's last j, so one `raw_words` read of that many words per stream
    serves every trace.
    """
    hours = _horizon_hours(saifi, caidi, horizon_years)
    count_cdf = _poisson_cdf(saifi * horizon_years)
    duration_cdf = _poisson_cdf(caidi - 1)
    words = raw_words(stream_seeds(master_seed, tag, keys),
                      2 * len(count_cdf) - 1)
    counts = _inverse(count_cdf, _doubles(words[:, 0]))
    n = len(counts)
    row = np.repeat(np.arange(n), counts)  # the trace of each outage
    rank = np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts, counts)
    starts = (_doubles(words[row, 1 + rank]) * hours).astype(np.int64)
    durations = 1 + _inverse(duration_cdf,
                             _doubles(words[row, 1 + counts[row] + rank]))
    keys = np.sort(row * (hours + 1) + np.minimum(starts, hours - 1))
    return _merge(keys, durations, n, hours)
