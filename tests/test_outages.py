"""Statistical and structural checks on the outage trace generator.

Counts follow a Poisson law in the yearly interruption rate and durations a
shifted Poisson with a one-hour floor, so long-run frequency and mean duration
must recover the configured indices. Merging can only shorten a trace, never
lengthen it, and the result is always sorted and disjoint. The numpy-sampler
trace is held bit for bit to a plain-Python merge of the same three draws.
`draw_outages` defines its traces on raw words by Poisson inversion, so it
is held bit for bit to a plain-Python reference of that definition, on
keyed streams and at fixed positions of one stream, its tables to the exact
Poisson CDF, and its consecutive traces of one stream to the law.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from storeplan import outages
from storeplan.config import HOURS_PER_YEAR
from storeplan.outages import (OutageBatch, draw_outages, generate_outages,
                               trace_words)
from storeplan.rng import raw_words, stream, stream_seeds

SAIFI = 1.155
CAIDI = 5.122


@dataclass(frozen=True)
class Outage:
    start_hour: int
    duration_hours: int


def reference_outages(saifi, caidi, horizon_years, rng):
    """The trace generator as it was written with one object per outage:
    the same three draws, merged through a list of [start, end] pairs."""
    horizon_hours = int(round(horizon_years * HOURS_PER_YEAR))
    count = rng.poisson(saifi * horizon_years)
    starts = np.sort(rng.integers(0, horizon_hours, size=count))
    durations = 1 + rng.poisson(caidi - 1, size=count)
    merged = []
    for start, dur in zip(starts.tolist(), durations.tolist()):
        end = min(start + dur, horizon_hours)
        if merged and start < merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return tuple(Outage(start_hour=s, duration_hours=e - s) for s, e in merged)


def test_flat_trace_matches_reference_generator():
    """Over 2,000 random (saifi, caidi, years), several traces from one
    generator each: the flat starts and durations are the reference's
    outages, and both generators are left in the same state. Half the
    counts, and about a third of the durations, have means of 10 or more,
    where numpy samples Poisson by another method."""
    params = np.random.default_rng(2024)
    big_counts = big_durations = 0
    for case in range(2_000):
        saifi = params.uniform(0.05, 3.0)
        years = float(params.choice([1, 2, 2.5, 5, 7, 10]))
        if case % 2:
            saifi = params.uniform(10.0, 40.0) / years
        caidi = params.uniform(1.05, 30.0 if case % 4 < 2 else 11.0)
        big_counts += saifi * years >= 10
        big_durations += caidi - 1 >= 10
        new, old = stream(case, "outage-oracle"), stream(case, "outage-oracle")
        for _ in range(3):
            trace = generate_outages(saifi, caidi, years, new)
            ref = reference_outages(saifi, caidi, years, old)
            assert trace.starts.tolist() == [o.start_hour for o in ref]
            assert trace.durations.tolist() == [o.duration_hours for o in ref]
            assert new.bit_generator.state == old.bit_generator.state
    assert big_counts >= 900 and big_durations >= 400


def reference_merge(starts, durations, horizon_hours):
    """One trace's outages merged one at a time: its sorted starts paired
    with its durations in the order they were drawn, each cut at the
    horizon edge. Returns the merged (starts, durations) lists."""
    begins, ends = [], []  # start and end hour of each merged outage
    for start, dur in zip(sorted(starts), durations):
        end = min(start + dur, horizon_hours)  # truncate at the edge
        if ends and start < ends[-1]:
            if end > ends[-1]:
                ends[-1] = end
        else:
            begins.append(start)
            ends.append(end)
    return begins, [e - b for b, e in zip(begins, ends)]


def drawn(n):
    """Traces 0..n-1 of the one stream `(14, "outage-law")`, trace i from
    the W words at i * W, read and drawn 20,000 traces a call so the words
    stay small; each read continues the stream where the last one ended,
    so the calls concatenate into the batch of one call."""
    bits = stream(14, "outage-law").bit_generator
    width = trace_words(SAIFI, CAIDI, 5)
    parts = []
    for first in range(0, n, 20_000):
        m = min(20_000, n - first)
        parts.append(draw_outages(SAIFI, CAIDI, 5, bits.random_raw(
            m * width).reshape(m, width)))
    return OutageBatch(*(np.concatenate(arrays) for arrays in zip(*parts)))


def test_traces_follow_the_law():
    """200,000 consecutive five-year traces of one stream at the case
    study's rates. Merging joins about one trace in 250 (an overlap of two
    outages in 43,800 hours), so the merged counts still pass a chi-square
    test against Poisson(saifi * 5), and a trace is empty exactly when it
    drew no outage. Durations average CAIDI, starts pass a
    Kolmogorov-Smirnov test for uniformity, and neighbouring traces' counts,
    which read neighbouring words of the stream, are uncorrelated. Each
    test is at the 0.1 % level, with its critical value written out
    (chi-square with 14 degrees of freedom: 36.12; Kolmogorov: 1.95 /
    sqrt(N)), so the test runs without scipy."""
    years, n = 5, 200_000
    hours = years * HOURS_PER_YEAR
    lam = SAIFI * years
    batch = drawn(n)
    counts = batch.counts
    top = 14  # counts of 14 or more pool into one bin
    seen = np.bincount(np.minimum(counts, top), minlength=top + 1)
    pmf = [math.exp(-lam) * lam ** k / math.factorial(k) for k in range(top)]
    expected = n * np.array(pmf + [1.0 - sum(pmf)])
    assert ((seen - expected) ** 2 / expected).sum() < 36.12  # chi2(14)
    assert abs(seen[0] - expected[0]) < 4 * math.sqrt(expected[0])
    total = int(counts.sum())
    mean_duration = batch.durations.sum() / total
    assert mean_duration == pytest.approx(CAIDI, abs=4 * 2.1 / total ** 0.5)
    u = np.sort(batch.starts) / hours
    grid = np.arange(1, total + 1) / total
    assert max((grid - u).max(), (u - grid + 1 / total).max()) < (
        1.95 / math.sqrt(total))
    r = np.corrcoef(counts[:-1], counts[1:])[0, 1]
    assert abs(r) < 4 / math.sqrt(n)


def reference_cdf(mean):
    """The Poisson(mean) CDF table of the `outages` docstring in plain
    Python: weights out from the mode until each side reaches 0.0, divided
    by their sum, then summed from j = 0 until the table ends."""
    mode = int(mean)
    weight = {mode: 1.0}
    j = mode
    while j > 0 and weight[j] != 0.0:
        weight[j - 1] = weight[j] * j / mean
        j -= 1
    j = mode
    while weight[j] != 0.0:
        weight[j + 1] = weight[j] * mean / (j + 1)
        j += 1
    total = 0.0
    for j in sorted(weight):
        total += weight[j]
    cdf, f = [], 0.0
    for j in range(max(weight) + 1):
        grown = f + weight.get(j, 0.0) / total
        if j > mode and grown == f:
            break
        cdf.append(grown)
        f = grown
        if f >= 1.0:
            break
    return cdf


def reference_inverse(cdf, u):
    """The smallest j with u < cdf[j], or the table's last j."""
    return next((j for j, f in enumerate(cdf) if u < f), len(cdf) - 1)


def reference_words_trace(saifi, caidi, years, words):
    """The trace of the raw words `words` (an iterator of ints) as the
    `outages` docstring defines it, in plain Python: its count, its starts,
    then its durations, each from the next word, merged one outage at a
    time. Returns the merged (starts, durations) lists."""
    hours = int(round(years * HOURS_PER_YEAR))

    def uniform():
        return (next(words) >> 11) * 2.0 ** -53

    def inverse(cdf):
        return reference_inverse(cdf, uniform())

    count = inverse(reference_cdf(saifi * years))
    starts = [min(int(uniform() * hours), hours - 1) for _ in range(count)]
    duration_cdf = reference_cdf(caidi - 1)
    durations = [1 + inverse(duration_cdf) for _ in range(count)]
    return reference_merge(starts, durations, hours)


def next_words(bits):
    """The raw words of a bit generator, one `random_raw()` call each."""
    while True:
        yield int(bits.random_raw())


def reference_trace(saifi, caidi, years, seed, tag, key):
    """The trace of `stream(seed, tag, *key)`'s first words."""
    return reference_words_trace(
        saifi, caidi, years, next_words(stream(seed, tag, *key).bit_generator))


def reference_stream_traces(saifi, caidi, years, seed, tag, n):
    """Traces 0..n-1 of the one stream `stream(seed, tag)`: trace i reads
    the words from i * W on, W = 2 * len(reference_cdf(saifi * years)) - 1,
    the stream read one word at a time."""
    width = 2 * len(reference_cdf(saifi * years)) - 1
    words = next_words(stream(seed, tag).bit_generator)
    traces = []
    for _ in range(n):
        block = [next(words) for _ in range(width)]
        traces.append(reference_words_trace(saifi, caidi, years, iter(block)))
    return traces


def flat(traces):
    """(starts, durations, counts) lists of (starts, durations) traces, as
    an `OutageBatch` holds them."""
    return ([s for starts, _ in traces for s in starts],
            [d for _, durations in traces for d in durations],
            [len(starts) for starts, _ in traces])


def assert_batch_is(batch, traces):
    assert [a.tolist() for a in batch] == list(flat(traces))


def assert_batch_is_reference(saifi, caidi, years, seed, keys):
    """`draw_outages` of each key's stream words gives the reference trace
    of that stream, trace after trace."""
    width = trace_words(saifi, caidi, years)
    got = draw_outages(saifi, caidi, years, raw_words(
        stream_seeds(seed, "outage-batch", keys), width))
    assert_batch_is(got, [reference_trace(saifi, caidi, years, seed,
                                          "outage-batch", key)
                          for key in keys])


def random_keys(params, size):
    return [tuple(int(i) for i in key) for key in params.integers(
        0, [1_000, 2**33], size=(size, 2))]


def test_drawn_batch_matches_reference():
    """Over 200 random (saifi, caidi, years), seeds and key sets of 0 to 60
    streams, with mean counts up to 30 and mean durations up to 20: the
    batch is the reference's traces."""
    params = np.random.default_rng(2025)
    for case in range(200):
        years = float(params.choice([1, 2, 2.5, 5, 7, 10]))
        saifi = params.uniform(0.01, 30.0) / years
        caidi = params.uniform(1.01, 21.0)
        keys = random_keys(params, int(params.integers(0, 61)))
        assert_batch_is_reference(saifi, caidi, years, case, keys)


@pytest.mark.parametrize("saifi, caidi, years", [
    (2.0, 5.122, 5),  # a mean count of 10
    (1.155, 11.0, 5),  # a mean duration of 10
    (4.0, 15.0, 7),  # a mean count of 28 and a mean duration of 14
    (1e-6, 3.0, 2**33 / HOURS_PER_YEAR),  # a horizon of 2**33 hours
    (0.01, CAIDI, 5),  # 0.05 outages a trace
])
def test_drawn_batch_matches_reference_at_edges(saifi, caidi, years):
    keys = random_keys(np.random.default_rng(1), 100)
    assert_batch_is_reference(saifi, caidi, years, 11, keys)


@pytest.mark.parametrize("mean",
                         [1e-6, SAIFI * 5, CAIDI - 1, 10.0, 28.0, 800.0])
def test_table_inverse_at_its_entries(mean):
    """The table is the reference's bit for bit, a u equal to a table entry
    maps past it, and a u at or past the last entry maps to the last j:
    random words almost never land there. At a mean of 800, exp(-mean)
    underflows to 0.0."""
    cdf = outages._poisson_cdf(mean)
    assert cdf.tolist() == reference_cdf(mean)
    u = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0),
                        [0.0, 1.0 - 2.0 ** -53]])
    u = u[(u >= 0.0) & (u < 1.0)]
    assert outages._inverse(cdf, u).tolist() == [
        reference_inverse(cdf.tolist(), x) for x in u.tolist()]


@pytest.mark.parametrize("mean", [1e-6, SAIFI * 5, CAIDI - 1, 10.0, 800.0])
def test_cdf_table_is_the_poisson_cdf(mean):
    """Each table entry is the Poisson CDF to 1e-15, and the mass past the
    table's last entry is below 1e-15."""
    poisson = pytest.importorskip("scipy.stats").poisson
    cdf = outages._poisson_cdf(mean)
    j = np.arange(len(cdf))
    np.testing.assert_allclose(cdf, poisson.cdf(j, mean), rtol=0, atol=1e-15)
    assert poisson.sf(j[-1], mean) < 1e-15


def test_stream_traces_match_reference():
    """Over 100 random (saifi, caidi, years), seeds and 0 to 60 traces:
    the traces at i * W of one stream, read in one `random_raw` call, are
    the reference's, read a word at a time."""
    params = np.random.default_rng(2027)
    for case in range(100):
        years = float(params.choice([1, 2, 2.5, 5, 7, 10]))
        saifi = params.uniform(0.01, 30.0) / years
        caidi = params.uniform(1.01, 21.0)
        n = int(params.integers(0, 61))
        width = trace_words(saifi, caidi, years)
        got = draw_outages(saifi, caidi, years, stream(
            case, "outage-stream").bit_generator.random_raw(
                n * width).reshape(n, width))
        assert_batch_is(got, reference_stream_traces(
            saifi, caidi, years, case, "outage-stream", n))


@pytest.mark.parametrize("saifi, years", [
    (1e-6, 5), (SAIFI, 5), (2.0, 5), (4.0, 7), (160.0, 5)])
def test_trace_words_is_the_count_tables_width(saifi, years):
    assert trace_words(saifi, CAIDI, years) == (
        2 * len(reference_cdf(saifi * years)) - 1)


def test_draw_refuses_words_of_another_width():
    width = trace_words(SAIFI, CAIDI, 5)
    for shape in ((3, width - 1), (3, width + 1), (3 * width,)):
        with pytest.raises(ValueError, match="words must be"):
            draw_outages(SAIFI, CAIDI, 5, np.zeros(shape, dtype=np.uint64))


def test_drawn_batch_of_no_traces():
    width = trace_words(SAIFI, CAIDI, 5)
    batch = draw_outages(SAIFI, CAIDI, 5, np.empty((0, width), np.uint64))
    assert [len(a) for a in batch] == [0, 0, 0]


def test_long_run_frequency_and_duration():
    rng = stream(11, "outage-stats")
    trace = generate_outages(SAIFI, CAIDI, 20_000, rng)
    n = len(trace.starts)
    assert n / 20_000 == pytest.approx(SAIFI, rel=0.03)
    assert trace.total_hours() / n == pytest.approx(CAIDI, rel=0.03)


def test_durations_never_below_one_hour():
    rng = stream(12, "outage-floor")
    trace = generate_outages(SAIFI, CAIDI, 500, rng)
    assert all(d >= 1 for d in trace.durations)


def test_outages_sorted_and_disjoint():
    rng = stream(13, "outage-order")
    trace = generate_outages(SAIFI, CAIDI, 2_000, rng)
    for start, dur, after in zip(trace.starts, trace.durations,
                                 trace.starts[1:]):
        assert start + dur <= after


def test_truncation_at_horizon_edge():
    # every outage must end inside the simulated horizon
    for seed in range(50):
        trace = generate_outages(SAIFI, CAIDI, 2, stream(seed, "outage-edge"))
        horizon_hours = 2 * HOURS_PER_YEAR
        assert all(s + d <= horizon_hours
                   for s, d in zip(trace.starts, trace.durations))


@pytest.mark.parametrize("saifi,caidi,years", [
    (0.0, 5.0, 10), (-1.0, 5.0, 10), (1.0, 1.0, 10), (1.0, 0.5, 10),
    (1.0, 5.0, 0.5),
])
def test_generator_rejects_bad_parameters(saifi, caidi, years):
    with pytest.raises(ValueError):
        generate_outages(saifi, caidi, years, stream(0, "outage-bad"))


def test_same_stream_reproduces_trace():
    a = generate_outages(SAIFI, CAIDI, 100, stream(42, "outage-repro"))
    b = generate_outages(SAIFI, CAIDI, 100, stream(42, "outage-repro"))
    assert [x.tolist() for x in a] == [x.tolist() for x in b]


@settings(max_examples=30)
@given(seed=st.integers(0, 10_000), years=st.integers(1, 50))
def test_merged_hours_never_exceed_raw_draw(seed, years):
    # merging overlaps and truncating can only remove outage-hours
    rng = stream(seed, "outage-merge")
    count = rng.poisson(SAIFI * years)
    rng.integers(0, years * HOURS_PER_YEAR, size=count)  # starts, drawn second
    durations = 1 + rng.poisson(CAIDI - 1, size=count)
    trace = generate_outages(SAIFI, CAIDI, years,
                             stream(seed, "outage-merge"))
    assert trace.total_hours() <= durations.sum()
    assert len(trace.starts) <= count


def test_empty_trace_total():
    none = np.empty(0, dtype=np.int64)
    trace = OutageBatch(none, none, np.zeros(1, dtype=np.int64))
    assert trace.total_hours() == 0
