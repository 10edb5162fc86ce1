"""Statistical and structural checks on the outage trace generator.

Counts follow a Poisson law in the yearly interruption rate and durations a
shifted Poisson with a one-hour floor, so long-run frequency and mean duration
must recover the configured indices. Merging can only shorten a trace, never
lengthen it, and the result is always sorted and disjoint. `sample_outages`
is held bit for bit to a plain-Python merge of the same three draws, and to
the law over many traces. The per-stream drawer replays numpy's Poisson and
bounded-integer samplers on raw words, so it is held to `generate_outages`
bit for bit, on every path it can take.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from storeplan import outages
from storeplan.config import HOURS_PER_YEAR
from storeplan.outages import (OutageTrace, draw_outages, generate_outages,
                               sample_outages)
from storeplan.rng import stream

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
            assert trace.starts == tuple(o.start_hour for o in ref)
            assert trace.durations == tuple(o.duration_hours for o in ref)
            assert trace.horizon_years == years
            assert new.bit_generator.state == old.bit_generator.state
    assert big_counts >= 900 and big_durations >= 400


def reference_sample(saifi, caidi, horizon_years, rng, n):
    """`sample_outages` in plain Python: the same three draws, then each
    trace's sorted starts paired with its durations and merged one outage
    at a time, as `generate_outages` merged before it was vectorised.
    Returns each trace's (starts, durations) lists."""
    horizon_hours = int(round(horizon_years * HOURS_PER_YEAR))
    counts = rng.poisson(saifi * horizon_years, n).tolist()
    starts = rng.integers(0, horizon_hours, sum(counts)).tolist()
    durations = (1 + rng.poisson(caidi - 1, sum(counts))).tolist()
    traces, at = [], 0
    for count in counts:
        begins, ends = [], []  # start and end hour of each merged outage
        for start, dur in zip(sorted(starts[at:at + count]),
                              durations[at:at + count]):
            end = min(start + dur, horizon_hours)  # truncate at the edge
            if ends and start < ends[-1]:
                if end > ends[-1]:
                    ends[-1] = end
            else:
                begins.append(start)
                ends.append(end)
        traces.append((begins, [e - b for b, e in zip(begins, ends)]))
        at += count
    return traces


def test_sampled_batch_matches_reference():
    """Over 1,000 random (saifi, caidi, years, n): `sample_outages` gives
    the reference's traces, and both generators are left in the same
    state. Over 400 of the mean counts, and over 150 of the mean
    durations, are 10 or more, where numpy samples Poisson by another
    method."""
    params = np.random.default_rng(2026)
    big_counts = big_durations = 0
    for case in range(1_000):
        years = float(params.choice([1, 2, 2.5, 5, 7, 10]))
        saifi = params.uniform(0.05, 3.0 if case % 3 else 40.0 / years)
        caidi = params.uniform(1.05, 30.0 if case % 4 == 0 else 11.0)
        n = int(params.integers(0, 60))
        big_counts += saifi * years >= 10
        big_durations += caidi - 1 >= 10
        new, old = stream(case, "outage-sample"), stream(case, "outage-sample")
        got = sample_outages(saifi, caidi, years, new, n)
        want = reference_sample(saifi, caidi, years, old, n)
        assert got.counts.tolist() == [len(b) for b, _ in want]
        assert got.starts.tolist() == [s for b, _ in want for s in b]
        assert got.durations.tolist() == [d for _, ds in want for d in ds]
        assert new.bit_generator.state == old.bit_generator.state
    assert big_counts > 400 and big_durations > 150


def test_sampled_traces_follow_the_law():
    """200,000 five-year traces at the case study's rates. Merging joins
    about one trace in 250 (an overlap of two outages in 43,800 hours), so
    the merged counts still pass a chi-square test against Poisson(saifi *
    5), and a trace is empty exactly when it drew no outage. Durations
    average CAIDI, starts pass a Kolmogorov-Smirnov test for uniformity,
    and neighbouring traces' counts are uncorrelated. Each test is at the
    0.1 % level, with its critical value written out (chi-square with 14
    degrees of freedom: 36.12; Kolmogorov: 1.95 / sqrt(N)), so the test
    runs without scipy."""
    years, n = 5, 200_000
    hours = years * HOURS_PER_YEAR
    lam = SAIFI * years
    batch = sample_outages(SAIFI, CAIDI, years, stream(14, "outage-law"), n)
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


def test_sampled_batch_of_no_traces():
    rng = stream(15, "outage-none")
    state = rng.bit_generator.state
    batch = sample_outages(SAIFI, CAIDI, 5, rng, 0)
    assert [len(a) for a in batch] == [0, 0, 0]
    assert rng.bit_generator.state == state


def assert_batch_is_reference(saifi, caidi, years, seed, keys):
    """`draw_outages` gives what `generate_outages` gives on each key's
    stream, trace after trace."""
    starts, durations, counts = [], [], []
    for key in keys:
        trace = generate_outages(saifi, caidi, years,
                                 stream(seed, "outage-batch", *key))
        starts += trace.starts
        durations += trace.durations
        counts.append(len(trace.starts))
    got = draw_outages(saifi, caidi, years, seed, "outage-batch", keys)
    assert got.starts.tolist() == starts
    assert got.durations.tolist() == durations
    assert got.counts.tolist() == counts


@pytest.fixture
def fallbacks(monkeypatch):
    """The `generate_outages` calls `draw_outages` makes for the streams it
    does not replay; the tests' own calls go to the unwrapped function."""
    calls = []

    def spy(*args):
        calls.append(args)
        return generate_outages(*args)
    monkeypatch.setattr(outages, "generate_outages", spy)
    return calls


def random_keys(params, size):
    return [tuple(int(i) for i in key) for key in params.integers(
        0, [1_000, 2**33], size=(size, 2))]


def test_drawn_batch_matches_reference_generator(fallbacks):
    """Over 300 random (saifi, caidi, years) with means under 10, seeds and
    key sets of 0 to 120 streams: the batch is the streams' traces, and
    under 1 % of them are drawn by the fallback."""
    params = np.random.default_rng(2025)
    traces = 0
    for case in range(300):
        years = float(params.choice([1, 2, 2.5, 5, 7, 10]))
        saifi = params.uniform(0.01, 9.99) / years
        caidi = params.uniform(1.01, 10.99)
        keys = random_keys(params, int(params.integers(0, 121)))
        assert_batch_is_reference(saifi, caidi, years, case, keys)
        traces += len(keys)
    assert len(fallbacks) < traces / 100


@pytest.mark.parametrize("saifi, caidi, years", [
    (2.0, 5.122, 5),  # a mean count of 10: numpy draws by PTRS
    (1.155, 11.0, 5),  # a mean duration of 10
    (4.0, 15.0, 7),
    (1e-6, 3.0, 2**33 / HOURS_PER_YEAR),  # 2**33 hours: 64-bit draws
])
def test_drawn_batch_falls_back_where_numpy_draws_otherwise(
        fallbacks, saifi, caidi, years):
    keys = random_keys(np.random.default_rng(1), 25)
    assert_batch_is_reference(saifi, caidi, years, 11, keys)
    assert len(fallbacks) == len(keys)


@pytest.mark.parametrize("name, value, saifi", [
    # a budget of the mean word count less a deviation
    ("_SPREAD", -1.0, SAIFI),
    # ... which, at 0.05 outages a trace, puts the last count past it
    ("_SPREAD", -1.0, 0.01),
    ("_COUNT_WINDOW", 8, SAIFI),  # counts of 8 or more read past the window
])
def test_drawn_batch_falls_back_past_word_budget(fallbacks, monkeypatch,
                                                 name, value, saifi):
    monkeypatch.setattr(outages, name, value)
    keys = random_keys(np.random.default_rng(3), 200)
    assert_batch_is_reference(saifi, CAIDI, 5, 12, keys)
    assert fallbacks


def test_drawn_batch_falls_back_on_lemire_rejection(fallbacks):
    # over 2**31 + 1 hours, 2**32 mod n leaves a rejection zone of about
    # half the 32-bit draws; a trace holds half an outage on average
    years = (2**31 + 1) / HOURS_PER_YEAR
    assert int(round(years * HOURS_PER_YEAR)) == 2**31 + 1
    keys = random_keys(np.random.default_rng(4), 100)
    assert_batch_is_reference(2e-6, 3.0, years, 13, keys)
    assert 0 < len(fallbacks) < len(keys)


def test_drawn_batch_of_no_streams():
    batch = draw_outages(SAIFI, CAIDI, 5, 0, "outage-batch", [])
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
    assert a == b


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
    assert OutageTrace(starts=(), durations=(),
                       horizon_years=1).total_hours() == 0
