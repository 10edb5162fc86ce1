"""Statistical and structural checks on the outage trace generator.

Counts follow a Poisson law in the yearly interruption rate and durations a
shifted Poisson with a one-hour floor, so long-run frequency and mean duration
must recover the configured indices. Merging can only shorten a trace, never
lengthen it, and the result is always sorted and disjoint. The batched
drawer replays numpy's Poisson and bounded-integer samplers on raw words, so
it is held to `generate_outages` bit for bit, on every path it can take.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from storeplan import outages
from storeplan.config import HOURS_PER_YEAR
from storeplan.outages import OutageTrace, draw_outages, generate_outages
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


def assert_batch_is_reference(saifi, caidi, years, seed, keys, per):
    """`draw_outages` gives what `per` `generate_outages` calls on each
    key's stream give, trace after trace."""
    starts, durations, counts = [], [], []
    for key in keys:
        rng = stream(seed, "outage-batch", *key)
        for _ in range(per):
            trace = generate_outages(saifi, caidi, years, rng)
            starts += trace.starts
            durations += trace.durations
            counts.append(len(trace.starts))
    got = draw_outages(saifi, caidi, years, seed, "outage-batch", keys, per)
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
    key sets of 0 to 60 streams, one trace or four per stream: the batch is
    the streams' traces, and under 1 % of them are drawn by the fallback."""
    params = np.random.default_rng(2025)
    traces = 0
    for case in range(300):
        years = float(params.choice([1, 2, 2.5, 5, 7, 10]))
        saifi = params.uniform(0.01, 9.99) / years
        caidi = params.uniform(1.01, 10.99)
        per = (1, 4)[case % 2]
        keys = random_keys(params, int(params.integers(0, 61)))
        assert_batch_is_reference(saifi, caidi, years, case, keys, per)
        traces += len(keys) * per
    assert len(fallbacks) < traces / 100


@pytest.mark.parametrize("saifi, caidi, years", [
    (2.0, 5.122, 5),  # a mean count of 10: numpy draws by PTRS
    (1.155, 11.0, 5),  # a mean duration of 10
    (4.0, 15.0, 7),
    (1e-6, 3.0, 2**33 / HOURS_PER_YEAR),  # 2**33 hours: 64-bit draws
])
@pytest.mark.parametrize("per", [1, 4])
def test_drawn_batch_falls_back_where_numpy_draws_otherwise(
        fallbacks, saifi, caidi, years, per):
    keys = random_keys(np.random.default_rng(per), 25)
    assert_batch_is_reference(saifi, caidi, years, 11, keys, per)
    assert len(fallbacks) == len(keys) * per


@pytest.mark.parametrize("per", [1, 4])
@pytest.mark.parametrize("name, value, saifi", [
    # a budget of the mean word count less a deviation
    ("_SPREAD", -1.0, SAIFI),
    # ... which, at 0.05 outages a trace, puts the last count past it
    ("_SPREAD", -1.0, 0.01),
    ("_COUNT_WINDOW", 8, SAIFI),  # counts of 8 or more read past the window
])
def test_drawn_batch_falls_back_past_word_budget(fallbacks, monkeypatch,
                                                 per, name, value, saifi):
    monkeypatch.setattr(outages, name, value)
    keys = random_keys(np.random.default_rng(3), 200)
    assert_batch_is_reference(saifi, CAIDI, 5, 12, keys, per)
    assert fallbacks


@pytest.mark.parametrize("per", [1, 4])
def test_drawn_batch_falls_back_on_lemire_rejection(fallbacks, per):
    # over 2**31 + 1 hours, 2**32 mod n leaves a rejection zone of about
    # half the 32-bit draws; a trace holds half an outage on average
    years = (2**31 + 1) / HOURS_PER_YEAR
    assert int(round(years * HOURS_PER_YEAR)) == 2**31 + 1
    keys = random_keys(np.random.default_rng(4), 100)
    assert_batch_is_reference(2e-6, 3.0, years, 13, keys, per)
    assert 0 < len(fallbacks) < len(keys) * per


def test_drawn_batch_of_no_streams():
    batch = draw_outages(SAIFI, CAIDI, 5, 0, "outage-batch", [], 4)
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
