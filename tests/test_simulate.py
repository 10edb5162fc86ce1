"""Period-level outage cost assembly on top of the hourly dispatcher."""

import math

import numpy as np
import pytest

from conftest import period_trace
from test_outages import reference_trace
from storeplan.config import HOURS_PER_YEAR
from storeplan.outages import OutageBatch
from storeplan.rng import stream
from storeplan.simulate import SimulationContext, row_sums


NONE = np.empty(0, dtype=np.int64)


def one_trace(starts, durations) -> OutageBatch:
    """One trace of the given outages, a batch of one."""
    return OutageBatch(np.array(starts, dtype=np.int64),
                       np.array(durations, dtype=np.int64),
                       np.array([len(starts)], dtype=np.int64))


def batch(traces) -> OutageBatch:
    """The traces' outages as one flat batch, trace by trace: their
    arrays concatenated, after those of a batch of no traces."""
    return OutageBatch(*(np.concatenate(arrays)
                         for arrays in zip((NONE, NONE, NONE), *traces)))


def test_fleet_uses_period_schedules(case_config, case_context):
    caps = (1000.0, 0.0, 3000.0, 0.0)
    f1 = case_context.fleet_for(1, caps)
    f4 = case_context.fleet_for(4, caps)
    assert f1.capacity.tolist() == list(caps)
    assert np.array_equal(f1.charge, f1.capacity)
    for unit, tech in enumerate(case_config.storage):
        assert f1.dod[unit] == tech.dod_schedule[0]
        assert f4.efficiency[unit] == tech.efficiency_schedule[3]


def test_period_outages_are_period_traces(case_config, case_context):
    """`period_outages` draws each stream's trace over the period's five
    years, as the `outages` reference draws it from the stream's words."""
    plan = case_config.planning
    assert plan.years_per_period == 5
    keys = [(0, 0), (3, 0), (1, 7), (3, 2)]
    traces = [reference_trace(plan.saifi, plan.caidi, 5, 0, "sim-test", key)
              for key in keys]
    got = case_context.period_outages(0, "sim-test", keys)
    assert got.starts.tolist() == [s for starts, _ in traces for s in starts]
    assert got.durations.tolist() == [d for _, ds in traces for d in ds]
    assert got.counts.tolist() == [len(starts) for starts, _ in traces]


def test_zero_capacity_cost_is_positive_and_repeatable(case_context):
    trace = period_trace(case_context, stream(1, "sim-test"))
    cost = case_context.period_cost(1, (0.0, 0.0, 0.0, 0.0), trace)
    again = case_context.period_cost(1, (0.0, 0.0, 0.0, 0.0), trace)
    assert cost > 0
    assert cost == again


def test_storage_weakly_reduces_cost(case_context):
    """More capacity can only remove lost load, never add it."""
    trace = period_trace(case_context, stream(2, "sim-test"))
    bare = case_context.period_cost(1, (0.0, 0.0, 0.0, 0.0), trace)
    small = case_context.period_cost(1, (1000.0, 0.0, 0.0, 0.0), trace)
    big = case_context.period_cost(1, (3000.0, 3000.0, 3000.0, 0.0), trace)
    assert bare >= small >= big


def test_later_periods_cost_more_for_same_trace(case_context):
    """Demand growth makes the same outage trace lose more energy later."""
    trace = period_trace(case_context, stream(3, "sim-test"))
    caps = (0.0, 0.0, 0.0, 0.0)
    costs = [case_context.period_cost(k, caps, trace) for k in (1, 2, 3, 4)]
    assert costs == sorted(costs)


def test_batched_jobs_cost_what_each_job_costs_alone(case_context):
    """One `period_costs` call over several jobs, their outages dispatched
    together, gives each job's own `period_cost` bit for bit."""
    rng = stream(4, "sim-test")
    jobs = [(k, caps, period_trace(case_context, rng))
            for k, caps in ((2, (1000.0, 0.0, 0.0, 0.0)),
                            (1, (0.0, 0.0, 0.0, 0.0)),
                            (4, (3000.0, 300.0, 0.0, 9000.0)),
                            (3, (300.0, 300.0, 300.0, 300.0)))]
    jobs.append((1, (1000.0, 0.0, 0.0, 0.0), one_trace([], [])))
    periods, caps, traces = zip(*jobs)
    costs = case_context.period_costs(periods, caps, batch(traces))
    assert costs == [case_context.period_cost(*job) for job in jobs]
    assert costs[-1] == 0.0
    assert case_context.period_costs([], [], batch([])) == []


@pytest.mark.parametrize("form", [
    lambda periods, caps: (list(periods), list(caps)),
    lambda periods, caps: (np.array(periods, dtype=np.int32),
                           np.array(caps)),
    lambda periods, caps: (np.array(periods, dtype=np.uint8),
                           np.array(caps)),
])
def test_period_costs_take_fleets_as_arrays_or_sequences(case_context, form):
    """`period_costs` reads its (jobs,) periods and (jobs, units)
    capacities as arrays of any integer dtype or as sequences, and gives
    each job its own `period_cost` either way."""
    rng = stream(11, "sim-test")
    periods = [int(k) for k in rng.integers(1, 5, size=6)]
    caps = [tuple(rng.choice((0.0, 300.0, 1000.0, 3000.0), size=4).tolist())
            for _ in periods]
    traces = [period_trace(case_context, rng) for _ in periods]
    want = [case_context.period_cost(*job) for job in zip(periods, caps,
                                                           traces)]
    assert case_context.period_costs(*form(periods, caps),
                                     batch(traces)) == want


def test_fresh_fleet_each_outage(case_context):
    """A long trace must not carry depletion from one outage into the next.

    With one small unit and two long outages, cost equals the sum of the two
    single-outage costs computed from a full fleet each time.
    """
    starts, durations = (1000, 5000), (12, 12)
    caps = (300.0, 0.0, 0.0, 0.0)
    whole = case_context.period_cost(1, caps, one_trace(starts, durations))
    parts = [case_context.period_cost(1, caps, one_trace([s], [d]))
             for s, d in zip(starts, durations)]
    assert whole == pytest.approx(sum(parts))


def test_period_cost_is_the_voll_weighted_dispatch(case_config,
                                                   case_context):
    """`period_cost` and `simulate` agree bit for bit on every outage.

    The cost works from the fleet's two energies alone, the dispatcher's
    hourly view from the unit states; both must lose the same load, priced
    at each class's VOLL, for random fleets and for the empty one.
    """
    volls = np.array([f.voll for f in case_config.facilities_by_priority])
    years = case_config.planning.years_per_period
    rng = stream(6, "sim-test")
    values = (0.0, 300.0, 1000.0, 1300.0, 3000.0, 4300.0, 9000.0)
    fleets = [(0.0,) * 4] + [tuple(rng.choice(values, size=4).tolist())
                             for _ in range(12)]
    for caps in fleets:
        k = int(rng.integers(1, 5))
        trace = period_trace(case_context, rng)
        offset = (k - 1) * years * HOURS_PER_YEAR
        expected = 0.0
        for start, duration in zip(trace.starts, trace.durations):
            result = case_context.dispatcher.simulate(
                case_context.fleet_for(k, caps), offset + start, duration)
            expected += float(volls @ result.lost_kwh.sum(axis=0))
        assert case_context.period_cost(k, caps, trace) == expected


def _voll_oracle(volls, lost, counts):
    """Each job's cost as one `volls @ row` dot per outage, added left to
    right from 0.0."""
    rows = iter(lost)
    costs = []
    for count in counts:
        total = 0.0
        for _ in range(count):
            total += float(volls @ next(rows))
        costs.append(total)
    return costs


def test_voll_pricing_is_the_per_outage_dot(case_config, case_context,
                                            monkeypatch):
    """`period_costs` prices every outage in one stacked matmul; each price
    has the bits of `volls @ row`, on lost-energy rows of every magnitude,
    zero rows and jobs without outages included."""
    volls = np.array([f.voll for f in case_config.facilities_by_priority])
    rng = np.random.default_rng(8)
    counts = rng.integers(0, 6, size=400)
    counts[:5] = 0
    n = int(counts.sum())
    lost = rng.uniform(0, 1, size=(n, len(volls))) * 10.0 ** rng.integers(
        -3, 7, size=(n, len(volls)))
    lost[rng.random(n) < 0.2] = 0.0
    lost[rng.random((n, len(volls))) < 0.2] = 0.0
    monkeypatch.setattr(case_context.dispatcher, "serve",
                        lambda *lanes: (None, lost))
    outages = OutageBatch(np.zeros(n, dtype=np.int64),
                          np.ones(n, dtype=np.int64), counts)
    assert case_context.period_costs(
        np.ones(len(counts), dtype=int), np.zeros((len(counts), 4)),
        outages) == _voll_oracle(volls, lost, counts)


def test_dispatched_costs_match_per_outage_dot(case_config, case_context):
    """On real dispatch over random fleets and traces, the empty fleet and
    empty traces included, one `period_costs` call gives each job the
    per-outage dot sum of its own `serve` call's losses."""
    volls = np.array([f.voll for f in case_config.facilities_by_priority])
    period_hours = case_config.planning.years_per_period * HOURS_PER_YEAR
    rng = stream(9, "sim-test")
    values = (0.0, 300.0, 1000.0, 3000.0, 9000.0)
    jobs = [(1, (0.0,) * 4, one_trace([], []))]
    for _ in range(60):
        caps = tuple(rng.choice(values, size=4).tolist())
        jobs.append((int(rng.integers(1, 5)), caps,
                     period_trace(case_context, rng)))
    expected = []
    for k, caps, trace in jobs:
        s_d, s_c = case_context.fleet_for(k, caps).energy()
        n = len(trace.starts)
        _, lost = case_context.dispatcher.serve(
            [s_d] * n, [s_d] * n, [s_c] * n,
            [(k - 1) * period_hours + s for s in trace.starts],
            trace.durations)
        expected += _voll_oracle(volls, lost, [n])
    periods, caps, traces = zip(*jobs)
    assert case_context.period_costs(periods, caps,
                                     batch(traces)) == expected
    assert expected[0] == 0.0


@pytest.mark.parametrize("units", [1, 4, 9, 17])
def test_period_costs_energies_are_each_fleets_own(case_context, monkeypatch,
                                                   units):
    """The (S_d, S_c) that `period_costs` takes for all jobs at once are each
    fleet's own `StorageFleet.energy()`, bit for bit, whatever the fleet's
    unit count."""
    rng = stream(10, "sim-test", units)
    periods = case_context.config.planning.horizon_periods
    monkeypatch.setattr(case_context, "dod",
                        rng.uniform(0.4, 1.0, size=(periods, units)))
    monkeypatch.setattr(case_context, "efficiency",
                        rng.uniform(0.6, 0.98, size=(periods, units)))
    lanes = {}

    def serve(level, s_d, s_c, start_hour, duration_hours):
        lanes.update(s_d=s_d, s_c=s_c)
        return None, np.zeros((len(s_d), len(case_context._volls)))

    monkeypatch.setattr(case_context.dispatcher, "serve", serve)
    values = (0.0, 300.0, 1000.0, 1300.0, 4300.0, 9000.0, 1234.5678)
    fleets = [(int(rng.integers(1, periods + 1)),
               tuple((rng.choice(values, size=units)
                      * rng.uniform(0.5, 2.0, size=units)).tolist()))
              for _ in range(200)]
    fleets.append((1, (0.0,) * units))
    counts = np.ones(len(fleets), dtype=np.int64)
    periods, caps = zip(*fleets)
    case_context.period_costs(periods, caps, OutageBatch(
        np.zeros(len(fleets), dtype=np.int64), counts, counts))
    expected = [case_context.fleet_for(k, caps).energy() for k, caps in fleets]
    assert list(zip(lanes["s_d"].tolist(), lanes["s_c"].tolist())) == expected


def test_row_sums_add_left_to_right():
    """`row_sums` is a plain `+=` loop from 0.0 over each row, on rows where
    `math.fsum` and numpy's pairwise `np.sum` each give other bits."""
    rng = np.random.default_rng(12)
    matrix = rng.uniform(-1, 1, size=(50, 40)) * 10.0 ** rng.integers(
        -8, 9, size=(50, 40))

    def plain(row):
        total = 0.0
        for x in row.tolist():
            total += x
        return total

    loop = [plain(row) for row in matrix]
    assert row_sums(matrix).tolist() == loop
    assert any(math.fsum(row) != want for row, want in zip(matrix, loop))
    assert any(float(np.sum(row)) != want for row, want in zip(matrix, loop))
    assert row_sums(np.zeros((3, 0))).tolist() == [0.0] * 3
