"""Monte Carlo estimation of per-period outage cost for a given storage build-out.

One trial simulates a single decision period: a fresh outage trace over the
period's years, dispatch of every outage from a freshly charged fleet taken as
one store, and the VOLL-weighted cost of whatever critical load went unserved.
The traces of many trials are drawn together by `outages.draw_outages`,
from keyed streams' words (`period_outages`) or from one evaluation
stream's, and their outages dispatched together, one lane each, and priced
at the classes' VOLLs in one stacked matmul. Every trace arrives as an
`outages.OutageBatch`, one trace or many: `period_cost` prices a batch of
one through `period_costs`.
"""

from __future__ import annotations

import numpy as np

from .config import HOURS_PER_YEAR, Config
from .dispatch import OutageDispatcher, StorageFleet, fleet_energy
from .outages import OutageBatch, draw_outages, trace_words
from .rng import StreamWords, stream_seeds

__all__ = ["SimulationContext", "period_energy", "row_sums"]


def row_sums(matrix) -> np.ndarray:
    """Each row of a 2-D array summed left to right from 0.0, one column at
    a time. Every sum that reaches an artifact is taken this way: `sum()`
    compensates from Python 3.12 on, and numpy sums pairwise, so either
    would tie the bytes written to the interpreter or to the row length."""
    matrix = np.asarray(matrix, dtype=float)
    total = np.zeros(matrix.shape[0])
    for column in matrix.T:
        total += column
    return total


def period_energy(period, capacity, dod, efficiency):
    """(S_d, S_c) of rows of period and per-unit capacity, under the
    schedules `dod` and `efficiency`, indexed [period - 1, unit]."""
    period = np.asarray(period).astype(int)
    if len(period) and (period.min() < 1 or period.max() > len(dod)):
        raise ValueError("period outside the dod/efficiency schedules")
    return fleet_energy(capacity, dod[period - 1], efficiency[period - 1])


class SimulationContext:
    """Reusable bundle of dispatcher, fleet templates, and cost accounting."""

    def __init__(self, config: Config):
        self.config = config
        plan = config.planning
        self.dispatcher = OutageDispatcher(
            facilities=config.facilities, profiles=config.demand_profiles,
            irradiance=config.irradiance, wind=config.wind,
            renewables=plan.renewables, growth_rate=plan.demand_growth_rate,
            horizon_hours=plan.horizon_hours)
        self._volls = np.array([f.voll for f in config.facilities_by_priority])
        # Usable depth and efficiency schedules, indexed [period - 1, unit].
        self.dod = np.array([t.dod_schedule for t in config.storage]).T
        self.efficiency = np.array([t.efficiency_schedule
                                    for t in config.storage]).T

    def fleet_for(self, period: int, capacities) -> StorageFleet:
        """Fully charged fleet with the period's efficiency and usable-depth values."""
        return StorageFleet.full(capacity=capacities,
                                 dod=self.dod[period - 1],
                                 efficiency=self.efficiency[period - 1])

    def period_outages(self, master_seed: int, tag: str, keys) -> OutageBatch:
        """Each key's period trace, from the first `trace_words` raw words
        of `stream(master_seed, tag, *key)`, of which only the words the
        trace reads are computed."""
        plan = self.config.planning
        law = (plan.saifi, plan.caidi, plan.years_per_period)
        return draw_outages(*law, StreamWords(
            stream_seeds(master_seed, tag, keys), trace_words(*law)))

    def period_costs(self, fleets, outages: OutageBatch) -> list[float]:
        """Lost-load cost in $ of each job: `fleets[i]` is job i's
        `(period, capacities)` and `outages.counts[i]` counts its outages.

        One `period_energy` call gives every job's (S_d, S_c), and one
        `serve` call dispatches every outage of every job from a full store.
        One stacked `matmul` prices each outage's lost energy at the
        classes' VOLLs, a dot product per outage with the bits of
        `volls @ lost_row`. A job's cost adds its outages' prices left to
        right (`row_sums` of the (jobs, outages) price matrix); the zeros
        that pad shorter jobs leave their sums unchanged.
        """
        period_hours = self.config.planning.years_per_period * HOURS_PER_YEAR
        period = np.array([k for k, _ in fleets], dtype=np.int64)
        capacity = np.array([c for _, c in fleets], dtype=float).reshape(
            len(fleets), self.dod.shape[1])
        counts = np.asarray(outages.counts, dtype=np.int64)
        s_d, s_c = (np.repeat(e, counts) for e in period_energy(
            period, capacity, self.dod, self.efficiency))
        start = np.repeat((period - 1) * period_hours, counts)
        _, lost = self.dispatcher.serve(s_d, s_d, s_c, start + outages.starts,
                                        outages.durations)
        prices = np.zeros((len(counts), counts.max(initial=0)))
        prices[np.arange(prices.shape[1]) < counts[:, None]] = np.matmul(
            lost[:, None, :], self._volls)[:, 0]
        return row_sums(prices).tolist()

    def period_cost(self, period: int, capacities, trace: OutageBatch) -> float:
        """Lost-load cost in $ of serving one period's outage trace, a
        batch of one, with `capacities`."""
        return self.period_costs([(period, capacities)], trace)[0]
