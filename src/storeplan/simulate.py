"""Monte Carlo estimation of per-period outage cost for a given storage build-out.

One trial simulates a single decision period: a fresh outage trace over the
period's years, dispatch of every outage from a freshly charged fleet taken as
one store, and the VOLL-weighted cost of whatever critical load went unserved.
The outages of many trials are dispatched together, one lane each, and
priced at the classes' VOLLs in one stacked matmul.
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import add

import numpy as np

from .config import HOURS_PER_YEAR, Config
from .dispatch import OutageDispatcher, StorageFleet
from .outages import OutageTrace, generate_outages

__all__ = ["SimulationContext"]


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

    def period_trace(self, rng: np.random.Generator) -> OutageTrace:
        plan = self.config.planning
        return generate_outages(plan.saifi, plan.caidi, plan.years_per_period, rng)

    def period_costs(self, jobs) -> list[float]:
        """Lost-load cost in $ of each `(period, capacities, trace)` job.

        Each distinct fleet's energies are computed once, and one `serve`
        call dispatches every outage of every job from a full store. One
        stacked `matmul` prices each outage's lost energy at the classes'
        VOLLs, a dot product per outage with the bits of `volls @ lost_row`;
        a job's cost adds its outages' prices left to right from 0.0.
        """
        period_hours = self.config.planning.years_per_period * HOURS_PER_YEAR
        energies = {}
        s_d, s_c, start, duration, counts = [], [], [], [], []
        for period, capacities, trace in jobs:
            key = (period, tuple(capacities))
            if key not in energies:
                energies[key] = self.fleet_for(period, capacities).energy()
            deliverable, recharge = energies[key]
            offset = (period - 1) * period_hours
            n = len(trace.starts)
            start += [offset + s for s in trace.starts]
            duration += trace.durations
            s_d += [deliverable] * n
            s_c += [recharge] * n
            counts.append(n)
        _, lost = self.dispatcher.serve(s_d, s_d, s_c, start, duration)
        prices = iter(np.matmul(lost[:, None, :], self._volls)[:, 0].tolist())
        # reduce adds left to right; sum() compensates from Python 3.12 on
        return [reduce(add, itertools.islice(prices, n), 0.0) for n in counts]

    def period_cost(self, period: int, capacities, trace: OutageTrace) -> float:
        """Lost-load cost in $ of serving one period's outage trace with `capacities`."""
        return self.period_costs([(period, capacities, trace)])[0]
