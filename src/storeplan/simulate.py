"""Monte Carlo estimation of per-period outage cost for a given storage build-out.

One trial simulates a single decision period: a fresh outage trace over the
period's years, dispatch of every outage from a freshly charged fleet taken as
one store, and the VOLL-weighted cost of whatever critical load went unserved.
"""

from __future__ import annotations

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

    def period_cost(self, period: int, capacities, trace: OutageTrace) -> float:
        """Lost-load cost in $ of serving one period's outage trace with `capacities`."""
        plan = self.config.planning
        offset = (period - 1) * plan.years_per_period * HOURS_PER_YEAR
        s_d, s_c = self.fleet_for(period, capacities).energy()
        total = 0.0
        for outage in trace.outages:
            _, lost = self.dispatcher.serve(s_d, s_d, s_c,
                                            offset + outage.start_hour,
                                            outage.duration_hours)
            total += float(self._volls @ np.array(lost))
        return total

    def trial_outage_cost(self, period: int, capacities,
                          rng: np.random.Generator) -> float:
        """One Monte Carlo trial: fresh trace, full dispatch, total cost."""
        return self.period_cost(period, capacities, self.period_trace(rng))
