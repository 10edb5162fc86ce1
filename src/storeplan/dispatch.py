"""Proportional multi-unit storage dispatch during grid outages.

Renewable production serves the prioritized critical load first; storage covers
the shortfall and absorbs any surplus. Facility classes are served
all-or-nothing per hour in priority order.

Charge and discharge are shared across units in proportion to their usable
energy cap * dod, so every unit keeps the same fractional state of charge and
the fleet acts as one store: deliverable energy S_d = sum(cap * dod * eff) and
recharge capacity S_c = sum(cap * dod / eff). Dispatch steps that one store.
A deficit drains the deliverable energy left kWh for kWh; a surplus refills it
at S_d / S_c per kWh, up to S_d. Outages are independent of each other, so
`OutageDispatcher.serve` steps many of them at once, one array lane each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import (HOURS_PER_YEAR, FacilityClass, HourlySeries)
from .renewables import RenewableParams, solar_power, wind_power

__all__ = ["StorageFleet", "OutageServiceResult", "OutageDispatcher",
           "fleet_energy"]


def fleet_energy(capacity, dod, efficiency):
    """Deliverable and recharge energy (S_d, S_c), summed over the last axis."""
    usable = np.asarray(capacity, dtype=float) * dod
    return (usable * efficiency).sum(axis=-1), (usable / efficiency).sum(axis=-1)


@dataclass
class StorageFleet:
    """Per-unit installed capacity, usable-depth and efficiency, and stored energy."""

    capacity: np.ndarray
    dod: np.ndarray
    efficiency: np.ndarray
    charge: np.ndarray

    def __post_init__(self) -> None:
        self.capacity = np.asarray(self.capacity, dtype=float)
        self.dod = np.asarray(self.dod, dtype=float)
        self.efficiency = np.asarray(self.efficiency, dtype=float)
        self.charge = np.asarray(self.charge, dtype=float)

    @classmethod
    def full(cls, capacity, dod, efficiency) -> "StorageFleet":
        capacity = np.asarray(capacity, dtype=float)
        return cls(capacity=capacity, dod=np.asarray(dod, dtype=float),
                   efficiency=np.asarray(efficiency, dtype=float),
                   charge=capacity.copy())

    @property
    def min_level(self) -> np.ndarray:
        return self.capacity * (1.0 - self.dod)

    def energy(self) -> tuple[float, float]:
        """The fleet's (S_d, S_c) as one store."""
        s_d, s_c = fleet_energy(self.capacity, self.dod, self.efficiency)
        return float(s_d), float(s_c)


@dataclass
class OutageServiceResult:
    """Hour-by-hour service outcome for one outage, facilities in priority order."""

    start_hour: int
    served: np.ndarray      # (hours, facilities) bool
    lost_kwh: np.ndarray    # (hours, facilities) critical energy lost
    final_charge: np.ndarray


class OutageDispatcher:
    """Hourly outage simulation over a fixed microgrid description.

    Precomputes the renewable production year and each facility class's critical
    hourly load so per-outage simulation stays cheap.
    """

    def __init__(self, facilities: tuple[FacilityClass, ...],
                 profiles: dict[str, HourlySeries], irradiance: HourlySeries,
                 wind: HourlySeries, renewables: RenewableParams,
                 growth_rate: float, horizon_hours: int):
        self.facilities = tuple(sorted(facilities, key=lambda f: f.priority_rank))
        self.horizon_hours = horizon_hours
        self._renewable = (solar_power(irradiance.values, renewables)
                           + wind_power(wind.values, renewables))
        self._critical = np.array([
            fac.count * fac.critical_factor * profiles[fac.profile].values
            for fac in self.facilities]).reshape(len(self.facilities),
                                                 HOURS_PER_YEAR)
        n_years = -(-horizon_hours // HOURS_PER_YEAR)
        self._growth = np.array([(1.0 + growth_rate) ** y
                                 for y in range(n_years)])

    def serve(self, level, s_d, s_c, start_hour, duration_hours
              ) -> tuple[np.ndarray, np.ndarray]:
        """Serve outages, one per lane, each from a store holding `level` of
        its S_d kWh.

        Every argument holds one value per lane. The lanes step hour by hour
        together, and a lane drops out when its outage ends. Returns the
        deliverable energy left per lane and the critical energy lost,
        summed over the hours, shaped (lanes, facility classes).
        """
        # longest outages first, so the lanes still running are a prefix
        order = np.argsort(-np.asarray(duration_hours), kind="stable")
        start, duration = (np.asarray(a, dtype=np.int64)[order]
                           for a in (start_hour, duration_hours))
        level, s_d, s_c = (np.asarray(a, dtype=float)[order]
                           for a in (level, s_d, s_c))
        if len(start) and (start.min() < 0 or (start + duration).max()
                           > self.horizon_hours):
            raise ValueError("outage extends past the simulation horizon")
        refill = np.divide(s_d, s_c, out=np.zeros_like(s_d), where=s_c > 0)
        lost = np.zeros((len(start), len(self._critical)))
        for j in range(int(duration.max(initial=0))):
            n = int(np.count_nonzero(duration > j))
            t = start[:n] + j
            h = t % HOURS_PER_YEAR
            factor = self._growth[t // HOURS_PER_YEAR]
            ren = self._renewable[h]
            left = level[:n]
            budget = ren + left + 1e-9
            demand_total = np.zeros(n)
            served = np.ones(n, dtype=bool)
            for g, base in enumerate(self._critical):
                d = base[h] * factor
                served &= demand_total + d <= budget
                np.add(demand_total, d, out=demand_total, where=served)
                np.add(lost[:n, g], d, out=lost[:n, g], where=~served)
            short = demand_total >= ren
            level[:n] = np.where(
                short, np.maximum(left - (demand_total - ren), 0.0),
                np.minimum(left + (ren - demand_total) * refill[:n], s_d[:n]))
        back = np.argsort(order)
        return level[back], lost[back]

    def simulate(self, fleet: StorageFleet, start_hour: int,
                 duration_hours: int) -> OutageServiceResult:
        """Serve one outage from the given fleet state; the input fleet is not mutated.

        The fleet enters `serve` at its shared fraction of charge: the least
        (charge - floor) / (capacity - floor) over units with capacity. It
        steps one `serve` call per hour, carrying the level, so each hour's
        losses are its own. Classes are served all or nothing in priority
        order, and the first class refused has positive demand, so an hour
        serves the classes before its first loss. Each unit leaves at its
        floor plus the final fraction of its span.
        """
        s_d, s_c = fleet.energy()
        floor = fleet.min_level
        span = fleet.capacity - floor
        active = fleet.capacity > 0
        share = (float(((fleet.charge - floor)[active] / span[active]).min())
                 if active.any() else 0.0)
        level = share * s_d
        lost = np.zeros((duration_hours, len(self.facilities)))
        for j in range(duration_hours):
            (level,), lost[j] = self.serve([level], [s_d], [s_c],
                                           [start_hour + j], [1])
        return OutageServiceResult(
            start_hour=start_hour,
            served=~np.logical_or.accumulate(lost > 0, axis=1),
            lost_kwh=lost,
            final_charge=floor + (level / s_d if s_d > 0 else 0.0) * span)
