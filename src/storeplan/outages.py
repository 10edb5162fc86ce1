"""Stochastic grid-outage traces driven by the SAIFI and CAIDI reliability indices.

Outage arrivals form a homogeneous Poisson process with rate SAIFI per year;
each duration is 1 + Poisson(CAIDI - 1) hours, which guarantees a one-hour
minimum while keeping the stated mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import HOURS_PER_YEAR

__all__ = ["Outage", "OutageTrace", "generate_outages"]


@dataclass(frozen=True)
class Outage:
    start_hour: int
    duration_hours: int


@dataclass(frozen=True)
class OutageTrace:
    """Time-ordered, non-overlapping outages over a stated horizon."""

    outages: tuple[Outage, ...]
    horizon_years: float

    def total_hours(self) -> int:
        return sum(o.duration_hours for o in self.outages)


def generate_outages(saifi: float, caidi: float, horizon_years: float,
                     rng: np.random.Generator) -> OutageTrace:
    """Sample a trace: Poisson(saifi * years) outages, uniform starts, merged overlaps."""
    if saifi <= 0:
        raise ValueError(f"saifi must be > 0, got {saifi}")
    if caidi <= 1:
        raise ValueError(f"caidi must exceed the 1-hour minimum duration, got {caidi}")
    if horizon_years < 1:
        raise ValueError(f"horizon must be at least one year, got {horizon_years}")

    horizon_hours = int(round(horizon_years * HOURS_PER_YEAR))
    count = rng.poisson(saifi * horizon_years)
    starts = np.sort(rng.integers(0, horizon_hours, size=count))
    durations = 1 + rng.poisson(caidi - 1, size=count)

    merged: list[list[int]] = []
    for start, dur in zip(starts.tolist(), durations.tolist()):
        end = min(start + dur, horizon_hours)  # truncate at the horizon edge
        if merged and start < merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    outages = tuple(Outage(start_hour=s, duration_hours=e - s) for s, e in merged)
    return OutageTrace(outages=outages, horizon_years=horizon_years)
