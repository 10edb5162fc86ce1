"""Stochastic grid-outage traces driven by the SAIFI and CAIDI reliability indices.

Outage arrivals form a homogeneous Poisson process with rate SAIFI per year;
each duration is 1 + Poisson(CAIDI - 1) hours, which guarantees a one-hour
minimum while keeping the stated mean. A trace is two flat tuples, start
hours and durations, merged from plain lists, so drawing one costs a few
numpy calls and no object per outage.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub

import numpy as np

from .config import HOURS_PER_YEAR

__all__ = ["OutageTrace", "generate_outages"]


@dataclass(frozen=True)
class OutageTrace:
    """Time-ordered, non-overlapping outages over a stated horizon.

    Outage i starts at hour `starts[i]` and lasts `durations[i]` hours.
    """

    starts: tuple[int, ...]
    durations: tuple[int, ...]
    horizon_years: float

    def total_hours(self) -> int:
        return sum(self.durations)


def generate_outages(saifi: float, caidi: float, horizon_years: float,
                     rng: np.random.Generator) -> OutageTrace:
    """Sample a trace: Poisson(saifi * years) outages, uniform starts, merged overlaps.

    The draws are `poisson` for the count, `integers` for the starts and
    `poisson` for the durations, in that order.
    """
    if saifi <= 0:
        raise ValueError(f"saifi must be > 0, got {saifi}")
    if caidi <= 1:
        raise ValueError(f"caidi must exceed the 1-hour minimum duration, got {caidi}")
    if horizon_years < 1:
        raise ValueError(f"horizon must be at least one year, got {horizon_years}")

    horizon_hours = int(round(horizon_years * HOURS_PER_YEAR))
    count = rng.poisson(saifi * horizon_years)
    starts = rng.integers(0, horizon_hours, size=count)
    starts.sort()
    durations = 1 + rng.poisson(caidi - 1, size=count)

    begins: list[int] = []  # start and end hour of each merged outage
    ends: list[int] = []
    for start, dur in zip(starts.tolist(), durations.tolist()):
        end = min(start + dur, horizon_hours)  # truncate at the horizon edge
        if ends and start < ends[-1]:
            if end > ends[-1]:
                ends[-1] = end
        else:
            begins.append(start)
            ends.append(end)
    return OutageTrace(starts=tuple(begins),
                       durations=tuple(map(sub, ends, begins)),
                       horizon_years=horizon_years)
