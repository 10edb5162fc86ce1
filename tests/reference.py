"""Reference functions the tests check the pipeline against. The pipeline
itself never calls them, so they live here rather than in `src/`."""

import math

import numpy as np

from storeplan.dispatch import StorageFleet
from storeplan.mdp import MdpEnv, MdpState
from storeplan.qlearn import DecaySchedule


def proportions(fleet: StorageFleet) -> tuple[np.ndarray, np.ndarray]:
    """Charging and discharging shares per unit; zero-capacity units get 0."""
    usable = fleet.capacity * fleet.dod
    if not np.any(usable > 0):
        raise ValueError("fleet has no capacity to apportion")
    charge_w = usable / fleet.efficiency
    discharge_w = usable * fleet.efficiency
    return charge_w / charge_w.sum(), discharge_w / discharge_w.sum()


def initial_state(env: MdpEnv) -> MdpState:
    """Period 1, every price at its first schedule entry, nothing installed."""
    return MdpState(1, (1,) * env.num_units, (0.0,) * env.num_units)


def word_limit(p: float) -> int:
    """The integer limit under which a raw word's double falls below `p`.

    `Generator.random()` turns a 64-bit word w into u = (w >> 11) * 2**-53.
    Scaling by a power of two is exact, so u < p holds exactly when the
    integer w >> 11 is below p * 2**53, that is below ceil(p * 2**53), that
    is when w < ceil(p * 2**53) << 11. A `p` of 0 or less (or NaN) gives 0,
    which no word is below, and a `p` of 1 or more gives 2**64, which every
    word is below, just as u < p behaves.
    """
    if not p > 0.0:
        return 0
    if p >= 1.0:
        return 1 << 64
    return math.ceil(p * float(1 << 53)) << 11


def decay_value(schedule: DecaySchedule, episode: int) -> float:
    """The schedule's value at one episode, one float operation at a time."""
    if schedule.total <= 1:
        return schedule.end
    frac = episode / (schedule.total - 1)
    if frac <= 0.0:
        return schedule.start
    if frac >= 1.0:
        return schedule.end
    return schedule.start + (schedule.end - schedule.start) * frac
