"""Reference functions the tests check the pipeline against. The pipeline
itself never calls them, so they live here rather than in `src/`."""

import numpy as np

from storeplan.dispatch import StorageFleet
from storeplan.mdp import MdpEnv, MdpState


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
