"""Finite-horizon storage expansion decision process.

State is (period, per-unit price index, per-unit installed kWh). Each period
the planner installs one expansion level at one unit, or nothing. Prices evolve
as independent per-unit Markov chains that either advance one step down their
decline schedule or stay put at each period boundary; the index can therefore
lag the period. Rewards are negative costs: the annualized investment charged
over the remaining horizon plus the predicted outage cost for the period.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .config import PlanningConfig, StorageTechnology
from .finance import investment_cost

__all__ = [
    "MdpState", "MdpAction", "NO_OP", "MdpEnv",
    "encode_state", "decode_state",
    "count_states_component_product", "count_states_reachable",
]


class MdpState(NamedTuple):
    period: int
    price_idx: tuple[int, ...]
    capacity: tuple[float, ...]


class MdpAction(NamedTuple):
    unit: int | None
    level: int | None

    @property
    def is_noop(self) -> bool:
        return self.unit is None


NO_OP = MdpAction(None, None)


def encode_state(state: MdpState) -> str:
    parts = [str(state.period)]
    parts += [str(i) for i in state.price_idx]
    parts += [f"{c:g}" for c in state.capacity]
    return ",".join(parts)


def decode_state(text: str, num_units: int) -> MdpState:
    parts = text.split(",")
    if len(parts) != 1 + 2 * num_units:
        raise ValueError(f"state string has {len(parts)} fields, "
                         f"expected {1 + 2 * num_units}")
    return MdpState(period=int(parts[0]),
                    price_idx=tuple(int(p) for p in parts[1:1 + num_units]),
                    capacity=tuple(float(c) for c in parts[1 + num_units:]))


class MdpEnv:
    """Transition and reward model shared by the solver and policy tooling.

    `outage_cost(period, capacities) -> $` is injected so the same dynamics
    run against the forest surrogate, raw Monte Carlo, or a test stub.
    """

    def __init__(self, planning: PlanningConfig,
                 storage: tuple[StorageTechnology, ...],
                 outage_cost: Callable[[int, tuple[float, ...]], float]):
        self.planning = planning
        self.storage = tuple(storage)
        self.outage_cost = outage_cost
        self.num_units = len(self.storage)
        self.levels = planning.expansion_levels_kwh
        acts = [NO_OP]
        for u in range(self.num_units):
            for l in range(len(self.levels)):
                acts.append(MdpAction(u, l))
        self.actions: tuple[MdpAction, ...] = tuple(acts)
        self.num_actions = len(acts)
        # boundary advance probabilities, indexed [period-1][unit]
        self._advance = tuple(
            tuple(tech.advance_prob_schedule[k] for tech in self.storage)
            for k in range(planning.horizon_periods))
        self._invest_memo: dict[tuple[int, int, int, int], float] = {}
        self._outage_memo: dict[tuple[int, tuple[float, ...]], float] = {}

    def initial_state(self) -> MdpState:
        return MdpState(1, (1,) * self.num_units, (0.0,) * self.num_units)

    def action_index(self, action: MdpAction) -> int:
        if action.is_noop:
            return 0
        return 1 + action.unit * len(self.levels) + action.level

    def apply_action(self, state: MdpState, action: MdpAction) -> tuple[float, ...]:
        """Installed capacities after the action, before the period's outages."""
        if action.is_noop:
            return state.capacity
        caps = list(state.capacity)
        caps[action.unit] += self.levels[action.level]
        return tuple(caps)

    def investment(self, state: MdpState, action: MdpAction) -> float:
        if action.is_noop:
            return 0.0
        k = state.period
        idx = state.price_idx[action.unit]
        key = (k, action.unit, action.level, idx)
        cost = self._invest_memo.get(key)
        if cost is None:
            tech = self.storage[action.unit]
            cost = investment_cost(
                level_kwh=self.levels[action.level],
                unit_price=tech.price_schedule[idx - 1],
                period=k,
                horizon_periods=self.planning.horizon_periods,
                years_per_period=self.planning.years_per_period,
                rate=self.planning.interest_rate,
                lifetime_years=tech.lifetime_schedule[k - 1])
            self._invest_memo[key] = cost
        return cost

    def reward(self, state: MdpState, action: MdpAction) -> float:
        caps = self.apply_action(state, action)
        key = (state.period, caps)
        outage = self._outage_memo.get(key)
        if outage is None:
            outage = float(self.outage_cost(state.period, caps))
            self._outage_memo[key] = outage
        return -self.investment(state, action) - outage

    def transition(self, state: MdpState, action: MdpAction,
                   rng: np.random.Generator) -> MdpState:
        """Advance one period boundary; each unit's price steps independently."""
        caps = self.apply_action(state, action)
        probs = self._advance[state.period - 1]
        draws = rng.random(self.num_units)
        cap_idx = self.planning.horizon_periods
        idx = tuple(min(i + 1, cap_idx) if draws[u] < probs[u] else i
                    for u, i in enumerate(state.price_idx))
        return MdpState(state.period + 1, idx, caps)


def count_states_component_product(num_units: int, num_levels: int,
                             horizon_periods: int) -> tuple[int, int]:
    """Closed-form (states, state-action pairs) treating components as free.

    Counts every combination of price indices in 1..k and per-unit capacities
    built from up to k-1 installs, ignoring that capacity sums can collide and
    that multiple units cannot expand in the same period.
    """
    states = 1
    for k in range(2, horizon_periods + 1):
        states += k ** num_units * (1 + num_levels * (k - 1)) ** num_units
    return states, states * (num_units * num_levels + 1)


def count_states_reachable(planning: PlanningConfig,
                           storage: tuple[StorageTechnology, ...]) -> int:
    """Exact reachable-state count under the actual dynamics.

    Price chains and the capacity vector evolve independently, so the joint
    reachable set at each period is the product of the per-unit price-index
    sets with the set of capacity vectors; this enumerates each factor instead
    of walking the joint graph.
    """
    horizon = planning.horizon_periods
    levels = planning.expansion_levels_kwh
    units = len(storage)
    price_sets: list[list[set[int]]] = [[{1}] for _ in range(units)]
    for k in range(1, horizon):
        for u in range(units):
            p = storage[u].advance_prob_schedule[k - 1]
            nxt: set[int] = set()
            for i in price_sets[u][-1]:
                if p < 1.0:
                    nxt.add(i)
                if p > 0.0:
                    nxt.add(min(i + 1, horizon))
            price_sets[u].append(nxt)
    cap_sets: list[set[tuple[float, ...]]] = [{(0.0,) * units}]
    for _ in range(1, horizon):
        cur = cap_sets[-1]
        nxt_caps = set(cur)
        for caps in cur:
            for u in range(units):
                for lv in levels:
                    nxt_caps.add(caps[:u] + (caps[u] + lv,) + caps[u + 1:])
        cap_sets.append(nxt_caps)
    total = 0
    for k in range(horizon):
        combos = 1
        for u in range(units):
            combos *= len(price_sets[u][k])
        total += combos * len(cap_sets[k])
    return total
