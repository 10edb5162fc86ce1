"""Finite-horizon storage expansion decision process.

State is (period, per-unit price index, per-unit installed kWh). Each period
the planner installs one expansion level at one unit, or nothing. Prices evolve
as independent per-unit Markov chains that either advance one step down their
decline schedule or stay put at each period boundary; the index can therefore
lag the period. Rewards are negative costs: the annualized investment charged
over the remaining horizon plus the predicted outage cost for the period.
The process is small enough to solve exactly by backward induction over its
reachable states, which is what the learned policy is checked against.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, NamedTuple

import numpy as np

from .config import PlanningConfig, StorageTechnology
from .finance import investment_cost

__all__ = [
    "MdpState", "MdpAction", "NO_OP", "MdpEnv",
    "encode_state", "decode_state",
    "count_states_component_product", "count_states_reachable",
    "backward_induction",
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

    def outage(self, period: int, caps: tuple[float, ...]) -> float:
        """Predicted outage cost at post-action capacities, memoized."""
        key = (period, caps)
        cost = self._outage_memo.get(key)
        if cost is None:
            cost = float(self.outage_cost(period, caps))
            self._outage_memo[key] = cost
        return cost

    def reward(self, state: MdpState, action: MdpAction) -> float:
        return (-self.investment(state, action)
                - self.outage(state.period, self.apply_action(state, action)))

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


def _price_steps(idx: int, advance: float,
                 horizon: int) -> dict[int, float]:
    """Next price index -> probability for one unit's chain at a boundary.

    Outcomes of probability zero are left out, so they are never reachable.
    """
    steps: dict[int, float] = {}
    if advance < 1.0:
        steps[idx] = 1.0 - advance
    if advance > 0.0:
        nxt = min(idx + 1, horizon)
        steps[nxt] = steps.get(nxt, 0.0) + advance
    return steps


def _reachable_grid(planning: PlanningConfig,
                    storage: tuple[StorageTechnology, ...]):
    """Per period, each unit's reachable price indices and capacity vectors.

    Price chains and the capacity vector evolve independently, so a period's
    reachable states are the product of its unit price-index sets with its
    capacity-vector set. Returns `(prices, caps)`: `prices[k - 1][u]` and
    `caps[k - 1]` are sorted tuples.
    """
    horizon = planning.horizon_periods
    levels = planning.expansion_levels_kwh
    units = len(storage)
    prices = [((1,),) * units]
    caps = [((0.0,) * units,)]
    for k in range(1, horizon):
        prices.append(tuple(
            tuple(sorted({j for i in prices[-1][u] for j in _price_steps(
                i, storage[u].advance_prob_schedule[k - 1], horizon)}))
            for u in range(units)))
        nxt = set(caps[-1])
        for c in caps[-1]:
            for u in range(units):
                for lv in levels:
                    nxt.add(c[:u] + (c[u] + lv,) + c[u + 1:])
        caps.append(tuple(sorted(nxt)))
    return prices, caps


def count_states_reachable(planning: PlanningConfig,
                           storage: tuple[StorageTechnology, ...]) -> int:
    """Exact reachable-state count under the actual dynamics: the sum over
    periods of the product of the factor sizes of `_reachable_grid`."""
    prices, caps = _reachable_grid(planning, storage)
    return sum(math.prod(map(len, p)) * len(c) for p, c in zip(prices, caps))


def _chain_matrix(now: tuple[int, ...], nxt: tuple[int, ...],
                  advance: float, horizon: int) -> np.ndarray:
    """[i, j]: probability that a unit at price index now[i] goes to nxt[j]."""
    col = {j: n for n, j in enumerate(nxt)}
    mat = np.zeros((len(now), len(nxt)))
    for row, i in enumerate(now):
        for j, prob in _price_steps(i, advance, horizon).items():
            mat[row, col[j]] = prob
    return mat


def backward_induction(env: MdpEnv, gamma: float,
                       choose: Callable[[MdpState], int] | None = None
                       ) -> tuple[float, float | None]:
    """Exact expected discounted reward from the initial state (Bellman).

    One backward pass over each period's reachable states, held as an array
    over (unit price indices..., capacity vector). The price chains are
    independent, so the expectation over next prices is one `tensordot` per
    unit; rewards come from the environment's memos once per (capacity
    vector, action), with prices as array axes. Returns `(optimum, value)`,
    where `value` is the exact value of the policy `choose(state) -> action
    index`, or None when no policy is given.
    """
    horizon = env.planning.horizon_periods
    prices, caps = _reachable_grid(env.planning, env.storage)
    units = env.num_units
    later = None  # [optimum, policy] values over period k + 1's grid
    for k in range(horizon, 0, -1):
        p_sets, c_set = prices[k - 1], caps[k - 1]
        if later is not None:
            for u in range(units):
                advance = env.storage[u].advance_prob_schedule[k - 1]
                mat = _chain_matrix(p_sets[u], prices[k][u], advance, horizon)
                later = np.moveaxis(np.tensordot(mat, later, axes=(1, u + 1)),
                                    0, u + 1)
            pos = {c: n for n, c in enumerate(caps[k])}
        shape = (1 + (choose is not None),) + tuple(map(len, p_sets)) + (
            len(c_set),)
        if choose is not None:
            grid = itertools.product(*p_sets, c_set)
            pick = np.reshape([choose(MdpState(k, tuple(idx), c))
                               for *idx, c in grid], shape[1:])
        values = np.full(shape, -np.inf)
        for ai, action in enumerate(env.actions):
            after = [env.apply_action(MdpState(k, (), c), action)
                     for c in c_set]
            q = -np.array([env.outage(k, c) for c in after])
            if not action.is_noop:
                # the investment depends on the acting unit's price alone
                invest = [env.investment(MdpState(k, (i,) * units, ()), action)
                          for i in p_sets[action.unit]]
                q = q - np.reshape(invest, [-1 if v == action.unit else 1
                                            for v in range(units + 1)])
            if later is not None:
                q = q + gamma * later[..., [pos[c] for c in after]]
            q = np.broadcast_to(q, shape)
            np.maximum(values[0], q[0], out=values[0])
            if choose is not None:
                np.copyto(values[1], q[1], where=pick == ai)
        later = values
    optimum, *value = later.ravel().tolist()
    return optimum, (value[0] if value else None)
