"""Finite-horizon storage expansion decision process.

State is (period, per-unit price index, per-unit installed kWh). Each period
the planner installs one expansion level at one unit, or nothing. Prices evolve
as independent per-unit Markov chains that either advance one step down their
decline schedule or stay put at each period boundary; the index can therefore
lag the period. Rewards are negative costs: the annualized investment charged
over the remaining horizon plus the predicted outage cost for the period.
`period_tables` numbers the reachable states and tabulates rewards and
successors on them once; the learner trains on these tables, and the exact
backward induction the learned policy is checked against runs on them too.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .config import PlanningConfig, StorageTechnology
from .finance import investment_cost

__all__ = [
    "MdpState", "MdpAction", "NO_OP", "MdpEnv",
    "encode_state", "decode_state",
    "count_states_component_product", "count_states_reachable",
    "period_tables", "backward_induction",
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
    return MdpState(int(parts[0]), tuple(map(int, parts[1:1 + num_units])),
                    tuple(map(float, parts[1 + num_units:])))


class MdpEnv:
    """Transition and reward model shared by the solver and policy tooling.

    `outage_cost(rows) -> $ per row`, over rows of (period, capacity...),
    is injected so the same dynamics run against the forest surrogate, raw
    Monte Carlo, or a test stub.
    """

    def __init__(self, planning: PlanningConfig,
                 storage: tuple[StorageTechnology, ...],
                 outage_cost: Callable[[list[list[float]]], Sequence[float]]):
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

    def outages(self, points) -> list[float]:
        """Predicted outage costs at (period, post-action capacities) points,
        memoized; the points not yet memoized go to `outage_cost` in one
        batch."""
        memo = self._outage_memo
        missing = list(dict.fromkeys(p for p in points if p not in memo))
        if missing:
            costs = self.outage_cost([[k, *caps] for k, caps in missing])
            memo.update(zip(missing, map(float, costs)))
        return [memo[p] for p in points]

    def outage(self, period: int, caps: tuple[float, ...]) -> float:
        """Predicted outage cost at post-action capacities, memoized."""
        return self.outages([(period, caps)])[0]

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
        step = []
        for u, tech in enumerate(storage):
            p = tech.advance_prob_schedule[k - 1]
            # an outcome of probability zero is never reachable
            moves = [m for m, possible in ((0, p < 1.0), (1, p > 0.0))
                     if possible]
            step.append(tuple(sorted({min(i + m, horizon)
                                      for i in prices[-1][u] for m in moves})))
        prices.append(tuple(step))
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


def period_tables(env: MdpEnv):
    """Number the reachable states and tabulate the model on them.

    A period-k state is numbered `offset_k + code * |C_k| + c`. `code` is
    the mixed-radix number of the units' positions in their reachable price
    sets, unit 0 most significant as in `itertools.product`, and `c` is the
    capacity vector's position in the period's sorted reachable set `C_k`.
    Returns `(periods, numbering, size)`. `periods[k - 1]` is `(invest,
    outage, probs, after, succ, offset, width)`: `invest[code][a]` and
    `outage[a][c]` make up the reward of action a, `after[a][c]` and
    `succ[code][mask]` are the next period's capacity position and price
    code, and `offset` and `width` number the next period's states; the last
    three and `after` are None in the last period. Bit u of an advance mask
    is set when unit u's price advances, which it does with probability
    `probs[u]`; `succ` holds None where a mask of probability zero would
    leave the reachable set. `numbering[k - 1]` is `(price tuples by code,
    C_k, offset_k)`. Rewards come from the env's memos, so they equal
    `MdpEnv.reward`.
    """
    horizon = env.planning.horizon_periods
    prices, caps = _reachable_grid(env.planning, env.storage)
    codes = [list(itertools.product(*p)) for p in prices]
    # capacities after each action [period - 1][action][capacity position]
    after_caps = [[[env.apply_action(MdpState(k, (), c), action)
                    for c in caps[k - 1]] for action in env.actions]
                  for k in range(1, horizon + 1)]
    env.outages([(k, c) for k, grid in enumerate(after_caps, start=1)
                 for row in grid for c in row])  # one batch for all periods
    periods, numbering, offset = [], [], 0
    for k in range(1, horizon + 1):
        c_set = caps[k - 1]
        numbering.append((codes[k - 1], c_set, offset))
        offset += len(codes[k - 1]) * len(c_set)
        outage = [env.outages([(k, c) for c in row])
                  for row in after_caps[k - 1]]
        invest = [[env.investment(MdpState(k, idx, ()), action)
                   for action in env.actions] for idx in codes[k - 1]]
        probs = [tech.advance_prob_schedule[k - 1] for tech in env.storage]
        after = succ = next_offset = width = None
        if k < horizon:
            pos = {c: n for n, c in enumerate(caps[k])}
            after = [[pos[c] for c in row] for row in after_caps[k - 1]]
            code = {idx: n for n, idx in enumerate(codes[k])}
            succ = [[code.get(tuple(min(i + 1, horizon) if m >> u & 1 else i
                                    for u, i in enumerate(idx)))
                     for m in range(1 << env.num_units)]
                    for idx in codes[k - 1]]
            next_offset, width = offset, len(caps[k])
        periods.append((invest, outage, probs, after, succ, next_offset,
                        width))
    return periods, numbering, offset


def backward_induction(env: MdpEnv, gamma: float,
                       picks: Iterable[tuple[MdpState, int]]
                       ) -> tuple[float, float]:
    """Exact expected discounted rewards from the initial state (Bellman).

    One backward pass over `period_tables`, each period's values an array
    over (price code, capacity position). The expectation over next prices
    sums the boundary's advance masks, each weighted by the product over
    units of p (unit advances) or 1 - p (unit stays); masks of weight zero
    are skipped. Returns `(optimum, value)`, where `value` is the exact value
    of the policy that takes action index `ai` at each `(state, ai)` pair of
    `picks` and no-op (index 0) at every other reachable state.
    """
    periods, numbering, _ = period_tables(env)
    chosen = [np.zeros((len(codes), len(c_set)), dtype=int)
              for codes, c_set, _ in numbering]
    positions = [({idx: n for n, idx in enumerate(codes)},
                  {c: n for n, c in enumerate(c_set)})
                 for codes, c_set, _ in numbering]
    for state, ai in picks:
        code_pos, cap_pos = positions[state.period - 1]
        chosen[state.period - 1][code_pos[state.price_idx],
                                 cap_pos[state.capacity]] = ai
    later = None  # [optimum, policy] values over period k + 1's states
    for k in range(env.planning.horizon_periods, 0, -1):
        invest, outage, probs, after, succ, _, _ = periods[k - 1]
        pick = chosen[k - 1]
        expect = None
        if later is not None:
            weights = [math.prod(p if m >> u & 1 else 1.0 - p
                                 for u, p in enumerate(probs))
                       for m in range(1 << env.num_units)]
            expect = sum(w * later[:, [row[m] for row in succ]]
                         for m, w in enumerate(weights) if w)
        shape = (2,) + pick.shape
        invest = np.array(invest)
        values = np.full(shape, -np.inf)
        for ai in range(env.num_actions):
            q = -invest[:, ai, None] - np.array(outage[ai])
            if expect is not None:
                q = q + gamma * expect[:, :, after[ai]]
            q = np.broadcast_to(q, shape)
            np.maximum(values[0], q[0], out=values[0])
            np.copyto(values[1], q[1], where=pick == ai)
        later = values
    optimum, value = later.ravel().tolist()
    return optimum, value
