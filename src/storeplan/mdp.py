"""Finite-horizon storage expansion decision process.

State is (period, per-unit price index, per-unit installed kWh). Each period
the planner installs one expansion level at one unit, or nothing. Prices evolve
as independent per-unit Markov chains that either advance one step down their
decline schedule or stay put at each period boundary; the index can therefore
lag the period. Rewards are negative costs: the annualized investment charged
over the remaining horizon plus the predicted outage cost for the period.
`MdpEnv.numbering` numbers the reachable states, and `MdpEnv.tables`
tabulates rewards and successors on them, once per env: the capacities after
period k's actions are exactly period k + 1's reachable set C_{k+1}, so one
outage cost query over every period's C_{k+1} prices every reward. One
numbering serves the learner, the exact DP it is checked against, Q-table
files and extraction.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .config import PlanningConfig, StorageTechnology
from .finance import investment_cost

__all__ = [
    "MdpState", "MdpAction", "NO_OP", "MdpEnv",
    "format_number", "encode_state",
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


def format_number(x: float) -> str:
    """`x` as `:g` prints it when that reads back as `x`, else `repr(x)`.

    `:g` keeps 6 significant digits, short for the usual kWh figures, but
    0.1 + 0.2 or 1234567 would read back as a different float; `repr`
    always reads back exactly.
    """
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


def encode_state(state: MdpState) -> str:
    parts = [str(state.period)]
    parts += [str(i) for i in state.price_idx]
    parts += [format_number(c) for c in state.capacity]
    return ",".join(parts)


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
        tech = self.storage[action.unit]
        return investment_cost(
            level_kwh=self.levels[action.level],
            unit_price=tech.price_schedule[state.price_idx[action.unit] - 1],
            period=k,
            horizon_periods=self.planning.horizon_periods,
            years_per_period=self.planning.years_per_period,
            rate=self.planning.interest_rate,
            lifetime_years=tech.lifetime_schedule[k - 1])

    def reward(self, state: MdpState, action: MdpAction) -> float:
        caps = self.apply_action(state, action)
        outage = float(self.outage_cost([[state.period, *caps]])[0])
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

    @cached_property
    def _grid(self):
        """`_reachable_grid`'s capacity sets, with each period's price
        tuples listed by code."""
        prices, caps = _reachable_grid(self.planning, self.storage)
        return [list(itertools.product(*p)) for p in prices], caps

    @cached_property
    def numbering(self):
        """Number the reachable states; `(numbering, size)`.

        A period-k state is numbered `offset_k + code * |C_k| + c`. `code` is
        the mixed-radix number of the units' positions in their reachable
        price sets, unit 0 most significant as in `itertools.product`, and
        `c` is the capacity vector's position in the period's sorted
        reachable set `C_k`. `numbering[k - 1]` is `(price tuples by code,
        C_k, offset_k)`, and `size` counts the states. The numbering needs
        no outage cost, so reading and writing Q-tables does not tabulate.
        """
        codes, caps = self._grid
        numbering, offset = [], 0
        for k in range(self.planning.horizon_periods):
            numbering.append((codes[k], caps[k], offset))
            offset += len(codes[k]) * len(caps[k])
        return numbering, offset

    @cached_property
    def tables(self):
        """Tabulate the model on `numbering`'s states.

        Returns `(periods, numbering, size)`, the last two as `numbering`
        gives them. `periods[k - 1]` is `(invest, outage, probs, after,
        succ, offset, width)`: `after[a][c]` is the position in `C_{k+1}`
        of the capacities after action a, and `outage` holds the outage
        cost at each position of `C_{k+1}`, so action a's reward is
        `-invest[code][a] - outage[after[a][c]]`. `succ[code][mask]` is the
        next period's price code, and `offset` and `width` number the next
        period's states; these three are None in the last period. Bit u of
        an advance mask is set when unit u's price advances, which it does
        with probability `probs[u]`; `succ` holds None where a mask of
        probability zero would leave the reachable set. Every period's
        outage costs come from one `outage_cost` call, and the rewards
        equal `reward`'s. The learner, the DP and the Q-table key states by
        this numbering (see `number`).
        """
        horizon = self.planning.horizon_periods
        codes, caps = self._grid
        numbering, size = self.numbering
        costs = iter(map(float, self.outage_cost(
            [[k, *c] for k in range(1, horizon + 1) for c in caps[k]])))
        periods = []
        for k in range(1, horizon + 1):
            c_set, c_next = caps[k - 1], caps[k]
            outage = list(itertools.islice(costs, len(c_next)))
            pos = {c: n for n, c in enumerate(c_next)}
            after = [[pos[self.apply_action(MdpState(k, (), c), action)]
                      for c in c_set] for action in self.actions]
            invest = [[self.investment(MdpState(k, idx, ()), action)
                       for action in self.actions] for idx in codes[k - 1]]
            probs = [tech.advance_prob_schedule[k - 1] for tech in self.storage]
            succ = next_offset = width = None
            if k < horizon:
                code = {idx: n for n, idx in enumerate(codes[k])}
                succ = [[code.get(tuple(min(i + 1, horizon) if m >> u & 1
                                        else i for u, i in enumerate(idx)))
                         for m in range(1 << self.num_units)]
                        for idx in codes[k - 1]]
                next_offset, width = numbering[k][2], len(c_next)
            periods.append((invest, outage, probs, after, succ, next_offset,
                            width))
        return periods, numbering, size

    def number(self, state: MdpState) -> int | None:
        """The state's number in `numbering`, or None if it is unreachable."""
        if 1 <= state.period <= self.planning.horizon_periods:
            codes, c_set, offset = self.numbering[0][state.period - 1]
            code = bisect_left(codes, state.price_idx)  # both sets are sorted
            cap = bisect_left(c_set, state.capacity)
            if (codes[code:code + 1] == [state.price_idx]
                    and c_set[cap:cap + 1] == (state.capacity,)):
                return offset + code * len(c_set) + cap
        return None


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
    `caps[k - 1]` are sorted tuples, and `caps` holds one more set than
    `prices`, the capacities after the last period's actions.
    """
    horizon = planning.horizon_periods
    levels = planning.expansion_levels_kwh
    units = len(storage)
    prices = [((1,),) * units]
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
    caps = [((0.0,) * units,)]
    for _ in range(horizon):
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


def backward_induction(env: MdpEnv, gamma: float,
                       picks: Iterable[tuple[int, int]]
                       ) -> tuple[float, float]:
    """Exact expected discounted rewards from the initial state (Bellman).

    One backward pass over `MdpEnv.tables`, each period's values an array
    over (price code, capacity position). The expectation over next prices
    sums the boundary's advance masks, each weighted by the product over
    units of p (unit advances) or 1 - p (unit stays); masks of weight zero
    are skipped. Returns `(optimum, value)`, where `value` is the exact value
    of the policy that takes action index `ai` at each `(state number, ai)`
    pair of `picks` and no-op (index 0) at every other reachable state.
    """
    periods, numbering, size = env.tables
    chosen = np.zeros(size, dtype=int)
    for s, ai in picks:
        chosen[s] = ai
    chosen = np.split(chosen, [offset for _, _, offset in numbering[1:]])
    later = None  # [optimum, policy] values over period k + 1's states
    for k in range(env.planning.horizon_periods, 0, -1):
        invest, outage, probs, after, succ, _, _ = periods[k - 1]
        pick = chosen[k - 1].reshape(len(invest), -1)
        expect = None
        if succ is not None:
            weights = [math.prod(p if m >> u & 1 else 1.0 - p
                                 for u, p in enumerate(probs))
                       for m in range(1 << env.num_units)]
            expect = sum(w * later[:, [row[m] for row in succ]]
                         for m, w in enumerate(weights) if w)
        shape = (2,) + pick.shape
        invest, outage, after = map(np.array, (invest, outage, after))
        values = np.full(shape, -np.inf)
        for ai in range(env.num_actions):
            q = -invest[:, ai, None] - outage[after[ai]]
            if expect is not None:
                q = q + gamma * expect[:, :, after[ai]]
            q = np.broadcast_to(q, shape)
            np.maximum(values[0], q[0], out=values[0])
            np.copyto(values[1], q[1], where=pick == ai)
        later = values
    optimum, value = later.ravel().tolist()
    return optimum, value
