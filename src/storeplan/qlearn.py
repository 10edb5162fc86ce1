"""Tabular Q-learning over the expansion process, with JSONL persistence.

The table is a dict keyed by state, holding one q-value and one visit count
per action; training fills rows of numbered states and converts them at the
end. Exploration and the learning rate both decay linearly over the run, and
the step size of a pair never drops below one over its visit count. The
learning curve tracks mean undiscounted episode reward per batch, with batch
boundaries expressed as percentiles of the run so curves from runs of
different lengths line up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import accumulate, compress, product
from operator import lt
from pathlib import Path

from .config import IncompatibleArtifact
from .mdp import MdpEnv, MdpState, decode_state, encode_state, period_grids
from .rng import BlockDraws, stream

__all__ = [
    "DecaySchedule", "QTable", "LearningCurve", "greedy_index",
    "q_update", "train", "save_qtable", "load_qtable",
]

QTABLE_FORMAT = "storeplan-qtable-v1"


@dataclass(frozen=True)
class DecaySchedule:
    """Linear interpolation from `start` to `end` over `total` episodes."""

    start: float
    end: float
    total: int

    def value(self, episode: int) -> float:
        if self.total <= 1:
            return self.end
        frac = episode / (self.total - 1)
        if frac <= 0.0:
            return self.start
        if frac >= 1.0:
            return self.end
        return self.start + (self.end - self.start) * frac


class QTable:
    """q-values and visit counts per (state, action), dense over actions."""

    def __init__(self, num_actions: int):
        if num_actions < 1:
            raise ValueError("num_actions must be positive")
        self.num_actions = num_actions
        self._table: dict[MdpState, tuple[list[float], list[int]]] = {}

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, state: MdpState) -> bool:
        return state in self._table

    def entry(self, state: MdpState) -> tuple[list[float], list[int]]:
        e = self._table.get(state)
        if e is None:
            e = ([0.0] * self.num_actions, [0] * self.num_actions)
            self._table[state] = e
        return e

    def q_values(self, state: MdpState) -> list[float]:
        e = self._table.get(state)
        return list(e[0]) if e else [0.0] * self.num_actions

    def visit_counts(self, state: MdpState) -> list[int]:
        e = self._table.get(state)
        return list(e[1]) if e else [0] * self.num_actions

    def items(self):
        return self._table.items()


def greedy_index(row, rng) -> int:
    """Argmax over a q-row, ties broken uniformly at random.

    On a tie, `rng` (a `Generator` or a `BlockDraws`) draws once to pick
    among the tied indices in row order.
    """
    best = max(row)
    ties = row.count(best)
    i = row.index(best)
    if ties > 1:
        for _ in range(int(rng.integers(ties))):
            i = row.index(best, i + 1)
    return i


def q_update(row, action_index: int, reward: float, next_best: float,
             alpha: float, gamma: float, terminal: bool) -> float:
    """In-place one-step update; returns the new q-value."""
    target = reward if terminal else reward + gamma * next_best
    row[action_index] += alpha * (target - row[action_index])
    return row[action_index]


@dataclass
class LearningCurve:
    """Batch means of total episode reward, indexed by run percentile."""

    batch_percentile: list[float]
    mean_total_reward: list[float]

    def save(self, path) -> None:
        lines = ["batch_percentile,mean_total_reward"]
        for p, m in zip(self.batch_percentile, self.mean_total_reward):
            lines.append(f"{p!r},{m!r}")
        Path(path).write_text("\n".join(lines) + "\n")


def _period_tables(env: MdpEnv):
    """Number the reachable states and tabulate what a step reads.

    A period-k state is numbered `offset_k + code * |C_k| + c`. `code` is
    the mixed-radix number of the units' positions in their reachable price
    sets, unit 0 most significant as in `itertools.product`, and `c` is the
    capacity vector's position in the period's reachable set `C_k`; both
    come from `mdp.period_grids`. Returns `(periods, grids, size)`.
    `periods[k - 1]` is `(invest, outage, probs, after, succ, offset,
    width)`: `invest[code][a]` and `outage[a][c]` make up the reward of
    action a, `after[a][c]` and `succ[code][mask]` are the next period's
    capacity position and price code, and `offset` and `width` number the
    next period's states; the last three and `after` are None in the last
    period. Bit u of an advance mask is set when unit u's price advances,
    which it does when its draw is below `probs[u]`. `grids[k - 1]` is
    `(price tuples by code, C_k, offset_k)`.
    """
    horizon = env.planning.horizon_periods
    grids = period_grids(env)
    codes = [list(product(*g.prices)) for g in grids]
    offsets = list(accumulate(
        (len(c) * len(g.caps) for c, g in zip(codes, grids)), initial=0))
    periods = []
    for k, grid in enumerate(grids, start=1):
        spot = [{i: n for n, i in enumerate(p)} for p in grid.prices]
        invest = [[0.0 if cost is None else cost[spot[a.unit][idx[a.unit]]]
                   for a, cost in zip(env.actions, grid.invest)]
                  for idx in codes[k - 1]]
        probs = [tech.advance_prob_schedule[k - 1] for tech in env.storage]
        after = succ = offset = width = None
        if k < horizon:
            pos = {c: n for n, c in enumerate(grids[k].caps)}
            after = [[pos[c] for c in row] for row in grid.after]
            code = {idx: n for n, idx in enumerate(codes[k])}
            # a mask with a zero-probability outcome is never drawn: None
            succ = [[code.get(tuple(min(i + 1, horizon) if m >> u & 1 else i
                                    for u, i in enumerate(idx)))
                     for m in range(1 << env.num_units)]
                    for idx in codes[k - 1]]
            offset, width = offsets[k], len(grids[k].caps)
        periods.append((invest, grid.outage, probs, after, succ, offset,
                        width))
    numbering = [(c, g.caps, o) for c, g, o in zip(codes, grids, offsets)]
    return periods, numbering, offsets[-1]


def train(env: MdpEnv, episodes: int, gamma: float, alpha: DecaySchedule,
          epsilon: DecaySchedule, seed: int,
          batches: int = 100) -> tuple[QTable, LearningCurve]:
    """Run epsilon-greedy episodes from the initial state.

    Terminal updates bootstrap from zero. The step size of the n-th visit to
    a (state, action) pair is max(alpha(episode), 1/n): a pair first tried
    late, when the schedule is near its end, still moves to the sample mean
    of its targets instead of keeping most of its zero start. Episode order
    is the only coupling between episodes, so a fixed seed reproduces the
    table exactly.

    Steps run on numbered states, against the reward and successor tables
    of `_period_tables`, built before the first episode. `BlockDraws` hands
    out the draws in the order that stepping `MdpEnv.reward` and
    `MdpEnv.transition` on the seed's `Generator` takes them, so the table
    is the one those would give, bit for bit.
    """
    if episodes < 1:
        raise ValueError("episodes must be positive")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    batches = min(batches, episodes)
    draws = BlockDraws(stream(seed, "train"))
    random, integers = draws.random, draws.integers
    periods, grids, size = _period_tables(env)
    num_actions, units = env.num_actions, env.num_units
    bits = [1 << u for u in range(units)]
    rows = [None] * size
    rows[0] = ([0.0] * num_actions, [0] * num_actions)  # the initial state
    boundaries = [round((i + 1) * episodes / batches) for i in range(batches)]
    curve_x, curve_y = [], []
    acc, acc_n, next_boundary = 0.0, 0, 0
    for ep in range(episodes):
        a_val = alpha.value(ep)
        e_val = epsilon.value(ep)
        code = cap = 0
        entry = rows[0]
        total = 0.0
        for invest, outage, probs, after, succ, offset, width in periods:
            row, visits = entry
            if random() < e_val:
                ai = integers(num_actions)
            else:
                ai = greedy_index(row, draws)
            r = -invest[code][ai] - outage[ai][cap]
            mask = sum(compress(bits, map(lt, random(units), probs)))
            visits[ai] += 1
            step = max(a_val, 1.0 / visits[ai])
            if after is None:
                q_update(row, ai, r, 0.0, step, gamma, True)
            else:
                code, cap = succ[code][mask], after[ai][cap]
                s = offset + code * width + cap
                entry = rows[s]
                if entry is None:
                    entry = rows[s] = ([0.0] * num_actions, [0] * num_actions)
                q_update(row, ai, r, max(entry[0]), step, gamma, False)
            total += r
        acc += total
        acc_n += 1
        if ep + 1 == boundaries[next_boundary]:
            curve_x.append(100.0 * (ep + 1) / episodes)
            curve_y.append(acc / acc_n)
            acc, acc_n = 0.0, 0
            next_boundary += 1
    qt = QTable(num_actions)
    for k, (price_codes, cap_set, offset) in enumerate(grids, start=1):
        width = len(cap_set)
        for s in range(offset, offset + len(price_codes) * width):
            if rows[s] is not None:
                code, cap = divmod(s - offset, width)
                qt._table[MdpState(k, price_codes[code], cap_set[cap])] = rows[s]
    return qt, LearningCurve(batch_percentile=curve_x, mean_total_reward=curve_y)


def save_qtable(qtable: QTable, path, config_digest: str | None,
                num_units: int, metadata: dict | None = None) -> None:
    """JSONL: one header record, then one record per visited state."""
    header = {
        "format": QTABLE_FORMAT,
        "config_hash": config_digest,
        "num_actions": qtable.num_actions,
        "num_units": num_units,
        "states": len(qtable),
    }
    if metadata:
        header.update(metadata)
    rows = sorted((encode_state(s), q, v) for s, (q, v) in qtable.items())
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for enc, q, v in rows:
            fh.write(json.dumps({"state": enc, "q": q, "visits": v}) + "\n")


def load_qtable(path, expected_config_hash: str | None = None
                ) -> tuple[QTable, dict]:
    with open(path) as fh:
        header_line = fh.readline()
        if not header_line:
            raise ValueError(f"{path}: empty q-table file")
        header = json.loads(header_line)
        if header.get("format") != QTABLE_FORMAT:
            raise ValueError(f"{path}: not a q-table file")
        if (expected_config_hash is not None
                and header.get("config_hash") != expected_config_hash):
            raise IncompatibleArtifact(
                f"{path}: q-table was trained under a different configuration")
        num_units = header["num_units"]
        qt = QTable(header["num_actions"])
        count = 0
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            state = decode_state(rec["state"], num_units)
            q = list(map(float, rec["q"]))
            v = list(map(int, rec["visits"]))
            if len(q) != qt.num_actions or len(v) != qt.num_actions:
                raise ValueError(f"{path}: row width mismatch for {rec['state']}")
            qt._table[state] = (q, v)
            count += 1
    if count != header.get("states", count):
        raise ValueError(f"{path}: header claims {header['states']} states, "
                         f"found {count}")
    return qt, header
