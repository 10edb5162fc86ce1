"""Tabular Q-learning over the expansion process, with JSONL persistence.

The table is a dict keyed by state, holding one q-value and one visit count
per action. Exploration and the learning rate both decay linearly over the
run, and the step size of a pair never drops below one over its visit
count. The learning curve tracks mean undiscounted episode reward per batch,
with batch boundaries expressed as percentiles of the run so curves from runs
of different lengths line up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import IncompatibleArtifact
from .mdp import MdpEnv, MdpState, decode_state, encode_state
from .rng import stream

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


def greedy_index(row, rng: np.random.Generator) -> int:
    """Argmax over a q-row, ties broken uniformly at random."""
    best = row[0]
    ties = [0]
    for i in range(1, len(row)):
        v = row[i]
        if v > best:
            best = v
            ties = [i]
        elif v == best:
            ties.append(i)
    if len(ties) == 1:
        return ties[0]
    return ties[int(rng.integers(len(ties)))]


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
    """
    if episodes < 1:
        raise ValueError("episodes must be positive")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    batches = min(batches, episodes)
    rng = stream(seed, "train")
    qt = QTable(env.num_actions)
    horizon = env.planning.horizon_periods
    actions = env.actions
    num_actions = env.num_actions
    boundaries = [round((i + 1) * episodes / batches) for i in range(batches)]
    curve_x, curve_y = [], []
    acc, acc_n, next_boundary = 0.0, 0, 0
    start = env.initial_state()
    for ep in range(episodes):
        a_val = alpha.value(ep)
        e_val = epsilon.value(ep)
        state = start
        total = 0.0
        for k in range(horizon):
            row, visits = qt.entry(state)
            if rng.random() < e_val:
                ai = int(rng.integers(num_actions))
            else:
                ai = greedy_index(row, rng)
            action = actions[ai]
            r = env.reward(state, action)
            nxt = env.transition(state, action, rng)
            terminal = k == horizon - 1
            visits[ai] += 1
            q_update(row, ai, r, 0.0 if terminal else max(qt.entry(nxt)[0]),
                     max(a_val, 1.0 / visits[ai]), gamma, terminal)
            total += r
            state = nxt
        acc += total
        acc_n += 1
        if ep + 1 == boundaries[next_boundary]:
            curve_x.append(100.0 * (ep + 1) / episodes)
            curve_y.append(acc / acc_n)
            acc, acc_n = 0.0, 0
            next_boundary += 1
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
            q = [float(x) for x in rec["q"]]
            v = [int(x) for x in rec["visits"]]
            if len(q) != qt.num_actions or len(v) != qt.num_actions:
                raise ValueError(f"{path}: row width mismatch for {rec['state']}")
            qt._table[state] = (q, v)
            count += 1
    if count != header.get("states", count):
        raise ValueError(f"{path}: header claims {header['states']} states, "
                         f"found {count}")
    return qt, header
