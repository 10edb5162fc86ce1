"""Tabular Q-learning over the expansion process, with JSONL persistence.

The table holds a q-value and a visit count per action for each state that
`MdpEnv.tables` numbers; training, the exact DP's picks and the JSONL file
all index states by that number. Exploration and the learning rate both decay
linearly over the run, and the step size of a pair never drops below one
over its visit count. The learning curve tracks mean undiscounted episode
reward per batch, with batch boundaries expressed as percentiles of the run
so curves from runs of different lengths line up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .config import IncompatibleArtifact, parse_json
from .mdp import MdpEnv, MdpState, decode_state, encode_state, format_number
from .rng import BlockDraws, stream, word_limit

__all__ = [
    "DecaySchedule", "QTable", "LearningCurve", "greedy_index",
    "train", "save_qtable", "load_qtable",
]

QTABLE_FORMAT = "storeplan-qtable-v1"
BATCHES = 100  # learning-curve points per run, fewer only for shorter runs


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
    """Rows `(q, visits)`, dense over actions: `rows[n]` is the row of the
    state that `MdpEnv.tables` numbers n, or None if no step reached it."""

    def __init__(self, env: MdpEnv):
        self.env, self.num_actions = env, env.num_actions
        self.rows: list = [None] * env.tables[2]

    def __len__(self) -> int:
        return len(self.rows) - self.rows.count(None)

    def entry(self, state: MdpState) -> tuple[list[float], list[int]]:
        n = self.env.number(state)
        if n is None:
            raise ValueError(f"state {encode_state(state)} is not reachable")
        if self.rows[n] is None:
            self.rows[n] = ([0.0] * self.num_actions, [0] * self.num_actions)
        return self.rows[n]

    def _row(self, state: MdpState):
        n = self.env.number(state)
        row = None if n is None else self.rows[n]
        return row or ([0.0] * self.num_actions, [0] * self.num_actions)

    def q_values(self, state: MdpState) -> list[float]:
        return list(self._row(state)[0])

    def visit_counts(self, state: MdpState) -> list[int]:
        return list(self._row(state)[1])


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
          epsilon: DecaySchedule, seed: int) -> tuple[QTable, LearningCurve]:
    """Run epsilon-greedy episodes from the initial state.

    Terminal updates bootstrap from zero. The step size of the n-th visit to
    a (state, action) pair is max(alpha(episode), 1/n): a pair first tried
    late, when the schedule is near its end, still moves to the sample mean
    of its targets instead of keeping most of its zero start. Episode order
    is the only coupling between episodes, so a fixed seed reproduces the
    table exactly.

    Steps run on numbered states, against the reward and successor tables
    of `MdpEnv.tables`; the last period is the one without successors.
    Each step reads one raw word for exploration and one per unit for the
    price advances, and compares each word with the `word_limit` of the
    episode's epsilon or of the unit's advance probability. Stepping
    `MdpEnv.reward` and `MdpEnv.transition` on the seed's `Generator` would
    compare the word's double with the probability itself, and the two
    comparisons agree on every word. `BlockDraws` hands out the words and
    the action draws in that stepping's order, so the draws, the advance
    bits and the table are the ones it gives, bit for bit.
    """
    if episodes < 1:
        raise ValueError("episodes must be positive")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    batches = min(BATCHES, episodes)
    draws = BlockDraws(stream(seed, "train"))
    word, integers = draws.word, draws.integers
    num_actions = env.num_actions
    periods = [(invest, outage, [(1 << u, word_limit(p))
                                 for u, p in enumerate(probs)],
                after, succ, offset, width)
               for invest, outage, probs, after, succ, offset, width
               in env.tables[0]]
    qt = QTable(env)
    rows = qt.rows
    rows[0] = ([0.0] * num_actions, [0] * num_actions)  # the initial state
    boundaries = [round((i + 1) * episodes / batches) for i in range(batches)]
    curve_x, curve_y = [], []
    acc, acc_n, next_boundary = 0.0, 0, 0
    for ep in range(episodes):
        a_val = alpha.value(ep)
        explore = word_limit(epsilon.value(ep))
        code = cap = 0
        entry = rows[0]
        total = 0.0
        for invest, outage, advance, after, succ, offset, width in periods:
            row, visits = entry
            if word() < explore:
                ai = integers(num_actions)
            else:
                ai = greedy_index(row, draws)
            cap = after[ai][cap]
            r = -invest[code][ai] - outage[cap]
            mask = 0
            for bit, limit in advance:
                if word() < limit:
                    mask |= bit
            visits[ai] += 1
            step = max(a_val, 1.0 / visits[ai])
            if succ is None:
                row[ai] += step * (r - row[ai])
            else:
                code = succ[code][mask]
                s = offset + code * width + cap
                entry = rows[s]
                if entry is None:
                    entry = rows[s] = ([0.0] * num_actions, [0] * num_actions)
                row[ai] += step * (r + gamma * max(entry[0]) - row[ai])
            total += r
        acc += total
        acc_n += 1
        if ep + 1 == boundaries[next_boundary]:
            curve_x.append(100.0 * (ep + 1) / episodes)
            curve_y.append(acc / acc_n)
            acc, acc_n = 0.0, 0
            next_boundary += 1
    return qt, LearningCurve(batch_percentile=curve_x, mean_total_reward=curve_y)


def save_qtable(qtable: QTable, path, config_digest: str | None,
                metadata: dict | None = None) -> None:
    """JSONL: one header record, then one record per visited state, in the
    order of the states' names.

    A row's name is `encode_state`'s: its period's price fields, named once
    per price code, then its capacity fields, named once per capacity
    position of the period's reachable set.
    """
    header = {
        "format": QTABLE_FORMAT,
        "config_hash": config_digest,
        "num_actions": qtable.num_actions,
        "num_units": qtable.env.num_units,
        "states": len(qtable),
    }
    if metadata:
        header.update(metadata)
    rows = qtable.rows
    named = []
    for k, (codes, c_set, offset) in enumerate(qtable.env.tables[1], start=1):
        prices = [",".join(map(str, (k, *idx))) + "," for idx in codes]
        caps = [",".join(map(format_number, c)) for c in c_set]
        width = len(c_set)
        for n in range(offset, offset + len(codes) * width):
            if rows[n]:
                code, c = divmod(n - offset, width)
                named.append((prices[code] + caps[c], n))
    named.sort()
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for enc, n in named:
            q, v = rows[n]
            fh.write(json.dumps({"state": enc, "q": q, "visits": v}) + "\n")


def load_qtable(path, env: MdpEnv, expected_config_hash: str | None = None
                ) -> tuple[QTable, dict]:
    """A q-table file's rows, placed by `env`'s numbering. The header's counts
    must match `env`'s and each row's state must be reachable in `env`."""
    with open(path) as fh:
        header_line = fh.readline()
        if not header_line:
            raise ValueError(f"{path}: empty q-table file")
        header = parse_json(header_line, path, line=1)
        if (not isinstance(header, dict)
                or header.get("format") != QTABLE_FORMAT):
            raise ValueError(f"{path}: not a q-table file")
        if (expected_config_hash is not None
                and header.get("config_hash") != expected_config_hash):
            raise IncompatibleArtifact(
                f"{path}: q-table was trained under a different configuration")
        for key, want in (("num_actions", env.num_actions),
                          ("num_units", env.num_units), ("states", None)):
            if type(header.get(key)) is not int:  # bools are not counts
                raise ValueError(f"{path}: header {key!r} must be an "
                                 f"integer, got {header.get(key)!r}")
            if want is not None and header[key] != want:
                raise ValueError(f"{path}: line 1: header {key!r} is "
                                 f"{header[key]}, but the config gives {want}")
        qt = QTable(env)
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            rec = parse_json(line, path, line=lineno)
            if not (isinstance(rec, dict) and isinstance(rec.get("state"), str)
                    and isinstance(rec.get("q"), list)
                    and isinstance(rec.get("visits"), list)):
                raise ValueError(f"{path}: line {lineno}: a row must be an "
                                 f"object with a 'state' string and 'q' and "
                                 f"'visits' lists, got {line.strip()[:80]!r}")
            try:
                state = decode_state(rec["state"], env.num_units)
                q = list(map(float, rec["q"]))
                v = list(map(int, rec["visits"]))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            if len(q) != qt.num_actions or len(v) != qt.num_actions:
                raise ValueError(f"{path}: row width mismatch for {rec['state']}")
            n = env.number(state)
            if n is None or qt.rows[n] is not None:
                why = ("is not reachable under the config" if n is None
                       else "has a row already")
                raise ValueError(f"{path}: line {lineno}: state "
                                 f"{rec['state']} {why}")
            qt.rows[n] = (q, v)
    if len(qt) != header["states"]:
        raise ValueError(f"{path}: header claims {header['states']} states, "
                         f"found {len(qt)}")
    return qt, header
