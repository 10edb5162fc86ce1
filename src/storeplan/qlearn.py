"""Tabular Q-learning over the expansion process, with JSONL persistence.

The table holds a q-value and a visit count per action for each state that
`MdpEnv.numbering` numbers; training, the exact DP's picks and the JSONL file
all index states by that number. Exploration and the learning rate both decay
linearly over the run, and the step size of a pair never drops below one
over its visit count. The learning curve tracks mean undiscounted episode
reward per batch, with batch boundaries expressed as percentiles of the run
so curves from runs of different lengths line up.
"""

from __future__ import annotations

import hashlib
import json
import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from math import isfinite
from pathlib import Path

import numpy as np

from .config import IncompatibleArtifact, file_sha256, parse_json
from .mdp import MdpEnv, MdpState, encode_state
from .rng import stream, word_index, word_thresholds

__all__ = [
    "DecaySchedule", "QTable", "LearningCurve", "greedy_index",
    "train", "save_qtable", "load_qtable",
]

QTABLE_FORMAT = "storeplan-qtable-v2"
BATCHES = 100  # learning-curve points per run, fewer only for shorter runs
_CHUNK = 1024  # episodes whose draws one random_raw call reads
# how a row that save_qtable wrote starts: its state number
_ROW_START = re.compile(rb'\{"n": (\d+),')
# entry types of saved q and visits rows, and the types q may hold
_FLOAT, _INT, _NUMBER = {float}, {int}, (float, int)
_encode = json.JSONEncoder(allow_nan=False).encode  # json.dumps, but no NaN


@dataclass(frozen=True)
class DecaySchedule:
    """Linear interpolation from `start` to `end` over `total` episodes."""

    start: float
    end: float
    total: int

    def values(self, first: int, count: int) -> np.ndarray:
        """The value of each of the `count` episodes e from `first`, as a
        float64 array: `end` if `total` <= 1, else, at frac = e / (total -
        1), `start` for frac <= 0, `end` for frac >= 1 and start + (end -
        start) * frac between. An int divided by an int below 2**53 rounds
        as the quotient of their doubles does."""
        if self.total <= 1:
            return np.full(count, self.end)
        frac = np.arange(first, first + count) / (self.total - 1)
        return np.where(frac <= 0.0, self.start, np.where(
            frac >= 1.0, self.end,
            self.start + (self.end - self.start) * frac))


class QTable:
    """Rows `(q, visits)`, dense over actions: `rows[n]` is the row of the
    state that `MdpEnv.numbering` numbers n, or None if no step reached it."""

    def __init__(self, env: MdpEnv):
        self.env, self.num_actions = env, env.num_actions
        self.rows: list = [None] * env.numbering[1]

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


def greedy_index(row, word: int, best=None) -> int:
    """Argmax over a q-row, ties broken uniformly at random.

    `best` is `max(row)` when the caller knows it already. On a tie, the
    raw word `word` picks among the tied indices in row order, by
    `word_index`; without a tie it goes unused.
    """
    if best is None:
        best = max(row)
    ties = row.count(best)
    i = row.index(best)
    if ties > 1:
        for _ in range(word_index(word, ties)):
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


def _steps(words: np.ndarray, explore: np.ndarray, advance: np.ndarray,
           num_actions: int):
    """What each step of a chunk of episodes draws, from its raw words laid
    out (episode, period, 2 + units) and the `word_thresholds` of each
    episode's epsilon and of each period's unit advances.

    An iterator over the steps in episode order, each a tuple: the
    exploration action, or -1 for a greedy step; word 1, which a greedy
    step's tie break reads; and the advance mask, bit u set when unit u's
    price advances.
    """
    high = words >> np.uint64(11)
    picks = high[:, :, 1]
    if num_actions >= 1 << 11:  # (w >> 11) * n must not overflow uint64
        picks = picks.astype(object)
    picks = (picks * num_actions >> 53).astype(np.int64)
    acts = np.where(high[:, :, 0] < explore[:, None], picks, -1)
    masks = sum(((high[:, :, 2 + u] < advance[:, u]).astype(np.int64) << u
                 for u in range(advance.shape[1])), np.zeros_like(acts))
    return zip(acts.ravel().tolist(), words[:, :, 1].ravel().tolist(),
               masks.ravel().tolist())


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
    Every draw is a raw word of the seed's "train" stream, at a fixed
    position: step k of episode e reads the 2 + U words from (e * H + k -
    1) * (2 + U), for H periods and U units. A word w fires for a chance p
    when w >> 11 is below ceil(min(p, 1) * 2**53) for p > 0, else 0
    (`word_thresholds`), that is when its double (w >> 11) * 2**-53 is
    below p. Word 0 explores when it fires for the episode's epsilon, and
    word 1 is then the action's `word_index`; a greedy step reads word 1
    only to break a tie. Word 2 + u advances unit u's price when it fires
    for its advance probability; the last period reads these words and
    ignores them. The draws of a run therefore never depend on what it
    learns, and runs at one seed on any outage costs see the same price
    paths.
    """
    if episodes < 1:
        raise ValueError("episodes must be positive")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    batches = min(BATCHES, episodes)
    bits = stream(seed, "train").bit_generator
    num_actions, horizon = env.num_actions, env.planning.horizon_periods
    stride = horizon * (2 + env.num_units)  # words per episode
    periods = env.tables[0]
    advance = word_thresholds(np.array([p[2] for p in periods], dtype=float))
    head = periods[:-1]
    last_invest, last_outage, _, last_after = periods[-1][:4]
    qt = QTable(env)
    rows = qt.rows
    rows[0] = ([0.0] * num_actions, [0] * num_actions)  # the initial state
    boundaries = [round((i + 1) * episodes / batches) for i in range(batches)]
    curve_x, curve_y = [], []
    acc, acc_n, next_boundary = 0.0, 0, 0
    for first in range(0, episodes, _CHUNK):
        count = min(_CHUNK, episodes - first)
        words = bits.random_raw(count * stride).reshape(count, horizon, -1)
        draws = _steps(words, word_thresholds(epsilon.values(first, count)),
                       advance, num_actions)
        for ep, a_val in enumerate(alpha.values(first, count).tolist(),
                                   start=first + 1):
            code = cap = 0
            row, visits = rows[0]
            best = None
            total = 0.0
            # zip stops on `head` before it takes the last period's draws
            for (invest, outage, _, after, succ, offset, width), \
                    (ai, tie, mask) in zip(head, draws):
                if ai < 0:
                    ai = greedy_index(row, tie, best)
                cap = after[ai][cap]
                r = -invest[code][ai] - outage[cap]
                n = visits[ai] + 1
                visits[ai] = n
                step = 1.0 / n
                if not step > a_val:  # max(a_val, 1 / n)
                    step = a_val
                code = succ[code][mask]
                s = offset + code * width + cap
                entry = rows[s]
                if entry is None:
                    entry = rows[s] = ([0.0] * num_actions, [0] * num_actions)
                best = max(entry[0])
                row[ai] += step * (r + gamma * best - row[ai])
                row, visits = entry
                total += r
            ai, tie, _ = next(draws)
            if ai < 0:
                ai = greedy_index(row, tie, best)
            r = -last_invest[code][ai] - last_outage[last_after[ai][cap]]
            n = visits[ai] + 1
            visits[ai] = n
            step = 1.0 / n
            if not step > a_val:
                step = a_val
            row[ai] += step * (r - row[ai])
            total += r
            acc += total
            acc_n += 1
            if ep == boundaries[next_boundary]:
                curve_x.append(100.0 * ep / episodes)
                curve_y.append(acc / acc_n)
                acc, acc_n = 0.0, 0
                next_boundary += 1
    return qt, LearningCurve(batch_percentile=curve_x, mean_total_reward=curve_y)


def _numbering_digest(env: MdpEnv) -> str:
    """A digest of `env.numbering`, equal for envs that number alike."""
    return hashlib.sha256(repr(env.numbering).encode()).hexdigest()[:16]


def save_qtable(qtable: QTable, path, config_digest: str | None,
                metadata: dict | None = None) -> None:
    """JSONL: one header record, then one record `{"n", "q", "visits"}` per
    visited state, in number order. The header's `numbering` is the
    `_numbering_digest` the numbers refer to. A NaN or infinite q-value
    raises ValueError and leaves no file.
    """
    rows = qtable.rows  # a `_VerifiedTable` reads its file here, not midway
    header = {
        "format": QTABLE_FORMAT,
        "config_hash": config_digest,
        "numbering": _numbering_digest(qtable.env),
        "num_actions": qtable.num_actions,
        "num_units": qtable.env.num_units,
        "states": len(qtable),
    }
    if metadata:
        header.update(metadata)
    try:
        with open(path, "w") as fh:
            fh.write(_encode(header) + "\n")
            for n, row in enumerate(rows):
                if row:
                    q, visits = row
                    # a finite sum has no NaN or infinite term, and json
                    # writes a float as its repr, so a list's repr is its JSON
                    if not isfinite(sum(q)) and not all(map(isfinite, q)):
                        raise ValueError
                    fh.write('{"n": %d, "q": %r, "visits": %r}\n'
                             % (n, q, visits))
    except ValueError:  # a NaN or infinite q, which JSON cannot hold
        Path(path).unlink()
        raise ValueError(f"{path}: a q-value is not finite") from None


def _row_placer(rows: list, width: int):
    """A function that places one decoded q-table row `{"n", "q", "visits"}`
    at `rows[n]`.

    `n` must be a JSON integer below `len(rows)` whose slot holds no row
    yet, `q` must hold `width` finite JSON numbers, which come back as
    floats, and `visits` `width` non-negative JSON integers; the lists JSON
    decoding made are kept when they already hold floats and ints. With
    `share_zero`, which the caller may set only when the row holds no
    negative zero, q's zeros become one shared 0.0: most of a row's actions
    are never tried, and a float object for each of their zeros would be
    most of a loaded table's memory. Raises ValueError saying what is wrong.
    """

    def put(rec, share_zero: bool):
        if not (type(rec) is dict and type(n := rec.get("n")) is int
                and type(q := rec.get("q")) is list
                and type(visits := rec.get("visits")) is list):
            raise ValueError(f"a row must be an object with an 'n' integer "
                             f"and 'q' and 'visits' lists, got "
                             f"{json.dumps(rec)[:80]!r}")
        if len(q) != width or len(visits) != width:
            raise ValueError(f"row width mismatch for state {n}")
        if set(map(type, q)) != _FLOAT:
            bad = [x for x in q if type(x) not in _NUMBER]
            if bad:  # bools and strings are not numbers
                raise ValueError(f"'q' entries must be JSON numbers, "
                                 f"got {bad[0]!r}")
            try:
                q = list(map(float, q))
            except OverflowError:
                raise ValueError("'q' entry out of float range") from None
        # NaN, Infinity and 1e400 decode to non-finite floats; a finite sum
        # has none, and only a sum that overflows needs the entries checked
        if not isfinite(sum(q)) and not all(map(isfinite, q)):
            raise ValueError("'q' entries must be finite numbers")
        if share_zero and 0.0 in q:
            q = [x or 0.0 for x in q]
        if set(map(type, visits)) != _INT or min(visits) < 0:
            bad = [x for x in visits if type(x) is not int or x < 0]
            raise ValueError(f"'visits' entries must be non-negative JSON "
                             f"integers, got {bad[0]!r}")
        if not 0 <= n < len(rows):
            raise ValueError(f"state {n} is not numbered under the config")
        if rows[n] is not None:
            raise ValueError(f"state {n} has a row already")
        rows[n] = (q, visits)

    return put


def _place_line(put, path, lineno: int, line: str) -> None:
    """Decode line `lineno` of the q-table file at `path` and place its row
    with `put`, a `_row_placer`; an error names the file and the line.

    q's zeros are shared unless the line holds "-0", as the token of a
    negative zero does (and that of a number between -1 and 0)."""
    rec = parse_json(line, path, line=lineno)
    try:
        put(rec, "-0" not in line)
    except ValueError as exc:
        raise ValueError(f"{path}: line {lineno}: {exc}") from None


def _line_starts(path, expected_sha256: str):
    """The offset of each line of the file at `path`, found in the pass
    that hashes it, if its sha256 is `expected_sha256`; else None."""
    parts, size = [np.zeros(1, np.int64)], 0

    def newlines(offset, chunk):
        nonlocal size
        size = offset + len(chunk)
        ends = np.flatnonzero(np.frombuffer(chunk, np.uint8) == ord("\n"))
        parts.append(ends + (offset + 1))

    if file_sha256(path, newlines) != expected_sha256:
        return None
    starts = np.concatenate(parts)
    return starts[starts < size]


class _VerifiedTable(QTable):
    """The rows of a q-table file whose sha256 is the one `solve` recorded,
    read as they are asked for.

    `starts` holds the file's line offsets, the header's first. The first
    time `q_values` or `visit_counts` asks for a state, its row is found by
    bisecting the lines on their state numbers, which holds because
    `save_qtable` writes rows in number order, and is decoded and checked
    by `_place_line`, as in the full read; an error names the file and the
    line. `rows` reads the whole file as `load_qtable` without a digest
    does, so `save_qtable` writes what the file holds.
    """

    def __init__(self, env: MdpEnv, path, starts):
        self.env, self.num_actions = env, env.num_actions
        self._path, self._starts = path, starts
        self._found: list = [None] * env.numbering[1]
        self._put = _row_placer(self._found, self.num_actions)
        self._sought: set[int] = set()

    def __len__(self) -> int:
        return len(self._starts) - 1

    @cached_property
    def rows(self) -> list:
        return load_qtable(self._path, self.env)[0].rows

    def _row(self, state: MdpState):
        n = self.env.number(state)
        if n is not None and n not in self._sought:
            self._read(n)
            self._sought.add(n)
        row = None if n is None else self._found[n]
        return row or ([0.0] * self.num_actions, [0] * self.num_actions)

    def _read(self, n: int) -> None:
        """Place state n's row, if the file has one."""
        path, starts = self._path, self._starts
        with open(path, "rb") as fh:
            def number(i: int) -> int:
                fh.seek(starts[i])
                start = _ROW_START.match(fh.read(32))
                if start is None:
                    raise ValueError(f"{path}: line {i + 1}: a row does not "
                                     f"start as save_qtable writes one, "
                                     f"with {{\"n\": <state number>,")
                return int(start[1])

            i = bisect_left(range(len(starts)), n, 1, key=number)
            if i == len(starts) or number(i) != n:
                return
            fh.seek(starts[i])
            line = fh.readline().decode()
        _place_line(self._put, path, i + 1, line)
        if self._found[n] is None:
            raise ValueError(f"{path}: line {i + 1}: starts as state {n}'s "
                             f"row, but holds another state's")


def load_qtable(path, env: MdpEnv, expected_config_hash: str | None = None,
                expected_sha256: str | None = None) -> tuple[QTable, dict]:
    """A q-table file's rows, placed by `env`'s numbering. The header's counts
    and numbering digest must match `env`'s and each row's `n` must number
    a state of `env`; each non-blank line after the header is one row,
    decoded and checked by `_place_line`, in any JSON spelling whose
    numbers are valid.

    A file whose sha256 is `expected_sha256`, the digest `solve` recorded
    for it, is hashed in one pass that finds its line offsets. Its header
    is checked as above and its line count against the header's `states`;
    its rows are then read as they are asked for (`_VerifiedTable`).
    """
    starts = None
    if expected_sha256 is not None:
        starts = _line_starts(path, expected_sha256)
    with open(path) as fh:
        header = parse_json(fh.readline(), path, line=1)
        form = header.get("format") if isinstance(header, dict) else None
        if form != QTABLE_FORMAT:
            raise ValueError(f"{path}: " + (
                "a v1 q-table, its rows keyed by state name; re-run solve"
                if form == "storeplan-qtable-v1" else "not a q-table file"))
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
        if header.get("numbering") != (digest := _numbering_digest(env)):
            raise ValueError(f"{path}: line 1: header 'numbering' is "
                             f"{header.get('numbering')!r}, but the config "
                             f"numbers its states as {digest!r}")
        if starts is None:
            qt = QTable(env)
            put = _row_placer(qt.rows, qt.num_actions)
            for lineno, line in enumerate(fh, start=2):
                if line.strip():
                    _place_line(put, path, lineno, line)
        else:
            qt = _VerifiedTable(env, path, starts)
    if len(qt) != header["states"]:
        raise ValueError(f"{path}: header claims {header['states']} states, "
                         f"found {len(qt)}")
    return qt, header
