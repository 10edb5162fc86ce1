"""Q-learning mechanics, the learner's tables against the model, pinned
training output, and a convergence check on a tiny deterministic MDP."""

import hashlib
import itertools
import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from storeplan.config import IncompatibleArtifact
from storeplan.mdp import MdpEnv, MdpState
from storeplan import qlearn
from storeplan.qlearn import (BATCHES, DecaySchedule, LearningCurve, QTable,
                              greedy_index, load_qtable, save_qtable, train)
from storeplan.rng import stream, word_index, word_thresholds

from conftest import pointwise
from reference import decay_value, initial_state, word_limit
from test_mdp import G_LOSSY_LEVELS, every_state, make_env, planning, tech


def visited(qt):
    """`(state, (q, visits))` for each state with a row, by number."""
    return [(s, row) for s, row in zip(every_state(qt.env), qt.rows) if row]


def test_decay_endpoints_and_midpoint():
    sched = DecaySchedule(start=1.0, end=0.02, total=1_000)
    assert decay_value(sched, 0) == 1.0
    assert decay_value(sched, 999) == 0.02
    assert decay_value(sched, 2_000) == 0.02  # clamped past the end
    mid = decay_value(sched, 500)
    assert 0.02 < mid < 1.0


def test_decay_degenerate_run_uses_end_value():
    assert decay_value(DecaySchedule(1.0, 0.1, 1), 0) == 0.1


def reference_update(row, action_index, reward, next_best, alpha, gamma,
                     terminal):
    """The one-step Q update, in place: the target is the reward, plus the
    discounted best next q-value unless the step ends the episode."""
    target = reward if terminal else reward + gamma * next_best
    row[action_index] += alpha * (target - row[action_index])


def reference_train(env, episodes, gamma, alpha, epsilon, seed):
    """Q-learning written out on the model itself: `MdpEnv.reward` and
    `MdpEnv.transition` stepped on the seed's `Generator`, with no tables.
    Each step reads `random()` for exploration, then one raw word w whether
    or not it is used, then the transition's draws, in the last period too.
    An exploration pick from n actions is floor(u * n), in exact fractions,
    for w's double u = (w >> 11) * 2**-53; a greedy step breaks a tie with
    w. Returns the rows by state number, as `QTable.rows` holds them, and
    the learning curve."""
    rng = stream(seed, "train")
    raw = rng.bit_generator.random_raw

    def pick(word, n):
        return math.floor(Fraction(word >> 11, 2**53) * n)
    horizon = env.planning.horizon_periods
    rows = {}

    def entry(state):
        n = env.number(state)
        if n not in rows:
            rows[n] = ([0.0] * env.num_actions, [0] * env.num_actions)
        return rows[n]

    batches = min(BATCHES, episodes)
    ends = [round((i + 1) * episodes / batches) for i in range(batches)]
    curve = LearningCurve([], [])
    acc, acc_n = 0.0, 0
    for ep in range(episodes):
        step_floor, explore = decay_value(alpha, ep), decay_value(epsilon, ep)
        state = initial_state(env)
        total = 0.0
        for k in range(1, horizon + 1):
            q, visits = entry(state)
            explores, word = rng.random() < explore, int(raw())
            if explores:
                ai = pick(word, env.num_actions)
            else:
                ai = greedy_index(q, word)
            action = env.actions[ai]
            r = env.reward(state, action)
            state = env.transition(state, action, rng)
            visits[ai] += 1
            step = max(step_floor, 1.0 / visits[ai])
            terminal = k == horizon
            next_best = 0.0 if terminal else max(entry(state)[0])
            reference_update(q, ai, r, next_best, step, gamma, terminal)
            total += r
        acc += total
        acc_n += 1
        if ep + 1 in ends:
            curve.batch_percentile.append(100.0 * (ep + 1) / episodes)
            curve.mean_total_reward.append(acc / acc_n)
            acc, acc_n = 0.0, 0
    return rows, curve


def test_reference_update_worked_example():
    # q 10, reward 5, best next 20, alpha 0.5, gamma 0.9 -> 16.5
    row = [10.0, 0.0]
    reference_update(row, 0, reward=5.0, next_best=20.0, alpha=0.5,
                     gamma=0.9, terminal=False)
    assert row[0] == pytest.approx(16.5)


def test_reference_update_terminal_ignores_bootstrap():
    row = [10.0, 0.0]
    reference_update(row, 0, reward=5.0, next_best=999.0, alpha=0.5,
                     gamma=0.9, terminal=True)
    assert row[0] == pytest.approx(7.5)


# probabilities and schedule ends: the edges 0 and 1 as often as the inside
unit_values = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def learner_cases(draw):
    horizon = draw(st.integers(2, 4))
    levels = draw(st.sampled_from([(300.0,), (300.0, 1000.0)]))
    # free storage and a flat outage cost tie every action of a fresh row
    free = draw(st.booleans())
    storage = tuple(
        tech(u, [draw(unit_values) for _ in range(horizon)], horizon,
             price=(0.0,) * horizon if free else None)
        for u in range(draw(st.integers(1, 2))))
    flat, slope = draw(st.sampled_from([(0.0, 0.0), (500.0, 0.0),
                                        (500.0, 2_000.0)]))
    env = MdpEnv(planning(horizon, levels), storage, outage_cost=pointwise(
        lambda k, caps: flat + slope * k / (1.0 + sum(caps) / 700.0)))
    episodes = draw(st.integers(1, 300))
    gamma = draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
    alpha = DecaySchedule(draw(unit_values), draw(unit_values), episodes)
    epsilon = DecaySchedule(draw(unit_values), draw(unit_values), episodes)
    return env, episodes, gamma, alpha, epsilon, draw(st.integers(0, 2**32))


@settings(max_examples=60, deadline=None)
@given(learner_cases())
def test_train_matches_reference_learner(case):
    """`train` steps on tables and raw words; the reference on the model and
    the seed's `Generator`. Rows, visit counts and curve agree bit for bit
    (repr tells -0.0 from 0.0)."""
    qt, curve = train(*case)
    rows, ref_curve = reference_train(*case)
    assert repr(dict(sorted(rows.items()))) == repr(
        {n: row for n, row in enumerate(qt.rows) if row})
    assert repr(curve) == repr(ref_curve)


@pytest.mark.parametrize("word, fires", [(1 << 63, False),
                                         ((1 << 63) - 1, True)])
def test_a_word_fires_only_below_its_limit(monkeypatch, word, fires):
    """Every raw word of the stream is `word`. 2**63 reads as the double
    0.5, which is not below a probability of 0.5, so no step explores and
    no price advances; the word just under it reads as 0.5 - 2**-53, so
    every step does."""
    greedy_calls = []

    def counted_greedy(row, tie, best=None):
        greedy_calls.append(1)
        return greedy_index(row, tie, best)

    class Bits:
        def random_raw(self, size):
            return np.full(size, word, dtype=np.uint64)

    class Stream:
        bit_generator = Bits()

    monkeypatch.setattr(qlearn, "stream", lambda seed, tag: Stream())
    monkeypatch.setattr(qlearn, "greedy_index", counted_greedy)
    env = MdpEnv(planning(levels=(300.0,)), (tech(0, (0.5,) * 4),),
                 outage_cost=pointwise(lambda k, caps: 0.0))
    half = DecaySchedule(0.5, 0.5, 20)
    qt, _ = train(env, 20, 0.9, half, half, seed=0)
    assert len(greedy_calls) == (0 if fires else 20 * 4)
    assert {(s.period, s.price_idx) for s, _ in visited(qt)} == {
        (k, (k if fires else 1,)) for k in range(1, 5)}


@pytest.mark.parametrize("total", [1, 2, 3, 1_000])
@pytest.mark.parametrize("start, end", [(1.0, 0.05), (0.0, 1.0),
                                        (math.nan, 0.5), (1.0 - 2.0**-53, 0.0),
                                        (0.3, 0.3)])
def test_chunk_schedules_equal_value_and_word_limit(total, start, end):
    """The alpha values and epsilon limits `train` works out a chunk of
    episodes at a time equal `decay_value` and `word_limit` of it
    bit for bit: at the first and last episode, in a chunk of one episode
    and past the end (repr tells NaN and -0.0 apart from other floats)."""
    sched = DecaySchedule(start, end, total)
    for first, count in ((0, total + 1), (0, 1), (total - 1, 1),
                         (max(total - 2, 0), 3)):
        episodes = range(first, first + count)
        values = sched.values(first, count)
        assert repr(values.tolist()) == repr(
            [decay_value(sched, e) for e in episodes])
        assert [int(t) << 11 for t in word_thresholds(values)] == [
            word_limit(decay_value(sched, e)) for e in episodes]


@pytest.mark.parametrize("num_actions", [1, 7, 2**11 - 1, 2**11, 2**40])
def test_exploration_picks_are_word_index_at_any_action_count(num_actions):
    """(w >> 11) * n overflows uint64 from n = 2**11 on; the picks stay
    `word_index`'s, and a step explores exactly below epsilon's limit."""
    words = stream(3, "picks").bit_generator.random_raw(2 * 5 * 4)
    words[:4] = [0, 2**64 - 1, 2**63, (1 << 63) - 1]
    words = words.reshape(2, 5, 4)
    explore = word_thresholds(np.array([0.5, 1.0]))
    advance = word_thresholds(np.full((5, 2), 0.5))
    steps = list(qlearn._steps(words, explore, advance, num_actions))
    for (ai, tie, mask), (w0, w1, w2, w3), limit in zip(
            steps, words.reshape(-1, 4).tolist(),
            [word_limit(0.5)] * 5 + [word_limit(1.0)] * 5):
        assert ai == (word_index(w1, num_actions) if w0 < limit else -1)
        assert tie == w1
        assert mask == (w2 < word_limit(0.5)) + 2 * (w3 < word_limit(0.5))


def test_price_paths_do_not_depend_on_outage_costs():
    """Draws sit at fixed stream positions, whatever the learner picks, so
    two envs whose outage costs slope opposite ways in capacity take the
    same price paths at one seed: their visits, summed by period and price
    code, are equal, while the actions they learn differ."""

    def visits_by_prices(qt):
        totals = {}
        for (k, code, _, _), row in zip(_numbered_states(qt.env), qt.rows):
            if row:
                totals[k, code] = totals.get((k, code), 0) + sum(row[1])
        return totals

    runs = []
    for slope in (1.0, -1.0):
        env = make_env(units=2, cost=lambda k, caps, slope=slope:
                       1e6 * k * (2.0 + slope * sum(caps) / 7_000.0))
        runs.append(train(env, 20_000, 0.9, DecaySchedule(1.0, 0.05, 20_000),
                          DecaySchedule(1.0, 0.05, 20_000), seed=5)[0])
    up, down = runs
    assert visits_by_prices(up) == visits_by_prices(down)
    assert sum(visits_by_prices(up).values()) == 20_000 * 4
    assert [row[1] for row in up.rows if row] != [
        row[1] for row in down.rows if row]


def test_greedy_index_picks_maximum():
    for word in (0, 2**64 - 1):
        assert greedy_index([1.0, 5.0, 3.0], word) == 1
        assert greedy_index([1.0, 5.0, 3.0], word, best=5.0) == 1


@pytest.mark.parametrize("row", [[2.0, 2.0, 0.0], [1.0, 0.0, 1.0, 1.0],
                                 [0.0] * 13])
def test_greedy_ties_split_uniformly(row):
    words = stream(1, "greedy").bit_generator.random_raw(40_000).tolist()
    picks = [greedy_index(row, word) for word in words]
    counts = np.bincount(picks, minlength=len(row))
    tied = [i for i, q in enumerate(row) if q == max(row)]
    assert all(counts[i] == 0 for i in range(len(row)) if i not in tied)
    for i in tied:
        assert counts[i] / 40_000 == pytest.approx(1 / len(tied), abs=0.01)


def small_env():
    """Two units and one expansion level, so three actions."""
    storage = make_env(units=2).storage
    return MdpEnv(planning(levels=(300.0,)), storage,
                  outage_cost=pointwise(lambda k, caps: 0.0))


def test_qtable_entry_creates_zero_row():
    env = small_env()
    qt = QTable(env)
    s = MdpState(2, (2, 1), (0.0, 300.0))
    assert len(qt) == 0 and len(qt.rows) == env.numbering[1]
    row, visits = qt.entry(s)
    assert row == [0.0] * 3 and visits == [0] * 3
    assert len(qt) == 1 and qt.rows[env.number(s)] == (row, visits)
    assert visited(qt) == [(s, (row, visits))]
    with pytest.raises(ValueError, match="not reachable"):
        qt.entry(MdpState(2, (2, 1), (300.0, 300.0)))


def test_qtable_accessors_return_copies():
    env = small_env()
    qt = QTable(env)
    s = initial_state(env)
    qt.entry(s)
    qt.q_values(s)[0] = 99.0
    assert qt.q_values(s)[0] == 0.0
    # a state off the reachable set has no row: zeros, as for an unvisited one
    off = MdpState(9, (1, 1), (0.0, 0.0))
    assert qt.q_values(off) == [0.0] * 3 and qt.visit_counts(off) == [0] * 3


def test_train_visits_every_period(smoke_config):
    env = make_env(units=2, cost=lambda k, caps: 100.0 * k)
    qt, curve = train(env, episodes=200, gamma=0.9,
                      alpha=DecaySchedule(1.0, 0.1, 200),
                      epsilon=DecaySchedule(1.0, 0.1, 200), seed=5)
    periods = {s.period for s, _ in visited(qt)}
    assert periods == {1, 2, 3, 4}
    assert len(curve.batch_percentile) == 100
    assert curve.batch_percentile[-1] == pytest.approx(100.0)


def test_train_is_reproducible():
    env_a = make_env(units=2, cost=lambda k, caps: 50.0)
    env_b = make_env(units=2, cost=lambda k, caps: 50.0)
    qt_a, curve_a = train(env_a, 300, 0.9, DecaySchedule(1.0, 0.05, 300),
                          DecaySchedule(1.0, 0.05, 300), seed=11)
    qt_b, curve_b = train(env_b, 300, 0.9, DecaySchedule(1.0, 0.05, 300),
                          DecaySchedule(1.0, 0.05, 300), seed=11)
    assert curve_a.mean_total_reward == curve_b.mean_total_reward
    assert {s: q for s, (q, _) in visited(qt_a)} == {
        s: q for s, (q, _) in visited(qt_b)}


def test_batches_never_exceed_episodes():
    env = make_env(units=1, cost=lambda k, caps: 1.0)
    _, curve = train(env, episodes=7, gamma=0.9,
                     alpha=DecaySchedule(0.5, 0.5, 7),
                     epsilon=DecaySchedule(1.0, 1.0, 7), seed=0)
    assert len(curve.batch_percentile) == 7


def test_training_learns_cheapest_unit():
    """Costs engineered so buying unit 1 level 0 in period 1 is optimal."""

    def cost(k, caps):
        # the penalty must dwarf the annuitized purchase (about 190k over
        # the horizon) or never-investing would genuinely be optimal
        return 0.0 if caps[1] >= 300.0 else 100_000.0

    env = make_env(units=2, advance=0.0, cost=cost)
    qt, _ = train(env, episodes=4_000, gamma=1.0,
                  alpha=DecaySchedule(0.5, 0.05, 4_000),
                  epsilon=DecaySchedule(1.0, 0.2, 4_000), seed=21)
    row = qt.q_values(initial_state(env))
    best = int(np.argmax(row))
    assert env.actions[best].unit == 1
    assert env.actions[best].level == 0


def test_learning_curve_round_trip(tmp_path):
    curve = LearningCurve(batch_percentile=[50.0, 100.0],
                          mean_total_reward=[-2.5, -1.0])
    path = tmp_path / "curve.csv"
    curve.save(path)
    header, *rows = path.read_text().splitlines()
    assert header == "batch_percentile,mean_total_reward"
    again = [tuple(float(x) for x in row.split(",")) for row in rows]
    assert again == list(zip(curve.batch_percentile, curve.mean_total_reward))


def test_qtable_round_trip_preserves_rows(tmp_path):
    env = make_env(units=2, cost=lambda k, caps: 25.0)
    qt, _ = train(env, 150, 0.9, DecaySchedule(1.0, 0.1, 150),
                  DecaySchedule(1.0, 0.3, 150), seed=9)
    path = tmp_path / "qtable.jsonl"
    save_qtable(qt, path, config_digest="abc123", metadata={"episodes": 150})
    loaded, header = load_qtable(path, env, expected_config_hash="abc123")
    assert header["episodes"] == 150
    assert len(loaded) == len(qt)
    assert loaded.rows == qt.rows
    for s, (q, v) in visited(qt):
        assert loaded.q_values(s) == q
        assert loaded.visit_counts(s) == v


@pytest.mark.parametrize("levels", G_LOSSY_LEVELS)
def test_qtable_round_trip_with_levels_g_cannot_print(smoke_config, tmp_path,
                                                      levels):
    env = MdpEnv(replace(smoke_config.planning, expansion_levels_kwh=levels),
                 smoke_config.storage, outage_cost=pointwise(
                     lambda k, caps: 1_000.0 * k / (1.0 + sum(caps))))
    qt, _ = train(env, 300, 0.9, DecaySchedule(1.0, 0.1, 300),
                  DecaySchedule(1.0, 0.3, 300), seed=13)
    path = tmp_path / "qtable.jsonl"
    save_qtable(qt, path, config_digest="abc123")
    loaded, _ = load_qtable(path, env, expected_config_hash="abc123")
    assert loaded.rows == qt.rows


def test_load_qtable_rejects_wrong_config(tmp_path):
    path = small_qtable_file(tmp_path / "qtable.jsonl")
    with pytest.raises(IncompatibleArtifact):
        load_qtable(path, small_env(), expected_config_hash="other")


def test_load_qtable_rejects_non_qtable_file(tmp_path):
    path = tmp_path / "bogus.jsonl"
    path.write_text('{"format": "something-else"}\n')
    with pytest.raises(ValueError):
        load_qtable(path, small_env())


def small_qtable_file(path, rows=None, states=None):
    """A `small_env` q-table file with the initial state's row; `rows`
    replaces its rows."""
    qt = QTable(small_env())
    qt.entry(initial_state(qt.env))
    save_qtable(qt, path, config_digest="abc123")
    header, *lines = path.read_text().splitlines()
    doc = json.loads(header)
    if rows is not None:
        lines = rows
    doc["states"] = len(lines) if states is None else states
    path.write_text("\n".join([json.dumps(doc), *lines]) + "\n")
    return path


@pytest.mark.parametrize("row", [
    "5",
    "[1, 2, 3]",
    '{"q": [0, 0, 0], "visits": [0, 0, 0]}',
    '{"n": 0, "q": 5, "visits": [0, 0, 0]}',
    '{"n": 0, "q": [0, 0, 0], "visits": "000"}',
    '{"n": 0, "q": [null, 0, 0], "visits": [0, 0, 0]}',
    '{"n": "1,1,1,0,0", "q": [0, 0, 0], "visits": [0, 0, 0]}',
    '{"n": 0, "q": ["1.5", "nan", true], '
    '"visits": [1.5, -3, true]}',
    '{"n": 0, "q": [1.5, 0, true], "visits": [0, 0, 0]}',
    '{"n": 0, "q": [1.5, 0, "0"], "visits": [0, 0, 0]}',
    '{"n": 0, "q": [1e999, 0, 1' + "0" * 400 + '], '
    '"visits": [0, 0, 0]}',
    '{"n": 0, "q": [0, 0, 0], "visits": [1.5, 0, 0]}',
    '{"n": 0, "q": [0, 0, 0], "visits": [0, -3, 0]}',
    '{"n": 0, "q": [0, 0, 0], "visits": [0, 0, true]}',
])
def test_load_qtable_rejects_malformed_row_naming_it(tmp_path, row):
    path = small_qtable_file(tmp_path / "qtable.jsonl", rows=[row])
    with pytest.raises(ValueError, match="line 2"):
        load_qtable(path, small_env())


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_load_qtable_rejects_non_finite_q_naming_file_and_line(tmp_path,
                                                               value):
    """json decodes all four to floats: NaN, inf, -inf and inf."""
    row = ('{"n": 0, "q": [0.5, ' + value + ', 0], '
           '"visits": [1, 1, 0]}')
    path = small_qtable_file(tmp_path / "qtable.jsonl", rows=[row])
    with pytest.raises(ValueError, match=f"{path}: line 2: 'q' entries "
                                         f"must be finite"):
        load_qtable(path, small_env())


def test_load_qtable_accepts_finite_q_whose_sum_overflows(tmp_path):
    row = '{"n": 0, "q": [1e308, 1e308, 0], "visits": [1, 1, 0]}'
    path = small_qtable_file(tmp_path / "qtable.jsonl", rows=[row])
    qt, _ = load_qtable(path, small_env())
    assert qt.entry(initial_state(qt.env))[0] == [1e308, 1e308, 0.0]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_save_qtable_refuses_non_finite_q(tmp_path, value):
    qt = QTable(small_env())
    qt.entry(initial_state(qt.env))[0][1] = value
    path = tmp_path / "qtable.jsonl"
    with pytest.raises(ValueError, match="a q-value is not finite"):
        save_qtable(qt, path, config_digest="abc123")
    assert not path.exists()


def test_load_qtable_rejects_row_width_mismatch(tmp_path):
    row = '{"n": 0, "q": [0, 0], "visits": [0, 0]}'
    path = small_qtable_file(tmp_path / "qtable.jsonl", rows=[row])
    with pytest.raises(ValueError,
                       match="line 2: row width mismatch for state 0"):
        load_qtable(path, small_env())


def test_load_qtable_keeps_the_sign_of_zero(tmp_path):
    row = '{"n": 0, "q": [-0.0, 0.0, 0], "visits": [0, 0, 0]}'
    path = small_qtable_file(tmp_path / "qtable.jsonl", rows=[row])
    qt, _ = load_qtable(path, small_env())
    q = qt.q_values(initial_state(qt.env))
    assert [math.copysign(1.0, x) for x in q] == [-1.0, 1.0, 1.0]


def test_load_qtable_rejects_wrong_state_count(tmp_path):
    path = small_qtable_file(tmp_path / "qtable.jsonl", states=2)
    with pytest.raises(ValueError, match="header claims 2 states, found 1"):
        load_qtable(path, small_env())


@pytest.mark.parametrize("key, value", [
    ("num_actions", "3"), ("num_units", True), ("states", None)])
def test_load_qtable_rejects_mistyped_header_naming_the_key(tmp_path, key,
                                                           value):
    path = small_qtable_file(tmp_path / "qtable.jsonl")
    header, row = path.read_text().splitlines()
    doc = json.loads(header)
    doc[key] = value
    path.write_text(json.dumps(doc) + "\n" + row + "\n")
    with pytest.raises(ValueError, match=key):
        load_qtable(path, small_env())


@pytest.mark.parametrize("key, value, match", [
    ("num_units", 3, "line 1: header 'num_units' is 3, but the config gives 2"),
    ("num_actions", 7, "line 1: header 'num_actions' is 7, but the config "
                       "gives 3")])
def test_load_qtable_rejects_header_counts_off_the_config(tmp_path, key,
                                                          value, match):
    path = small_qtable_file(tmp_path / "qtable.jsonl")
    header, row = path.read_text().splitlines()
    doc = json.loads(header)
    doc[key] = value
    path.write_text(json.dumps(doc) + "\n" + row + "\n")
    with pytest.raises(ValueError, match=match):
        load_qtable(path, small_env())


def test_load_qtable_rejects_another_numbering(tmp_path):
    """Other expansion levels number states of other capacities, here as
    many of them as `small_env` has, under the same action count: only
    the header's numbering digest tells the two tables apart."""
    path = small_qtable_file(tmp_path / "qtable.jsonl")
    other = MdpEnv(planning(levels=(500.0,)), small_env().storage,
                   outage_cost=pointwise(lambda k, caps: 0.0))
    assert other.num_actions == small_env().num_actions
    assert other.numbering[1] == small_env().numbering[1]
    with pytest.raises(ValueError, match="line 1: header 'numbering' is"):
        load_qtable(path, other, expected_config_hash=None)


NOT_A_NUMBER = "line 2: a row must be an object with an 'n' integer"


@pytest.mark.parametrize("n, match", [
    ("size", "line 2: state {size} is not numbered under the config"),
    (-1, "line 2: state -1 is not numbered under the config"),
    (True, NOT_A_NUMBER),  # bools are not state numbers
    (1.0, NOT_A_NUMBER),
    ("0", NOT_A_NUMBER),
])
def test_load_qtable_rejects_unreachable_state(tmp_path, n, match):
    size = small_env().numbering[1]
    if n == "size":
        n = size
    row = json.dumps({"n": n, "q": [0, 0, 0], "visits": [0, 0, 0]})
    path = small_qtable_file(tmp_path / "qtable.jsonl", rows=[row])
    with pytest.raises(ValueError, match=match.format(size=size)):
        load_qtable(path, small_env())


def test_load_qtable_rejects_repeated_state(tmp_path):
    row = '{"n": 0, "q": [0, 0, 0], "visits": [0, 0, 0]}'
    path = small_qtable_file(tmp_path / "qtable.jsonl", rows=[row, row])
    with pytest.raises(ValueError, match="line 3: state 0 has a row already"):
        load_qtable(path, small_env())


@pytest.fixture(scope="module")
def blocks_file(smoke_config, tmp_path_factory):
    """A smoke-config q-table file of several read blocks: `(env, table,
    path)`."""
    env = MdpEnv(smoke_config.planning, smoke_config.storage,
                 outage_cost=pointwise(
                     lambda k, caps: 1_000.0 * k / (1.0 + sum(caps))))
    qt, _ = train(env, 600, 0.9, DecaySchedule(1.0, 0.1, 600),
                  DecaySchedule(1.0, 0.3, 600), seed=5)
    assert len(qt) > 2 * 256
    path = tmp_path_factory.mktemp("blocks") / "qtable.jsonl"
    save_qtable(qt, path, config_digest="abc123")
    return env, qt, path


def rewrite_rows(path, out, rows):
    """`path`'s header over `rows`, its count fixed, written to `out`."""
    doc = json.loads(path.read_text().splitlines()[0])
    doc["states"] = sum(1 for row in rows if row.strip())
    out.write_text("\n".join([json.dumps(doc), *rows]) + "\n")
    return out


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("defect, match", [
    ("truncated", "not valid JSON"),
    ("string q", "'q' entries must be JSON numbers"),
    ("NaN q", "'q' entries must be finite"),
    ("repeated", "has a row already"),
    ("unreachable", "is not numbered under the config"),
])
def test_load_qtable_names_the_file_line_next_to_a_block_boundary(
        blocks_file, tmp_path, offset, defect, match):
    env, _, path = blocks_file
    rows = path.read_text().splitlines()[1:]
    i = 256 + offset  # offset 0: the first row of the second block
    if defect == "truncated":
        rows[i] = rows[i][:len(rows[i]) // 2]
    elif defect == "string q":
        rec = json.loads(rows[i])
        rec["q"][0] = "0"
        rows[i] = json.dumps(rec)
    elif defect == "NaN q":
        rec = json.loads(rows[i])
        rec["q"][-1] = math.nan
        rows[i] = json.dumps(rec)  # json writes NaN
    elif defect == "repeated":
        rows[i] = rows[i - 2]
    else:
        rec = json.loads(rows[i])
        rec["n"] = env.numbering[1]
        rows[i] = json.dumps(rec)
    # a blank line after the header shifts every row down one line
    bad = rewrite_rows(path, tmp_path / "qtable.jsonl", ["", *rows])
    with pytest.raises(ValueError, match=f"{bad}: line {i + 3}: .*{match}"):
        load_qtable(bad, env)


@pytest.mark.parametrize("split", ["before visits", "inside an extra key"])
def test_load_qtable_rejects_a_row_split_over_lines_in_a_full_block(
        blocks_file, tmp_path, split):
    """One row over two lines, and later two rows on one line, leave a block
    that decodes to as many rows as lines; the split row's first line is
    reported. Split inside an extra key's list, the second line starts with
    "{" as a row's line does."""
    env, _, path = blocks_file
    rows = path.read_text().splitlines()[1:]
    if split == "before visits":
        cut = rows[10].index(', "visits"')
        rows[10:11] = [rows[10][:cut], rows[10][cut + 2:]]
    else:
        rows[10:11] = [rows[10][:-1] + ', "x": [{}', "{}]}"]
    rows[20:22] = [rows[20] + ", " + rows[21]]
    bad = rewrite_rows(path, tmp_path / "qtable.jsonl", rows)
    with pytest.raises(ValueError, match="line 12: not valid JSON"):
        load_qtable(bad, env)


def test_load_qtable_reads_other_spellings_of_the_same_rows(blocks_file,
                                                            tmp_path):
    """Spellings `save_qtable` does not write give the rows it does."""
    env, qt, path = blocks_file
    spelled = []
    for i, line in enumerate(path.read_text().splitlines()[1:]):
        rec = json.loads(line)
        kind = i % 4
        if kind == 1:  # other key order, other spaces
            line = '{ "visits" :%s ,"q":  %s,"n" : %d}' % (
                json.dumps(rec["visits"]), json.dumps(rec["q"]), rec["n"])
        elif kind == 2:  # whole q values spelled as integers
            rec["q"] = [int(x) if x.is_integer() else x for x in rec["q"]]
            line = json.dumps(rec)
        elif kind == 3:  # leading and trailing white space
            line = f"  {line}\t "
        spelled.append(line)
        if i in (7, 256):
            spelled.append("  ")
    recs = [json.loads(line) for line in spelled if line.strip()]
    assert any(type(x) is int for rec in recs for x in rec["q"])
    loaded, _ = load_qtable(rewrite_rows(path, tmp_path / "spelled.jsonl",
                                         spelled), env)
    assert loaded.rows == qt.rows
    assert {type(x) for row in loaded.rows if row for x in row[0]} == {float}
    assert {type(v) for row in loaded.rows if row for v in row[1]} == {int}


def test_full_read_shares_one_zero_and_keeps_negative_zeros(blocks_file,
                                                            tmp_path):
    """Most of a row's actions are never tried and hold 0.0; a full read
    gives all of them one float object, except in a row whose line holds
    "-0", as a -0.0 does, which keeps its signs and is saved again as it
    was."""
    env, _, path = blocks_file
    lines = path.read_text().splitlines()
    for first in (1, 300):
        i = next(i for i in range(first, len(lines))
                 if "0.0," in lines[i] and "-0" not in lines[i])
        rec = json.loads(lines[i])
        rec["q"][rec["q"].index(0.0)] = -0.0
        lines[i] = json.dumps(rec)
    copy = tmp_path / "qtable.jsonl"
    copy.write_text("\n".join(lines) + "\n")
    loaded, header = load_qtable(copy, env)
    recs = [json.loads(line) for line in lines[1:]]
    shared = [x for line, rec in zip(lines[1:], recs) if "-0" not in line
              for x in loaded.rows[rec["n"]][0] if x == 0.0]
    assert len(shared) > len(loaded)
    assert len({id(x) for x in shared}) == 1
    assert math.copysign(1.0, shared[0]) == 1.0
    assert sum(x == 0.0 and math.copysign(1.0, x) < 0
               for rec in recs for x in rec["q"]) == 2
    signs = [[math.copysign(1.0, x) for x in rec["q"]] for rec in recs]
    assert signs == [[math.copysign(1.0, x) for x in loaded.rows[rec["n"]][0]]
                     for rec in recs]
    again = tmp_path / "again.jsonl"
    save_qtable(loaded, again, header["config_hash"])
    assert again.read_bytes() == copy.read_bytes()


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def nan_first_q(line):
    """A saved row's line with its first q-value spelled NaN."""
    head, _, tail = line.partition('"q": [')
    return head + '"q": [NaN, ' + tail.split(", ", 1)[1]


def test_verified_read_gives_every_state_the_full_reads_row(blocks_file):
    env, _, path = blocks_file
    lazy, lazy_header = load_qtable(path, env,
                                    expected_sha256=sha256_of(path))
    full, full_header = load_qtable(path, env)
    assert type(lazy) is not QTable and type(full) is QTable
    assert lazy_header == full_header and len(lazy) == len(full)
    for state in every_state(env):
        assert lazy.q_values(state) == full.q_values(state)
        assert lazy.visit_counts(state) == full.visit_counts(state)
    off_the_grid = MdpState(2, (9, 9), (0.0, 0.0))
    assert lazy.q_values(off_the_grid) == full.q_values(off_the_grid)


def test_save_of_a_verified_read_writes_the_files_bytes(blocks_file,
                                                        tmp_path):
    env, _, path = blocks_file
    lazy, header = load_qtable(path, env, expected_sha256=sha256_of(path))
    lazy.q_values(initial_state(env))  # one row read, the others not
    again = tmp_path / "again.jsonl"
    save_qtable(lazy, again, header["config_hash"])
    assert again.read_bytes() == path.read_bytes()


def test_save_of_a_verified_read_refuses_a_file_gone_bad(blocks_file,
                                                         tmp_path):
    # the rows it never read are read whole for the save, and checked
    env, _, path = blocks_file
    copy = tmp_path / "qtable.jsonl"
    copy.write_bytes(path.read_bytes())
    lazy, header = load_qtable(copy, env, expected_sha256=sha256_of(copy))
    lines = copy.read_text().splitlines()
    lines[-1] = nan_first_q(lines[-1])
    copy.write_text("\n".join(lines) + "\n")
    again = tmp_path / "again.jsonl"
    with pytest.raises(ValueError, match=f"line {len(lines)}: 'q' entries "
                                         f"must be finite"):
        save_qtable(lazy, again, header["config_hash"])
    assert not again.exists()


@pytest.mark.parametrize("expected", ["0" * 64, "not a digest"])
def test_another_digest_reads_the_whole_file(blocks_file, tmp_path, expected):
    env, _, path = blocks_file
    lines = path.read_text().splitlines()
    lines[3] = nan_first_q(lines[3])
    bad = tmp_path / "qtable.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 4: 'q' entries must be finite"):
        load_qtable(bad, env, expected_sha256=expected)


def test_verified_read_checks_each_row_it_reads(blocks_file, tmp_path):
    # a digest that matches a broken file still gets every row it reads
    # checked, and the error names the line
    env, _, path = blocks_file
    lines = path.read_text().splitlines()
    lines[1] = nan_first_q(lines[1])
    bad = tmp_path / "qtable.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    lazy, _ = load_qtable(bad, env, expected_sha256=sha256_of(bad))
    for _ in range(2):  # a failed read is not remembered as an empty row
        with pytest.raises(ValueError, match=f"{bad}: line 2: 'q' entries "
                                             f"must be finite"):
            lazy.q_values(initial_state(env))


def test_verified_read_checks_the_header_and_the_line_count(blocks_file,
                                                            tmp_path):
    env, _, path = blocks_file
    lines = path.read_text().splitlines()
    short = tmp_path / "short.jsonl"
    short.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match=f"header claims {len(lines) - 1} "
                                         f"states, found {len(lines) - 2}"):
        load_qtable(short, env, expected_sha256=sha256_of(short))
    with pytest.raises(IncompatibleArtifact):
        load_qtable(path, env, expected_config_hash="other",
                    expected_sha256=sha256_of(path))


def test_final_period_action_visited_once_holds_its_reward():
    """The step floor 1/n makes a first visit's step 1, whatever the schedule:
    a last-period action tried once holds exactly the reward it saw."""
    env = make_env(units=2, cost=lambda k, caps: 1_000.0 * k + 0.5 * sum(caps))
    qt, _ = train(env, 400, 0.9, DecaySchedule(1.0, 0.02, 400),
                  DecaySchedule(1.0, 0.3, 400), seed=3)
    checked = 0
    for state, (q, visits) in visited(qt):
        if state.period != env.planning.horizon_periods:
            continue
        for ai, n in enumerate(visits):
            if n == 1:
                assert q[ai] == env.reward(state, env.actions[ai])
                checked += 1
    assert checked > 0


def _mixed_env():
    # certain, impossible and uncertain advances, so the successor table
    # holds every kind of price step and masks that are never drawn
    storage = (tech(0, (0.3, 1.0, 0.0, 0.0)), tech(1, (0.0, 0.6, 1.0, 0.0)))
    return MdpEnv(planning(), storage,
                  outage_cost=pointwise(
                      lambda k, caps: 1_000.0 * k / (1.0 + sum(caps) / 700.0)))


def _numbered_states(env):
    """(period, price code, capacity position, state) over every reachable
    state, from the numbering the learner trains on."""
    grids, size = env.numbering
    states = []
    for k, (price_codes, cap_set, offset) in enumerate(grids, start=1):
        for code, idx in enumerate(price_codes):
            for cap, c in enumerate(cap_set):
                assert offset + code * len(cap_set) + cap == len(states)
                states.append((k, code, cap, MdpState(k, idx, c)))
    assert len(states) == size
    return states


def test_table_rewards_equal_env_rewards():
    env = _mixed_env()
    periods = env.tables
    checked = 0
    for k, code, cap, state in _numbered_states(env):
        invest, outage, _, after = periods[k - 1][:4]
        for ai, action in enumerate(env.actions):
            assert (-invest[code][ai] - outage[after[ai][cap]]
                    == env.reward(state, action))
            checked += 1
    assert checked > 1_000


class _FixedDraws:
    def __init__(self, draws):
        self.draws = draws

    def random(self, size):
        assert size == len(self.draws)
        return np.array(self.draws)


def test_table_successors_equal_env_transitions():
    env = _mixed_env()
    periods, grids = env.tables, env.numbering[0]
    rng = stream(4, "successors")
    for k, code, cap, state in _numbered_states(env):
        _, _, probs, after, succ, _, _ = periods[k - 1]
        if succ is None:
            continue
        price_codes, cap_set, _ = grids[k]
        # draws lie in [0, 1): on and just below each unit's advance bound
        edges = list(itertools.product(*[
            [d for d in (0.0, np.nextafter(p, 0.0), p) if d < 1.0]
            for p in probs]))
        for draws in edges + rng.random((4, env.num_units)).tolist():
            mask = sum(1 << u for u, (d, p) in enumerate(zip(draws, probs))
                       if d < p)
            for ai, action in enumerate(env.actions):
                nxt = env.transition(state, action, _FixedDraws(draws))
                assert nxt == MdpState(k + 1, price_codes[succ[code][mask]],
                                       cap_set[after[ai][cap]])


def test_training_output_is_pinned(smoke_config, tmp_path):
    """Hashes of a fixed small run's artifacts. They equal what
    `reference_train` gives, saved the same way, so the tables and the word
    draws must not move a bit of them."""
    env = MdpEnv(smoke_config.planning, smoke_config.storage,
                 outage_cost=pointwise(
                     lambda k, caps: 50_000.0 * k / (1.0 + sum(caps) / 1e3)))
    rl, n = smoke_config.rl, 3_000
    qt, curve = train(env, n, rl.gamma,
                      DecaySchedule(rl.alpha_start, rl.alpha_end, n),
                      DecaySchedule(rl.epsilon_start, rl.epsilon_end, n),
                      seed=7)
    save_qtable(qt, tmp_path / "qtable.jsonl", "pinned",
                metadata={"episodes": n})
    curve.save(tmp_path / "learning_curve.csv")
    loaded, _ = load_qtable(tmp_path / "qtable.jsonl", env, "pinned")
    # (n, q, visits) of each visited row in number order, whatever the
    # file's format
    rows = repr([(i, *row) for i, row in enumerate(loaded.rows) if row])

    def sha(name):
        return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

    assert len(qt) == 4_378
    assert loaded.rows == qt.rows
    assert hashlib.sha256(rows.encode()).hexdigest() == (
        "9ba6e02ff6084bef8f74650a7508439390698e2cfc8ac1d4da334c9cace00535")
    assert sha("qtable.jsonl") == (
        "2c0b4d6d6fe1d869506f8e1ab43e9d3ec4cfd66eae3710895e71f8ed3a75ec8e")
    assert sha("learning_curve.csv") == (
        "2de133b123e46f5154bb70c951422b690af70792a4b990b100570f9346f07f9b")
