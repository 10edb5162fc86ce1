"""Q-learning mechanics, the learner's tables against the model, pinned
training output, and a convergence check on a tiny deterministic MDP."""

import hashlib
import itertools

import numpy as np
import pytest

from storeplan.config import IncompatibleArtifact
from storeplan.mdp import MdpEnv, MdpState
from storeplan.qlearn import (DecaySchedule, LearningCurve, QTable,
                              _period_tables, greedy_index, load_qtable,
                              q_update, save_qtable, train)
from storeplan.rng import stream

from test_mdp import make_env, planning, tech


def test_decay_endpoints_and_midpoint():
    sched = DecaySchedule(start=1.0, end=0.02, total=1_000)
    assert sched.value(0) == 1.0
    assert sched.value(999) == 0.02
    assert sched.value(2_000) == 0.02  # clamped past the end
    mid = sched.value(500)
    assert 0.02 < mid < 1.0


def test_decay_degenerate_run_uses_end_value():
    assert DecaySchedule(1.0, 0.1, 1).value(0) == 0.1


def test_q_update_worked_example():
    # q 10, reward 5, best next 20, alpha 0.5, gamma 0.9 -> 16.5
    row = [10.0, 0.0]
    q_update(row, 0, reward=5.0, next_best=20.0, alpha=0.5, gamma=0.9,
             terminal=False)
    assert row[0] == pytest.approx(16.5)


def test_q_update_terminal_ignores_bootstrap():
    row = [10.0, 0.0]
    q_update(row, 0, reward=5.0, next_best=999.0, alpha=0.5, gamma=0.9,
             terminal=True)
    assert row[0] == pytest.approx(7.5)


def test_greedy_index_picks_maximum():
    rng = stream(0, "greedy")
    assert greedy_index([1.0, 5.0, 3.0], rng) == 1


def test_greedy_ties_split_uniformly():
    rng = stream(1, "greedy")
    picks = [greedy_index([2.0, 2.0, 0.0], rng) for _ in range(40_000)]
    counts = np.bincount(picks, minlength=3)
    assert counts[2] == 0
    assert counts[0] / 40_000 == pytest.approx(0.5, abs=0.02)


def test_qtable_entry_creates_zero_row():
    qt = QTable(4)
    s = MdpState(1, (1,), (0.0,))
    assert s not in qt
    row, visits = qt.entry(s)
    assert row == [0.0] * 4 and visits == [0] * 4
    assert s in qt and len(qt) == 1


def test_qtable_accessors_return_copies():
    qt = QTable(2)
    s = MdpState(1, (1,), (0.0,))
    qt.entry(s)
    qt.q_values(s)[0] = 99.0
    assert qt.q_values(s)[0] == 0.0


def test_train_visits_every_period(smoke_config):
    env = make_env(units=2, cost=lambda k, caps: 100.0 * k)
    qt, curve = train(env, episodes=200, gamma=0.9,
                      alpha=DecaySchedule(1.0, 0.1, 200),
                      epsilon=DecaySchedule(1.0, 0.1, 200), seed=5)
    periods = {s.period for s, _ in qt.items()}
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
    assert {s: q for s, (q, _) in qt_a.items()} == {
        s: q for s, (q, _) in qt_b.items()}


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
    row = qt.q_values(env.initial_state())
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
    save_qtable(qt, path, config_digest="abc123", num_units=2,
                metadata={"episodes": 150})
    loaded, header = load_qtable(path, expected_config_hash="abc123")
    assert header["episodes"] == 150
    assert len(loaded) == len(qt)
    for s, (q, v) in qt.items():
        assert loaded.q_values(s) == q
        assert loaded.visit_counts(s) == v


def test_load_qtable_rejects_wrong_config(tmp_path):
    qt = QTable(3)
    qt.entry(MdpState(1, (1, 1), (0.0, 0.0)))
    path = tmp_path / "qtable.jsonl"
    save_qtable(qt, path, config_digest="abc123", num_units=2)
    with pytest.raises(IncompatibleArtifact):
        load_qtable(path, expected_config_hash="other")


def test_load_qtable_rejects_non_qtable_file(tmp_path):
    path = tmp_path / "bogus.jsonl"
    path.write_text('{"format": "something-else"}\n')
    with pytest.raises(ValueError):
        load_qtable(path)


def test_final_period_action_visited_once_holds_its_reward():
    """The step floor 1/n makes a first visit's step 1, whatever the schedule:
    a last-period action tried once holds exactly the reward it saw."""
    env = make_env(units=2, cost=lambda k, caps: 1_000.0 * k + 0.5 * sum(caps))
    qt, _ = train(env, 400, 0.9, DecaySchedule(1.0, 0.02, 400),
                  DecaySchedule(1.0, 0.3, 400), seed=3)
    checked = 0
    for state, (q, visits) in qt.items():
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
                  outage_cost=lambda k, caps: 1_000.0 * k / (1.0 + sum(caps)
                                                             / 700.0))


def _numbered_states(env):
    """(period, price code, capacity position, state) over every reachable
    state, from the numbering the learner trains on."""
    _, grids, size = _period_tables(env)
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
    periods, _, _ = _period_tables(env)
    checked = 0
    for k, code, cap, state in _numbered_states(env):
        invest, outage = periods[k - 1][:2]
        for ai, action in enumerate(env.actions):
            assert -invest[code][ai] - outage[ai][cap] == env.reward(state,
                                                                     action)
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
    periods, grids, _ = _period_tables(env)
    rng = stream(4, "successors")
    for k, code, cap, state in _numbered_states(env):
        _, _, probs, after, succ, _, _ = periods[k - 1]
        if after is None:
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
    """Hashes of a fixed small run's artifacts. They equal what stepping
    `MdpEnv.reward` and `MdpEnv.transition` on the seed's `Generator` gives,
    so the tables and block draws must not move a bit of them."""
    env = MdpEnv(smoke_config.planning, smoke_config.storage,
                 outage_cost=lambda k, caps: 50_000.0 * k
                 / (1.0 + sum(caps) / 1000.0))
    rl, n = smoke_config.rl, 3_000
    qt, curve = train(env, n, rl.gamma,
                      DecaySchedule(rl.alpha_start, rl.alpha_end, n),
                      DecaySchedule(rl.epsilon_start, rl.epsilon_end, n),
                      seed=7)
    save_qtable(qt, tmp_path / "qtable.jsonl", "pinned", env.num_units,
                metadata={"episodes": n})
    curve.save(tmp_path / "learning_curve.csv")

    def sha(name):
        return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

    assert len(qt) == 4_368
    assert sha("qtable.jsonl") == (
        "e7d7d2000c253710f9edb4810177c9894a5ca99a2270115d6eb94cc3bf7d727f")
    assert sha("learning_curve.csv") == (
        "e51e08c7f39ea13c2b224e8df02aae13f79a391c1ce935ecb6e50c4d99ff5212")
