"""Q-learning mechanics and a convergence check on a tiny deterministic MDP."""

import numpy as np
import pytest

from storeplan.config import IncompatibleArtifact
from storeplan.mdp import MdpState
from storeplan.qlearn import (DecaySchedule, LearningCurve, QTable,
                              greedy_index, load_qtable, q_update,
                              save_qtable, train)
from storeplan.rng import stream

from test_mdp import make_env


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

