"""MDP dynamics: action wiring, price chains, rewards, state counting, and
the exact backward-induction values the learner is checked against."""

import itertools
import math

import numpy as np
import pytest

from conftest import pointwise
from reference import initial_state

from storeplan.config import PlanningConfig, StorageTechnology
from storeplan.mdp import (MdpAction, MdpEnv, MdpState, NO_OP,
                           backward_induction, count_states_component_product,
                           count_states_reachable, encode_state,
                           format_number)
from storeplan.policy import visited_greedy
from storeplan.qlearn import DecaySchedule, train
from storeplan.renewables import RenewableParams
from storeplan.rng import stream

RENEWABLES = RenewableParams(
    eta_solar=0.15, cell_area_m2=1.0, cells_per_panel=1, panels=1,
    eta_wind=0.4, air_density=1.225, rotor_area_m2=1.0, turbines=1,
    cut_in_ms=3.0, cut_out_ms=22.0)


def tech(uid, advance, horizon=4, price=None):
    price = price or tuple(400 - 50 * k for k in range(horizon))
    return StorageTechnology(
        id=uid, name=f"tech{uid}", price_schedule=tuple(price),
        advance_prob_schedule=tuple(advance),
        lifetime_schedule=(15,) * horizon,
        efficiency_schedule=(0.9,) * horizon,
        dod_schedule=(0.8,) * horizon)


def planning(horizon=4, levels=(300.0, 1000.0, 3000.0)):
    return PlanningConfig(
        horizon_periods=horizon, years_per_period=5, interest_rate=0.02,
        demand_growth_rate=0.01, caidi=5.122, saifi=1.155,
        expansion_levels_kwh=tuple(levels), renewables=RENEWABLES)


def every_state(env):
    """Each reachable state of `env`, in `MdpEnv.numbering` order."""
    numbering, _ = env.numbering
    return [MdpState(k, idx, c)
            for k, (codes, c_set, _) in enumerate(numbering, start=1)
            for idx in codes for c in c_set]


def make_env(units=2, horizon=4, advance=0.7, cost=None):
    storage = tuple(
        tech(u, (advance,) * (horizon - 1) + (0.0,), horizon)
        for u in range(units))
    return MdpEnv(planning(horizon), storage,
                  outage_cost=pointwise(cost or (lambda k, caps: 0.0)))


def test_action_enumeration_and_indexing():
    env = make_env(units=2)
    assert env.num_actions == 7
    assert env.actions[0] is NO_OP
    assert len(set(env.actions)) == env.num_actions
    assert env.actions[1] == MdpAction(0, 0)
    assert env.actions[6] == MdpAction(1, 2)


def test_initial_state_and_terminal():
    env = make_env()
    s0 = initial_state(env)
    assert s0 == MdpState(1, (1, 1), (0.0, 0.0))
    horizon = env.planning.horizon_periods
    assert s0.period <= horizon
    # a decision is left in the last period; the walk ends after it
    last = env.transition(MdpState(horizon, (1, 1), (0.0, 0.0)), NO_OP,
                          stream(0, "mdp-test"))
    assert last.period > horizon


def test_apply_action_accumulates_capacity():
    env = make_env()
    s = MdpState(2, (2, 1), (1000.0, 0.0))
    caps = env.apply_action(s, MdpAction(0, 2))
    assert caps == (4000.0, 0.0)
    assert env.apply_action(s, NO_OP) == (1000.0, 0.0)


def test_price_chain_advances_with_certainty():
    env = make_env(advance=1.0)
    rng = stream(0, "mdp-test")
    s = env.transition(initial_state(env), NO_OP, rng)
    assert s.price_idx == (2, 2)
    assert s.period == 2


def test_price_chain_freezes_at_zero_probability():
    env = make_env(advance=0.0)
    rng = stream(0, "mdp-test")
    s = env.transition(initial_state(env), NO_OP, rng)
    assert s.price_idx == (1, 1)


def test_price_index_caps_at_horizon():
    env = make_env(advance=1.0)
    rng = stream(0, "mdp-test")
    s = MdpState(3, (4, 4), (0.0, 0.0))
    nxt = env.transition(s, NO_OP, rng)
    assert nxt.price_idx == (4, 4)


def test_advance_frequency_matches_probability():
    env = make_env(advance=0.7)
    rng = stream(1, "mdp-test")
    hits = sum(env.transition(initial_state(env), NO_OP, rng).price_idx[0] == 2
               for _ in range(4_000))
    assert hits / 4_000 == pytest.approx(0.7, abs=0.03)


def test_reward_charges_investment_at_current_chain_price():
    env = make_env(cost=lambda k, caps: 0.0)
    s = MdpState(2, (3, 1), (0.0, 0.0))
    act = MdpAction(0, 1)  # 1000 kWh at chain index 3 -> price 300
    from storeplan.finance import investment_cost
    expected = investment_cost(1000.0, 300.0, period=2, horizon_periods=4,
                               years_per_period=5, rate=0.02,
                               lifetime_years=15)
    assert env.reward(s, act) == pytest.approx(-expected)


def test_reward_queries_post_action_capacity():
    seen = []

    def spy(k, caps):
        seen.append((k, caps))
        return 123.0

    env = make_env(cost=spy)
    s = MdpState(1, (1, 1), (300.0, 0.0))
    env.reward(s, MdpAction(1, 0))
    assert seen == [(1, (300.0, 300.0))]


def test_tables_query_each_post_action_point_once():
    """One `outage_cost` call covers every period: its rows are the distinct
    (period, capacities after an action) points, and training and the DP on
    the same env ask for no more."""
    calls = []

    def counting(rows):
        calls.append([(int(r[0]), tuple(r[1:])) for r in rows])
        return [1.0] * len(rows)

    base = make_env(units=2, horizon=3)
    env = MdpEnv(base.planning, base.storage, outage_cost=counting)
    assert len(env.tables) == 3 and len(calls) == 1
    numbering, _ = env.numbering
    points = {(k, env.apply_action(MdpState(k, (), c), action))
              for k, (_, c_set, _) in enumerate(numbering, start=1)
              for c in c_set for action in env.actions}
    assert len(calls[0]) == len(points) and set(calls[0]) == points
    train(env, 50, 0.9, DecaySchedule(1.0, 0.1, 50),
          DecaySchedule(1.0, 0.3, 50), seed=2)
    backward_induction(env, 0.9, [])
    assert len(calls) == 1


def test_number_and_states_follow_the_tables_order():
    env = make_env(units=2, horizon=3)
    states = every_state(env)
    assert len(states) == env.numbering[1]
    for n, s in enumerate(states):
        assert env.number(s) == n


def test_numbering_needs_no_outage_cost():
    """States are numbered without tabulating the model, and the tables
    keep that numbering: each period's successor offset and width are the
    next period's in `numbering`."""
    def refuse(rows):
        raise AssertionError("numbering asked for outage costs")

    base = make_env(units=2, horizon=3)
    env = MdpEnv(base.planning, base.storage, outage_cost=refuse)
    numbering, size = env.numbering
    states = every_state(base)
    assert size == len(states)
    assert [env.number(s) for s in states] == list(range(size))
    periods = base.tables
    assert base.numbering == (numbering, size)
    assert [p[5:] for p in periods] == [
        (offset, len(c_set)) for _, c_set, offset in numbering[1:]
    ] + [(None, None)]


def test_an_env_without_outage_cost_refuses_to_price():
    env = MdpEnv(planning(3), make_env(horizon=3).storage, outage_cost=None)
    assert env.numbering[1] == len(every_state(env))
    with pytest.raises(TypeError):
        env.tables
    with pytest.raises(TypeError):
        env.reward(MdpState(1, (1, 1), (0.0, 0.0)), NO_OP)


@pytest.mark.parametrize("state", [
    MdpState(0, (1, 1), (0.0, 0.0)),        # before the first period
    MdpState(4, (1, 1), (0.0, 0.0)),        # after the last
    MdpState(1, (2, 1), (0.0, 0.0)),        # price cannot have moved yet
    MdpState(2, (1, 1), (300.0, 300.0)),    # two installs in one period
    MdpState(2, (1, 1), (7.0, 0.0)),        # not an expansion level
    MdpState(2, (1,), (0.0,)),              # wrong unit count
])
def test_number_is_none_off_the_reachable_set(state):
    assert make_env(units=2, horizon=3).number(state) is None


def test_encode_uses_compact_capacity_format():
    s = MdpState(1, (1, 1), (300.0, 0.0))
    assert encode_state(s) == "1,1,1,300,0"


def test_format_number_prints_g_only_when_it_reads_back():
    assert [format_number(x) for x in (300.0, 0.0, 0.5, 1.25e-7)] == [
        "300", "0", "0.5", "1.25e-07"]
    # six significant digits would read back as 0.3 and 1234570.0
    assert format_number(0.1 + 0.2) == "0.30000000000000004"
    assert format_number(1234567.0) == "1234567.0"


# levels whose sums or values `:g` cannot print exactly
G_LOSSY_LEVELS = [(0.1, 0.2, 0.5), (1234567.0,)]


def test_component_product_count_matches_closed_form():
    states, pairs = count_states_component_product(4, 3, 4)
    expected = 1
    for k in range(2, 5):
        expected += k ** 4 * (1 + 3 * (k - 1)) ** 4
    assert states == expected
    assert pairs == expected * 13


def test_reachable_count_matches_joint_enumeration():
    """Factored counting must agree with a brute-force walk of the dynamics."""
    horizon, units = 3, 2
    storage = (tech(0, (0.7, 0.0, 0.0), horizon),
               tech(1, (1.0, 0.7, 0.0), horizon))
    plan = planning(horizon, levels=(300.0, 1000.0))
    env = MdpEnv(plan, storage, outage_cost=pointwise(lambda k, caps: 0.0))

    frontier = {initial_state(env)}
    seen = set(frontier)
    while frontier:
        nxt = set()
        for s in frontier:
            if s.period > horizon:
                continue
            for act in env.actions:
                caps = env.apply_action(s, act)
                chains = []
                for u in range(units):
                    p = storage[u].advance_prob_schedule[s.period - 1]
                    opts = set()
                    if p < 1.0:
                        opts.add(s.price_idx[u])
                    if p > 0.0:
                        opts.add(min(s.price_idx[u] + 1, horizon))
                    chains.append(opts)
                for combo in itertools.product(*chains):
                    t = MdpState(s.period + 1, combo, caps)
                    if t not in seen and t.period <= horizon:
                        nxt.add(t)
        seen |= nxt
        frontier = nxt

    assert count_states_reachable(plan, storage) == len(seen)
    assert set(every_state(env)) == seen


@pytest.mark.parametrize("units, horizon, advance", [
    (1, 2, 0.7), (2, 3, 0.7), (2, 4, 1.0), (2, 4, 0.0), (3, 3, 0.5)])
def test_reachable_count_is_the_numbering_size(units, horizon, advance):
    env = make_env(units=units, horizon=horizon, advance=advance)
    assert (count_states_reachable(env.planning, env.storage)
            == env.numbering[1] == len(every_state(env)))


@pytest.mark.parametrize("name", ["case_config", "smoke_config"])
def test_shipped_reachable_count_is_the_numbering_size(name, request):
    cfg = request.getfixturevalue(name)
    assert (count_states_reachable(cfg.planning, cfg.storage)
            == MdpEnv(cfg.planning, cfg.storage, outage_cost=None).numbering[1]
            == 123_036)


def test_reachable_case_study_figures(case_config):
    assert count_states_reachable(case_config.planning,
                                  case_config.storage) == 123_036
    states, pairs = count_states_component_product(4, 3, 4)
    assert states == 2_758_578
    assert pairs == 35_861_514


def test_dp_recovers_enumeration_optimum_on_reduced_instance():
    """Criterion 7's instance: one unit whose price falls with certainty, so
    the stay outcome has probability zero and open-loop plans are optimal."""
    gamma = 0.9
    battery = tech(0, (1.0, 1.0, 1.0, 0.0), price=(400.0, 300.0, 200.0, 150.0))

    def stub_cost(k, caps):
        total = caps[0]
        tier = 60e3 if total >= 4000 else (260e3 if total >= 1000 else 700e3)
        return 1.10 ** (k - 1) * tier

    env = MdpEnv(planning(), (battery,), outage_cost=pointwise(stub_cost))

    def rollout(seq):
        state, total = initial_state(env), 0.0
        for k, ai in enumerate(seq):
            total += gamma ** k * env.reward(state, env.actions[ai])
            state = MdpState(state.period + 1, (state.period + 1,),
                             env.apply_action(state, env.actions[ai]))
        return total

    best_value, best_seq = max(
        (rollout(seq), seq)
        for seq in itertools.product(range(env.num_actions), repeat=4))
    optimum, followed = backward_induction(
        env, gamma,
        [(n, best_seq[s.period - 1]) for n, s in enumerate(every_state(env))])
    assert optimum == pytest.approx(best_value, rel=1e-12)
    assert followed == pytest.approx(best_value, rel=1e-12)


@pytest.mark.parametrize("advance", [
    ((0.3,), (0.6,)),
    ((0.7, 1.0), (1.0, 0.4)),
])
def test_dp_matches_enumeration_over_price_outcomes(advance):
    """Two units, advance probabilities per boundary: the reference recurses
    over every price outcome with its probability. With three periods,
    staying put at a certain advance has probability zero, yet that index is
    reachable along the other branch."""
    gamma, horizon = 0.9, len(advance[0]) + 1
    storage = (tech(0, advance[0] + (0.0,), horizon,
                    price=(400.0, 250.0, 200.0)[:horizon]),
               tech(1, advance[1] + (0.0,), horizon,
                    price=(300.0, 120.0, 100.0)[:horizon]))
    env = MdpEnv(planning(horizon), storage, outage_cost=pointwise(
        lambda k, caps: 2e5 * k / (1 + (caps[0] + 2 * caps[1]) / 1000)))
    first = env.actions.index(MdpAction(1, 1))
    top_up = env.actions.index(MdpAction(0, 0))

    def choose(s):
        # unit 1's middle block, then unit 0's small block once its price fell
        if s.period == 1:
            return first
        return top_up if s.price_idx[0] > 1 else 0

    def value(s, policy=None):
        acts = env.actions if policy is None else [env.actions[policy(s)]]
        return max(env.reward(s, a) + gamma * expected(s, a, policy)
                   for a in acts)

    def expected(s, action, policy):
        if s.period == horizon:
            return 0.0
        caps = env.apply_action(s, action)
        probs = [adv[s.period - 1] for adv in advance]
        total = 0.0
        for moves in itertools.product((0, 1), repeat=2):
            prob = math.prod(p if m else 1 - p for p, m in zip(probs, moves))
            idx = tuple(i + m for i, m in zip(s.price_idx, moves))
            total += prob * value(MdpState(s.period + 1, idx, caps), policy)
        return total

    optimum = value(initial_state(env))
    followed = value(initial_state(env), choose)
    assert followed < optimum
    assert backward_induction(
        env, gamma, [(n, choose(s)) for n, s in enumerate(every_state(env))]
    ) == pytest.approx((optimum, followed), rel=1e-12)


def test_learned_policy_value_never_exceeds_optimum(smoke_config):
    env = MdpEnv(smoke_config.planning, smoke_config.storage,
                 outage_cost=pointwise(
                     lambda k, caps: 4e5 * k / (1 + sum(caps) / 2000)))
    rl, episodes = smoke_config.rl, 5_000
    qtable, _ = train(env, episodes, rl.gamma,
                      DecaySchedule(rl.alpha_start, rl.alpha_end, episodes),
                      DecaySchedule(rl.epsilon_start, rl.epsilon_end,
                                    episodes), seed=smoke_config.master_seed)
    picks = [(n, visited_greedy(*row))
             for n, row in enumerate(qtable.rows) if row]
    optimum, learned = backward_induction(env, rl.gamma, picks)
    _, never = backward_induction(env, rl.gamma, [])
    assert learned <= optimum
    assert never <= optimum
    # states without a row take no-op, which the rule gives them too
    assert len(picks) < len(every_state(env))
    assert backward_induction(env, rl.gamma, [
        (n, visited_greedy(qtable.q_values(s), qtable.visit_counts(s)))
        for n, s in enumerate(every_state(env))]) == (optimum, learned)
