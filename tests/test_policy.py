"""Scenario price paths, greedy extraction, CSV round trip, and evaluation."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import pointwise

from storeplan.mdp import MdpAction, MdpEnv, MdpState, NO_OP
from storeplan.outages import OutageBatch, sample_outages
from storeplan.policy import (PolicyReport, PriceScenario, default_scenarios,
                              evaluate_policy, extract_policy, load_scenarios,
                              never_invest_report, read_policy_csv,
                              write_policy_csv)
from storeplan.qlearn import QTable
from storeplan.rng import stream
from storeplan.simulate import SimulationContext

from test_mdp import G_LOSSY_LEVELS


def case_env(config):
    return MdpEnv(config.planning, config.storage,
                  outage_cost=pointwise(lambda k, caps: 0.0))


def test_default_scenarios_cover_eight(case_config):
    scenarios = default_scenarios()
    assert set(scenarios) == {str(i) for i in range(1, 9)}
    for sc in scenarios.values():
        flags = sc.resolve(case_config.storage, 4)
        assert len(flags) == 4
        assert all(len(row) == 3 for row in flags)


def test_scenario_one_advances_every_boundary(case_config):
    path = default_scenarios()["1"].price_path(case_config.storage, 4)
    assert path == [(1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3), (4, 4, 4, 4)]


def test_scenario_five_freezes_li_ion(case_config):
    path = default_scenarios()["5"].price_path(case_config.storage, 4)
    li = [idx[0] for idx in path]
    van = [idx[2] for idx in path]
    assert li == [1, 1, 1, 1]
    assert van == [1, 2, 2, 3]


def test_scenario_requires_every_unit(case_config):
    sc = PriceScenario(id="x", description="",
                       advance={"li_ion": (True, True, True)})
    with pytest.raises(ValueError, match="lead_acid"):
        sc.resolve(case_config.storage, 4)


def test_scenario_flag_width_checked(case_config):
    sc = PriceScenario(id="x", description="", advance={
        name: (True, True) for name in
        ("li_ion", "lead_acid", "vanadium", "flywheel")})
    with pytest.raises(ValueError, match="boundary flags"):
        sc.resolve(case_config.storage, 4)


def test_scenarios_round_trip_through_json(tmp_path, case_config):
    # the file shape `storeplan policy --scenarios` reads
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps({
        "format": "storeplan-scenarios-v1",
        "scenarios": {sid: {"description": sc.description,
                            "advance": {name: list(flags) for name, flags
                                        in sc.advance.items()}}
                      for sid, sc in default_scenarios().items()}}))
    assert load_scenarios(path) == default_scenarios()


def test_scenario_flags_must_be_json_booleans(tmp_path):
    # bool("false") is True: read loosely, the string would advance a price
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps({
        "format": "storeplan-scenarios-v1",
        "scenarios": {"x": {"advance": {"li_ion": ["false", True, True]}}}}))
    with pytest.raises(ValueError, match="scenario x: 'advance' 'li_ion'"):
        load_scenarios(path)

def test_extraction_follows_visited_argmax(case_config):
    """Handcrafted table: the best visited action wins even when a better
    unvisited q-value sits beside it."""
    env = case_env(case_config)
    qt = QTable(env)
    s1 = env.initial_state()
    row, visits = qt.entry(s1)
    buy_li_small = env.actions.index(MdpAction(0, 0))
    row[buy_li_small] = -10.0
    visits[buy_li_small] = 3
    row[5] = 999.0  # never visited, must not be chosen
    report = extract_policy(qt, env, default_scenarios()["1"])
    assert report.steps[0].action == MdpAction(0, 0)
    assert report.steps[0].unit_name == "li_ion"
    assert report.steps[0].capacity_after == (300.0, 0.0, 0.0, 0.0)
    # remaining periods were never visited: flagged no-ops
    assert len(report.flags) == 3
    assert all(s.action is NO_OP or s.action == NO_OP
               for s in report.steps[1:])


def test_extraction_records_scenario_prices(case_config):
    env = case_env(case_config)
    report = extract_policy(QTable(env), env,
                            default_scenarios()["1"])
    # scenario 1 walks the full price schedule of every unit
    for k, step in enumerate(report.steps, start=1):
        for u, tech in enumerate(case_config.storage):
            assert step.unit_prices[u] == tech.price_schedule[k - 1]


def test_never_invest_report_holds_zero(case_config):
    env = case_env(case_config)
    report = never_invest_report(env, default_scenarios()["2"])
    assert sum(report.steps[-1].capacity_after) == 0.0
    assert all(s.action.is_noop for s in report.steps)


def test_policy_csv_round_trip(tmp_path, case_config):
    env = case_env(case_config)
    qt = QTable(env)
    s1 = env.initial_state()
    row, visits = qt.entry(s1)
    row[env.actions.index(MdpAction(2, 1))] = -5.0
    visits[env.actions.index(MdpAction(2, 1))] = 7
    report = extract_policy(qt, env, default_scenarios()["1"])
    path = tmp_path / "policy.csv"
    write_policy_csv(report, case_config.storage, path)
    again = read_policy_csv(path, case_config.storage,
                            case_config.planning.expansion_levels_kwh)
    assert [s.action for s in again.steps] == [s.action for s in report.steps]
    assert [s.capacity_after for s in again.steps] == [
        s.capacity_after for s in report.steps]
    assert [s.unit_prices for s in again.steps] == [
        s.unit_prices for s in report.steps]


@pytest.mark.parametrize("levels", G_LOSSY_LEVELS)
def test_policy_csv_round_trip_with_levels_g_cannot_print(tmp_path,
                                                          case_config, levels):
    # li-ion buys the first level, then the second if there is one:
    # 0.1 + 0.2 and 1234567 * 2 print with repr, 1234567 itself too
    planning = replace(case_config.planning, expansion_levels_kwh=levels)
    env = MdpEnv(planning, case_config.storage,
                 outage_cost=pointwise(lambda k, caps: 0.0))
    qt = QTable(env)
    path = default_scenarios()["1"].price_path(env.storage, 4)
    caps = (0.0,) * env.num_units
    for k, level in ((1, 0), (2, min(1, len(levels) - 1))):
        buy = MdpAction(0, level)
        row, visits = qt.entry(MdpState(k, path[k - 1], caps))
        row[env.actions.index(buy)], visits[env.actions.index(buy)] = -1.0, 1
        caps = env.apply_action(MdpState(k, path[k - 1], caps), buy)
    report = extract_policy(qt, env, default_scenarios()["1"])
    assert report.steps[1].capacity_after[0] in (0.1 + 0.2, 2 * 1234567.0)
    out = tmp_path / "policy.csv"
    write_policy_csv(report, case_config.storage, out)
    again = read_policy_csv(out, case_config.storage, levels)
    assert [s.action for s in again.steps] == [s.action for s in report.steps]
    assert [s.capacity_after for s in again.steps] == [
        s.capacity_after for s in report.steps]


def written_policy(tmp_path, config):
    """Path and lines of a CSV for li-ion 300 kWh in periods 1 and 2."""
    env = case_env(config)
    qt = QTable(env)
    path = default_scenarios()["1"].price_path(env.storage, 4)
    buy = env.actions.index(MdpAction(0, 0))
    caps = (0.0,) * env.num_units
    for k in (1, 2):
        row, visits = qt.entry(MdpState(k, path[k - 1], caps))
        row[buy], visits[buy] = -1.0, 1
        caps = env.apply_action(MdpState(k, path[k - 1], caps),
                                MdpAction(0, 0))
    report = extract_policy(qt, env, default_scenarios()["1"])
    out = tmp_path / "policy.csv"
    write_policy_csv(report, config.storage, out)
    return out, out.read_text().splitlines()


@pytest.mark.parametrize("row, col, value, match", [
    (2, -4, "900", "running sum"),   # period 2 li-ion total 600 -> 900
    (4, -4, "0", "running sum"),     # period 4 forgets the purchases
    (3, 0, "4", "periods must run"),
    (2, 3, "167", "price schedule"),  # period 2 li-ion skips 310 for 167
    # a field that does not parse is named with its row and column
    (2, 0, "x", "row 2: period 'x' is not an integer"),
    (2, 0, "2.0", "row 2: period '2.0' is not an integer"),
    (2, 2, "abc", "row 2: action_level_kwh 'abc' is not a number"),
    (2, 3, "$310", r"row 2: price_per_kwh_\S+ '\$310' is not a number"),
    (2, -1, "abc", r"row 2: cum_capacity_kwh_\S+ 'abc' is not a number"),
])
def test_read_policy_rejects_tampered_cell(tmp_path, case_config, row, col,
                                           value, match):
    path, lines = written_policy(tmp_path, case_config)
    levels = case_config.planning.expansion_levels_kwh
    assert [s.capacity_after[0] for s in read_policy_csv(
        path, case_config.storage, levels).steps] == [300.0, 600.0, 600.0,
                                                      600.0]
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: .*{match}"):
        read_policy_csv(path, case_config.storage, levels)


def test_read_policy_accepts_repeated_schedule_price(tmp_path, case_config):
    # li-ion's price repeats across its first boundary, so 420 in period 2
    # may mean it stayed or advanced; 167 in period 3 is then legal only if
    # it advanced, and the reader must keep both readings open until then
    li_ion = replace(case_config.storage[0], price_schedule=(420, 420, 167,
                                                             150))
    storage = (li_ion,) + case_config.storage[1:]
    env = MdpEnv(case_config.planning, storage,
                 outage_cost=pointwise(lambda k, caps: 0.0))
    path = tmp_path / "policy.csv"
    write_policy_csv(never_invest_report(env, default_scenarios()["1"]),
                     storage, path)
    again = read_policy_csv(path, storage,
                            case_config.planning.expansion_levels_kwh)
    assert [s.unit_prices[0] for s in again.steps] == [420, 420, 167, 150]


def test_read_policy_carries_exact_schedule_prices(tmp_path, case_config):
    # 1234567 $/kWh would print as 1.23457e+06 at 6 significant digits; the
    # file must print it whole and the step must carry the schedule's price,
    # or evaluate charges 1234570
    li_ion = replace(case_config.storage[0],
                     price_schedule=(1234567, 420, 167, 150))
    storage = (li_ion,) + case_config.storage[1:]
    env = MdpEnv(case_config.planning, storage,
                 outage_cost=pointwise(lambda k, caps: 0.0))
    path = tmp_path / "policy.csv"
    write_policy_csv(never_invest_report(env, default_scenarios()["1"]),
                     storage, path)
    assert "1234567," in path.read_text()
    again = read_policy_csv(path, storage,
                            case_config.planning.expansion_levels_kwh)
    assert [s.unit_prices[0] for s in again.steps] == [1234567, 420, 167, 150]


@pytest.mark.parametrize("schedule", [
    (1234568, 1234567, 167, 150),
    (250.00004, 250.00002, 200, 150),
])
def test_read_policy_round_trips_prices_alike_in_six_digits(
        tmp_path, case_config, schedule):
    # the first two prices share their 6-significant-digit form, so a file
    # printed at that precision could not tell in period 2 whether li-ion
    # stayed or advanced; the file prints each price exactly
    li_ion = replace(case_config.storage[0], price_schedule=schedule)
    storage = (li_ion,) + case_config.storage[1:]
    env = MdpEnv(case_config.planning, storage,
                 outage_cost=pointwise(lambda k, caps: 0.0))
    path = tmp_path / "policy.csv"
    report = never_invest_report(env, default_scenarios()["1"])
    write_policy_csv(report, storage, path)
    again = read_policy_csv(path, storage,
                            case_config.planning.expansion_levels_kwh)
    assert [s.unit_prices for s in again.steps] == [
        s.unit_prices for s in report.steps]
    assert [s.unit_prices[0] for s in again.steps] == list(schedule)


def test_evaluation_is_deterministic_under_seed(case_config):
    ctx = SimulationContext(case_config)
    env = case_env(case_config)
    report = never_invest_report(env, default_scenarios()["1"])
    a = evaluate_policy(ctx, report, trials=5, seed=123)
    b = evaluate_policy(ctx, report, trials=5, seed=123)
    assert a.mean_total_cost == b.mean_total_cost
    assert a.stderr == b.stderr


def test_evaluation_charges_recorded_investment(case_config):
    ctx = SimulationContext(case_config)
    env = case_env(case_config)
    qt = QTable(env)
    row, visits = qt.entry(env.initial_state())
    ai = env.actions.index(MdpAction(1, 0))  # lead-acid 300 kWh in period 1
    row[ai] = -1.0
    visits[ai] = 1
    report = extract_policy(qt, env, default_scenarios()["1"])
    value = evaluate_policy(ctx, report, trials=2, seed=7)
    from storeplan.finance import investment_cost
    tech = case_config.storage[1]
    expected = investment_cost(300.0, tech.price_schedule[0], period=1,
                               horizon_periods=4, years_per_period=5,
                               rate=0.02, lifetime_years=tech.lifetime_schedule[0])
    assert value.investment_cost == pytest.approx(expected)


def test_storage_reduces_outage_cost_with_shared_trials(case_config):
    """Under common random numbers, any capacity weakly beats none per trial."""
    ctx = SimulationContext(case_config)
    env = case_env(case_config)
    never = never_invest_report(env, default_scenarios()["1"])
    qt = QTable(env)
    row, visits = qt.entry(env.initial_state())
    ai = env.actions.index(MdpAction(0, 2))
    row[ai] = -1.0
    visits[ai] = 1
    invested = extract_policy(qt, env, default_scenarios()["1"])
    a = evaluate_policy(ctx, never, trials=10, seed=31)
    b = evaluate_policy(ctx, invested, trials=10, seed=31)
    assert b.mean_outage_cost <= a.mean_outage_cost


def test_never_invest_costs_only_outages(case_config):
    ctx = SimulationContext(case_config)
    env = case_env(case_config)
    never = never_invest_report(env, default_scenarios()["1"])
    value = evaluate_policy(ctx, never, trials=3, seed=1)
    assert value.investment_cost == 0.0
    assert value.mean_total_cost == value.mean_outage_cost


def test_evaluation_adds_trials_left_to_right(case_config):
    # sum() compensates from Python 3.12 on and would give 1/3 here; added
    # left to right, 1e16 + 1.0 rounds back to 1e16 on every interpreter
    ctx = SimulationContext(case_config)
    totals = iter([1e16, 1.0, -1e16])
    ctx.period_costs = lambda fleets, outages: [
        next(totals) if period == 1 else 0.0 for period, _ in fleets]
    never = never_invest_report(case_env(case_config),
                                default_scenarios()["1"])
    value = evaluate_policy(ctx, never, trials=3, seed=1)
    assert value.mean_outage_cost == 0.0


def built_and_never(env: MdpEnv) -> tuple[PolicyReport, PolicyReport]:
    """A fixed build-out over scenario 1's prices, and never-invest."""
    never = never_invest_report(env, default_scenarios()["1"])
    steps, caps = [], (0.0,) * env.num_units
    for step, action in zip(never.steps, [MdpAction(0, 1), NO_OP,
                                          MdpAction(2, 2), MdpAction(1, 0)]):
        caps = env.apply_action(MdpState(step.period, (), caps), action)
        steps.append(replace(
            step, action=action, capacity_after=caps,
            unit_name="" if action.is_noop else env.storage[action.unit].name,
            level_kwh=0.0 if action.is_noop else env.levels[action.level]))
    return PolicyReport(scenario_id="pinned", steps=steps), never


def test_evaluation_is_pinned(smoke_config):
    """Exact values of a fixed small evaluation, with storage and without.
    They are what a plain-Python merge of the traces' draws
    (`test_outages.reference_sample`), each outage dispatched on its own
    and every sum added left to right, gives; so batching the draws or the
    dispatch must not move a bit of them."""
    ctx = SimulationContext(smoke_config)
    built, never = built_and_never(case_env(smoke_config))
    assert repr(evaluate_policy(ctx, built, trials=12, seed=5)) == (
        "PolicyValue(mean_total_cost=3480737.3231021855, "
        "investment_cost=1022518.488976874, "
        "mean_outage_cost=2458218.8341253116, stderr=175970.68629379602, "
        "trials=12)")
    assert repr(evaluate_policy(ctx, never, trials=12, seed=5)) == (
        "PolicyValue(mean_total_cost=4005887.3731760173, investment_cost=0.0, "
        "mean_outage_cost=4005887.3731760173, stderr=282039.77269991534, "
        "trials=12)")


def test_evaluations_at_one_seed_see_the_same_traces(smoke_config,
                                                     monkeypatch):
    """Common random numbers: two build-outs evaluated at one seed and
    trial count are dispatched against the same outages, which are the
    `trials * periods` traces of the one stream `(seed, "eval:trials")`,
    trial after trial. Another seed draws other traces."""
    ctx = SimulationContext(smoke_config)
    seen = []
    dispatch = ctx.period_costs

    def spy(fleets, outages):
        seen.append(outages)
        return dispatch(fleets, outages)
    monkeypatch.setattr(ctx, "period_costs", spy)
    built, never = built_and_never(case_env(smoke_config))
    for report, seed in ((built, 5), (never, 5), (built, 6)):
        evaluate_policy(ctx, report, trials=30, seed=seed)
    plan = smoke_config.planning
    want = sample_outages(plan.saifi, plan.caidi, plan.years_per_period,
                          stream(5, "eval:trials"), 30 * len(built.steps))
    for name in OutageBatch._fields:
        assert getattr(seen[0], name).tolist() == getattr(want, name).tolist()
        assert getattr(seen[1], name).tolist() == getattr(want, name).tolist()
    assert seen[2].starts.tolist() != want.starts.tolist()
