"""Scenario-conditioned policy extraction and Monte Carlo policy evaluation.

A price scenario fixes, for every unit and period boundary, whether the price
chain advances. Extraction walks the trained q-table along that deterministic
price path, choosing the best action among those actually visited during
training and flagging any state the run never reached. Evaluation replays a
build-out against outage traces shared by all policies at one seed and size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import StorageTechnology, parse_json
from .finance import investment_cost
from .mdp import (MdpAction, MdpEnv, MdpState, NO_OP, encode_state,
                  format_number)
from .outages import sample_outages
from .qlearn import QTable
from .rng import stream
from .simulate import SimulationContext, row_sums

__all__ = [
    "PriceScenario", "PolicyStep", "PolicyReport", "PolicyValue",
    "default_scenarios", "load_scenarios", "visited_greedy",
    "extract_policy", "never_invest_report", "write_policy_csv",
    "read_policy_csv", "evaluate_policy", "write_comparison_csv",
]

SCENARIO_FORMAT = "storeplan-scenarios-v1"


@dataclass(frozen=True)
class PriceScenario:
    """Deterministic advance/stay pattern per unit across period boundaries."""

    id: str
    description: str
    advance: dict[str, tuple[bool, ...]]

    def resolve(self, storage: tuple[StorageTechnology, ...],
                horizon_periods: int) -> tuple[tuple[bool, ...], ...]:
        """Per-unit advance flags in storage order; validates coverage."""
        rows = []
        for tech in storage:
            if tech.name not in self.advance:
                raise ValueError(
                    f"scenario {self.id}: no advance pattern for {tech.name!r}")
            flags = self.advance[tech.name]
            if len(flags) != horizon_periods - 1:
                raise ValueError(
                    f"scenario {self.id}: {tech.name!r} needs "
                    f"{horizon_periods - 1} boundary flags, got {len(flags)}")
            rows.append(tuple(bool(b) for b in flags))
        return tuple(rows)

    def price_path(self, storage: tuple[StorageTechnology, ...],
                   horizon_periods: int) -> list[tuple[int, ...]]:
        """Price index per unit for each period 1..K."""
        flags = self.resolve(storage, horizon_periods)
        idx = [1] * len(storage)
        path = [tuple(idx)]
        for b in range(horizon_periods - 1):
            for u in range(len(storage)):
                if flags[u][b]:
                    idx[u] = min(idx[u] + 1, horizon_periods)
            path.append(tuple(idx))
        return path


def default_scenarios() -> dict[str, PriceScenario]:
    """The eight bundled price futures for the four-technology case study."""
    on = (True, True, True)

    def combo(sid, description, **overrides):
        advance = {"li_ion": on, "lead_acid": on, "vanadium": on,
                   "flywheel": on}
        advance.update(overrides)
        return PriceScenario(id=sid, description=description,
                             advance={k: tuple(v) for k, v in advance.items()})

    return {
        "1": combo("1", "all technologies decline every period"),
        "2": combo("2", "vanadium stalls except mid-horizon",
                   vanadium=(False, True, False)),
        "3": combo("3", "li-ion stalls except mid-horizon",
                   li_ion=(False, True, False)),
        "4": combo("4", "li-ion and vanadium stall except mid-horizon",
                   li_ion=(False, True, False), vanadium=(False, True, False)),
        "5": combo("5", "li-ion frozen, vanadium skips the middle boundary",
                   li_ion=(False, False, False), vanadium=(True, False, True)),
        "6": combo("6", "vanadium frozen, li-ion skips the middle boundary",
                   vanadium=(False, False, False), li_ion=(True, False, True)),
        "7": combo("7", "every technology starts declining one period late",
                   li_ion=(False, True, True), lead_acid=(False, True, True),
                   vanadium=(False, True, True), flywheel=(False, True, True)),
        "8": combo("8", "late decline, li-ion and vanadium later still",
                   li_ion=(False, False, True), lead_acid=(False, True, True),
                   vanadium=(False, False, True), flywheel=(False, True, True)),
    }


def load_scenarios(path) -> dict[str, PriceScenario]:
    """Read a scenario file, checking its shapes as outside input.

    Each scenario is an object whose `advance` maps unit names to lists of
    JSON booleans; anything else raises ValueError naming the scenario and
    the key.
    """
    doc = parse_json(Path(path).read_text(), path)
    if not isinstance(doc, dict) or doc.get("format") != SCENARIO_FORMAT:
        raise ValueError(f"{path}: not a scenario file")
    if not isinstance(doc.get("scenarios"), dict):
        raise ValueError(f"{path}: 'scenarios' must be an object")
    out = {}
    for sid, body in doc["scenarios"].items():
        where = f"{path}: scenario {sid}"
        if not isinstance(body, dict) or not isinstance(body.get("advance"),
                                                        dict):
            raise ValueError(f"{where}: 'advance' must be an object")
        if not isinstance(body.get("description", ""), str):
            raise ValueError(f"{where}: 'description' must be a string")
        for name, flags in body["advance"].items():
            if not (isinstance(flags, list)
                    and all(isinstance(b, bool) for b in flags)):
                raise ValueError(f"{where}: 'advance' {name!r} must be a "
                                 f"list of true/false")
        out[sid] = PriceScenario(
            id=sid, description=body.get("description", ""),
            advance={name: tuple(flags)
                     for name, flags in body["advance"].items()})
    return out


@dataclass(frozen=True)
class PolicyStep:
    period: int
    action: MdpAction
    unit_name: str
    level_kwh: float
    unit_prices: tuple[float, ...]
    capacity_after: tuple[float, ...]
    q_value: float
    visit_count: int


@dataclass
class PolicyReport:
    scenario_id: str
    steps: list[PolicyStep]
    flags: list[str] = field(default_factory=list)


def visited_greedy(q_row, visits) -> int:
    """Index of the best visited action in a state's q and visit rows, the
    first on a tie; 0 (no-op) when no action was visited there."""
    best, best_q = 0, -math.inf
    for i, (q, v) in enumerate(zip(q_row, visits)):
        if v > 0 and q > best_q:
            best, best_q = i, q
    return best


def _walk(env: MdpEnv, scenario: PriceScenario, pick) -> list[PolicyStep]:
    """The steps along the scenario's deterministic prices, from no
    storage. `pick(state)` gives the action index taken in each state, with
    the q-value and visit count the step records."""
    steps = []
    caps = (0.0,) * env.num_units
    for k, price_idx in enumerate(
            scenario.price_path(env.storage, env.planning.horizon_periods),
            start=1):
        state = MdpState(k, price_idx, caps)
        ai, q_value, visits = pick(state)
        action = env.actions[ai]
        caps = env.apply_action(state, action)
        steps.append(PolicyStep(
            period=k, action=action,
            unit_name="" if action.is_noop else env.storage[action.unit].name,
            level_kwh=0.0 if action.is_noop else env.levels[action.level],
            unit_prices=tuple(tech.price_schedule[i - 1]
                              for tech, i in zip(env.storage, price_idx)),
            capacity_after=caps, q_value=q_value, visit_count=visits))
    return steps


def extract_policy(qtable: QTable, env: MdpEnv,
                   scenario: PriceScenario) -> PolicyReport:
    """Greedy walk of the table along the scenario's deterministic prices.

    Only actions with nonzero visit counts compete; a state with no visited
    action at all (or absent from the table) falls back to no-op and is
    recorded in the report's flags.
    """
    flags: list[str] = []

    def pick(state):
        q_row = qtable.q_values(state)
        visits = qtable.visit_counts(state)
        ai = visited_greedy(q_row, visits)
        if visits[ai] == 0:
            flags.append(f"period {state.period}: state "
                         f"{encode_state(state)} has no visited action; "
                         f"defaulting to no-op")
        return ai, q_row[ai], visits[ai]

    steps = _walk(env, scenario, pick)
    return PolicyReport(scenario_id=scenario.id, steps=steps, flags=flags)


def never_invest_report(env: MdpEnv, scenario: PriceScenario) -> PolicyReport:
    """Baseline: hold zero storage through the whole horizon."""
    return PolicyReport(scenario_id=f"never-invest[{scenario.id}]",
                        steps=_walk(env, scenario, lambda state: (0, 0.0, 0)),
                        flags=[])


def _policy_header(storage: tuple[StorageTechnology, ...]) -> list[str]:
    names = [t.name for t in storage]
    return (["period", "action_unit", "action_level_kwh"]
            + [f"price_per_kwh_{n}" for n in names]
            + [f"cum_capacity_kwh_{n}" for n in names])


def write_policy_csv(report: PolicyReport,
                     storage: tuple[StorageTechnology, ...], path) -> None:
    lines = [",".join(_policy_header(storage))]
    for s in report.steps:
        row = [str(s.period), s.unit_name or "none",
               format_number(s.level_kwh)]
        row += [format_number(p) for p in s.unit_prices]
        row += [format_number(c) for c in s.capacity_after]
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    for flag in report.flags:
        text += f"# {flag}\n"
    Path(path).write_text(text)


def _csv_number(path, row: int, name: str, text: str, kind=float):
    """`kind(text)`, the field `name` of data row `row` in the CSV at `path`;
    text that does not parse raises ValueError naming the file, the row and
    the field."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{path}: row {row}: {name} {text!r} is not {what}"
                         ) from None


def read_policy_csv(path, storage: tuple[StorageTechnology, ...],
                    levels) -> PolicyReport:
    """Read a build-out written by `write_policy_csv`, checking its arithmetic.

    Periods must run 1, 2, ... in order. Each unit's price must follow its
    `price_schedule`: the first entry in period 1, then at each boundary the
    same entry or the next. Each row's cumulative capacities must equal the
    running sum of the actions so far, and the step carries that sum.
    Levels, capacities and prices are written with `format_number`, which
    reads back exactly, so they compare exactly, and each step carries the
    schedule's price.
    """
    names = [t.name for t in storage]
    header = _policy_header(storage)
    lines = [ln for ln in Path(path).read_text().splitlines()
             if ln and not ln.startswith("#")]
    if not lines or lines[0].split(",") != header:
        raise ValueError(f"{path}: unexpected policy header")
    units = len(names)
    lvls = [float(lv) for lv in levels]
    caps = [0.0] * units
    # per unit, the schedule indices the prices so far allow it to be at
    price_idx = [{0} for _ in storage]
    steps = []
    for row, ln in enumerate(lines[1:], start=1):
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ValueError(f"{path}: bad policy row {ln!r}")
        period = _csv_number(path, row, header[0], parts[0], int)
        level_kwh, *numbers = [_csv_number(path, row, name, text)
                               for name, text in zip(header[2:], parts[2:])]
        if period != row:
            raise ValueError(f"{path}: row {row} is period "
                             f"{period}; periods must run 1, 2, ... in order")
        unit_name = parts[1]
        prices = []
        for u, tech in enumerate(storage):
            last = len(tech.price_schedule) - 1
            reach = price_idx[u] if period == 1 else {
                j for i in price_idx[u] for j in (i, min(i + 1, last))}
            price_idx[u] = {i for i in reach
                            if tech.price_schedule[i] == numbers[u]}
            if not price_idx[u]:
                raise ValueError(f"{path}: period {period}: "
                                 f"price_per_kwh_{tech.name} {parts[3 + u]} "
                                 "does not follow the price schedule")
            prices.append(tech.price_schedule[min(price_idx[u])])
        if unit_name == "none":
            action = NO_OP
        else:
            if unit_name not in names:
                raise ValueError(f"{path}: unknown unit {unit_name!r}")
            if level_kwh not in lvls:
                raise ValueError(f"{path}: {level_kwh} is not an expansion level")
            action = MdpAction(names.index(unit_name), lvls.index(level_kwh))
            caps[action.unit] += level_kwh
        if numbers[units:] != caps:
            raise ValueError(f"{path}: period {period}: cumulative capacities "
                             f"are not the running sum of the actions")
        steps.append(PolicyStep(period=period, action=action,
                                unit_name="" if action.is_noop else unit_name,
                                level_kwh=level_kwh, unit_prices=tuple(prices),
                                capacity_after=tuple(caps), q_value=0.0,
                                visit_count=0))
    return PolicyReport(scenario_id=Path(path).stem, steps=steps, flags=[])


@dataclass(frozen=True)
class PolicyValue:
    """Expected 20-year cost split into its deterministic and sampled parts."""

    mean_total_cost: float
    investment_cost: float
    mean_outage_cost: float
    stderr: float
    trials: int


def evaluate_policy(ctx: SimulationContext, report: PolicyReport,
                    trials: int, seed: int | None = None) -> PolicyValue:
    """Replay the build-out against `trials` fresh horizon-long outage draws.

    One `sample_outages` call draws all trials' traces, trial-major, from
    the stream `(seed, "eval:trials")`: they depend on the seed and trial
    count, never on the policy (common random numbers). One `period_costs`
    call dispatches all their outages. Sums add left to right (`row_sums`).
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    cfg = ctx.config
    plan = cfg.planning
    if seed is None:
        seed = cfg.master_seed
    if len(report.steps) != plan.horizon_periods:
        raise ValueError("policy does not cover every period")
    investments = [investment_cost(
        level_kwh=s.level_kwh, unit_price=s.unit_prices[s.action.unit],
        period=s.period, horizon_periods=plan.horizon_periods,
        years_per_period=plan.years_per_period, rate=plan.interest_rate,
        lifetime_years=cfg.storage[s.action.unit].lifetime_schedule[
            s.period - 1])
        for s in report.steps if not s.action.is_noop]
    invest = float(row_sums([investments])[0])
    outages = sample_outages(plan.saifi, plan.caidi, plan.years_per_period,
                             stream(seed, "eval:trials"),
                             trials * len(report.steps))
    fleets = [(s.period, s.capacity_after) for s in report.steps] * trials
    costs = ctx.period_costs(fleets, outages)
    samples = row_sums(np.reshape(costs, (trials, len(report.steps))))
    mean_outage = float(row_sums([samples])[0]) / trials
    if trials > 1:
        squares = float(row_sums([(samples - mean_outage) ** 2])[0])
        stderr = math.sqrt(squares / (trials - 1) / trials)
    else:
        stderr = math.inf
    return PolicyValue(mean_total_cost=invest + mean_outage,
                       investment_cost=invest, mean_outage_cost=mean_outage,
                       stderr=stderr, trials=trials)


def write_comparison_csv(scored, path) -> None:
    lines = ["policy,mean_total_cost,investment_cost,mean_outage_cost,"
             "stderr,trials"]
    for report, value in scored:
        lines.append(f"{report.scenario_id},{value.mean_total_cost!r},"
                     f"{value.investment_cost!r},{value.mean_outage_cost!r},"
                     f"{value.stderr!r},{value.trials}")
    Path(path).write_text("\n".join(lines) + "\n")
