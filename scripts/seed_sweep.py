#!/usr/bin/env python3
"""Pass rates of the seed-drawn acceptance criteria over a range of seeds.

Criterion 2's short run, criterion 5's desk check and the learned plan of
criteria 9 and 10 each rest on the draw of one seed. For every seed in a
range, this script runs each criterion's own computation, at the
criterion's sizes and against its bands, and writes to a JSON file the
share of seeds that pass and the 5/25/50/75/95 % quantiles of each
statistic, with every seed's value. It only measures: the acceptance tests
keep their seeds and their bounds. A one-line summary per criterion goes to
stdout, in Markdown.

Criteria 9 and 10 judge a plan learned at seed s. The sweep trains it at
300,000 episodes, against the forest fitted to the config's own dataset
(both built once per sweep), with learner and evaluation seed s; the
acceptance tests train at the config's 1,000,000 episodes. That is about
4 s a seed on 2 vCPUs, most of the sweep's time.

    PYTHONPATH=src python scripts/seed_sweep.py --seeds 0 159 --out sweep.json
"""

import argparse
import json
import math
from functools import cache, lru_cache
from pathlib import Path

import numpy as np

from storeplan.config import load_config
from storeplan.mdp import MdpEnv
from storeplan.metamodel import generate_dataset, train_forest
from storeplan.outages import generate_outages
from storeplan.policy import (default_scenarios, evaluate_policy,
                              extract_policy, never_invest_report)
from storeplan.qlearn import DecaySchedule, train
from storeplan.rng import stream
from storeplan.simulate import SimulationContext

REPO = Path(__file__).resolve().parent.parent
# the bands and sizes below are the case study's
CONFIG = REPO / "configs" / "case_study.json"
QUANTILES = (5, 25, 50, 75, 95)
EPISODES = 300_000  # per learned plan; the config's rl.episodes is 1,000,000


def band(reference: float, rel: float) -> tuple[float, float]:
    """The values `pytest.approx(reference, rel=rel)` accepts."""
    return reference * (1 - rel), reference * (1 + rel)


def criterion_02(ctx: SimulationContext, seed: int) -> dict[str, float]:
    """The 100-year short run of criterion 2 on `stream(seed,
    "report:outages")`: mean duration in hours and outages per year."""
    plan = ctx.config.planning
    trace = generate_outages(plan.saifi, plan.caidi, 100,
                             stream(seed, "report:outages"))
    return {"mean_duration_h": float(np.mean(trace.durations)),
            "outages_per_year": len(trace.starts) / 100}


def criterion_05(ctx: SimulationContext, seed: int) -> dict[str, float]:
    """The held-out R² of criterion 5's desk check: a forest trained on
    200 observations of 20 trials each, drawn at master seed `seed`."""
    dataset = generate_dataset(ctx, observations=200, trials=20,
                               master_seed=seed)
    return {"desk_r2": float(train_forest(dataset).r2_test)}


@cache
def case_env(ctx: SimulationContext) -> MdpEnv:
    """The MDP on the forest fitted to the config's own dataset."""
    cfg = ctx.config
    forest = train_forest(generate_dataset(ctx))
    return MdpEnv(cfg.planning, cfg.storage, outage_cost=forest.predict)


@lru_cache(maxsize=1)
def learned_plans(ctx: SimulationContext, seed: int) -> dict:
    """Each default scenario's plan from a table trained at learner seed
    `seed` for `EPISODES` episodes, by scenario id."""
    env, rl = case_env(ctx), ctx.config.rl
    qtable, _ = train(env, EPISODES, rl.gamma,
                      DecaySchedule(rl.alpha_start, rl.alpha_end, EPISODES),
                      DecaySchedule(rl.epsilon_start, rl.epsilon_end,
                                    EPISODES), seed=seed)
    return {sid: extract_policy(qtable, env, scenario)
            for sid, scenario in default_scenarios().items()}


def criterion_09(ctx: SimulationContext, seed: int) -> dict[str, float]:
    """Criterion 9's two hard asserts on the plans learned at `seed`: the
    steps that install flywheel in any scenario, and whether scenario 1's
    period 1 is a no-op (1) or not (0)."""
    plans = learned_plans(ctx, seed)
    return {"flywheel_steps": sum(step.unit_name == "flywheel"
                                  for plan in plans.values()
                                  for step in plan.steps),
            "period_1_noop": float(plans["1"].steps[0].action.is_noop)}


def criterion_10(ctx: SimulationContext, seed: int) -> dict[str, float]:
    """Criterion 10 on the scenario-1 plan learned at `seed`: never-invest's
    mean cost less the plan's, both over the same 1,000 trials at `seed`."""
    plan = learned_plans(ctx, seed)["1"]
    never = never_invest_report(case_env(ctx), default_scenarios()["1"])
    invested, baseline = (evaluate_policy(ctx, report, trials=1000, seed=seed)
                          for report in (plan, never))
    return {"saving_usd": baseline.mean_total_cost - invested.mean_total_cost}


# name: (computation, {statistic: (low, high) band, None where open})
CRITERIA = {
    "criterion_02_outage_statistics": (criterion_02, {
        "mean_duration_h": band(5.16, 0.05),
        "outages_per_year": band(1.21, 0.05)}),
    "criterion_05_surrogate_quality": (criterion_05, {
        "desk_r2": (0.90, None)}),
    "criterion_09_policy_shape": (criterion_09, {
        "flywheel_steps": (None, 0),
        "period_1_noop": (1, None)}),
    # the plan must cost strictly less: a saving of at least the least double
    "criterion_10_policy_beats_never_invest": (criterion_10, {
        "saving_usd": (math.ulp(0.0), None)}),
}


def inside(value: float, low, high) -> bool:
    return (low is None or value >= low) and (high is None or value <= high)


def sweep(ctx: SimulationContext, seeds) -> dict:
    """Each criterion's pass count, pass rate and statistics over `seeds`.
    A seed passes a criterion when every statistic is inside its band.
    Seeds run in turn, each through every criterion, so criteria 9 and 10
    share the seed's learned plans."""
    values = {name: {stat: [] for stat in bands}
              for name, (_, bands) in CRITERIA.items()}
    passed = dict.fromkeys(CRITERIA, 0)
    for seed in seeds:
        for name, (compute, bands) in CRITERIA.items():
            got = compute(ctx, seed)
            passed[name] += all(inside(got[stat], *bands[stat])
                                for stat in bands)
            for stat in bands:
                values[name][stat].append(got[stat])
    return {name: {
        "seeds": len(seeds),
        "passed": passed[name],
        "pass_rate": passed[name] / len(seeds),
        "statistics": {stat: {
            "band": list(bands[stat]),
            "quantiles": dict(zip(
                (str(q) for q in QUANTILES),
                np.quantile(values[name][stat], np.divide(QUANTILES, 100))
                .tolist())),
            "values": values[name][stat],
        } for stat in bands},
    } for name, (_, bands) in CRITERIA.items()}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"),
                    required=True, help="sweep seeds FIRST to LAST inclusive")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    first, last = args.seeds
    if not 0 <= first <= last:
        ap.error("--seeds needs 0 <= FIRST <= LAST")
    ctx = SimulationContext(load_config(CONFIG))
    result = {"config": str(CONFIG.relative_to(REPO)), "first_seed": first,
              "last_seed": last,
              "criteria": sweep(ctx, range(first, last + 1))}
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for name, got in result["criteria"].items():
        medians = ", ".join(f"{stat} median {s['quantiles']['50']:.4g}"
                            for stat, s in got["statistics"].items())
        print(f"- {name}: {got['passed']} of {got['seeds']} seeds "
              f"({first}-{last}) pass; {medians}")


if __name__ == "__main__":
    main()
