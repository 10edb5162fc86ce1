"""The benchmark's workloads: inputs drawn from the seed, stage chains, checks.

Every workload drives the real CLI stages (`storeplan.cli.main`) on
configs/case_study.json. The CLI's own size flags (`--observations`,
`--trials`, `--episodes`) scale a pass down to seconds, so a run of
`datagen` or `evaluate` repeats its chain; a `plan` pass takes about half a
minute.

datagen   `gen-data` with the process pool. Dispatch, outages, RNG and
          simulate do nearly all the work; the forest and Q-learning do none.
plan      `train-meta`, `solve`, then `policy` for scenarios 1-8, on the
          case-study dataset, built before timing. The forest, the MDP,
          Q-learning and Q-table JSONL I/O do the work; no dispatch runs in
          the timed part.
evaluate  `evaluate` over build-outs drawn from the seed (one action per
          period under scenario-1 prices) plus never-invest. It replays fixed
          fleets over all four periods under common random numbers, and the
          never-invest fleet takes the empty-fleet path.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from storeplan.config import load_config
from storeplan.mdp import MdpEnv, MdpState
from storeplan.metamodel import load_forest, read_dataset
from storeplan.policy import (PolicyReport, PolicyStep, default_scenarios,
                              read_policy_csv, write_policy_csv)

SCENARIOS = tuple(str(s) for s in range(1, 9))


@dataclass(frozen=True)
class Scale:
    """Input sizes of every workload; one instance per benchmark size."""

    datagen_rows: int
    datagen_trials: int
    plan_rows: int
    plan_trials: int
    plan_episodes: int
    eval_trials: int
    plan_cost_trials: int  # trials behind plan_cost_usd, after timing
    min_passes: int
    setup_probes: int


# plan trains on the case-study dataset (the configuration's sizes and seed)
# at 300,000 of its 1,000,000 episodes. Shorter training made the scenario-1
# plan lose to never-invest on its own account: on 2 of 70 seeds at 40,000
# episodes and 2 of 70 at 120,000. Each time the greedy walk reached a
# last-period state whose actions had been tried once or twice, late, at a
# small step size, so their values were still near the zero they start from
# and the costliest build-out looked cheapest. At 300,000 episodes the plans
# cost 0.80-0.95 of never-invest, like those at 1,000,000, except where the
# surrogate itself makes never-invest best (perfbench/README.md, checks).
BENCH = Scale(datagen_rows=96, datagen_trials=40, plan_rows=1000,
              plan_trials=100, plan_episodes=300_000,
              eval_trials=120, plan_cost_trials=200, min_passes=1,
              setup_probes=9)
SMOKE = Scale(datagen_rows=8, datagen_trials=3, plan_rows=100, plan_trials=5,
              plan_episodes=40_000, eval_trials=5, plan_cost_trials=100,
              min_passes=1, setup_probes=2)


class Workload:
    """One stage chain plus the checks on what it wrote.

    `chain` lists the CLI argument vectors of one pass; `units` counts the
    work of one pass that `unit_stage` does, for `work_per_s`.
    """

    name = ""
    unit_stage = ""

    def __init__(self, root: Path, seed: int, scale: Scale, work: Path):
        self.seed = seed
        self.scale = scale
        self.work = work
        self.cfg = str(root / "configs" / "case_study.json")
        self.config = load_config(self.cfg)
        self.fixture = work / "fixture"

    def prepare(self, call) -> None:
        """Build untimed inputs; `call(argv)` runs a CLI stage."""
        self.fixture.mkdir(parents=True, exist_ok=True)

    def chain(self, out: Path, threads: int) -> list[list[str]]:
        raise NotImplementedError

    def units(self) -> float:
        raise NotImplementedError

    def check(self, out: Path) -> list[tuple[str, bool]]:
        raise NotImplementedError


class Datagen(Workload):
    name = "datagen"
    unit_stage = "gen-data"

    def chain(self, out, threads):
        s = self.scale
        return [["gen-data", "--config", self.cfg,
                 "--observations", str(s.datagen_rows),
                 "--trials", str(s.datagen_trials), "--seed", str(self.seed),
                 "--threads", str(threads), "--out", str(out)]]

    def units(self):
        return self.scale.datagen_rows * self.scale.datagen_trials

    def check(self, out):
        return check_dataset(out / "dataset.csv", self.scale.datagen_rows)


class Plan(Workload):
    name = "plan"
    unit_stage = "solve"

    def prepare(self, call):
        """Build the dataset at the configuration's own seed, once.

        gen-data writes the same bytes for the same program, configuration
        and sizes, so the dataset is kept under the runs directory, keyed by
        the sizes and a digest of src/ and the configuration: only the first
        plan run of a checkout builds it, serially and outside the timed
        passes. The workload seed drives train-meta, solve and the plan's
        scoring.
        """
        super().prepare(call)
        s = self.scale
        self.dataset = (self.work.parent / "cache"
                        / f"dataset-{s.plan_rows}x{s.plan_trials}-"
                          f"{source_digest(self.cfg)}" / "dataset.csv")
        if self.dataset.is_file():
            return
        tmp = self.dataset.parent.with_suffix(".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        call(["gen-data", "--config", self.cfg,
              "--observations", str(s.plan_rows), "--trials", str(s.plan_trials),
              "--threads", "1", "--out", str(tmp)])
        if (tmp / "dataset.csv").is_file():
            tmp.rename(self.dataset.parent)

    def chain(self, out, threads):
        argv = [["train-meta", "--dataset", str(self.dataset),
                 "--seed", str(self.seed), "--out", str(out)],
                ["solve", "--config", self.cfg,
                 "--forest", str(out / "forest.json"),
                 "--episodes", str(self.scale.plan_episodes),
                 "--seed", str(self.seed), "--out", str(out)]]
        argv += [["policy", "--config", self.cfg,
                  "--qtable", str(out / "qtable.jsonl"),
                  "--scenario", sid, "--out", str(out)] for sid in SCENARIOS]
        return argv

    def units(self):
        return self.scale.plan_episodes

    def check(self, out):
        checks = check_dataset(self.dataset, self.scale.plan_rows)
        r2 = load_forest(out / "forest.json").r2_test
        checks.append(("forest_r2_finite", r2 is not None and math.isfinite(r2)))
        checks.append(("qtable_header_matches_rows",
                       qtable_header_matches_rows(out / "qtable.jsonl")))
        for sid in SCENARIOS:
            checks.append((f"policy_{sid}_capacity_is_running_sum",
                           capacity_is_running_sum(out / f"policy_{sid}.csv",
                                                   self.config)))
        return checks

    def plan_cost_chain(self, policy: Path, out: Path) -> list[list[str]]:
        """Score `policy` and never-invest at fixed trials and seed."""
        return [["evaluate", "--config", self.cfg, "--policy", p,
                 "--scenario", "1", "--trials", str(self.scale.plan_cost_trials),
                 "--seed", str(self.seed), "--out", str(out)]
                for p in (str(policy), "never-invest")]


class Evaluate(Workload):
    name = "evaluate"
    unit_stage = "evaluate"

    def __init__(self, *args):
        super().__init__(*args)
        self.env = MdpEnv(self.config.planning, self.config.storage,
                          outage_cost=lambda k, caps: 0.0)

    def buildouts(self) -> list[Path]:
        return [self.fixture / f"buildout_{b + 1}.csv"
                for b in range(self.env.num_actions)]

    def prepare(self, call):
        """One build-out per action; each period's column is a permutation.

        Every seed then takes each action equally often in each period, so
        seeds differ in how actions combine into fleets, not in how many
        fleets are empty or large, and the work per pass varies little.
        """
        super().prepare(call)
        rng = np.random.default_rng([self.seed, 0x65766C])
        columns = [rng.permutation(self.env.num_actions)
                   for _ in range(self.config.planning.horizon_periods)]
        for b, path in enumerate(self.buildouts()):
            report = scenario_one_buildout(self.env, [int(c[b]) for c in columns])
            write_policy_csv(report, self.config.storage, path)

    def chain(self, out, threads):
        policies = [str(p) for p in self.buildouts()] + ["never-invest"]
        return [["evaluate", "--config", self.cfg, "--policy", policy,
                 "--scenario", "1", "--trials", str(self.scale.eval_trials),
                 "--seed", str(self.seed), "--out", str(out)]
                for policy in policies]

    def units(self):
        return ((len(self.buildouts()) + 1) * self.scale.eval_trials
                * self.config.planning.horizon_periods)

    def check(self, out):
        checks = []
        slugs = [p.stem for p in self.buildouts()] + ["never-invest_1"]
        for slug in slugs:
            row = read_evaluation(out / f"evaluation_{slug}.csv")
            checks.append((f"evaluation_{slug}_stderr_finite_and_trials",
                           math.isfinite(row["stderr"])
                           and row["trials"] == self.scale.eval_trials))
        never = read_evaluation(out / "evaluation_never-invest_1.csv")
        checks.append(("never_invest_has_no_investment",
                       never["investment_cost"] == 0.0))
        return checks


WORKLOADS = {w.name: w for w in (Datagen, Plan, Evaluate)}


def scenario_one_buildout(env: MdpEnv, actions: list[int]) -> PolicyReport:
    """Build-out taking `actions[k-1]` in period k under scenario-1 prices."""
    path = default_scenarios()["1"].price_path(env.storage,
                                               env.planning.horizon_periods)
    caps = (0.0,) * env.num_units
    steps = []
    for k, ai in enumerate(actions, start=1):
        action = env.actions[ai]
        caps = env.apply_action(MdpState(k, path[k - 1], caps), action)
        steps.append(PolicyStep(
            period=k, action=action,
            unit_name="" if action.is_noop else env.storage[action.unit].name,
            level_kwh=0.0 if action.is_noop else env.levels[action.level],
            unit_prices=tuple(env.storage[u].price_schedule[path[k - 1][u] - 1]
                              for u in range(env.num_units)),
            capacity_after=caps, q_value=0.0, visit_count=0))
    return PolicyReport(scenario_id="buildout", steps=steps)


def source_digest(config: str) -> str:
    """Short sha256 of the configuration file and every file under src/."""
    digest = hashlib.sha256(Path(config).read_bytes())
    src = Path(__file__).resolve().parent.parent / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_dataset(path: Path, rows: int) -> list[tuple[str, bool]]:
    dataset = read_dataset(path)
    cost = dataset.cost
    return [("dataset_row_count", len(dataset) == rows),
            ("dataset_costs_finite_nonnegative",
             bool(np.isfinite(cost).all() and (cost >= 0).all()))]


def qtable_header_matches_rows(path: Path) -> bool:
    with open(path) as fh:
        header = fh.readline()
        rows = sum(1 for line in fh if line.strip())
    return json.loads(header).get("states") == rows


def capacity_is_running_sum(path: Path, config) -> bool:
    """Each step's capacity_after equals the sum of the actions so far.

    The policy reader trusts the file's capacities, so this recomputes them.
    """
    report = read_policy_csv(path, config.storage,
                             config.planning.expansion_levels_kwh)
    if [s.period for s in report.steps] != list(
            range(1, config.planning.horizon_periods + 1)):
        return False
    caps = [0.0] * len(config.storage)
    for step in report.steps:
        if not step.action.is_noop:
            caps[step.action.unit] += step.level_kwh
        if tuple(caps) != step.capacity_after:
            return False
    return True


def read_evaluation(path: Path) -> dict:
    with open(path, newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    return {"mean_total_cost": float(row["mean_total_cost"]),
            "investment_cost": float(row["investment_cost"]),
            "stderr": float(row["stderr"]), "trials": int(row["trials"])}
