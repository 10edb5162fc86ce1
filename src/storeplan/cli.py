"""Command-line pipeline: dataset, surrogate, solver, policies, reports.

Every artifact lands in an --out directory together with a manifest.json entry
recording its sha256, the producing command, parameters, the configuration
hash and the stage's wall and CPU seconds, so a run directory is
self-describing. Exit codes: 1 for usage problems, 2 for validation failures
(bad config, corrupt artifact), 3 for artifacts that do not belong to the
supplied configuration.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import functools
import gc
import json
import os
import re
import sys
import time
from collections import Counter
from pathlib import Path

from . import __version__
from .config import (ConfigError, IncompatibleArtifact, config_hash,
                     file_sha256, load_config, parse_json)
from .mdp import MdpEnv, backward_induction, count_states_component_product
from .metamodel import (generate_dataset, load_forest,
                        reachable_capacity_values, read_dataset, save_forest,
                        train_forest, write_dataset)
from .outages import generate_outages
from .policy import (default_scenarios, evaluate_policy, extract_policy,
                     load_scenarios, never_invest_report, read_policy_csv,
                     visited_greedy, write_comparison_csv, write_policy_csv)
from .qlearn import DecaySchedule, load_qtable, save_qtable, train
from .rng import stream
from .simulate import SimulationContext

__all__ = ["main"]

EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_INCOMPATIBLE = 3

_HISTOGRAM_YEARS = 200  # years of outages in report's duration histogram


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here reserves 2 for
    # validation failures, so route usage problems to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _utcnow() -> str:
    return _dt.datetime.now(_dt.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _read_manifest(manifest_path: Path) -> dict:
    """The manifest at `manifest_path`, or a new one if there is none; one
    that is not a JSON object holding an 'artifacts' object is a
    validation failure naming the file."""
    if not manifest_path.exists():
        return {"package_version": __version__, "artifacts": {}}
    manifest = parse_json(manifest_path.read_text(), manifest_path)
    if not (isinstance(manifest, dict)
            and isinstance(manifest.setdefault("artifacts", {}), dict)):
        raise ConfigError(f"{manifest_path}: a manifest holds a JSON object "
                          f"whose 'artifacts' is an object")
    manifest["package_version"] = __version__
    return manifest


def _record_artifact(out_dir: Path, name: str, filename: str,
                     digest: str | None, args, params: dict,
                     quality: dict | None = None) -> None:
    """Add `name`'s entry to the manifest. `sha256` is the digest of the
    artifact's bytes; `wall_s` and `cpu_s` are the stage's wall and CPU
    seconds (this process) up to the entry's write; `quality`, if given,
    holds what the stage found out about its output."""
    manifest_path = out_dir / "manifest.json"
    manifest = _read_manifest(manifest_path)
    manifest["artifacts"][name] = {
        "path": filename,
        "sha256": file_sha256(out_dir / filename),
        "config_hash": digest,
        "command": args.command,
        "params": params,
        "created": _utcnow(),
        "wall_s": round(time.perf_counter() - args.clock[0], 6),
        "cpu_s": round(time.process_time() - args.clock[1], 6),
    }
    if quality is not None:
        manifest["artifacts"][name]["quality"] = quality
    tmp = manifest_path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(manifest, indent=2) + "\n")
    os.replace(tmp, manifest_path)


def _recorded_sha256(path: Path) -> str | None:
    """The sha256 that the manifest next to `path` records for it, if any."""
    entries = _read_manifest(path.parent / "manifest.json")["artifacts"]
    for entry in entries.values():
        if isinstance(entry, dict) and entry.get("path") == path.name:
            digest = entry.get("sha256")
            return digest if isinstance(digest, str) else None
    return None


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _read_manifest(out / "manifest.json")  # a bad one fails before any write
    return out


def _scenarios(args, ids) -> list:
    """The price scenarios named by `ids`, from `--scenarios` or the
    built-ins; an unknown or repeated id is a validation failure."""
    scenarios = (load_scenarios(args.scenarios) if args.scenarios
                 else default_scenarios())
    for i, sid in enumerate(ids):
        if sid not in scenarios:
            raise ConfigError(f"unknown scenario {sid!r}; "
                              f"have {sorted(scenarios)}")
        if sid in ids[:i]:
            raise ConfigError(f"scenario {sid!r} given twice")
    return [scenarios[sid] for sid in ids]


def cmd_gen_data(args) -> int:
    cfg = load_config(args.config)
    dataset = generate_dataset(SimulationContext(cfg), args.observations,
                               args.trials, args.seed)
    out = _out_dir(args)
    path = out / "dataset.csv"
    write_dataset(dataset, path)
    _record_artifact(out, "dataset", "dataset.csv", dataset.config_digest,
                     args, {"observations": len(dataset),
                            "trials": dataset.trials,
                            "seed": dataset.master_seed})
    print(f"wrote {path} ({len(dataset)} rows x {dataset.trials} trials, "
          f"mean cost {dataset.cost.mean():.0f})")
    return 0


def cmd_train_meta(args) -> int:
    dataset = read_dataset(args.dataset)
    forest = train_forest(dataset, seed=args.seed)
    out = _out_dir(args)
    path = out / "forest.json"
    save_forest(forest, path)
    _record_artifact(out, "forest", "forest.json", forest.config_digest,
                     args, forest.params)
    print(f"wrote {path} ({len(forest.trees)} trees, "
          f"holdout R^2 {forest.r2_test:.4f})")
    return 0


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    digest = config_hash(cfg)
    forest = load_forest(args.forest, expected_config_hash=digest,
                         storage=cfg.storage)
    env = MdpEnv(cfg.planning, cfg.storage, outage_cost=forest.predict)
    episodes = cfg.rl.episodes if args.episodes is None else args.episodes
    seed = cfg.master_seed if args.seed is None else args.seed
    run = {"episodes": episodes, "gamma": cfg.rl.gamma, "seed": seed}
    alpha = DecaySchedule(cfg.rl.alpha_start, cfg.rl.alpha_end, episodes)
    epsilon = DecaySchedule(cfg.rl.epsilon_start, cfg.rl.epsilon_end, episodes)
    qtable, curve = train(env, episodes, cfg.rl.gamma, alpha, epsilon, seed)
    out = _out_dir(args)
    qpath = out / "qtable.jsonl"
    save_qtable(qtable, qpath, digest, metadata=run)
    curve.save(out / "learning_curve.csv")
    bound_states, bound_pairs = count_states_component_product(
        env.num_units, len(env.levels), cfg.planning.horizon_periods)
    reachable = env.numbering[1]
    print(f"wrote {qpath} ({len(qtable)} of {reachable} reachable states "
          f"visited, {len(qtable) / reachable:.0%}; component bound "
          f"{bound_states} states / {bound_pairs} pairs)")
    print(f"final batch mean reward {curve.mean_total_reward[-1]:.0f}")
    # the gap says whether more training could still improve the plan: the
    # learned policy is the rule `policy` extracts with, valued exactly;
    # states without a row take no-op, as that rule gives them
    optimum, learned = backward_induction(
        env, cfg.rl.gamma, ((n, visited_greedy(*row))
                            for n, row in enumerate(qtable.rows) if row))
    gap = optimum - learned
    share = f" ({gap / abs(optimum):.1%})" if optimum else ""
    print(f"exact DP: optimum {optimum:.0f}, learned policy {learned:.0f}, "
          f"gap {gap:.0f}{share}")
    # recorded last, so that the entries' times cover the check too
    _record_artifact(out, "qtable", "qtable.jsonl", digest, args, run, {
        "states_visited": len(qtable), "states_reachable": reachable,
        "dp_optimum": optimum, "learned_value": learned, "gap": gap})
    _record_artifact(out, "learning_curve", "learning_curve.csv", digest,
                     args, {"episodes": episodes})
    return 0


def _no_outage_cost(rows) -> list[float]:
    # extraction and never-invest reports read no outage costs
    return [0.0] * len(rows)


def cmd_policy(args) -> int:
    cfg = load_config(args.config)
    digest = config_hash(cfg)
    scenarios = _scenarios(args, args.scenario)
    env = MdpEnv(cfg.planning, cfg.storage, outage_cost=_no_outage_cost)
    qtable, _ = load_qtable(args.qtable, env, expected_config_hash=digest,
                            expected_sha256=_recorded_sha256(
                                Path(args.qtable)))
    out = _out_dir(args)
    for sid, scenario in zip(args.scenario, scenarios):
        report = extract_policy(qtable, env, scenario)
        path = out / f"policy_{sid}.csv"
        write_policy_csv(report, cfg.storage, path)
        _record_artifact(out, f"policy_{sid}", path.name, digest, args,
                         {"scenario": sid})
        for step in report.steps:
            what = "no-op" if step.action.is_noop else (
                f"{step.unit_name} +{step.level_kwh:g} kWh")
            print(f"period {step.period}: {what} "
                  f"(q {step.q_value:.0f}, visits {step.visit_count})")
        for flag in report.flags:
            print(f"warning: {flag}", file=sys.stderr)
        print(f"wrote {path}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    ctx = SimulationContext(cfg)
    if args.policy == "never-invest":
        env = MdpEnv(cfg.planning, cfg.storage,
                     outage_cost=_no_outage_cost)
        (scenario,) = _scenarios(args, [args.scenario])
        report = never_invest_report(env, scenario)
    else:
        report = read_policy_csv(args.policy, cfg.storage,
                                 cfg.planning.expansion_levels_kwh)
    value = evaluate_policy(ctx, report, args.trials, args.seed)
    out = _out_dir(args)
    # one file per evaluated policy so repeated runs do not clobber each other
    slug = re.sub(r"[^A-Za-z0-9_.-]+", "_", report.scenario_id).strip("_")
    name = f"evaluation_{slug}.csv"
    path = out / name
    write_comparison_csv([(report, value)], path)
    _record_artifact(out, f"evaluation_{slug}", name, config_hash(cfg),
                     args, {"policy": str(args.policy),
                            "trials": args.trials})
    print(f"{report.scenario_id}: total {value.mean_total_cost:.0f} "
          f"(investment {value.investment_cost:.0f}, outage "
          f"{value.mean_outage_cost:.0f} +/- {value.stderr:.0f}, "
          f"{value.trials} trials)")
    print(f"wrote {path}")
    return 0


def cmd_report(args) -> int:
    cfg = load_config(args.config)
    digest = config_hash(cfg)
    run = Path(args.run_dir)
    # every artifact's text is made before the first write, so a refused
    # forest leaves --out as it was
    texts = {}
    # a report into its own run directory leaves the run's learning curve
    # and plans, and the manifest entries of the stages that wrote them,
    # as they are
    if Path(args.out).resolve() != run.resolve():
        curve_src = run / "learning_curve.csv"
        if curve_src.exists():
            texts["learning_curve.csv"] = curve_src.read_text()
        for pol in sorted(run.glob("policy_*.csv")):
            texts[pol.name] = pol.read_text()
    forest_src = run / "forest.json"
    if forest_src.exists():
        forest = load_forest(forest_src, expected_config_hash=digest,
                             storage=cfg.storage)
        values = reachable_capacity_values(
            cfg.planning.expansion_levels_kwh,
            cfg.planning.horizon_periods - 1)
        points, rows = [], []
        zeros = [0.0] * len(cfg.storage)
        for u, tech in enumerate(cfg.storage):
            for k in range(1, cfg.planning.horizon_periods + 1):
                for v in values:
                    caps = list(zeros)
                    caps[u] = v
                    points.append((tech.name, k, v))
                    rows.append([k, *caps])
        # one batch; each row gets the bits a one-row prediction gives
        preds = forest.predict(rows).tolist()
        lines = ["unit,period,capacity_kwh,predicted_cost"]
        lines += [f"{name},{k},{v:g},{pred!r}"
                  for (name, k, v), pred in zip(points, preds)]
        texts["cost_surface.csv"] = "\n".join(lines) + "\n"
    trace = generate_outages(cfg.planning.saifi, cfg.planning.caidi,
                             _HISTOGRAM_YEARS,
                             stream(cfg.master_seed, "report:outages"))
    counts = Counter(trace.durations.tolist())
    lines = ["duration_hours,count"]
    lines += [f"{d},{counts[d]}" for d in sorted(counts)]
    texts["duration_histogram.csv"] = "\n".join(lines) + "\n"
    out = _out_dir(args)
    for name, text in texts.items():
        (out / name).write_text(text)
    for name in texts:
        _record_artifact(out, name, name, digest, args,
                         {"run_dir": str(run)})
    print(f"wrote {len(texts)} report artifacts to {out}")
    return 0


# Built from constants on the first call and shared by every later one:
# parse_args reads the parser and leaves it as it was.
@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="storeplan",
                     description="Storage expansion planning pipeline")
    parser.add_argument("--version", action="version",
                        version=f"storeplan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("gen-data", help="simulate the surrogate's corpus")
    p.add_argument("--config", required=True)
    p.add_argument("--observations", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None,
                   help="accepted for compatibility and ignored")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-meta", help="fit the outage-cost forest")
    p.add_argument("--dataset", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_meta)

    p = sub.add_parser("solve", help="train the q-table against the forest")
    p.add_argument("--config", required=True)
    p.add_argument("--forest", required=True)
    p.add_argument("--episodes", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("policy", help="extract scenario-conditioned plans")
    p.add_argument("--config", required=True)
    p.add_argument("--qtable", required=True)
    p.add_argument("--scenario", required=True, action="append",
                   help="repeat to extract several plans from one load")
    p.add_argument("--scenarios", default=None,
                   help="scenario preset file (defaults to bundled presets)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_policy)

    p = sub.add_parser("evaluate", help="Monte Carlo cost of a plan")
    p.add_argument("--config", required=True)
    p.add_argument("--policy", required=True,
                   help="policy CSV path, or 'never-invest'")
    p.add_argument("--scenario", default="1",
                   help="price scenario for the never-invest baseline")
    p.add_argument("--scenarios", default=None)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="bundle run artifacts for inspection")
    p.add_argument("--config", required=True)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


# commands that build a Q-table, some 10^5 small objects
_QTABLE_COMMANDS = ("solve", "policy")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.clock = (time.perf_counter(), time.process_time())
    try:
        return args.func(args)
    except IncompatibleArtifact as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except (ConfigError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    finally:
        if args.command in _QTABLE_COMMANDS:
            # A freed Q-table leaves a few thousand of its objects on the
            # interpreter's free lists, scattered over most of the memory
            # arenas it filled, and an arena is unmapped only when empty.
            # A full collection clears the lists, so a process that runs
            # commands in turn (the tests, perfbench) gets the table's
            # memory back before the next command.
            gc.collect()


if __name__ == "__main__":
    sys.exit(main())
