#!/usr/bin/env python3
"""Run the complete planning pipeline on one configuration.

Produces every artifact in a single run directory: the synthetic training
corpus, the fitted cost surrogate, the Q-table with its learning curve, the
extracted build-out for each price scenario, evaluations of the scenario-1
plan against never investing, and the report CSVs. Point --config at
configs/smoke.json for a fast end-to-end pass.
"""

import argparse
import csv
import sys
import time
from pathlib import Path

from storeplan.cli import main as storeplan

REPO = Path(__file__).resolve().parent.parent


def run(argv) -> None:
    argv = [str(a) for a in argv]
    t0 = time.perf_counter()
    rc = storeplan(argv)
    if rc != 0:
        sys.exit(f"step {argv[0]!r} failed with exit code {rc}")
    print(f"[{argv[0]}] finished in {time.perf_counter() - t0:.1f}s\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", type=Path,
                    default=REPO / "configs" / "case_study.json")
    ap.add_argument("--out", type=Path, default=REPO / "runs" / "case_study")
    ap.add_argument("--episodes", type=int, default=None,
                    help="override the configured training budget")
    ap.add_argument("--trials", type=int, default=1000,
                    help="Monte Carlo trials per policy evaluation")
    ap.add_argument("--scenarios", type=int, default=8,
                    help="extract build-outs for scenarios 1..N")
    args = ap.parse_args()
    out = args.out
    out.mkdir(parents=True, exist_ok=True)

    run(["gen-data", "--config", args.config, "--out", out])
    run(["train-meta", "--dataset", out / "dataset.csv", "--out", out])
    solve = ["solve", "--config", args.config,
             "--forest", out / "forest.json", "--out", out]
    if args.episodes is not None:
        solve += ["--episodes", args.episodes]
    run(solve)
    run(["policy", "--config", args.config, "--qtable", out / "qtable.jsonl",
         *(a for s in range(1, args.scenarios + 1) for a in ("--scenario", s)),
         "--out", out])
    for policy in (out / "policy_1.csv", "never-invest"):
        run(["evaluate", "--config", args.config, "--policy", policy,
             "--scenario", "1", "--trials", args.trials, "--out", out])
    run(["report", "--config", args.config, "--run-dir", out, "--out", out])

    rows = []
    for name in ("evaluation_policy_1.csv", "evaluation_never-invest_1.csv"):
        with open(out / name, newline="") as fh:
            rows.extend(csv.DictReader(fh))
    print("20-year expected cost, scenario 1, matched outage draws:")
    for row in rows:
        print(f"  {row['policy']:>16}: {float(row['mean_total_cost']):12.0f}"
              f"  (investment {float(row['investment_cost']):.0f},"
              f" outage {float(row['mean_outage_cost']):.0f})")


if __name__ == "__main__":
    main()
