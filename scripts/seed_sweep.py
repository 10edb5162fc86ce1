#!/usr/bin/env python3
"""Pass rates of the seed-drawn acceptance criteria over a range of seeds.

Criterion 2's short run and criterion 5's desk check each rest on the draw
of one seed. For every seed in a range, this script runs each criterion's
own computation, at the criterion's sizes and against its bands, and writes
to a JSON file the share of seeds that pass and the 5/25/50/75/95 %
quantiles of each statistic, with every seed's value. It only measures: the
acceptance tests keep their seeds and their bounds. A one-line summary per
criterion goes to stdout, in Markdown.

    PYTHONPATH=src python scripts/seed_sweep.py --seeds 0 159 --out sweep.json
"""

import argparse
import json
from pathlib import Path

import numpy as np

from storeplan.config import load_config
from storeplan.metamodel import generate_dataset, train_forest
from storeplan.outages import generate_outages
from storeplan.rng import stream
from storeplan.simulate import SimulationContext

REPO = Path(__file__).resolve().parent.parent
# the bands and sizes below are the case study's
CONFIG = REPO / "configs" / "case_study.json"
QUANTILES = (5, 25, 50, 75, 95)


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


# name: (computation, {statistic: (low, high) band, None where open})
CRITERIA = {
    "criterion_02_outage_statistics": (criterion_02, {
        "mean_duration_h": band(5.16, 0.05),
        "outages_per_year": band(1.21, 0.05)}),
    "criterion_05_surrogate_quality": (criterion_05, {
        "desk_r2": (0.90, None)}),
}


def inside(value: float, low, high) -> bool:
    return (low is None or value >= low) and (high is None or value <= high)


def sweep(ctx: SimulationContext, seeds) -> dict:
    """Each criterion's pass count, pass rate and statistics over `seeds`.
    A seed passes a criterion when every statistic is inside its band."""
    out = {}
    for name, (compute, bands) in CRITERIA.items():
        values = {stat: [] for stat in bands}
        passed = 0
        for seed in seeds:
            got = compute(ctx, seed)
            passed += all(inside(got[stat], *bands[stat]) for stat in bands)
            for stat in bands:
                values[stat].append(got[stat])
        out[name] = {
            "seeds": len(seeds),
            "passed": passed,
            "pass_rate": passed / len(seeds),
            "statistics": {stat: {
                "band": list(bands[stat]),
                "quantiles": dict(zip(
                    (str(q) for q in QUANTILES),
                    np.quantile(values[stat], np.divide(QUANTILES, 100))
                    .tolist())),
                "values": values[stat],
            } for stat in bands},
        }
    return out


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
