"""What the traced run wraps, and how its spans become per-layer metrics.

Each target is a public function or method of one storeplan module; the span
name is `<layer>.<what>`. perfbench/README.md lists which end-to-end metric
each per-layer metric should move, on which workload.
"""

from __future__ import annotations

from storeplan import cli, config, dispatch, mdp, metamodel, outages, policy
from storeplan import qlearn, rng, simulate

# Spans hit many times per pass: calls, self time and per-call percentiles.
HOT = ("rng.stream", "outages.generate", "simulate.fleet_for",
       "dispatch.simulate", "simulate.period_cost", "metamodel.dataset_row",
       "metamodel.predict", "mdp.reward", "mdp.transition", "qlearn.entry",
       "qlearn.greedy_index")
# Spans hit a few times per pass: seconds per pass.
STAGES = ("metamodel.train_forest", "qlearn.train", "qlearn.save_qtable",
          "qlearn.load_qtable", "policy.extract", "policy.evaluate",
          "policy.read_policy_csv", "config.load_config")
CLI_STAGES = ("gen-data", "train-meta", "solve", "policy", "evaluate")


def _outage_hours(counts, args, trace):
    counts["outages.outage_hours"] += trace.total_hours()


def _dispatched(counts, args, result):
    _, fleet, _, duration_hours = args
    counts["dispatch.hours"] += duration_hours
    counts["dispatch.empty_fleet_calls"] += not fleet.capacity.any()


def _forest(counts, args, forest):
    counts["metamodel.tree_nodes"] += sum(len(t.feature) for t in forest.trees)


def _trained(counts, args, result):
    counts["qlearn.states_visited"] += len(result[0])


TARGETS = (
    (rng, "stream", "rng.stream", None),
    (outages, "generate_outages", "outages.generate", _outage_hours),
    (dispatch.OutageDispatcher, "simulate", "dispatch.simulate", _dispatched),
    (simulate.SimulationContext, "period_cost", "simulate.period_cost", None),
    (simulate.SimulationContext, "fleet_for", "simulate.fleet_for", None),
    (metamodel, "dataset_row", "metamodel.dataset_row", None),
    (metamodel, "train_forest", "metamodel.train_forest", _forest),
    (metamodel.RegressionForest, "predict_outage_cost", "metamodel.predict",
     None),
    (mdp.MdpEnv, "reward", "mdp.reward", None),
    (mdp.MdpEnv, "transition", "mdp.transition", None),
    (qlearn, "train", "qlearn.train", _trained),
    (qlearn.QTable, "entry", "qlearn.entry", None),
    (qlearn, "greedy_index", "qlearn.greedy_index", None),
    (qlearn, "save_qtable", "qlearn.save_qtable", None),
    (qlearn, "load_qtable", "qlearn.load_qtable", None),
    (policy, "extract_policy", "policy.extract", None),
    (policy, "evaluate_policy", "policy.evaluate", None),
    (policy, "read_policy_csv", "policy.read_policy_csv", None),
    (config, "load_config", "config.load_config", None),
    (cli, "_record_artifact", "cli.record_artifact", None),
)


def layer_metrics(spans: dict, counts: dict, passes: int) -> dict[str, float]:
    """Per-layer values per traced pass; layers a workload skips read 0.

    `spans` is `Tracer.summary()`; the benchmark's own `cli.<stage>` spans
    wrap each CLI call.
    """
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "p50_us": 0.0,
             "p99_us": 0.0}

    def span(name):
        return spans.get(name, empty)

    out = {}
    for name in HOT:
        s = span(name)
        out[f"{name}.calls"] = s["calls"] / passes
        out[f"{name}.self_s"] = s["self_s"] / passes
        out[f"{name}.p50_us"] = s["p50_us"]
        out[f"{name}.p99_us"] = s["p99_us"]
    for name in STAGES:
        out[f"{name}.s"] = span(name)["total_s"] / passes
    out["config.load_config.calls"] = span("config.load_config")["calls"] / passes
    for stage in CLI_STAGES:
        out[f"cli.{stage}.wall_s"] = span(f"cli.{stage}")["total_s"] / passes
    out["cli.manifest_writes"] = span("cli.record_artifact")["calls"] / passes

    sim = span("dispatch.simulate")
    hours = counts.get("dispatch.hours", 0)
    out["outages.outage_hours"] = counts.get("outages.outage_hours", 0) / passes
    out["dispatch.us_per_outage_hour"] = (sim["total_s"] / hours * 1e6
                                          if hours else 0.0)
    out["dispatch.empty_fleet_share"] = (
        counts.get("dispatch.empty_fleet_calls", 0) / sim["calls"]
        if sim["calls"] else 0.0)
    out["metamodel.tree_nodes"] = counts.get("metamodel.tree_nodes", 0) / passes
    rewards = span("mdp.reward")["calls"]
    # every reward the memo cannot answer costs one surrogate query
    out["mdp.outage_memo_hit_ratio"] = (
        1.0 - span("metamodel.predict")["calls"] / rewards if rewards else 0.0)
    out["qlearn.states_visited"] = counts.get("qlearn.states_visited", 0) / passes
    return out
