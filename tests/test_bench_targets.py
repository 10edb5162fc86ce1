"""The traced benchmark wraps storeplan functions by name; each must exist,
and its hooks must read the results those functions return.

`perfbench/layers.py` lists them as (owner, attribute) pairs, and the tracer
looks each one up with `vars(owner)[attribute]`, so a rename or deletion in
`src/` would crash every traced run. A hook reads the wrapped call's
arguments and result, so a change to their shape (an outage trace's fields,
`simulate`'s parameters) would crash it too.
"""

import importlib.util

from conftest import REPO
from storeplan import outages
from storeplan.rng import stream


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", REPO / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    layers = _perfbench("layers")
    assert layers.TARGETS
    for owner, attr, span, _ in layers.TARGETS:
        assert callable(vars(owner).get(attr)), (
            f"{span}: {owner.__name__}.{attr} no longer exists")


def test_trace_and_dispatch_hooks_read_real_results(case_context):
    """The outage-hours and dispatch hooks, installed as a traced run
    installs them, count a real trace's hours and real `simulate` calls,
    one on an empty fleet."""
    layers = _perfbench("layers")
    tracer = _perfbench("tracer").Tracer()
    names = ("outages.generate", "dispatch.simulate")
    tracer.install([t for t in layers.TARGETS if t[2] in names])
    try:
        plan = case_context.config.planning
        trace = outages.generate_outages(plan.saifi, plan.caidi,
                                         plan.years_per_period,
                                         stream(3, "bench-hooks"))
        fleets = [case_context.fleet_for(2, caps)
                  for caps in ((0.0,) * 4, (1000.0, 0.0, 300.0, 0.0))]
        for fleet in fleets:
            case_context.dispatcher.simulate(fleet, trace.starts[0],
                                             trace.durations[0])
    finally:
        tracer.uninstall()
    metrics = layers.layer_metrics(tracer.summary(), tracer.counts, 1)
    assert trace.total_hours() > 0
    assert metrics["outages.generate.calls"] == 1
    assert metrics["outages.outage_hours"] == trace.total_hours()
    assert metrics["dispatch.simulate.calls"] == 2
    assert tracer.counts["dispatch.hours"] == 2 * trace.durations[0]
    assert metrics["dispatch.us_per_outage_hour"] > 0
    assert metrics["dispatch.empty_fleet_share"] == 0.5
