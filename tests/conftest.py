import json
from pathlib import Path

import pytest

from storeplan import outages
from storeplan.config import load_config
from storeplan.simulate import SimulationContext

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"


def pointwise(cost):
    """An `MdpEnv` outage cost over rows of (period, capacity...), built from
    `cost(period, capacities)` of one point."""
    return lambda rows: [cost(int(row[0]), tuple(row[1:])) for row in rows]


def period_trace(ctx, rng):
    """One period's outage trace for `ctx`'s config, drawn from `rng`."""
    plan = ctx.config.planning
    return outages.generate_outages(plan.saifi, plan.caidi,
                                    plan.years_per_period, rng)


@pytest.fixture(scope="session")
def case_config():
    return load_config(CONFIGS / "case_study.json")


@pytest.fixture(scope="session")
def case_context(case_config):
    return SimulationContext(case_config)


@pytest.fixture(scope="session")
def smoke_config():
    return load_config(CONFIGS / "smoke.json")


@pytest.fixture()
def tiny_config_doc():
    """A minimal valid config document for mutation tests; two units, two classes."""
    return json.loads((CONFIGS / "smoke.json").read_text())
