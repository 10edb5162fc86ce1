"""The traced benchmark wraps storeplan functions by name; each must exist.

`perfbench/layers.py` lists them as (owner, attribute) pairs, and the tracer
looks each one up with `vars(owner)[attribute]`, so a rename or deletion in
`src/` would crash every traced run.
"""

import importlib.util

from conftest import REPO


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", REPO / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.TARGETS
    for owner, attr, span, _ in layers.TARGETS:
        assert callable(vars(owner).get(attr)), (
            f"{span}: {owner.__name__}.{attr} no longer exists")
