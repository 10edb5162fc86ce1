"""Time one cold set-up in a fresh interpreter and print it in seconds.

    python3 perfbench/setup_probe.py <checkout root> <workload>

Set-up is what a stage pays before its first unit of work: importing the
package, `load_config` on the case study, and building the workload's
context (the simulation context, or the MDP for `plan`).
"""

import sys
import time

t0 = time.perf_counter()
root, workload = sys.argv[1], sys.argv[2]
sys.path.insert(0, f"{root}/src")

from storeplan import cli  # noqa: E402,F401  (imports every module)
from storeplan.config import load_config  # noqa: E402
from storeplan.mdp import MdpEnv  # noqa: E402
from storeplan.simulate import SimulationContext  # noqa: E402

cfg = load_config(f"{root}/configs/case_study.json")
if workload == "plan":
    MdpEnv(cfg.planning, cfg.storage, outage_cost=lambda k, caps: 0.0)
else:
    SimulationContext(cfg)
print(repr(time.perf_counter() - t0))
