"""Smoke-size self-test of the benchmark entry point.

    python3 perfbench/selftest.py

Runs every workload untraced and traced at toy sizes, in-process, and checks
that the last line of each run names exactly the metrics BENCHMARK.json
declares for that mode, with their units, finite values, and no failed stage
call or output check. It also checks that a directory holding only the
benchmark refuses to run. Exits 0 when all of that holds.
"""

from __future__ import annotations

import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))
from workloads import SMOKE  # noqa: E402  (imports storeplan from src/)


def last_json(text: str) -> dict:
    result = json.loads(text.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    return result


def check_run(workload: str, trace: int, spec: dict) -> list[str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", str(trace)], scale=SMOKE)
    result = last_json(buf.getvalue())
    declared = spec["per_layer" if trace else "end_to_end"]
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"error_rate {result['failed']}/{result['attempted']}")
    if list(result["metrics"]) != [m["name"] for m in declared]:
        problems.append("metric names differ from BENCHMARK.json")
    for m in declared:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not math.isfinite(got.get("value", math.nan)):
            problems.append(f"{m['name']}: {got}")
        elif not trace and got["value"] <= 0:
            problems.append(f"{m['name']} is not positive")
    return [f"{workload} trace={trace}: {p}" for p in problems]


def check_refuses_without_program() -> list[str]:
    run.RUNS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RUNS) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "plan",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["a checkout without the program did not fail cleanly"]
    return []


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = check_refuses_without_program()
    for workload in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            problems += check_run(workload, trace, spec)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
