"""Benchmark entry point: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload plan --seed 1729 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1729 --seconds 30

`--trace 0` repeats the workload's stage chain untraced for `--seconds` and
reports the end-to-end metrics of BENCHMARK.json per pass, from the run's
totals.
`--trace 1` alternates untraced and traced passes and reports the per-layer
metrics, tracing overhead included; `datagen` then runs `--threads 1`,
because pool workers return no spans. `all` runs every workload both ways in
child processes. Readable lines come first; the last line is one JSON object
with keys correct, attempted, failed and metrics. Spans and a result file with
the run context and artifact digests go under .bench_runs/; the artifacts
themselves are deleted when the run ends, except the plan dataset, kept in
.bench_runs/cache/ for the checkout's later runs.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("datagen", "plan", "evaluate")
RUNS = ROOT / ".bench_runs"


@dataclass
class Pass:
    wall: float
    cpu: float
    stage_wall: dict[str, float]
    call_wall: list[float]  # each CLI call of the chain, in order
    digests: dict[str, str]


@dataclass
class Tally:
    """Stage calls and output checks attempted, and which failed."""

    attempted: int = 0
    failed: list[str] = field(default_factory=list)
    checks: dict[str, list[bool]] = field(default_factory=dict)

    def record(self, name: str, ok: bool) -> None:
        self.attempted += 1
        self.checks.setdefault(name, []).append(ok)
        if not ok:
            self.failed.append(name)


def call_cli(argv: list[str]) -> int:
    """Run one CLI stage in-process; its output is kept off the result."""
    from storeplan import cli
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 1
    if code != 0:
        print(f"stage {' '.join(argv)} exited {code}:\n{err.getvalue()}",
              file=sys.stderr)
    return code


def cpu_seconds() -> float:
    """CPU of this process plus every child it has waited for (pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def digests(directory: Path) -> dict[str, str]:
    """sha256 of every artifact except manifest.json, which holds timestamps."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())
            if p.is_file() and p.name != "manifest.json"}


def run_pass(wl, out: Path, threads: int, tally: Tally, tracer=None) -> Pass:
    shutil.rmtree(out, ignore_errors=True)
    stage_wall: dict[str, float] = {}
    call_wall: list[float] = []
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    for argv in wl.chain(out, threads):
        stage = argv[0]
        ts = time.perf_counter()
        with tracer.span(f"cli.{stage}") if tracer else nullcontext():
            code = call_cli(argv)
        call_wall.append(time.perf_counter() - ts)
        stage_wall[stage] = stage_wall.get(stage, 0.0) + call_wall[-1]
        tally.record(f"stage {stage}", code == 0)
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    for name, ok in guarded_checks(wl, out):
        tally.record(name, ok)
    return Pass(wall=wall, cpu=cpu, stage_wall=stage_wall, call_wall=call_wall,
                digests=digests(out) if out.is_dir() else {})


def guarded_checks(wl, out: Path) -> list[tuple[str, bool]]:
    try:
        return wl.check(out)
    except Exception:  # a missing or malformed artifact fails the pass
        traceback.print_exc()
        return [("artifacts_readable", False)]


def identical(passes: list[Pass]) -> bool:
    return all(p.digests == passes[0].digests for p in passes)


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child it has waited for."""
    return sum(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def setup_seconds(workload: str, probes: int) -> list[float]:
    samples = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), workload],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def timed_run(wl, seconds: float, threads: int, tally: Tally):
    out = wl.work / "pass"
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(wl, out, threads, tally))
        elapsed = time.perf_counter() - start
        if (len(passes) >= wl.scale.min_passes
                and elapsed + passes[-1].wall > seconds):
            break
    peak = peak_rss_mb()
    tally.record("rerun_byte_identical", identical(passes))
    # Totals over the run, not per-pass medians: on a shared 2-vCPU VM, other
    # tenants slow identical passes by up to 2x in phases of 10-30 s, and a
    # median of 3-20 passes jumps between the slow and the fast level where
    # a total moves in proportion to the slow share of the run.
    n = len(passes)
    values = {
        "wall_s": sum(p.wall for p in passes) / n,
        "cpu_s": sum(p.cpu for p in passes) / n,
        "peak_rss_mb": peak,
        "work_per_s": n * wl.units() / sum(p.stage_wall[wl.unit_stage]
                                           for p in passes),
    }
    return values, passes


def traced_run(wl, seconds: float, threads: int, tally: Tally):
    from layers import TARGETS, layer_metrics
    from tracer import Tracer

    out = wl.work / "pass"
    tracer = Tracer()
    serial = 1 if wl.name == "datagen" else threads
    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(wl, out, serial, tally))
        tracer.current_pass = len(traced)
        tracer.install(TARGETS)
        try:
            traced.append(run_pass(wl, out, serial, tally, tracer))
        finally:
            tracer.uninstall()
        elapsed = time.perf_counter() - start
        if elapsed + untraced[-1].wall + traced[-1].wall > seconds:
            break
    passes = untraced + traced
    tally.record("traced_output_matches_untraced", identical(passes))
    if wl.name == "datagen":
        threaded = run_pass(wl, out, threads, tally)
        tally.record("threaded_matches_serial", identical([traced[0], threaded]))
        passes.append(threaded)
    tracer.dump(wl.work / "trace")
    values = layer_metrics(tracer.summary(), tracer.counts, len(traced))
    values["trace.overhead_pct"] = 100.0 * (
        sum(p.wall for p in traced) / sum(p.wall for p in untraced) - 1.0)
    return values, passes


def git_commit() -> str:
    """HEAD of the checkout's own .git, or "unknown" outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def run_context(args, threads: int, passes: list[Pass], scale) -> dict:
    import numpy as np
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "repeats": len(passes), "nproc": len(os.sched_getaffinity(0)),
            "threads": 1 if args.trace and args.workload == "datagen" else threads,
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": git_commit(), "src_lines": src_lines,
            "scale": asdict(scale)}


def plan_outputs(wl, tally: Tally) -> dict[str, float]:
    """What the plan workload produced, read after timing.

    The scenario-1 plan and never-invest are scored at fixed trials and seed.
    """
    from storeplan.metamodel import load_forest
    from workloads import read_evaluation

    last = wl.work / "pass"
    out = wl.work / "plan_cost"
    for argv in wl.plan_cost_chain(last / "policy_1.csv", out):
        tally.record("stage evaluate", call_cli(argv) == 0)
    plan = read_evaluation(out / "evaluation_policy_1.csv")
    never = read_evaluation(out / "evaluation_never-invest_1.csv")
    tally.record("plan_cost_stderr_finite",
                 all(math.isfinite(v["stderr"]) for v in (plan, never)))
    tally.record("plan_beats_never_invest",
                 plan["mean_total_cost"] < never["mean_total_cost"])
    return {"metamodel.surrogate_r2": load_forest(last / "forest.json").r2_test,
            "policy.plan_cost_usd": plan["mean_total_cost"],
            "qlearn.qtable_bytes": float((last / "qtable.jsonl").stat().st_size)}


def run_workload(args, scale) -> dict:
    from storeplan.mdp import count_states_reachable
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOADS[args.workload](ROOT, args.seed, scale, work)
    tally = Tally()
    wl.prepare(lambda argv: tally.record(f"stage {argv[0]}", call_cli(argv) == 0))
    threads = min(2, len(os.sched_getaffinity(0)))
    measure = traced_run if args.trace else timed_run
    values, passes = measure(wl, args.seconds, threads, tally)
    outputs = plan_outputs(wl, tally) if wl.name == "plan" else {
        "metamodel.surrogate_r2": 0.0, "policy.plan_cost_usd": 0.0,
        "qlearn.qtable_bytes": 0.0}
    if args.trace:
        values.update(outputs)
        values["qlearn.coverage"] = values["qlearn.states_visited"] / (
            count_states_reachable(wl.config.planning, wl.config.storage))
        names = spec["per_layer"]
    else:
        values["setup_s"] = median(setup_seconds(wl.name, scale.setup_probes))
        names = spec["end_to_end"]

    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in names}
    context = run_context(args, threads, passes, scale)
    result = {"context": context, "metrics": metrics, "outputs": outputs,
              "checks": tally.checks, "failed": tally.failed,
              "artifacts_sha256": passes[-1].digests,
              "passes": [{"wall_s": p.wall, "cpu_s": p.cpu,
                          "stage_wall_s": p.stage_wall,
                          "call_wall_s": p.call_wall} for p in passes]}
    (RUNS / "results").mkdir(parents=True, exist_ok=True)
    (RUNS / "results" / f"{work.name}.json").write_text(
        json.dumps(result, indent=2) + "\n")
    for artifacts in ("fixture", "pass", "plan_cost"):  # digests are kept
        shutil.rmtree(work / artifacts, ignore_errors=True)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes, threads={context['threads']}"
          + (" (traced datagen runs serially: pool workers return no spans)"
             if args.trace and wl.name == "datagen" else ""))
    print("context " + json.dumps(context))
    walls = sorted(p.wall for p in passes)
    print(f"pass wall_s: {len(walls)} passes, median {median(walls)!r}, "
          f"max {walls[-1]!r}")
    for name, ok in tally.checks.items():
        print(f"check {name}: {'pass' if all(ok) else 'FAIL'} "
              f"({sum(ok)}/{len(ok)})")
    for name, digest in passes[-1].digests.items():
        print(f"sha256 {name} {digest}")
    if wl.name == "plan":
        for name, value in outputs.items():
            print(f"output {name} = {value!r}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    print(f"error_rate = {len(tally.failed) / tally.attempted!r} "
          f"({len(tally.failed)}/{tally.attempted})")
    return {"correct": not tally.failed, "attempted": tally.attempted,
            "failed": len(tally.failed), "metrics": metrics}


def run_all(args) -> dict:
    """Every workload untraced then traced, each in its own interpreter."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise RuntimeError(f"{workload} trace={trace} exited "
                                   f"{proc.returncode}")
            print("\n".join(lines[:-1]))
            part = json.loads(lines[-1])
            total["correct"] = total["correct"] and part["correct"]
            total["attempted"] += part["attempted"]
            total["failed"] += part["failed"]
            for name, m in part["metrics"].items():
                total["metrics"][f"{workload}/{name}"] = m
    return total


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, scale=None) -> int:
    args = parse_args(argv)
    if not (SRC / "storeplan" / "cli.py").is_file():
        print(f"error: no storeplan sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from workloads import BENCH
        result = run_workload(args, scale or BENCH)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
