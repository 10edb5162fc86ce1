"""End-to-end command-line pipeline on a miniature run, plus exit codes.

The happy path chains every subcommand in one temporary directory with sizes
small enough to finish in seconds; the remaining tests poke the failure modes
that map to distinct exit codes.
"""

import json
import subprocess
import sys

import pytest

from conftest import CONFIGS

SMOKE = str(CONFIGS / "smoke.json")
CASE = str(CONFIGS / "case_study.json")


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "storeplan", *args],
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One tiny pipeline run shared by the assertions below."""
    out = tmp_path_factory.mktemp("pipeline")
    steps = [
        ("gen-data", "--config", SMOKE, "--observations", "30", "--trials",
         "2", "--out", str(out)),
        ("train-meta", "--dataset", str(out / "dataset.csv"), "--out",
         str(out)),
        ("solve", "--config", SMOKE, "--forest", str(out / "forest.json"),
         "--episodes", "3000", "--out", str(out)),
        ("policy", "--config", SMOKE, "--qtable", str(out / "qtable.jsonl"),
         "--scenario", "1", "--out", str(out)),
        ("evaluate", "--config", SMOKE, "--policy",
         str(out / "policy_1.csv"), "--trials", "5", "--out", str(out)),
        ("report", "--config", SMOKE, "--run-dir", str(out),
         "--histogram-years", "50", "--out", str(out / "report")),
    ]
    for step in steps:
        proc = run_cli(*step)
        assert proc.returncode == 0, f"{step[0]} failed:\n{proc.stderr}"
    return out


def test_pipeline_produces_artifacts(pipeline_dir):
    for name in ("dataset.csv", "forest.json", "qtable.jsonl",
                 "learning_curve.csv", "policy_1.csv", "manifest.json"):
        assert (pipeline_dir / name).exists()
    report = pipeline_dir / "report"
    for name in ("learning_curve.csv", "policy_1.csv", "cost_surface.csv",
                 "duration_histogram.csv"):
        assert (report / name).exists()


def test_manifest_records_every_stage(pipeline_dir):
    manifest = json.loads((pipeline_dir / "manifest.json").read_text())
    stages = {entry["command"] for entry in manifest["artifacts"].values()}
    assert {"gen-data", "train-meta", "solve", "policy",
            "evaluate"} <= stages


def test_gen_data_rerun_is_byte_identical(pipeline_dir, tmp_path):
    proc = run_cli("gen-data", "--config", SMOKE, "--observations", "30",
                   "--trials", "2", "--out", str(tmp_path))
    assert proc.returncode == 0
    assert ((tmp_path / "dataset.csv").read_bytes()
            == (pipeline_dir / "dataset.csv").read_bytes())


def test_train_meta_rerun_is_byte_identical(pipeline_dir, tmp_path):
    proc = run_cli("train-meta", "--dataset",
                   str(pipeline_dir / "dataset.csv"), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert ((tmp_path / "forest.json").read_bytes()
            == (pipeline_dir / "forest.json").read_bytes())


def test_threaded_gen_data_matches_serial(pipeline_dir, tmp_path):
    proc = run_cli("gen-data", "--config", SMOKE, "--observations", "30",
                   "--trials", "2", "--threads", "3", "--out", str(tmp_path))
    assert proc.returncode == 0
    assert ((tmp_path / "dataset.csv").read_bytes()
            == (pipeline_dir / "dataset.csv").read_bytes())


def test_usage_error_exits_one():
    proc = run_cli("solve")  # missing required arguments
    assert proc.returncode == 1


def test_unknown_command_exits_one():
    proc = run_cli("frobnicate")
    assert proc.returncode == 1


def test_invalid_config_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    doc = json.loads((CONFIGS / "smoke.json").read_text())
    doc["planning"]["saifi"] = -2
    bad.write_text(json.dumps(doc))
    proc = run_cli("gen-data", "--config", str(bad), "--observations", "1",
                   "--trials", "1", "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "saifi" in proc.stderr


def test_tampered_policy_exits_two(pipeline_dir, tmp_path):
    # the last period's cumulative capacity no longer sums its actions
    lines = (pipeline_dir / "policy_1.csv").read_text().splitlines()
    last = max(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    cells = lines[last].split(",")
    cells[-1] = str(float(cells[-1]) + 300.0)
    lines[last] = ",".join(cells)
    bad = tmp_path / "policy_1.csv"
    bad.write_text("\n".join(lines) + "\n")
    proc = run_cli("evaluate", "--config", SMOKE, "--policy", str(bad),
                   "--trials", "2", "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "running sum" in proc.stderr


def test_dataset_without_sidecar_exits_two(pipeline_dir, tmp_path):
    # the fit settings and schedules live only in the sidecar
    data = tmp_path / "dataset.csv"
    data.write_bytes((pipeline_dir / "dataset.csv").read_bytes())
    proc = run_cli("train-meta", "--dataset", str(data), "--out",
                   str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "dataset.meta.json" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_dataset_too_small_to_hold_out_exits_two(tmp_path):
    # round(0.8 * 2) keeps both rows for training and none for R^2
    proc = run_cli("gen-data", "--config", SMOKE, "--observations", "2",
                   "--trials", "1", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("train-meta", "--dataset", str(tmp_path / "dataset.csv"),
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "held-out split is empty" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_single_held_out_row_exits_two(tmp_path):
    # round(0.8 * 3) holds out one row, whose R^2 is undefined (NaN)
    proc = run_cli("gen-data", "--config", SMOKE, "--observations", "3",
                   "--trials", "1", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("train-meta", "--dataset", str(tmp_path / "dataset.csv"),
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "over 1 held-out row" in proc.stderr
    assert not (tmp_path / "out" / "forest.json").exists()


@pytest.mark.parametrize("stage, sizes", [
    ("gen-data", ("--observations", "0", "--trials", "2")),
    ("gen-data", ("--observations", "2", "--trials", "0")),
    ("solve", ("--episodes", "0")),
])
def test_zero_size_exits_two(pipeline_dir, tmp_path, stage, sizes):
    # zero is a size to reject, not a request for the config's size
    forest = (("--forest", str(pipeline_dir / "forest.json"))
              if stage == "solve" else ())
    proc = run_cli(stage, "--config", SMOKE, *forest, *sizes,
                   "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "must be positive" in proc.stderr
    assert not any(tmp_path.iterdir())


def test_mismatched_forest_exits_three(pipeline_dir, tmp_path):
    # the smoke-trained forest must be rejected under the case-study config
    proc = run_cli("solve", "--config", CASE, "--forest",
                   str(pipeline_dir / "forest.json"), "--episodes", "10",
                   "--out", str(tmp_path))
    assert proc.returncode == 3
    assert "configuration" in proc.stderr.lower()


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert "storeplan" in proc.stdout


def test_train_meta_takes_fit_settings_from_the_config(pipeline_dir, tmp_path):
    # smoke.json asks for 3 trees; gen-data records that next to the dataset
    proc = run_cli("train-meta", "--dataset", str(pipeline_dir / "dataset.csv"),
                   "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "forest.json").read_text())
    assert doc["format"] == "storeplan-forest-v2"
    assert len(doc["trees"]) == 3
    assert doc["params"]["min_leaf"] == 2
