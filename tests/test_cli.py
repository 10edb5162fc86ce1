"""End-to-end command-line pipeline on a miniature run, plus exit codes.

The happy path chains every subcommand in one temporary directory with sizes
small enough to finish in seconds; the remaining tests poke the failure modes
that map to distinct exit codes.
"""

import csv
import hashlib
import json
import math
import shutil
import subprocess
import sys

import pytest

from storeplan import cli
from storeplan.config import HOURS_PER_YEAR, load_config
from storeplan.mdp import MdpEnv
from storeplan.metamodel import load_forest
from storeplan.qlearn import load_qtable, save_qtable

from conftest import CONFIGS
from test_qlearn import nan_first_q

SMOKE = str(CONFIGS / "smoke.json")
CASE = str(CONFIGS / "case_study.json")


def run_cli(*args, timeout=None):
    return subprocess.run([sys.executable, "-m", "storeplan", *args],
                          capture_output=True, text=True, timeout=timeout)


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
         "--out", str(out / "report")),
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


def test_manifest_entries_carry_stage_times(pipeline_dir):
    entries = [(where, entry)
               for where in (pipeline_dir, pipeline_dir / "report")
               for entry in json.loads((where / "manifest.json").read_text())
               ["artifacts"].values()]
    assert {entry["command"] for _, entry in entries} == {
        "gen-data", "train-meta", "solve", "policy", "evaluate", "report"}
    for where, entry in entries:
        for key in ("wall_s", "cpu_s"):
            value = entry[key]
            assert type(value) is float and math.isfinite(value), entry
            assert value >= 0.0, entry
        digest = hashlib.sha256((where / entry["path"]).read_bytes())
        assert entry["sha256"] == digest.hexdigest(), entry


def test_solve_records_its_exact_dp_check(pipeline_dir):
    """The q-table's entry holds the coverage and the exact DP check that
    `solve` prints: the optimum, the learned policy's value and the gap."""
    entry = json.loads((pipeline_dir / "manifest.json").read_text())[
        "artifacts"]["qtable"]
    quality = entry["quality"]
    assert sorted(quality) == ["dp_optimum", "gap", "learned_value",
                               "states_reachable", "states_visited"]
    assert all(type(v) in (int, float) and math.isfinite(v)
               for v in quality.values()), quality
    assert 0 < quality["states_visited"] <= quality["states_reachable"]
    assert quality["gap"] == quality["dp_optimum"] - quality["learned_value"]
    assert quality["gap"] >= 0.0


def test_qtable_read_back_and_saved_again_is_byte_identical(pipeline_dir,
                                                           tmp_path):
    cfg = load_config(SMOKE)
    env = MdpEnv(cfg.planning, cfg.storage,
                 outage_cost=lambda rows: [0.0] * len(rows))
    original = pipeline_dir / "qtable.jsonl"
    qtable, header = load_qtable(original, env)
    run = {key: header[key] for key in ("episodes", "gamma", "seed")}
    save_qtable(qtable, tmp_path / "again.jsonl", header["config_hash"], run)
    assert (tmp_path / "again.jsonl").read_bytes() == original.read_bytes()


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


def test_cached_parser_is_reentrant():
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    policy = ["policy", "--config", SMOKE, "--qtable", "q.jsonl", "--out", "o"]
    first = parser.parse_args([*policy, "--scenario", "1", "--scenario", "2"])
    assert first.scenario == ["1", "2"]
    assert parser.parse_args([*policy, "--scenario", "3"]).scenario == ["3"]
    evaluate = ["evaluate", "--config", SMOKE, "--policy", "never-invest",
                "--out", "o"]
    assert parser.parse_args([*evaluate, "--seed", "9"]).seed == 9
    assert parser.parse_args(evaluate).seed is None
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve"])  # missing required arguments
    assert exc.value.code == 1


def test_stages_run_in_turn_write_what_they_write_alone(pipeline_dir,
                                                        tmp_path):
    # one process and one parser; each stage writes the bytes that the
    # pipeline's own process for it wrote
    stages = {
        "gen-data": ["--config", SMOKE, "--observations", "30", "--trials",
                     "2"],
        "evaluate": ["--config", SMOKE, "--policy",
                     str(pipeline_dir / "policy_1.csv"), "--trials", "5"],
    }
    alone = json.loads((pipeline_dir / "manifest.json").read_text())
    for stage, args in stages.items():
        out = tmp_path / stage
        assert cli.main([stage, *args, "--out", str(out)]) == 0
        entries = json.loads((out / "manifest.json").read_text())["artifacts"]
        for name, entry in entries.items():
            assert entry["params"] == alone["artifacts"][name]["params"]
        written = sorted(p.name for p in out.iterdir()
                         if p.name != "manifest.json")
        assert written
        for name in written:
            assert ((out / name).read_bytes()
                    == (pipeline_dir / name).read_bytes()), name


def test_series_files_of_the_synthesized_values_give_the_same_dataset(
        tmp_path):
    """smoke.json with its five series written out as CSV files, values by
    repr, loads the same series bits, and gen-data writes the same
    dataset.csv; only the sidecar's config hash tells the two apart."""
    def series(cfg):
        return {**cfg.demand_profiles, "irradiance": cfg.irradiance,
                "wind": cfg.wind}

    synthesized = series(load_config(SMOKE))
    for label, hourly in synthesized.items():
        (tmp_path / f"{label}.csv").write_text("hour,value\n" + "".join(
            f"{i},{v!r}\n" for i, v in enumerate(hourly.values.tolist())))
    doc = json.loads((CONFIGS / "smoke.json").read_text())
    doc["series"] = {
        "demand": {label: f"{label}.csv" for label in doc["series"]["demand"]},
        "irradiance": "irradiance.csv", "wind": "wind.csv"}
    files = tmp_path / "files.json"
    files.write_text(json.dumps(doc))
    loaded = series(load_config(files))
    assert list(loaded) == list(synthesized)
    for label, hourly in loaded.items():
        assert (hourly.values.tobytes()
                == synthesized[label].values.tobytes()), label
    for name, config in (("synthesized", SMOKE), ("files", str(files))):
        assert cli.main(["gen-data", "--config", config, "--observations",
                         "8", "--trials", "3",
                         "--out", str(tmp_path / name)]) == 0
    assert ((tmp_path / "files" / "dataset.csv").read_bytes()
            == (tmp_path / "synthesized" / "dataset.csv").read_bytes())


def _nan_row_series(path):
    path.write_text("hour,value\n" + "".join(
        f"{i},{'nan' if i == 5 else 1.0}\n" for i in range(HOURS_PER_YEAR)))
    return path.name


NON_FINITE = {
    "planning.saifi": lambda doc, tmp: doc["planning"].update(saifi=math.nan),
    "series.wind": lambda doc, tmp: doc["series"].update(wind=math.inf),
    "school.csv: row 5": lambda doc, tmp: doc["series"]["demand"].update(
        school=_nan_row_series(tmp / "school.csv")),
}


@pytest.mark.parametrize("named", NON_FINITE)
def test_non_finite_config_value_exits_two(tmp_path, capsys, named):
    doc = json.loads((CONFIGS / "smoke.json").read_text())
    NON_FINITE[named](doc, tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))  # NaN and Infinity as json writes them
    assert cli.main(["evaluate", "--config", str(bad), "--policy",
                     "never-invest", "--trials", "1",
                     "--out", str(tmp_path / "out")]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_series_field_past_csv_limit_exits_two(tmp_path, capsys):
    """A series value longer than csv's field limit is a config error that
    names the file, not a traceback."""
    long_value = "0" * csv.field_size_limit() + "1"
    (tmp_path / "wind.csv").write_text("hour,value\n" + "".join(
        f"{i},{long_value if i == 7 else 1.0}\n"
        for i in range(HOURS_PER_YEAR)))
    doc = json.loads((CONFIGS / "smoke.json").read_text())
    doc["series"]["wind"] = "wind.csv"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["evaluate", "--config", str(bad), "--policy",
                     "never-invest", "--trials", "1",
                     "--out", str(tmp_path / "out")]) == 2
    assert "wind.csv: field larger than field limit" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("row", ["5", '{"n": 0, "q": 5, "visits": 5}'])
def test_malformed_qtable_row_exits_two(pipeline_dir, tmp_path, row):
    lines = (pipeline_dir / "qtable.jsonl").read_text().splitlines()
    lines[1] = row
    bad = tmp_path / "qtable.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    proc = run_cli("policy", "--config", SMOKE, "--qtable", str(bad),
                   "--scenario", "1", "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "line 2" in proc.stderr
    assert not (tmp_path / "policy_1.csv").exists()


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_qtable_value_exits_two_naming_file_and_line(
        pipeline_dir, tmp_path, value):
    lines = (pipeline_dir / "qtable.jsonl").read_text().splitlines()
    head, _, tail = lines[3].partition('"q": [')
    lines[3] = head + '"q": [' + value + ", " + tail.split(", ", 1)[1]
    bad = tmp_path / "qtable.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    proc = run_cli("policy", "--config", SMOKE, "--qtable", str(bad),
                   "--scenario", "1", "--out", str(tmp_path))
    assert proc.returncode == 2
    assert f"{bad}: line 4: 'q' entries must be finite" in proc.stderr
    assert not (tmp_path / "policy_1.csv").exists()


def test_tampered_qtable_in_its_run_directory_is_read_whole(pipeline_dir,
                                                            tmp_path):
    # the manifest's digest no longer matches, so every row is checked
    run = tmp_path / "run"
    run.mkdir()
    shutil.copy(pipeline_dir / "manifest.json", run)
    lines = (pipeline_dir / "qtable.jsonl").read_text().splitlines()
    lines[3] = nan_first_q(lines[3])
    bad = run / "qtable.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    proc = run_cli("policy", "--config", SMOKE, "--qtable", str(bad),
                   "--scenario", "1", "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert f"{bad}: line 4: 'q' entries must be finite" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_policy_of_a_qtable_copied_alone_writes_what_its_run_gives(
        pipeline_dir, tmp_path):
    # in its run directory the manifest's digest matches and rows are read
    # as the plans ask for them; alone, the file is read whole
    alone = tmp_path / "alone"
    alone.mkdir()
    shutil.copy(pipeline_dir / "qtable.jsonl", alone)
    stdout = []
    for qtable, out in ((pipeline_dir, tmp_path / "in-run"),
                        (alone, tmp_path / "copied")):
        proc = run_cli("policy", "--config", SMOKE, "--qtable",
                       str(qtable / "qtable.jsonl"), "--scenario", "1",
                       "--scenario", "2", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        stdout.append(proc.stdout.replace(str(out), "<out>"))
    assert stdout[0] == stdout[1]
    for name in ("policy_1.csv", "policy_2.csv"):
        assert ((tmp_path / "in-run" / name).read_bytes()
                == (tmp_path / "copied" / name).read_bytes())


@pytest.mark.parametrize("record, code", [
    ("the file's sha256", 0),
    ("no sha256", 2),
    ("the sha256 before the edit", 2),
    ("no qtable entry", 2),
    ("no manifest", 2),
])
def test_policy_trusts_unread_rows_only_under_the_recorded_sha256(
        pipeline_dir, tmp_path, monkeypatch, capsys, record, code):
    """A NaN in the row of a state that scenario 1's plan never asks for:
    only a manifest entry holding the edited file's own digest lets
    `policy` skip it; otherwise the whole file is read and refused."""
    asked = set()
    number = MdpEnv.number

    def spy(env, state):
        asked.add(n := number(env, state))
        return n

    monkeypatch.setattr(MdpEnv, "number", spy)
    assert cli.main(["policy", "--config", SMOKE, "--qtable",
                     str(pipeline_dir / "qtable.jsonl"), "--scenario", "1",
                     "--out", str(tmp_path / "first")]) == 0
    monkeypatch.undo()
    lines = (pipeline_dir / "qtable.jsonl").read_text().splitlines()
    i = next(i for i, line in enumerate(lines[1:], start=1)
             if json.loads(line)["n"] not in asked)
    lines[i] = nan_first_q(lines[i])
    run = tmp_path / "run"
    run.mkdir()
    bad = run / "qtable.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    manifest = json.loads((pipeline_dir / "manifest.json").read_text())
    entry = manifest["artifacts"]["qtable"]
    if record == "the file's sha256":
        entry["sha256"] = hashlib.sha256(bad.read_bytes()).hexdigest()
    elif record == "no sha256":
        del entry["sha256"]
    elif record == "no qtable entry":
        del manifest["artifacts"]["qtable"]
    if record != "no manifest":
        (run / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    out = tmp_path / "out"
    assert cli.main(["policy", "--config", SMOKE, "--qtable", str(bad),
                     "--scenario", "1", "--out", str(out)]) == code
    if code == 0:
        assert ((out / "policy_1.csv").read_bytes()
                == (tmp_path / "first" / "policy_1.csv").read_bytes())
    else:
        assert (f"{bad}: line {i + 1}: 'q' entries must be finite"
                in capsys.readouterr().err)
        assert not out.exists()


@pytest.mark.parametrize("key", ["dod", "efficiency"])
def test_forest_of_edited_schedules_exits_two(pipeline_dir, tmp_path, capsys,
                                              key):
    # the forest carries the config's hash, but its schedules came from
    # the sidecar, where one entry was changed
    data = tmp_path / "dataset.csv"
    shutil.copy(pipeline_dir / "dataset.csv", data)
    meta = json.loads((pipeline_dir / "dataset.meta.json").read_text())
    assert meta[key][0][0] != 0.1
    meta[key][0][0] = 0.1
    (tmp_path / "dataset.meta.json").write_text(json.dumps(meta))
    run = tmp_path / "run"
    assert cli.main(["train-meta", "--dataset", str(data),
                     "--out", str(run)]) == 0
    forest = run / "forest.json"
    assert load_forest(forest).config_digest == meta["config_hash"]
    capsys.readouterr()
    message = f"{forest}: {key!r} is not the config's {key}_schedule"
    assert cli.main(["solve", "--config", SMOKE, "--forest", str(forest),
                     "--episodes", "10", "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert cli.main(["report", "--config", SMOKE, "--run-dir", str(run),
                     "--out", str(tmp_path / "report")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("refusal, code", [("another config", 3),
                                           ("edited schedules", 2)])
def test_refused_report_adds_no_file_to_out(pipeline_dir, tmp_path, refusal,
                                            code):
    # the run's learning curve and plans are not copied before its forest
    # is checked
    config, run = SMOKE, pipeline_dir
    if refusal == "another config":
        config = CASE
    else:
        run = tmp_path / "run"
        run.mkdir()
        for name in ("learning_curve.csv", "policy_1.csv"):
            shutil.copy(pipeline_dir / name, run)
        doc = json.loads((pipeline_dir / "forest.json").read_text())
        doc["dod"][0][0] /= 2
        (run / "forest.json").write_text(json.dumps(doc))
    out = tmp_path / "report"
    out.mkdir()
    (out / "notes.txt").write_text("kept\n")
    proc = run_cli("report", "--config", config, "--run-dir", str(run),
                   "--out", str(out))
    assert proc.returncode == code, proc.stderr
    assert "forest.json" in proc.stderr
    assert [p.name for p in out.iterdir()] == ["notes.txt"]


def test_report_of_a_missing_run_directory_exits_two(tmp_path):
    # a mistyped run directory is refused, not reported as a run with no
    # forest, learning curve or plans
    run, out = tmp_path / "no-such-run", tmp_path / "report"
    proc = run_cli("report", "--config", SMOKE, "--run-dir", str(run),
                   "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert str(run) in proc.stderr
    assert not out.exists()


def test_report_into_its_run_directory_records_each_file_once(pipeline_dir,
                                                              tmp_path):
    """A report into its own run directory, named by another spelling of
    its path, leaves the run's learning curve and plans and their entries
    as their stages wrote them: each file has one manifest entry, and it
    names the command that wrote the file."""
    run = tmp_path / "run"
    shutil.copytree(pipeline_dir, run, ignore=shutil.ignore_patterns("report"))
    before = json.loads((run / "manifest.json").read_text())["artifacts"]
    assert cli.main(["report", "--config", SMOKE, "--run-dir", str(run),
                     "--out", str(run / ".." / "run")]) == 0
    after = json.loads((run / "manifest.json").read_text())["artifacts"]
    paths = [entry["path"] for entry in after.values()]
    assert len(paths) == len(set(paths)), paths
    command = {entry["path"]: entry["command"] for entry in after.values()}
    assert command["learning_curve.csv"] == "solve"
    assert command["policy_1.csv"] == "policy"
    assert command["cost_surface.csv"] == "report"
    assert command["duration_histogram.csv"] == "report"
    assert {name: after[name] for name in before} == before


def test_truncated_qtable_row_exits_two_naming_file_and_line(pipeline_dir,
                                                             tmp_path):
    # a row cut short is not JSON; the error points at the file's line 2,
    # not at a line and column inside that one row
    lines = (pipeline_dir / "qtable.jsonl").read_text().splitlines()
    lines[1] = lines[1][:len(lines[1]) // 2]
    bad = tmp_path / "qtable.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    proc = run_cli("policy", "--config", SMOKE, "--qtable", str(bad),
                   "--scenario", "1", "--out", str(tmp_path))
    assert proc.returncode == 2
    assert f"{bad}: line 2: not valid JSON" in proc.stderr
    assert not (tmp_path / "policy_1.csv").exists()


@pytest.mark.parametrize("artifact", ["qtable header", "forest", "sidecar",
                                      "scenarios"])
def test_artifact_that_is_not_json_exits_two_naming_the_file(
        pipeline_dir, tmp_path, artifact):
    out = tmp_path / "out"
    if artifact == "qtable header":
        path = tmp_path / "qtable.jsonl"
        rows = (pipeline_dir / "qtable.jsonl").read_text().splitlines()
        path.write_text("\n".join(["{format", *rows[1:]]) + "\n")
        where = "line 1"
        args = ("policy", "--config", SMOKE, "--qtable", str(path),
                "--scenario", "1")
    elif artifact == "forest":
        path = tmp_path / "forest.json"
        path.write_text('{"format": \n')
        where = "line 2 column 1"
        args = ("solve", "--config", SMOKE, "--forest", str(path),
                "--episodes", "10")
    elif artifact == "sidecar":
        data = tmp_path / "dataset.csv"
        data.write_bytes((pipeline_dir / "dataset.csv").read_bytes())
        path = tmp_path / "dataset.meta.json"
        text = (pipeline_dir / "dataset.meta.json").read_text()
        path.write_text(text.replace('"trials": ', '"trials" '))
        line = text[:text.index('"trials"')].count("\n") + 1
        where = f"line {line} column"
        args = ("train-meta", "--dataset", str(data))
    else:
        path = tmp_path / "scenarios.json"
        path.write_text('{"format": "storeplan-scenarios-v1",\n'
                        '"scenarios": {"1": }}\n')
        where = "line 2 column 20"
        args = ("policy", "--config", SMOKE, "--qtable",
                str(pipeline_dir / "qtable.jsonl"), "--scenario", "1",
                "--scenarios", str(path))
    proc = run_cli(*args, "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert f"{path}: {where}" in proc.stderr
    assert "not valid JSON" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("defect, match", [
    ("mistyped header", "'num_actions' must be an integer"),
    ("repeated state", "line 3: state"),
    ("unit count off the config", "line 1: header 'num_units' is 2"),
    ("unreachable state", "line 2: state {size} is not numbered under the "
                          "config"),
])
def test_bad_qtable_header_or_repeated_state_exits_two(pipeline_dir, tmp_path,
                                                       defect, match):
    header, *rows = (pipeline_dir / "qtable.jsonl").read_text().splitlines()
    doc = json.loads(header)
    cfg = load_config(SMOKE)
    size = MdpEnv(cfg.planning, cfg.storage, outage_cost=None).numbering[1]
    match = match.format(size=size)
    if defect == "mistyped header":
        doc["num_actions"] = str(doc["num_actions"])
    elif defect == "unit count off the config":
        doc["num_units"] = 2  # the smoke config has 4
    elif defect == "repeated state":
        rows[1] = rows[0]  # the count still matches the header's
    else:
        # the initial state's row, moved past the last state number
        row = json.loads(rows[0])
        assert row["n"] == 0
        row["n"] = size
        rows[0] = json.dumps(row)
    header = json.dumps(doc)
    bad = tmp_path / "qtable.jsonl"
    bad.write_text("\n".join([header, *rows]) + "\n")
    proc = run_cli("policy", "--config", SMOKE, "--qtable", str(bad),
                   "--scenario", "1", "--out", str(tmp_path))
    assert proc.returncode == 2
    assert match in proc.stderr
    assert not (tmp_path / "policy_1.csv").exists()


def test_name_keyed_qtable_exits_two_asking_to_solve_again(pipeline_dir,
                                                          tmp_path):
    """A table from before rows were keyed by state number: its header's
    format is v1, it has no numbering digest, and its rows name their
    states."""
    header, *rows = (pipeline_dir / "qtable.jsonl").read_text().splitlines()
    doc = json.loads(header)
    doc["format"] = "storeplan-qtable-v1"
    doc["states"] = 1
    del doc["numbering"]
    row = json.loads(rows[0])
    rows[0] = json.dumps({"state": "1,1,1,1,1,0,0,0,0", "q": row["q"],
                          "visits": row["visits"]})
    bad = tmp_path / "qtable.jsonl"
    bad.write_text("\n".join([json.dumps(doc), rows[0]]) + "\n")
    proc = run_cli("policy", "--config", SMOKE, "--qtable", str(bad),
                   "--scenario", "1", "--out", str(tmp_path))
    assert proc.returncode == 2
    assert f"{bad}: a v1 q-table" in proc.stderr
    assert "re-run solve" in proc.stderr
    assert not (tmp_path / "policy_1.csv").exists()


def test_non_object_forest_exits_two(pipeline_dir, tmp_path):
    """A non-object document, and a valid forest with one key of the wrong
    shape, each exit 2 naming the file and the key."""
    good = json.loads((pipeline_dir / "forest.json").read_text())
    forest = tmp_path / "forest.json"
    for key, value, match in [
            (None, [1], "a forest file holds a JSON object"),
            ("trees", 5, "'trees' must be a JSON list"),
            ("trees", [5], "'trees'[0] must be an object with list fields"),
            ("params", [], "'params' must be a JSON object"),
            ("num_features", "5", "'num_features' must be a JSON integer")]:
        doc = value if key is None else {**good, key: value}
        forest.write_text(json.dumps(doc) + "\n")
        proc = run_cli("solve", "--config", SMOKE, "--forest", str(forest),
                       "--episodes", "10", "--out", str(tmp_path / "out"))
        assert proc.returncode == 2, (key, proc.stderr)
        assert f"{forest}: {match}" in proc.stderr
        assert not (tmp_path / "out").exists()


def _tree(doc, **nodes):
    """Edit the first tree of a forest document: `nodes[field]` maps node
    indices to new entries."""
    tree = doc["trees"][0]
    assert tree["feature"][0] >= 0  # the root splits
    for field, entries in nodes.items():
        for j, value in entries.items():
            tree[field][j] = value


BROKEN_FORESTS = {
    "'trees' is empty": lambda doc: doc.update(trees=[]),
    "'train_indices' is missing": lambda doc: doc.pop("train_indices"),
    "'params' 'smoothing' must be a finite number >= 0":
        lambda doc: doc["params"].pop("smoothing"),
    "'dod' must be a list of equal-length rows of finite numbers":
        lambda doc: doc["dod"][0].append(1.0),
    "'trees'[0]: its lists feature, threshold, left, right, value must hold":
        lambda doc: doc["trees"][0]["value"].pop(),
    "'trees'[0] 'feature'[0] must be -1 (a leaf) or a column 0 to 2, got 7":
        lambda doc: _tree(doc, feature={0: 7}),
    "'trees'[0] 'feature'[0] must be -1 (a leaf) or a column 0 to 2, got -2":
        lambda doc: _tree(doc, feature={0: -2}),
    "'trees'[0] 'left'[0] is 99999; a child comes after its parent":
        lambda doc: _tree(doc, left={0: 99999}),
    "'trees'[0] 'right'[0] is 0; a child comes after its parent":
        lambda doc: _tree(doc, right={0: 0}),
    "'trees'[0]: every node but the root must be the child of exactly one":
        lambda doc: _tree(doc, right={0: doc["trees"][0]["left"][0]}),
    "'trees'[0] 'threshold' must hold finite numbers":
        lambda doc: _tree(doc, threshold={0: math.nan}),
    "'trees'[0] 'value' must hold finite numbers":
        lambda doc: _tree(doc, value={1: math.inf}),
    "'params' 'smoothing' must be a finite number >= 0, got -0.1":
        lambda doc: doc["params"].update(smoothing=-0.1),
}


@pytest.mark.parametrize("match", BROKEN_FORESTS)
def test_broken_forest_exits_two_naming_the_key(pipeline_dir, tmp_path,
                                                capsys, match):
    """A forest file whose trees could not have been grown, or that lacks
    a key the model reads, exits 2 naming the file and the key, before
    `solve` writes anything."""
    doc = json.loads((pipeline_dir / "forest.json").read_text())
    BROKEN_FORESTS[match](doc)
    forest = tmp_path / "forest.json"
    # NaN and Infinity as json writes them
    forest.write_text(json.dumps(doc) + "\n")
    assert cli.main(["solve", "--config", SMOKE, "--forest", str(forest),
                     "--episodes", "10", "--out", str(tmp_path / "out")]) == 2
    assert f"{forest}: {match}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, match", [
    ("[]\n", "a manifest holds a JSON object"),
    ('{"artifacts": []}\n', "a manifest holds a JSON object"),
    ('{"artifacts": {}\n', "line 2 column 1: not valid JSON"),
])
def test_bad_manifest_exits_two_naming_it(tmp_path, capsys, text, match):
    """A manifest that is not a JSON object holding an 'artifacts' object
    exits 2 naming it, before the stage writes its artifact."""
    manifest = tmp_path / "manifest.json"
    manifest.write_text(text)
    assert cli.main(["evaluate", "--config", SMOKE, "--policy",
                     "never-invest", "--trials", "1",
                     "--out", str(tmp_path)]) == 2
    assert f"{manifest}: {match}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]
    assert manifest.read_text() == text


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


@pytest.mark.parametrize("doc, match", [
    ([], "not a scenario file"),
    ({"format": "storeplan-scenarios-v1",
      "scenarios": {"1": {"advance": [1, 2]}}}, "scenario 1: 'advance'"),
    ({"format": "storeplan-scenarios-v1",
      "scenarios": {"1": {"advance": {"li_ion": 5}}}},
     "scenario 1: 'advance' 'li_ion'"),
])
def test_malformed_scenarios_exit_two(pipeline_dir, tmp_path, doc, match):
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("policy", "--config", SMOKE, "--qtable",
                   str(pipeline_dir / "qtable.jsonl"), "--scenario", "1",
                   "--scenarios", str(path), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert match in proc.stderr
    assert not (tmp_path / "out").exists()

def test_policy_takes_several_scenarios(pipeline_dir, tmp_path):
    # one call loads the q-table once and writes what separate calls write
    qtable = str(pipeline_dir / "qtable.jsonl")
    ids = ["3", "1", "2"]
    args = [a for sid in ids for a in ("--scenario", sid)]
    proc = run_cli("policy", "--config", SMOKE, "--qtable", qtable, *args,
                   "--out", str(tmp_path / "one"))
    assert proc.returncode == 0, proc.stderr
    stdout = []
    for sid in ids:
        single = run_cli("policy", "--config", SMOKE, "--qtable", qtable,
                         "--scenario", sid, "--out", str(tmp_path / "each"))
        assert single.returncode == 0, single.stderr
        stdout.append(single.stdout)
    assert proc.stdout == "".join(stdout).replace("/each/", "/one/")
    manifests = []
    for run in ("one", "each"):
        entries = json.loads(
            (tmp_path / run / "manifest.json").read_text())["artifacts"]
        for entry in entries.values():
            del entry["created"], entry["wall_s"], entry["cpu_s"]
        manifests.append(entries)
    assert manifests[0] == manifests[1]
    assert sorted(manifests[0]) == [f"policy_{sid}" for sid in "123"]
    for sid in ids:
        name = f"policy_{sid}.csv"
        assert ((tmp_path / "one" / name).read_bytes()
                == (tmp_path / "each" / name).read_bytes())


def test_policy_needs_no_outage_cost(pipeline_dir, tmp_path, monkeypatch):
    # policy and the never-invest baseline number the states without
    # tabulating the model, so refusing the tables changes no byte they write
    never = ["evaluate", "--config", SMOKE, "--policy", "never-invest",
             "--trials", "5", "--out"]
    assert cli.main([*never, str(tmp_path / "before")]) == 0

    def refuse(env):
        raise AssertionError("tabulated the model, asking for outage costs")

    monkeypatch.setattr(MdpEnv, "tables", property(refuse))
    out = tmp_path / "out"
    assert cli.main(["policy", "--config", SMOKE, "--qtable",
                     str(pipeline_dir / "qtable.jsonl"), "--scenario", "1",
                     "--out", str(out)]) == 0
    assert ((out / "policy_1.csv").read_bytes()
            == (pipeline_dir / "policy_1.csv").read_bytes())
    assert cli.main([*never, str(out)]) == 0
    name = "evaluation_never-invest_1.csv"
    assert ((out / name).read_bytes()
            == (tmp_path / "before" / name).read_bytes())


@pytest.mark.parametrize("ids, match", [
    (["1", "nine"], "unknown scenario 'nine'"),
    (["1", "2", "1"], "scenario '1' given twice"),
])
def test_policy_bad_scenario_list_writes_nothing(pipeline_dir, tmp_path, ids,
                                                 match):
    args = [a for sid in ids for a in ("--scenario", sid)]
    proc = run_cli("policy", "--config", SMOKE, "--qtable",
                   str(pipeline_dir / "qtable.jsonl"), *args,
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert match in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("stage, args", [
    ("gen-data", ("--observations", "3", "--trials", "2")),
    ("evaluate", ("--policy", "never-invest", "--trials", "5")),
])
def test_negative_seed_exits_two(tmp_path, stage, args):
    # splitting a negative seed into 32-bit words would never end
    proc = run_cli(stage, "--config", SMOKE, *args, "--seed", "-1",
                   "--out", str(tmp_path / "out"), timeout=120)
    assert proc.returncode == 2
    assert "non-negative" in proc.stderr
    assert not (tmp_path / "out").exists()


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
