"""The seed sweep script runs each seed-drawn criterion over a seed range
and writes its pass rate and quantiles to JSON; criteria 9 and 10 train a
plan per seed, so this takes about ten seconds."""

import json
import subprocess
import sys

from conftest import REPO


def test_sweep_writes_pass_rates_and_quantiles(tmp_path):
    out = tmp_path / "sweep.json"
    subprocess.run(
        [sys.executable, str(REPO / "scripts" / "seed_sweep.py"),
         "--seeds", "3", "4", "--out", str(out)],
        check=True, capture_output=True, text=True)
    got = json.loads(out.read_text())
    assert got["config"] == "configs/case_study.json"
    assert (got["first_seed"], got["last_seed"]) == (3, 4)
    stats = {"criterion_02_outage_statistics": {"mean_duration_h",
                                                "outages_per_year"},
             "criterion_05_surrogate_quality": {"desk_r2"},
             "criterion_09_policy_shape": {"flywheel_steps", "period_1_noop"},
             "criterion_10_policy_beats_never_invest": {"saving_usd"}}
    assert set(got["criteria"]) == set(stats)
    for name, crit in got["criteria"].items():
        assert set(crit) == {"seeds", "passed", "pass_rate", "statistics"}
        assert crit["seeds"] == 2 and 0 <= crit["passed"] <= 2
        assert crit["pass_rate"] == crit["passed"] / 2
        assert set(crit["statistics"]) == stats[name]
        for stat in crit["statistics"].values():
            assert set(stat) == {"band", "quantiles", "values"}
            assert list(stat["quantiles"]) == ["5", "25", "50", "75", "95"]
            assert len(stat["values"]) == 2
    # seed 3 is the seed criterion 2's test passes at
    short = got["criteria"]["criterion_02_outage_statistics"]["statistics"]
    for stat in short.values():
        low, high = stat["band"]
        assert low <= stat["values"][0] <= high
    # criterion 9's asserts are counts against 0 and a flag against 1, and
    # criterion 10 asks for a strictly positive saving
    shape = got["criteria"]["criterion_09_policy_shape"]["statistics"]
    assert shape["flywheel_steps"]["band"] == [None, 0]
    assert shape["period_1_noop"]["band"] == [1, None]
    assert set(shape["period_1_noop"]["values"]) <= {0.0, 1.0}
    assert all(v >= 0 for v in shape["flywheel_steps"]["values"])
    beats = got["criteria"]["criterion_10_policy_beats_never_invest"]
    assert beats["statistics"]["saving_usd"]["band"] == [5e-324, None]
    assert beats["passed"] == sum(
        v > 0 for v in beats["statistics"]["saving_usd"]["values"])
