"""The seed sweep script runs each seed-drawn criterion over a seed range
and writes its pass rate and quantiles to JSON."""

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
    assert set(got["criteria"]) == {"criterion_02_outage_statistics",
                                    "criterion_05_surrogate_quality"}
    stats = {"criterion_02_outage_statistics": {"mean_duration_h",
                                                "outages_per_year"},
             "criterion_05_surrogate_quality": {"desk_r2"}}
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
