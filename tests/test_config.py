"""Schema validation, synthetic series determinism, and the config digest."""

import numpy as np
import pytest

from storeplan.config import (HOURS_PER_YEAR, ConfigError, config_hash,
                              load_config, load_series, save_config,
                              synth_profile)


def write_doc(tmp_path, doc):
    import json
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_case_study_loads(case_config):
    assert case_config.planning.horizon_periods == 4
    assert len(case_config.storage) == 4
    assert len(case_config.facilities) == 3
    assert case_config.planning.expansion_levels_kwh == (300.0, 1000.0, 3000.0)


def test_unknown_top_level_key_rejected(tmp_path, tiny_config_doc):
    tiny_config_doc["extra"] = 1
    with pytest.raises(ConfigError, match="extra"):
        load_config(write_doc(tmp_path, tiny_config_doc))


def test_missing_section_rejected(tmp_path, tiny_config_doc):
    del tiny_config_doc["rl"]
    with pytest.raises(ConfigError):
        load_config(write_doc(tmp_path, tiny_config_doc))


def test_unknown_storage_key_rejected(tmp_path, tiny_config_doc):
    tiny_config_doc["storage"][0]["cycle_life"] = 5_000
    with pytest.raises(ConfigError, match="cycle_life"):
        load_config(write_doc(tmp_path, tiny_config_doc))


def test_schedule_length_must_match_horizon(tmp_path, tiny_config_doc):
    tiny_config_doc["storage"][0]["price_schedule"] = [420, 310]
    with pytest.raises(ConfigError):
        load_config(write_doc(tmp_path, tiny_config_doc))


def test_advance_prob_bounds_checked(tmp_path, tiny_config_doc):
    tiny_config_doc["storage"][0]["advance_prob_schedule"] = [0.7, 0.7, 0.7, 1.5]
    with pytest.raises(ConfigError):
        load_config(write_doc(tmp_path, tiny_config_doc))


def test_facility_profile_must_have_series(tmp_path, tiny_config_doc):
    tiny_config_doc["facilities"][0]["profile"] = "warehouse"
    with pytest.raises(ConfigError, match="warehouse"):
        load_config(write_doc(tmp_path, tiny_config_doc))


def test_negative_seed_rejected(tmp_path, tiny_config_doc):
    tiny_config_doc["seed"] = -1
    with pytest.raises(ConfigError):
        load_config(write_doc(tmp_path, tiny_config_doc))


def test_synth_profile_is_deterministic():
    a = synth_profile("demand", 1729, mean=500.0, label="hospital")
    b = synth_profile("demand", 1729, mean=500.0, label="hospital")
    assert np.array_equal(a.values, b.values)


def test_synth_profiles_differ_by_label():
    a = synth_profile("demand", 1729, mean=500.0, label="hospital")
    b = synth_profile("demand", 1729, mean=500.0, label="school")
    assert not np.array_equal(a.values, b.values)


def test_synth_demand_hits_requested_mean():
    series = synth_profile("demand", 3, mean=500.0, label="x")
    assert series.values.mean() == pytest.approx(500.0, rel=0.02)
    assert series.values.min() > 0


def test_synth_wind_and_irradiance_nonnegative():
    wind = synth_profile("wind", 3, mean=3.0, label="w")
    sun = synth_profile("irradiance", 3, label="s")
    assert wind.values.min() >= 0
    assert sun.values.min() >= 0
    assert len(sun.values) == HOURS_PER_YEAR


def test_irradiance_dark_at_night():
    sun = synth_profile("irradiance", 3, label="s")
    # midnight of day 10
    assert sun.values[9 * 24] == 0.0


def test_load_series_round_trip(tmp_path):
    values = np.linspace(0.0, 10.0, HOURS_PER_YEAR)
    path = tmp_path / "series.csv"
    with open(path, "w") as fh:
        fh.write("hour,value\n")
        for i, v in enumerate(values):
            fh.write(f"{i},{float(v)!r}\n")
    series = load_series(path, "demand")
    assert np.array_equal(series.values, values)


def test_load_series_rejects_short_file(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("hour,value\n0,1.0\n")
    with pytest.raises(ConfigError, match="8760"):
        load_series(path, "demand")


def test_load_series_rejects_negative(tmp_path):
    path = tmp_path / "neg.csv"
    with open(path, "w") as fh:
        fh.write("hour,value\n")
        for i in range(HOURS_PER_YEAR):
            fh.write(f"{i},{-1.0 if i == 7 else 1.0}\n")
    with pytest.raises(ConfigError, match="negative"):
        load_series(path, "demand")


def test_config_hash_stable_across_loads(tmp_path, case_config):
    again = load_config("configs/case_study.json")
    assert config_hash(case_config) == config_hash(again)


def test_config_hash_changes_with_content(tmp_path, tiny_config_doc):
    a = load_config(write_doc(tmp_path, tiny_config_doc))
    tiny_config_doc["seed"] += 1
    b = load_config(write_doc(tmp_path, tiny_config_doc))
    assert config_hash(a) != config_hash(b)


def test_save_config_round_trips(tmp_path, smoke_config):
    path = tmp_path / "saved.json"
    save_config(smoke_config, path)
    again = load_config(path)
    assert config_hash(again) == config_hash(smoke_config)
