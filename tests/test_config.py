"""Schema validation, synthetic series determinism, and the config digest."""

import json
import math
import re
import warnings

import numpy as np
import pytest

from conftest import CONFIGS
from storeplan.config import (DEFAULT_SYNTH_MEAN, HOURS_PER_YEAR,
                              ConfigError, HourlySeries, config_hash,
                              load_config, load_series, synth_profile,
                              to_document)
from storeplan.rng import stream

NAN, INF = math.nan, math.inf
HUGE = 10**400  # a JSON integer past the float range


def write_doc(tmp_path, doc):
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


@pytest.mark.parametrize("key, value", [
    ("features_per_split", 0), ("features_per_split", 4),
    ("train_fraction", 1.0),
])
def test_metamodel_fit_bounds_checked(tmp_path, tiny_config_doc, key, value):
    # the forest splits on three features (period, S_d, S_c), so at most
    # three can be drawn per split; the test split must not be empty
    tiny_config_doc["metamodel"][key] = value
    with pytest.raises(ConfigError, match=f"metamodel.{key}"):
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


def reference_profile(kind, seed, mean=None, label=""):
    """`synth_profile`'s values computed over the full year, hour by hour:
    the formula `synth_profile` evaluates on day and hour grids."""
    if mean is None:
        mean = DEFAULT_SYNTH_MEAN[kind]
    rng = stream(seed, f"synth:{kind}:{label}")
    hours = np.arange(HOURS_PER_YEAR)
    hod = hours % 24
    doy = (hours // 24) % 365
    if kind == "demand":
        values = (1.0
                  + 0.25 * np.cos(2 * np.pi * (hod - 17) / 24)
                  + 0.10 * np.cos(2 * np.pi * (doy - 200) / 365)
                  + rng.uniform(-0.08, 0.08, HOURS_PER_YEAR))
        values = np.maximum(values, 0.05)
    elif kind == "wind":
        values = (1.0
                  + 0.22 * np.cos(2 * np.pi * (doy - 15) / 365)
                  + 0.12 * np.cos(2 * np.pi * (hod - 15) / 24))
        values = values * (mean if mean else 1.0)
        values = values + rng.uniform(-1.8, 1.8, HOURS_PER_YEAR)
        values = np.maximum(values, 0.0)
    else:
        daylen = 12 + 3 * np.cos(2 * np.pi * (doy - 172) / 365)
        elevation = np.cos(np.pi * (hod - 12) / daylen)
        elevation[np.abs(hod - 12) >= daylen / 2] = 0.0
        season = 0.75 + 0.25 * np.cos(2 * np.pi * (doy - 172) / 365)
        cloud = 1.0 - 0.45 * rng.uniform(0.0, 1.0, HOURS_PER_YEAR) ** 2
        values = np.maximum(elevation, 0.0) * season * cloud
    if mean is not None:
        actual = values.mean()
        if actual > 0:
            values = values * (mean / actual)
    return values


@pytest.mark.parametrize("kind", ["demand", "irradiance", "wind"])
@pytest.mark.parametrize("mean", [None, 0.4, 6.5, 500.0])
def test_grid_synthesis_matches_full_year_formula(kind, mean):
    # every config's series, and so every artifact, is built on these bits
    for seed in (0, 3, 1729, 2**40 + 7):
        for label in ("", "hospital", "wind"):
            got = synth_profile(kind, seed, mean=mean, label=label).values
            want = reference_profile(kind, seed, mean, label)
            assert got.tobytes() == want.tobytes(), (seed, label)


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


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400"])
def test_load_series_rejects_non_finite(tmp_path, text):
    path = tmp_path / "bad.csv"
    with open(path, "w") as fh:
        fh.write("hour,value\n")
        for i in range(HOURS_PER_YEAR):
            fh.write(f"{i},{text if i == 7 else 1.0}\n")
    with pytest.raises(ConfigError,
                       match=re.escape(f"row 7: non-finite value {text}")):
        load_series(path, "demand")


@pytest.mark.parametrize("row", ["7.5,1.0", "7,abc"])
def test_load_series_rejects_unparsable_row_naming_it(tmp_path, row):
    """A non-integer hour, or a value that is not a number."""
    path = tmp_path / "bad.csv"
    with open(path, "w") as fh:
        fh.write("hour,value\n")
        for i in range(HOURS_PER_YEAR):
            fh.write(f"{row}\n" if i == 7 else f"{i},1.0\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}: row 7: ")):
        load_series(path, "demand")


@pytest.mark.parametrize("value", [NAN, INF])
def test_series_rejects_non_finite_values(value):
    values = np.ones(HOURS_PER_YEAR)
    values[100] = value
    with pytest.raises(ConfigError, match="wind series: non-finite value"):
        HourlySeries(values=values, kind="wind")


def test_config_hash_stable_across_loads(tmp_path, case_config):
    again = load_config("configs/case_study.json")
    assert config_hash(case_config) == config_hash(again)


def test_config_hash_changes_with_content(tmp_path, tiny_config_doc):
    a = load_config(write_doc(tmp_path, tiny_config_doc))
    tiny_config_doc["seed"] += 1
    b = load_config(write_doc(tmp_path, tiny_config_doc))
    assert config_hash(a) != config_hash(b)


def test_document_form_round_trips(tmp_path, smoke_config):
    path = tmp_path / "saved.json"
    path.write_text(json.dumps(to_document(smoke_config), indent=2))
    again = load_config(path)
    assert config_hash(again) == config_hash(smoke_config)


@pytest.mark.parametrize("name, digest", [
    ("case_study.json",
     "a9fe1180d165c6663cd14462aead1c566889b3ebc126d0c457d70c0d0248a9ff"),
    ("smoke.json",
     "f7ce3ba1d3101c0c2b7198e19153283e03bb54bcf3159a2445224bd85e93a686"),
])
def test_shipped_config_hash_is_pinned(name, digest):
    # every artifact of a run carries this digest; a parser or document
    # change that moves it orphans all of them
    assert config_hash(load_config(CONFIGS / name)) == digest


# Each config section, under the name its errors carry, and how to reach it.
SECTIONS = {
    "planning": lambda doc: doc["planning"],
    "planning.renewables": lambda doc: doc["planning"]["renewables"],
    "storage[1]": lambda doc: doc["storage"][1],
    "facilities[2]": lambda doc: doc["facilities"][2],
    "rl": lambda doc: doc["rl"],
    "metamodel": lambda doc: doc["metamodel"],
}


@pytest.mark.parametrize("where", SECTIONS)
def test_unknown_key_rejected_in_every_section(tmp_path, tiny_config_doc,
                                               where):
    SECTIONS[where](tiny_config_doc)["colour"] = "red"
    with pytest.raises(ConfigError,
                       match=re.escape(f"{where}: unknown key 'colour'")):
        load_config(write_doc(tmp_path, tiny_config_doc))


@pytest.mark.parametrize("where, key", [
    ("planning", "caidi"), ("planning", "renewables"),
    ("planning.renewables", "cut_in_ms"), ("storage[1]", "name"),
    ("storage[1]", "dod_schedule"), ("facilities[2]", "voll"),
    ("rl", "gamma"), ("rl", "episodes"), ("metamodel", "trials"),
])
def test_missing_required_key_rejected(tmp_path, tiny_config_doc, where, key):
    del SECTIONS[where](tiny_config_doc)[key]
    with pytest.raises(ConfigError,
                       match=re.escape(f"{where}: missing key '{key}'")):
        load_config(write_doc(tmp_path, tiny_config_doc))


@pytest.mark.parametrize("where, key, default", [
    ("planning.renewables", "wind_exponent", 3),
    ("rl", "alpha_start", 1.0), ("rl", "epsilon_end", 0.02),
    ("metamodel", "trees", 10), ("metamodel", "train_fraction", 0.8),
    ("metamodel", "min_leaf", 2), ("metamodel", "max_depth", None),
    ("metamodel", "features_per_split", None),
])
def test_omitted_optional_key_takes_its_default(tmp_path, tiny_config_doc,
                                                where, key, default):
    SECTIONS[where](tiny_config_doc).pop(key, None)
    cfg = load_config(write_doc(tmp_path, tiny_config_doc))
    section = {"planning.renewables": cfg.planning.renewables,
               "rl": cfg.rl, "metamodel": cfg.metamodel}[where]
    assert getattr(section, key) == default
    assert type(getattr(section, key)) is type(default)


@pytest.mark.parametrize("where, key, value", [
    ("planning", "horizon_periods", "4"),
    ("planning", "saifi", None),
    ("planning", "expansion_levels_kwh", 300),
    ("planning", "renewables", [0.16]),
    ("planning.renewables", "panels", "many"),
    ("storage[1]", "name", 7),
    ("storage[1]", "price_schedule", [142, "115", 77, 65]),
    ("facilities[2]", "count", 2.5),
    ("rl", "episodes", True),
    ("metamodel", "trees", 2.5),
    ("metamodel", "max_depth", "deep"),
])
def test_wrongly_typed_value_rejected(tmp_path, tiny_config_doc, where, key,
                                      value):
    SECTIONS[where](tiny_config_doc)[key] = value
    with pytest.raises(ConfigError, match=re.escape(f"{where}.{key}")):
        load_config(write_doc(tmp_path, tiny_config_doc))


@pytest.mark.parametrize("where, key, value, named", [
    ("planning", "interest_rate", NAN, "planning.interest_rate"),
    ("planning", "saifi", NAN, "planning.saifi"),
    ("planning", "caidi", -INF, "planning.caidi"),
    pytest.param("planning", "caidi", HUGE, "planning.caidi",
                 id="planning-caidi-huge"),
    pytest.param("planning", "expansion_levels_kwh", [300, 1000, HUGE],
                 "planning.expansion_levels_kwh[2]",
                 id="planning-expansion_levels_kwh-huge"),
    ("planning.renewables", "eta_wind", NAN, "planning.renewables.eta_wind"),
    ("storage[1]", "price_schedule", [142, NAN, 77, 65],
     "storage[1].price_schedule[1]"),
    ("storage[1]", "lifetime_schedule", [10, 15, INF, 20],
     "storage[1].lifetime_schedule[2]"),
    ("facilities[2]", "voll", NAN, "facilities[2].voll"),
    ("rl", "gamma", NAN, "rl.gamma"),
])
def test_non_finite_value_rejected(tmp_path, tiny_config_doc, where, key,
                                   value, named):
    # json writes and reads these as NaN, Infinity and a 401-digit integer
    SECTIONS[where](tiny_config_doc)[key] = value
    with pytest.raises(ConfigError,
                       match=re.escape(f"{named}: expected a finite number")):
        load_config(write_doc(tmp_path, tiny_config_doc))


@pytest.mark.parametrize("label, entry", [
    ("wind", INF), ("wind", NAN), ("irradiance", -INF), ("school", NAN),
    pytest.param("hospital", HUGE, id="hospital-huge"),
])
def test_non_finite_synthetic_mean_rejected(tmp_path, tiny_config_doc,
                                            label, entry):
    series = tiny_config_doc["series"]
    (series["demand"] if label in series["demand"] else series)[label] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before numpy sees it
        with pytest.raises(ConfigError, match=re.escape(
                f"series.{label}: synthetic mean must be finite and > 0")):
            load_config(write_doc(tmp_path, tiny_config_doc))


def test_values_take_their_declared_type(smoke_config):
    # JSON integers in float fields become floats, except in the renewables,
    # whose numbers go in as written (the config hash depends on it)
    assert type(smoke_config.facilities[0].voll) is float
    assert smoke_config.planning.expansion_levels_kwh == (300.0, 1000.0,
                                                          3000.0)
    assert all(type(lv) is float
               for lv in smoke_config.planning.expansion_levels_kwh)
    assert type(smoke_config.planning.renewables.cut_in_ms) is int
