"""Dataset sampling, tree growing, and forest serialization.

The training corpus here is tiny and synthetic: either a deterministic grid
with a known target function or a handful of simulated rows from the smoke
configuration. The forest's statistical quality on the real problem is covered
by the acceptance suite; these tests pin down the mechanics.
"""

import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from storeplan import metamodel
from storeplan.config import IncompatibleArtifact, MetamodelParams
from storeplan.metamodel import (FIT_KEYS, SMOOTHING_GRID, SyntheticDataset,
                                 dataset_row, generate_dataset, load_forest,
                                 r_squared, reachable_capacity_values,
                                 read_dataset, save_forest, train_forest,
                                 write_dataset)
from storeplan.rng import stream
from storeplan.simulate import SimulationContext

DEFAULT_FIT = {key: getattr(MetamodelParams(observations=1, trials=1), key)
               for key in FIT_KEYS}


def grid_dataset(fn, n=200, seed=0, units=2, **fit):
    """Deterministic dataset over a lattice, cost = fn(period, caps).

    dod and efficiency are 1 in all four periods, so S_d = S_c = the total
    kWh; `fit` overrides the config's default fit settings.
    """
    rng = np.random.default_rng(seed)
    period = rng.integers(1, 5, size=n)
    caps = rng.choice([0.0, 300.0, 1000.0, 3000.0], size=(n, units))
    cost = np.array([fn(int(k), c) for k, c in zip(period, caps)])
    return SyntheticDataset(period=period, capacity=caps, cost=cost,
                            trials=1, master_seed=seed, config_digest="d" * 8,
                            dod=np.ones((4, units)),
                            efficiency=np.ones((4, units)),
                            fit_params={**DEFAULT_FIT, **fit})


def raw_rows(ds):
    """The (period, capacity...) rows the forest is queried with."""
    return np.column_stack([ds.period, ds.capacity])


def test_reachable_values_for_case_levels():
    values = reachable_capacity_values((300.0, 1000.0, 3000.0), 3)
    assert len(values) == 19
    assert values[0] == 0.0
    assert values[-1] == 9000.0
    assert 4300.0 in values  # 300 + 1000 + 3000
    assert 2300.0 in values  # 300 + 1000 + 1000
    assert all(a < b for a, b in zip(values, values[1:]))


def test_reachable_values_single_pick():
    assert reachable_capacity_values((300.0, 1000.0, 3000.0), 1) == (
        0.0, 300.0, 1000.0, 3000.0)


def test_dataset_row_reproducible(smoke_config):
    ctx = SimulationContext(smoke_config)
    values = reachable_capacity_values((300.0, 1000.0, 3000.0), 3)
    a = dataset_row(ctx, values, row=5, trials=2, master_seed=99)
    b = dataset_row(ctx, values, row=5, trials=2, master_seed=99)
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])
    assert a[2] == b[2]


def test_dataset_output_is_pinned(smoke_config, tmp_path):
    """Hash of a fixed small dataset, as it is built on the plain-Python
    reference traces of `test_outages` in place of `draw_outages`. Batching
    the dispatch must not move a bit of it."""
    dataset = generate_dataset(SimulationContext(smoke_config),
                               observations=40, trials=5, master_seed=11)
    write_dataset(dataset, tmp_path / "dataset.csv")
    assert hashlib.sha256((tmp_path / "dataset.csv").read_bytes()
                          ).hexdigest() == (
        "69d68d35c3f0091e87e2e27371f7a27ec6d4ee9c4c89ed48bc4382000cd57f58")


@pytest.mark.parametrize("block_jobs, trials", [(7, 3), (2, 3)])
def test_blocked_dataset_equals_each_row_alone(case_context, monkeypatch,
                                               block_jobs, trials):
    """Rows dispatched together in blocks of whole rows equal `dataset_row`
    bit for bit, across block boundaries and in a last, shorter block; a
    row holding more trials than a block fills one block alone."""
    monkeypatch.setattr(metamodel, "_BLOCK_JOBS", block_jobs)
    observations = 7  # blocks of 2 rows leave one row for the last block
    ds = generate_dataset(case_context, observations=observations,
                          trials=trials, master_seed=5)
    cfg = case_context.config
    values = reachable_capacity_values(cfg.planning.expansion_levels_kwh,
                                       cfg.planning.horizon_periods - 1)
    for r in range(observations):
        k, caps, cost = dataset_row(case_context, values, r, trials, 5)
        assert ds.period[r] == k
        assert np.array_equal(ds.capacity[r], caps)
        assert ds.cost[r] == cost


def test_each_trial_serves_its_rows_fleet(case_context, monkeypatch):
    """`generate_dataset` hands `period_costs` each row's period and
    capacities once per trial, row after row, in blocks of whole rows."""
    monkeypatch.setattr(metamodel, "_BLOCK_JOBS", 6)
    calls = []
    dispatch = case_context.period_costs

    def spy(period, capacity, outages):
        calls.append((np.asarray(period), np.asarray(capacity)))
        return dispatch(period, capacity, outages)
    monkeypatch.setattr(case_context, "period_costs", spy)
    ds = generate_dataset(case_context, observations=5, trials=3,
                          master_seed=5)
    assert [len(period) for period, _ in calls] == [6, 6, 3]
    period = np.concatenate([period for period, _ in calls])
    capacity = np.concatenate([capacity for _, capacity in calls])
    assert period.tolist() == np.repeat(ds.period, 3).tolist()
    assert capacity.tolist() == np.repeat(ds.capacity, 3, axis=0).tolist()


def test_dataset_row_picks_come_from_the_rows_stream(case_context):
    """Row r's period, then its capacities, are the first draws of the
    generator `stream(seed, "dataset:row", r)`."""
    cfg = case_context.config
    values = reachable_capacity_values(cfg.planning.expansion_levels_kwh,
                                       cfg.planning.horizon_periods - 1)
    for r in (0, 3, 10_000):
        k, caps, _ = dataset_row(case_context, values, r, trials=1,
                                 master_seed=5)
        rng = stream(5, "dataset:row", r)
        assert k == rng.integers(1, cfg.planning.horizon_periods + 1)
        assert caps.tolist() == rng.choice(
            np.array(values), size=len(cfg.storage)).tolist()


def test_dataset_rows_decorrelate_by_index(smoke_config):
    ctx = SimulationContext(smoke_config)
    values = reachable_capacity_values((300.0, 1000.0, 3000.0), 3)
    a = dataset_row(ctx, values, row=5, trials=2, master_seed=99)
    b = dataset_row(ctx, values, row=6, trials=2, master_seed=99)
    assert a[0] != b[0] or not np.array_equal(a[1], b[1]) or a[2] != b[2]


def test_generate_dataset_shapes(smoke_config):
    ctx = SimulationContext(smoke_config)
    ds = generate_dataset(ctx, observations=6, trials=1)
    assert len(ds) == 6
    assert ds.capacity.shape == (6, 4)
    assert ds.period.min() >= 1 and ds.period.max() <= 4


def test_dataset_round_trips_bit_exact(tmp_path, smoke_config):
    ctx = SimulationContext(smoke_config)
    ds = generate_dataset(ctx, observations=5, trials=1)
    path = tmp_path / "dataset.csv"
    write_dataset(ds, path)
    again = read_dataset(path)
    assert np.array_equal(again.period, ds.period)
    assert np.array_equal(again.capacity, ds.capacity)
    assert np.array_equal(again.cost, ds.cost)
    assert again.trials == ds.trials
    assert again.master_seed == ds.master_seed
    assert again.config_digest == ds.config_digest


def written_dataset(tmp_path, config, observations=12):
    """Path of a small simulated dataset, written with its sidecar."""
    ds = generate_dataset(SimulationContext(config),
                          observations=observations, trials=1)
    path = tmp_path / "dataset.csv"
    write_dataset(ds, path)
    return path


def test_read_dataset_requires_its_sidecar(tmp_path, smoke_config):
    path = written_dataset(tmp_path, smoke_config)
    (tmp_path / "dataset.meta.json").unlink()
    with pytest.raises(ValueError, match="missing"):
        read_dataset(path)


@pytest.mark.parametrize("key, value, match", [
    ("format", "storeplan-forest-v2", "not a dataset sidecar"),
    ("observations", 13, "13 observations"),
    ("num_units", 3, "header"),
    ("dod", [[1.0]] * 4, "dod schedule"),  # would broadcast over the units
    ("efficiency", [[1.0] * 4] * 3, "efficiency and dod"),
    ("metamodel", {"colour": "red"}, "unknown key 'colour'"),
    # counts must be JSON integers, as in a q-table header
    ("trials", "x", "'trials' must be an integer, got 'x'"),
    ("num_units", None, "'num_units' must be an integer, got None"),
    ("observations", "13", "'observations' must be an integer"),
    ("master_seed", True, "'master_seed' must be an integer, got True"),
])
def test_read_dataset_rejects_tampered_sidecar(tmp_path, smoke_config, key,
                                               value, match):
    path = written_dataset(tmp_path, smoke_config)
    meta_path = tmp_path / "dataset.meta.json"
    meta = json.loads(meta_path.read_text())
    meta[key] = value
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=match):
        read_dataset(path)


@pytest.mark.parametrize("key, value, match", [
    ("dod", None, "'dod' is missing"),
    ("efficiency", None, "'efficiency' is missing"),
    ("metamodel", None, "'metamodel' is missing"),
    ("config_hash", None, "'config_hash' is missing"),
    ("config_hash", 7, "'config_hash' must be a JSON string, got 7"),
    ("metamodel", [], "'metamodel' must be a JSON object"),
    ("dod", 0.9, "'dod' must be a JSON list, got 0.9"),
    ("dod", [["0.9", 0.9]] * 4, "'dod' must be a list of equal-length rows"),
    ("efficiency", [[0.9, 0.9], [0.9]] * 2, "'efficiency' must be a list of "
                                            "equal-length rows"),
    ("dod", [[1.0]] * 4, "dod schedule is not (periods, 4 units)"),
    ("efficiency", [[1.0, 1.0]] * 3, "efficiency and dod schedules differ"),
    ("metamodel", {"colour": "red"}, "metamodel: unknown key 'colour'"),
])
def test_read_dataset_names_the_sidecar_and_key_it_refuses(
        tmp_path, smoke_config, key, value, match):
    path = written_dataset(tmp_path, smoke_config)
    meta_path = tmp_path / "dataset.meta.json"
    meta = json.loads(meta_path.read_text())
    if value is None:
        del meta[key]
    else:
        meta[key] = value
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=re.escape(f"{meta_path}: {match}")):
        read_dataset(path)


@pytest.mark.parametrize("field, text, match", [
    (-1, "nan", "must be finite and non-negative"),
    (-1, "inf", "must be finite and non-negative"),
    (-1, "-1.5", "must be finite and non-negative"),
    (1, "nan", "must be finite and non-negative"),
    (2, "-300.0", "must be finite and non-negative"),
    (-1, "abc", "could not convert string to float: 'abc'"),
    (0, "2.0", "invalid literal for int"),
    (0, "9", "period 9 is outside the sidecar's 4 schedule rows"),
    (0, "0", "period 0 is outside"),
    (None, "", "expected 6 fields, got 5"),
])
def test_read_dataset_rejects_bad_row_naming_file_and_line(
        tmp_path, smoke_config, field, text, match):
    path = written_dataset(tmp_path, smoke_config)
    lines = path.read_text().splitlines()
    cells = lines[4].split(",")
    if field is None:
        del cells[-1]
    else:
        cells[field] = text
    lines[4] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 5: ")
                       + ".*" + re.escape(match)):
        read_dataset(path)


def test_single_tree_memorizes_training_data():
    # no bootstrap, min_leaf 1, all features: hard routing makes the tree a
    # lookup table of its training rows. The forest's own predict uses the
    # soft-split width that cross-validation picked, which need not be 0, so
    # read the tree itself.
    for seed in range(20):
        ds = grid_dataset(lambda k, c: 1000.0 * k + c.sum(), n=150, seed=seed,
                          trees=1, min_leaf=1, features_per_split=3)
        forest = train_forest(ds)
        train = forest.train_indices
        # with unit schedules, S_d = S_c = total kWh
        total = ds.capacity[train].sum(axis=1)
        Z = np.column_stack([ds.period[train].astype(float), total, total])
        # duplicated feature rows share one leaf, but targets agree there
        assert np.allclose(forest.trees[0].predict(Z, 0.0),
                           ds.cost[train]), seed


def test_forest_predictions_stay_inside_target_range():
    ds = grid_dataset(lambda k, c: 100.0 * k + 0.1 * c.sum(), n=300, seed=3,
                      trees=5)
    forest = train_forest(ds)
    pred = forest.predict(raw_rows(ds))
    assert pred.min() >= ds.cost.min() - 1e-9
    assert pred.max() <= ds.cost.max() + 1e-9


def test_forest_learns_smooth_function_well():
    ds = grid_dataset(lambda k, c: 50.0 * k + c.sum() ** 0.5, n=400, seed=4,
                      trees=20, features_per_split=3)
    forest = train_forest(ds)
    assert forest.r2_test > 0.97


@pytest.mark.parametrize("key, value", [
    ("trees", 0), ("train_fraction", 1.5), ("train_fraction", 1.0),
    ("features_per_split", 9), ("min_leaf", 0), ("max_depth", 0),
    ("trees", 2.5), ("colour", "red"),
])
def test_dataset_rejects_bad_fit_settings(key, value):
    # the dataset checks its fit settings as the config's metamodel section
    # does, so no settings reach train_forest that the config would refuse
    with pytest.raises(ValueError, match=f"metamodel.*{key}"):
        grid_dataset(lambda k, c: float(k), n=20, **{key: value})


def test_dataset_requires_every_fit_setting():
    ds = grid_dataset(lambda k, c: float(k), n=20)
    fit = dict(ds.fit_params)
    del fit["min_leaf"]
    with pytest.raises(ValueError, match="missing key 'min_leaf'"):
        dataclasses.replace(ds, fit_params=fit)


def test_default_feature_subset_is_a_third():
    ds = grid_dataset(lambda k, c: float(k), n=30, trees=1)
    forest = train_forest(ds)
    # 3 features for a 2-unit dataset: ceil(3/3) = 1
    assert forest.params["features_per_split"] == 1


def test_train_test_split_is_disjoint():
    ds = grid_dataset(lambda k, c: float(k), n=50, trees=1,
                      train_fraction=0.8)
    forest = train_forest(ds)
    assert not set(forest.train_indices) & set(forest.test_indices)
    assert len(forest.train_indices) == 40
    assert len(forest.test_indices) == 10


def test_forest_round_trips_bit_exact(tmp_path):
    ds = grid_dataset(lambda k, c: 10.0 * k + 0.3 * c[0] - 0.1 * c[1], n=120,
                      trees=4)
    forest = train_forest(ds)
    path = tmp_path / "forest.json"
    save_forest(forest, path)
    again = load_forest(path)
    X = raw_rows(ds)
    assert np.array_equal(again.predict(X), forest.predict(X))
    assert again.r2_test == forest.r2_test
    assert again.params == forest.params


def test_load_forest_checks_config_digest(tmp_path):
    ds = grid_dataset(lambda k, c: float(k), n=40, trees=1)
    forest = train_forest(ds)
    path = tmp_path / "forest.json"
    save_forest(forest, path)
    load_forest(path, expected_config_hash="d" * 8)
    with pytest.raises(IncompatibleArtifact):
        load_forest(path, expected_config_hash="mismatch")


def test_predict_outage_cost_validates_width():
    ds = grid_dataset(lambda k, c: float(k), n=40, trees=1)
    forest = train_forest(ds)
    assert forest.predict_outage_cost(2, [300.0, 0.0]) == (
        forest.predict([[2.0, 300.0, 0.0]])[0])
    with pytest.raises(ValueError):
        forest.predict_outage_cost(2, [300.0])


@pytest.mark.parametrize("block", [1, 7, 64, 256])
def test_batched_prediction_equals_each_row_alone(monkeypatch, block):
    """A row predicts the same bits alone as in a batch of any size, so
    `_PREDICT_BLOCK` changes no artifact; soft splits included."""
    ds = grid_dataset(lambda k, c: float(k) * 50.0 + c.sum(), n=200, trees=3)
    forest = train_forest(ds)
    forest.params["smoothing"] = 0.1
    rows = raw_rows(ds)
    alone = [forest.predict(rows[i:i + 1])[0] for i in range(len(rows))]
    monkeypatch.setattr(metamodel, "_PREDICT_BLOCK", block)
    assert forest.predict(rows).tolist() == alone


def test_r_squared_perfect_and_mean_baseline():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    assert r_squared(y, y) == 1.0
    assert r_squared(y, np.full(4, y.mean())) == 0.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 1_000))
def test_leaf_values_are_training_target_means(seed):
    """Every prediction of a lone tree is an average of training targets."""
    ds = grid_dataset(lambda k, c: float(k) * 7.0, n=60, seed=seed, trees=1)
    forest = train_forest(ds)
    pred = forest.predict(raw_rows(ds))
    train = ds.cost[forest.train_indices]
    lo, hi = train.min(), train.max()
    assert np.all(pred >= lo - 1e-9) and np.all(pred <= hi + 1e-9)


def test_forest_sees_fleet_energy_not_unit_split():
    # rows with the same deliverable and recharge energy share one prediction
    ds = grid_dataset(lambda k, c: 10.0 * k + 0.3 * c[0] - 0.1 * c[1], n=120,
                      trees=3)
    forest = train_forest(ds)
    assert forest.predict_outage_cost(2, [1000.0, 300.0]) == (
        forest.predict_outage_cost(2, [300.0, 1000.0]))


def test_forest_features_follow_the_schedules():
    # unit 2 holds half the usable energy of unit 1 in period 1, so 600 kWh
    # of it stands in for 300 kWh of unit 1 there
    ds = dataclasses.replace(grid_dataset(lambda k, c: float(k), n=40, trees=1),
                             dod=np.array([[1.0, 0.5]] * 4))
    forest = train_forest(ds)
    assert forest.predict_outage_cost(1, [300.0, 0.0]) == (
        forest.predict_outage_cost(1, [0.0, 600.0]))


def test_dataset_carries_schedules_and_fit_settings(tmp_path, smoke_config):
    ds = generate_dataset(SimulationContext(smoke_config), observations=12,
                          trials=1)
    assert ds.fit_params["trees"] == smoke_config.metamodel.trees
    assert ds.dod[0, 0] == smoke_config.storage[0].dod_schedule[0]
    path = tmp_path / "dataset.csv"
    write_dataset(ds, path)
    again = read_dataset(path)
    assert np.array_equal(again.dod, ds.dod)
    assert np.array_equal(again.efficiency, ds.efficiency)
    assert again.fit_params == ds.fit_params
    forest = train_forest(again)
    assert len(forest.trees) == smoke_config.metamodel.trees
    two = dataclasses.replace(again, fit_params={**again.fit_params,
                                                 "trees": 2})
    assert len(train_forest(two).trees) == 2


def test_fit_ignores_held_out_targets():
    """Trees and soft-split width come from training rows alone."""
    ds = grid_dataset(lambda k, c: 50.0 * k + c.sum() ** 0.5, n=120, seed=5,
                      trees=2)
    forest = train_forest(ds)
    # held-out costs that vary, so the held-out R^2 is defined
    ds.cost[forest.test_indices] = 1e6 + np.arange(len(forest.test_indices))
    again = train_forest(ds)
    assert again.params == forest.params
    X = raw_rows(ds)
    assert np.array_equal(again.predict(X), forest.predict(X))
    assert again.r2_test != forest.r2_test


def test_smoothing_is_cross_validated_from_the_grid():
    ds = grid_dataset(lambda k, c: 50.0 * k + c.sum() ** 0.5, n=200, seed=6,
                      trees=1)
    forest = train_forest(ds)
    assert forest.params["smoothing"] in SMOOTHING_GRID
    # a hard tree is a step function of the energies; a soft one moves
    # between its steps
    sweep = [[2.0, c, 0.0] for c in np.linspace(0.0, 3000.0, 61)]
    forest.params["smoothing"] = 0.0
    steps = len(set(forest.predict(sweep)))
    forest.params["smoothing"] = 0.3
    assert len(set(forest.predict(sweep))) > steps


@pytest.mark.parametrize("key, value", [
    ("dod", [[1.0]] * 4),  # would broadcast over both units
    ("efficiency", [[1.0, 1.0]] * 3),
    ("num_features", 4),
])
def test_load_forest_rejects_schedules_off_its_width(tmp_path, key, value):
    path = tmp_path / "forest.json"
    save_forest(train_forest(grid_dataset(lambda k, c: float(k), n=40,
                                          trees=1)), path)
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="schedule"):
        load_forest(path)


def test_load_forest_rejects_v1_file(tmp_path):
    ds = grid_dataset(lambda k, c: float(k), n=40, trees=1)
    path = tmp_path / "forest.json"
    save_forest(train_forest(ds), path)
    doc = json.loads(path.read_text())
    doc["format"] = "storeplan-forest-v1"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="v1"):
        load_forest(path)
