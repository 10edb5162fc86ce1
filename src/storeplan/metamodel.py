"""Outage-cost surrogate: synthetic dataset plus a regression random forest.

The forest replaces per-decision Monte Carlo during planning. Rows are the
decision period and the installed capacity of each storage unit; the target
is the mean simulated lost-load cost over that period. Row r draws its
period and capacities from `stream(seed, "dataset:row", r)`, and its trial
t faces the trace of the keyed stream `(seed, "dataset:trial", r, t)`. A
block of rows runs on arrays from key to cost: one (row, trial) key array,
one batch of traces, and one `period_costs` call on the rows' period and
capacity arrays, each row repeated for its trials.

Proportional dispatch keeps every unit at the same fractional state of
charge, so during an outage the fleet acts as one store with deliverable
energy S_d = sum(cap * dod * eff) and recharge capacity
S_c = sum(cap * dod / eff), both under the period's schedules. The forest
therefore maps each raw row to (period, S_d, S_c) and splits on those. Trees
are grown greedily on the sum-of-squared-error criterion (plain CART, with
optional bagging and random feature subsets). When predicting, a split on S_d
or S_c is soft: a row goes left with probability
Phi((ln(1 + thr) - ln(1 + x)) / h), so the fitted surface is smooth along
the energy axes rather than a staircase. Splits on the period stay hard, and
h = 0 is plain hard routing. The width h is chosen by K-fold
cross-validation on the training rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .config import (NUM_PHYSICS_FEATURES, IncompatibleArtifact,
                     MetamodelParams, _finite_floats, _require_keys, _section,
                     config_hash, parse_json)
from .rng import stream
from .simulate import SimulationContext, period_energy, row_sums

__all__ = [
    "SyntheticDataset", "reachable_capacity_values", "generate_dataset",
    "dataset_row", "write_dataset", "read_dataset",
    "RegressionTree", "RegressionForest", "train_forest",
    "save_forest", "load_forest", "r_squared",
]

DATASET_FORMAT = "storeplan-dataset-v1"
FOREST_FORMAT = "storeplan-forest-v2"

# The trees' feature columns are (period, S_d, S_c).
PERIOD = 0
# A tree's node lists, as a forest file holds them.
TREE_FIELDS = ("feature", "threshold", "left", "right", "value")
# The keys of a forest file besides its format, with their JSON types.
FOREST_KEYS = (("num_features", (int,), "integer"),
               ("params", (dict,), "object"), ("dod", (list,), "list"),
               ("efficiency", (list,), "list"),
               ("train_indices", (list,), "list"),
               ("test_indices", (list,), "list"),
               ("r2_test", (int, float), "number"),
               ("config_hash", (str,), "string"), ("trees", (list,), "list"))
# The keys of a dataset sidecar that the forest takes from it, with their
# JSON types.
SIDECAR_KEYS = (("config_hash", (str,), "string"), ("dod", (list,), "list"),
                ("efficiency", (list,), "list"),
                ("metamodel", (dict,), "object"))
# Fit settings of the config's metamodel section (its optional fields), as
# the dataset carries them.
FIT_KEYS = tuple(f.name for f in fields(MetamodelParams)
                 if f.default is not MISSING)
# Soft-split widths h tried by cross-validation, in units of ln(1 + kWh).
SMOOTHING_GRID = (0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5)
CV_FOLDS = 5
# erfc(x) = t * exp(-x^2 + poly(t)) with t = 1 / (1 + x / 2), highest power
# first (Press et al., Numerical Recipes, section 6.2).
_ERFC_FIT = (0.17087277, -0.82215223, 1.48851587, -1.13520398, 0.27886807,
             -0.18628806, 0.09678418, 0.37409196, 1.00002368, -1.26551223)
# Rows per `RegressionTree.predict` batch, which bounds its node-by-row
# matrices. With a case-study tree (some 1,600 nodes), train-meta's traced
# memory peaked at 10.8 MB with 256 rows and 3.8 MB with 64, and 64-row
# batches predicted faster.
_PREDICT_BLOCK = 64
# Trial jobs `generate_dataset` dispatches per `period_costs` call, which
# bounds the lanes and traces held at once.
_BLOCK_JOBS = 512


def reachable_capacity_values(levels, max_picks: int) -> tuple[float, ...]:
    """Sorted sums of at most `max_picks` expansion levels, repetition allowed.

    These are exactly the per-unit capacities a planner can have accumulated
    before its final decision, so the dataset samples capacities from this set
    rather than a continuous range.
    """
    if max_picks < 0:
        raise ValueError("max_picks must be >= 0")
    sums = {0.0}
    for _ in range(max_picks):
        sums |= {s + float(lv) for s in sums for lv in levels}
    return tuple(sorted(sums))


def _check_schedules(dod, efficiency, units: int) -> None:
    if dod.ndim != 2 or dod.shape[1] != units:
        raise ValueError(f"dod schedule is not (periods, {units} units)")
    if efficiency.shape != dod.shape:
        raise ValueError("efficiency and dod schedules differ in shape")


def _check_keys(doc: dict, keys, path) -> None:
    """Raise ValueError naming `path` and the key unless the JSON object
    `doc` holds each of `keys`, `(key, types, JSON type name)`, with one of
    its types."""
    for key, kinds, name in keys:
        if key not in doc:
            raise ValueError(f"{path}: {key!r} is missing")
        if type(doc[key]) not in kinds:  # a bool is not an integer
            raise ValueError(f"{path}: {key!r} must be a JSON {name}, "
                             f"got {doc[key]!r:.40}")


def _read_schedules(doc: dict, path) -> dict[str, np.ndarray]:
    """The 'dod' and 'efficiency' lists of the file `doc` read from `path`,
    as arrays; each must be a list of equal-length rows of finite numbers."""
    schedules = {}
    for key in ("dod", "efficiency"):
        rows = doc[key]
        if not all(isinstance(row, list) and len(row) == len(rows[0])
                   and _finite_floats(row) is not None for row in rows):
            raise ValueError(f"{path}: {key!r} must be a list of equal-length "
                             f"rows of finite numbers")
        schedules[key] = np.array(rows, dtype=float)
    return schedules


def _fleet_energy(period, capacity, dod, efficiency) -> np.ndarray:
    """Rows of (k, S_d, S_c) for rows of period and per-unit capacity.

    `dod` and `efficiency` are indexed [period - 1, unit].
    """
    period = np.asarray(period).astype(int)
    deliverable, recharge = period_energy(period, capacity, dod, efficiency)
    return np.column_stack([period.astype(float), deliverable, recharge])


@dataclass
class SyntheticDataset:
    """Rows of (period, per-unit capacity) with Monte Carlo cost targets.

    `dod` and `efficiency` hold the schedules indexed [period - 1, unit] and
    `fit_params` the config's metamodel fit settings, one per `FIT_KEYS`
    entry, checked as the config checks them.
    """

    period: np.ndarray
    capacity: np.ndarray
    cost: np.ndarray
    trials: int
    master_seed: int
    config_digest: str
    dod: np.ndarray
    efficiency: np.ndarray
    fit_params: dict

    def __post_init__(self):
        if self.capacity.ndim != 2 or len(self.period) != len(self.capacity):
            raise ValueError("period and capacity row counts differ")
        if len(self.cost) != len(self.period):
            raise ValueError("cost row count differs")
        _check_schedules(self.dod, self.efficiency, self.num_units)
        _require_keys(self.fit_params, set(FIT_KEYS), set(FIT_KEYS),
                      "metamodel")
        _section(MetamodelParams, self.fit_params, "metamodel",
                 observations=len(self), trials=self.trials).validate()

    def __len__(self) -> int:
        return len(self.period)

    @property
    def num_units(self) -> int:
        return self.capacity.shape[1]


def _simulate_rows(ctx: SimulationContext, values, rows, trials: int,
                   master_seed: int):
    """The periods, capacities and mean costs of `rows`, as arrays.

    Row r draws its period, then its capacities, from the generator
    `stream(master_seed, "dataset:row", r)`; one `period_outages` call
    draws every trial's trace, row by row, and one `period_costs` call
    dispatches them all, each row's fleet repeated for its trials. A row's
    mean adds its trials' costs left to right.
    """
    plan = ctx.config.planning
    values = np.asarray(values, dtype=float)
    rngs = [stream(master_seed, "dataset:row", r) for r in rows]
    period = np.array([rng.integers(1, plan.horizon_periods + 1)
                       for rng in rngs], dtype=int)
    capacity = np.array([rng.choice(values, size=len(ctx.config.storage))
                         for rng in rngs])
    keys = np.stack(np.meshgrid(rows, np.arange(trials), indexing="ij"),
                    -1).reshape(-1, 2)  # (row, trial), row by row
    outages = ctx.period_outages(master_seed, "dataset:trial", keys)
    costs = ctx.period_costs(np.repeat(period, trials),
                             np.repeat(capacity, trials, axis=0), outages)
    return period, capacity, row_sums(
        np.reshape(costs, (len(rows), trials))) / trials


def dataset_row(ctx: SimulationContext, values, row: int, trials: int,
                master_seed: int) -> tuple[int, np.ndarray, float]:
    """One dataset row, reproducible from (master_seed, row) alone."""
    period, capacity, cost = _simulate_rows(ctx, values, [row], trials,
                                            master_seed)
    return int(period[0]), capacity[0], float(cost[0])


def generate_dataset(ctx: SimulationContext, observations: int | None = None,
                     trials: int | None = None,
                     master_seed: int | None = None) -> SyntheticDataset:
    """Sample the training corpus for the cost surrogate.

    Periods are uniform over the horizon; capacities are drawn independently
    per unit from the reachable set. Each row's target averages `trials`
    independent period simulations. Rows are simulated in blocks of whole
    rows holding at most `_BLOCK_JOBS` trials (one row when a row holds
    more), and each block goes through `_simulate_rows` as one row does
    in `dataset_row`, so every row equals its `dataset_row` bit for bit.
    The dataset also carries what the surrogate takes from the config: its
    digest, the dod and efficiency schedules the forest computes its
    features from, and the metamodel fit settings.
    """
    cfg = ctx.config
    if observations is None:
        observations = cfg.metamodel.observations
    if trials is None:
        trials = cfg.metamodel.trials
    if master_seed is None:
        master_seed = cfg.master_seed
    if observations < 1 or trials < 1:
        raise ValueError("observations and trials must be positive")
    values = reachable_capacity_values(cfg.planning.expansion_levels_kwh,
                                       cfg.planning.horizon_periods - 1)
    periods = np.empty(observations, dtype=int)
    caps = np.empty((observations, len(cfg.storage)))
    costs = np.empty(observations)
    step = max(1, _BLOCK_JOBS // trials)
    for first in range(0, observations, step):
        rows = range(first, min(first + step, observations))
        periods[rows], caps[rows], costs[rows] = _simulate_rows(
            ctx, values, rows, trials, master_seed)
    return SyntheticDataset(
        period=periods, capacity=caps, cost=costs, trials=trials,
        master_seed=master_seed, config_digest=config_hash(cfg),
        dod=ctx.dod, efficiency=ctx.efficiency,
        fit_params={key: getattr(cfg.metamodel, key) for key in FIT_KEYS})


def _meta_path(path: Path) -> Path:
    return path.with_name(path.stem + ".meta.json")


def write_dataset(dataset: SyntheticDataset, path) -> None:
    """CSV of rows plus a JSON sidecar carrying provenance for later checks."""
    path = Path(path)
    units = dataset.num_units
    header = "k," + ",".join(f"cap_{i + 1}" for i in range(units)) + ",cost"
    lines = [header]
    for r in range(len(dataset)):
        caps = ",".join(repr(float(c)) for c in dataset.capacity[r])
        lines.append(f"{int(dataset.period[r])},{caps},{float(dataset.cost[r])!r}")
    path.write_text("\n".join(lines) + "\n")
    meta = {
        "format": DATASET_FORMAT,
        "observations": len(dataset),
        "trials": dataset.trials,
        "master_seed": dataset.master_seed,
        "config_hash": dataset.config_digest,
        "num_units": units,
        "dod": dataset.dod.tolist(),
        "efficiency": dataset.efficiency.tolist(),
        "metamodel": dataset.fit_params,
    }
    _meta_path(path).write_text(json.dumps(meta, indent=2) + "\n")


def read_dataset(path) -> SyntheticDataset:
    """A dataset from its CSV and the JSON sidecar `write_dataset` put next
    to it; the sidecar must be present and agree with the CSV."""
    path = Path(path)
    meta_path = _meta_path(path)
    if not meta_path.exists():
        raise ValueError(f"{meta_path}: missing; a dataset needs the sidecar "
                         f"gen-data writes next to it")
    meta = parse_json(meta_path.read_text(), meta_path)
    if not isinstance(meta, dict) or meta.get("format") != DATASET_FORMAT:
        raise ValueError(f"{meta_path}: not a dataset sidecar")
    for key in ("observations", "trials", "master_seed", "num_units"):
        if type(meta.get(key)) is not int:  # bools are not counts
            raise ValueError(f"{meta_path}: {key!r} must be an integer, "
                             f"got {meta.get(key)!r}")
    _check_keys(meta, SIDECAR_KEYS, meta_path)
    units = meta["num_units"]
    header = ",".join(["k", *(f"cap_{i + 1}" for i in range(units)), "cost"])
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path}: expected header {header!r} for the "
                         f"sidecar's {units} units")
    dod, efficiency = _read_schedules(meta, meta_path).values()
    try:
        _check_schedules(dod, efficiency, units)
    except ValueError as exc:
        raise ValueError(f"{meta_path}: {exc}") from None
    periods, caps, costs = [], [], []
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        try:
            if len(parts) != units + 2:
                raise ValueError(f"expected {units + 2} fields, got "
                                 f"{len(parts)}")
            k, values = int(parts[0]), [float(x) for x in parts[1:]]
            if not 1 <= k <= len(dod):
                raise ValueError(f"period {k} is outside the sidecar's "
                                 f"{len(dod)} schedule rows")
            if not all(0.0 <= x < math.inf for x in values):  # NaN fails too
                raise ValueError(f"capacities and cost must be finite and "
                                 f"non-negative, got {ln!r}")
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        periods.append(k)
        caps.append(values[:-1])
        costs.append(values[-1])
    if meta["observations"] != len(periods):
        raise ValueError(f"{meta_path}: {meta['observations']} observations, "
                         f"but the CSV has {len(periods)} rows")
    try:  # the fit settings are checked as the config checks them
        return SyntheticDataset(period=np.array(periods, dtype=int),
                                capacity=np.array(caps), cost=np.array(costs),
                                trials=meta["trials"],
                                master_seed=meta["master_seed"],
                                config_digest=meta["config_hash"],
                                dod=dod, efficiency=efficiency,
                                fit_params=meta["metamodel"])
    except ValueError as exc:
        raise ValueError(f"{meta_path}: {exc}") from None


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Phi(z) to a relative error below 1.2e-7 in both tails.

    Uses the Chebyshev fit of erfc from Numerical Recipes (erfcc), which
    numpy evaluates in one pass over an array.
    """
    x = np.abs(z) / math.sqrt(2.0)
    t = 1.0 / (1.0 + 0.5 * x)
    tail = 0.5 * t * np.exp(-x * x + np.polyval(_ERFC_FIT, t))
    return np.where(z < 0.0, tail, 1.0 - tail)


@dataclass
class RegressionTree:
    """Flat node arrays over (k, S_d, S_c); `feature[i] < 0` marks a leaf.

    Internal nodes route x[feature] <= threshold to `left`, else `right`;
    children always come after their parent. `value` holds the node's
    training-target mean (the prediction at leaves).
    """

    feature: list[int] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)
    left: list[int] = field(default_factory=list)
    right: list[int] = field(default_factory=list)
    value: list[float] = field(default_factory=list)
    _arrays: tuple | None = field(default=None, init=False, repr=False,
                                  compare=False)

    def add_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def _layout(self) -> tuple:
        # Non-root nodes grouped by depth, each with its parent's position
        # among the internal nodes, so routing weights flow down a whole
        # batch of rows one level at a time.
        if self._arrays is None:
            feature = np.array(self.feature)
            internal = np.flatnonzero(feature >= 0)
            parent = np.zeros(len(feature), dtype=int)
            parent_pos = np.zeros(len(feature), dtype=int)
            is_left = np.zeros(len(feature), dtype=bool)
            depth = np.zeros(len(feature), dtype=int)
            for pos, i in enumerate(internal):
                for child in (self.left[i], self.right[i]):
                    parent[child], parent_pos[child] = i, pos
                    depth[child] = depth[i] + 1
                is_left[self.left[i]] = True
            levels = [np.flatnonzero(depth == d)
                      for d in range(1, int(depth.max(initial=0)) + 1)]
            leaves = np.flatnonzero(feature < 0)
            self._arrays = (feature[internal],
                            np.array(self.threshold)[internal], parent,
                            parent_pos, is_left[:, None], levels, leaves,
                            np.array(self.value)[leaves, None])
        return self._arrays

    def predict(self, Z: np.ndarray, smoothing: float = 0.0) -> np.ndarray:
        """Leaf values averaged over each row's routing probabilities.

        With `smoothing` h > 0, a split on S_d or S_c sends a row left with
        probability Phi((ln(1 + thr) - ln(1 + x)) / h); otherwise, and always
        on the period, x <= thr goes left with probability 1.
        """
        Z = np.asarray(Z, dtype=float)
        if len(Z) > _PREDICT_BLOCK:  # bounds the nodes x rows weight matrix
            return np.concatenate([self.predict(Z[i:i + _PREDICT_BLOCK],
                                                smoothing)
                                   for i in range(0, len(Z), _PREDICT_BLOCK)])
        feat, thr, parent, parent_pos, is_left, levels, leaves, leaf_value = \
            self._layout()
        if not len(feat):
            return np.full(len(Z), self.value[0])
        x = Z[:, feat].T
        p_left = (x <= thr[:, None]).astype(float)
        if smoothing > 0.0:
            soft = feat != PERIOD
            p_left[soft] = _normal_cdf(
                (np.log1p(thr[soft])[:, None] - np.log1p(x[soft]))
                / smoothing)
        p_node = p_left[parent_pos]
        p_node = np.where(is_left, p_node, 1.0 - p_node)
        weight = np.ones_like(p_node)
        for level in levels:
            weight[level] = weight[parent[level]] * p_node[level]
        # each row sums its own contiguous leaf terms, so a row's prediction
        # has the same bits alone as in any batch
        terms = np.ascontiguousarray((weight[leaves] * leaf_value).T)
        return terms.sum(axis=1)


def _best_split(X, y, idx, feats, min_leaf):
    # Returns (sse, feature, threshold, order, left_size) or None.
    n = len(idx)
    best = None
    for f in feats:
        xs_all = X[idx, f]
        order = np.argsort(xs_all, kind="stable")
        xs = xs_all[order]
        if xs[0] == xs[-1]:
            continue
        ys = y[idx][order]
        c1 = np.cumsum(ys)
        c2 = np.cumsum(ys * ys)
        j = np.arange(min_leaf, n - min_leaf + 1)
        if len(j) == 0:
            continue
        valid = xs[j - 1] < xs[j]
        if not valid.any():
            continue
        sl, sl2 = c1[j - 1], c2[j - 1]
        sse = (sl2 - sl * sl / j) + ((c2[-1] - sl2) - (c1[-1] - sl) ** 2 / (n - j))
        sse = np.where(valid, sse, np.inf)
        pos = int(np.argmin(sse))
        if best is None or sse[pos] < best[0]:
            cut = j[pos]
            thr = 0.5 * (xs[cut - 1] + xs[cut])
            best = (float(sse[pos]), int(f), float(thr), order, int(cut))
    return best


def _grow_tree(X, y, sample, rng, min_leaf, max_depth, mtry) -> RegressionTree:
    tree = RegressionTree()
    root = tree.add_node()
    stack = [(root, sample, 0)]
    d = X.shape[1]
    while stack:
        nid, idx, depth = stack.pop()
        ys = y[idx]
        tree.value[nid] = float(ys.mean())
        if (len(idx) < 2 * min_leaf or ys.min() == ys.max()
                or (max_depth is not None and depth >= max_depth)):
            continue
        feats = rng.choice(d, size=mtry, replace=False)
        split = _best_split(X, y, idx, feats, min_leaf)
        if split is None:
            continue
        _, f, thr, order, cut = split
        tree.feature[nid] = f
        tree.threshold[nid] = thr
        ordered = idx[order]
        lid, rid = tree.add_node(), tree.add_node()
        tree.left[nid], tree.right[nid] = lid, rid
        stack.append((lid, ordered[:cut], depth + 1))
        stack.append((rid, ordered[cut:], depth + 1))
    return tree


def _mean_prediction(trees, Z, smoothing) -> np.ndarray:
    return row_sums(np.column_stack([t.predict(Z, smoothing)
                                     for t in trees])) / len(trees)


@dataclass
class RegressionForest:
    """Trees over (k, S_d, S_c), queried with raw (period, capacity...) rows.

    `num_features` is the raw row width; `dod` and `efficiency` are the
    schedules, indexed [period - 1, unit], that map a raw row to the trees'
    features. `params["smoothing"]` is the soft-split width.
    """

    trees: list[RegressionTree]
    num_features: int
    params: dict
    train_indices: list[int]
    test_indices: list[int]
    r2_test: float
    config_digest: str
    dod: np.ndarray
    efficiency: np.ndarray

    def __post_init__(self):
        _check_schedules(self.dod, self.efficiency, self.num_features - 1)

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.num_features:
            raise ValueError("feature rows do not match the forest's width")
        Z = _fleet_energy(X[:, 0], X[:, 1:], self.dod, self.efficiency)
        return _mean_prediction(self.trees, Z, self.params["smoothing"])

    def predict_outage_cost(self, period: int, capacities) -> float:
        return float(self.predict([[period, *capacities]])[0])


def r_squared(y_true, y_pred) -> float:
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    ss_res = float(((y_true - y_pred) ** 2).sum())
    ss_tot = float(((y_true - y_true.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return math.nan
    return 1.0 - ss_res / ss_tot


def train_forest(dataset: SyntheticDataset,
                 seed: int | None = None) -> RegressionForest:
    """Fit the forest on a shuffled train split and score R^2 on the rest.

    The fit settings are the dataset's `fit_params`; a `features_per_split`
    of None means a third of the features. Trees are bagged unless there is
    only one. The soft-split width is chosen by `CV_FOLDS`-fold
    cross-validation on the training rows over `SMOOTHING_GRID`, the
    smallest width winning a tie; the held-out rows enter only `r2_test`.
    Each part of the split must hold a row and the held-out R^2 must be
    finite, or ValueError is raised.
    """
    fit = dataset.fit_params
    num_trees, train_fraction = fit["trees"], fit["train_fraction"]
    min_leaf, max_depth = fit["min_leaf"], fit["max_depth"]
    mtry = fit["features_per_split"] or math.ceil(NUM_PHYSICS_FEATURES / 3)
    bootstrap = num_trees > 1
    if seed is None:
        seed = dataset.master_seed
    Z = _fleet_energy(dataset.period, dataset.capacity, dataset.dod,
                      dataset.efficiency)
    y = dataset.cost
    perm = stream(seed, "metamodel:split").permutation(len(dataset))
    n_train = int(round(train_fraction * len(dataset)))
    if n_train < 1:
        raise ValueError("train split is empty")
    if n_train == len(dataset):
        raise ValueError(f"held-out split is empty: train_fraction "
                         f"{train_fraction} keeps all {len(dataset)} rows")
    train_idx, test_idx = perm[:n_train], perm[n_train:]

    def grow(rows, *key):
        trees = []
        for t in range(num_trees):
            tree_rng = stream(seed, *key, t)
            sample = (rows[tree_rng.integers(0, len(rows), size=len(rows))]
                      if bootstrap else rows.copy())
            trees.append(_grow_tree(Z, y, sample, tree_rng, min_leaf,
                                    max_depth, mtry))
        return trees

    smoothing = 0.0
    if n_train >= CV_FOLDS:
        sse = np.zeros(len(SMOOTHING_GRID))
        folds = np.array_split(
            stream(seed, "metamodel:cv").permutation(train_idx), CV_FOLDS)
        for i, held in enumerate(folds):
            trees = grow(np.concatenate(folds[:i] + folds[i + 1:]),
                         "metamodel:cv", i)
            for j, h in enumerate(SMOOTHING_GRID):
                sse[j] += ((y[held] - _mean_prediction(trees, Z[held], h))
                           ** 2).sum()
        smoothing = SMOOTHING_GRID[int(np.argmin(sse))]
    trees = grow(train_idx, "metamodel:tree")
    r2_test = r_squared(y[test_idx],
                        _mean_prediction(trees, Z[test_idx], smoothing))
    if not math.isfinite(r2_test):
        raise ValueError(f"held-out R^2 is {r2_test} over {len(test_idx)} "
                         f"held-out row(s): their costs must vary")
    return RegressionForest(
        trees=trees, num_features=1 + dataset.num_units,
        params={"num_trees": num_trees, "train_fraction": train_fraction,
                "min_leaf": min_leaf, "max_depth": max_depth,
                "features_per_split": mtry, "bootstrap": bootstrap,
                "seed": seed, "smoothing": smoothing},
        train_indices=[int(i) for i in train_idx],
        test_indices=[int(i) for i in test_idx],
        r2_test=r2_test,
        config_digest=dataset.config_digest,
        dod=dataset.dod, efficiency=dataset.efficiency)


def save_forest(forest: RegressionForest, path) -> None:
    doc = {
        "format": FOREST_FORMAT,
        "num_features": forest.num_features,
        "params": forest.params,
        "dod": forest.dod.tolist(),
        "efficiency": forest.efficiency.tolist(),
        "train_indices": forest.train_indices,
        "test_indices": forest.test_indices,
        "r2_test": forest.r2_test,
        "config_hash": forest.config_digest,
        "trees": [{f: getattr(t, f) for f in TREE_FIELDS}
                  for t in forest.trees],
    }
    Path(path).write_text(json.dumps(doc, allow_nan=False) + "\n")


def _check_tree(t, where: str) -> None:
    """Raise ValueError unless `t` is a forest file's tree: equal-length
    node lists, finite thresholds and values, features from -1 (a leaf) to
    the last feature column, and every node but the root the child of
    exactly one internal node that comes before it."""
    if not (isinstance(t, dict)
            and all(type(t.get(f)) is list for f in TREE_FIELDS)):
        raise ValueError(f"{where} must be an object with list fields "
                         f"{', '.join(TREE_FIELDS)}")
    n = len(t["feature"])
    if not n or any(len(t[f]) != n for f in TREE_FIELDS):
        raise ValueError(f"{where}: its lists {', '.join(TREE_FIELDS)} must "
                         f"hold one entry per node, and a tree has a root")
    for f in ("threshold", "value"):
        if _finite_floats(t[f]) is None:
            raise ValueError(f"{where} {f!r} must hold finite numbers")
    children = []
    for j, feature in enumerate(t["feature"]):
        if type(feature) is not int or not (
                -1 <= feature < NUM_PHYSICS_FEATURES):
            raise ValueError(f"{where} 'feature'[{j}] must be -1 (a leaf) "
                             f"or a column 0 to {NUM_PHYSICS_FEATURES - 1}, "
                             f"got {feature!r:.40}")
        if feature >= 0:
            for side in ("left", "right"):
                child = t[side][j]
                if type(child) is not int or not j < child < n:
                    raise ValueError(
                        f"{where} {side!r}[{j}] is {child!r:.40}; a child "
                        f"comes after its parent, inside the {n} nodes")
                children.append(child)
    if sorted(children) != list(range(1, n)):
        raise ValueError(f"{where}: every node but the root must be the "
                         f"child of exactly one node")


def load_forest(path, expected_config_hash: str | None = None,
                storage=None) -> RegressionForest:
    """A forest from its file, checked as outside input: every key present
    with its JSON type, a finite soft-split width, schedules of finite
    numbers, equal to the `dod_schedule`s and `efficiency_schedule`s of the
    config's `storage` units when given, and at least one well-formed tree
    (`_check_tree`); anything else raises ValueError naming the file and
    the key."""
    doc = parse_json(Path(path).read_text(), path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a forest file holds a JSON object")
    if doc.get("format") != FOREST_FORMAT:
        raise ValueError(f"{path}: not a {FOREST_FORMAT} forest file "
                         f"(found {doc.get('format')!r}); retrain it")
    _check_keys(doc, FOREST_KEYS, path)
    if (expected_config_hash is not None
            and doc["config_hash"] != expected_config_hash):
        raise IncompatibleArtifact(
            f"{path}: forest was trained under a different configuration")
    smoothing = doc["params"].get("smoothing")
    if _finite_floats([smoothing]) is None or smoothing < 0:
        raise ValueError(f"{path}: 'params' 'smoothing' must be a finite "
                         f"number >= 0, got {smoothing!r:.40}")
    schedules = _read_schedules(doc, path)
    if storage is not None:
        # the dataset's sidecar, not the config, gave the forest these
        for key, got in schedules.items():
            want = [getattr(tech, f"{key}_schedule") for tech in storage]
            if not np.array_equal(got, np.array(want, dtype=float).T):
                raise ValueError(f"{path}: {key!r} is not the config's "
                                 f"{key}_schedule of each storage unit; "
                                 f"retrain the forest on a dataset of this "
                                 f"config")
    if not doc["trees"]:
        raise ValueError(f"{path}: 'trees' is empty; a forest holds at "
                         f"least one tree")
    for i, t in enumerate(doc["trees"]):
        _check_tree(t, f"{path}: 'trees'[{i}]")
    trees = [RegressionTree(**{f: t[f] for f in TREE_FIELDS})
             for t in doc["trees"]]
    return RegressionForest(trees=trees, num_features=doc["num_features"],
                            params=doc["params"],
                            train_indices=doc["train_indices"],
                            test_indices=doc["test_indices"],
                            r2_test=doc["r2_test"],
                            config_digest=doc["config_hash"],
                            **schedules)
