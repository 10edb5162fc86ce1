"""Domain types, JSON configuration ingestion, and hourly series handling.

A configuration document has exactly the top-level keys `planning`, `storage`,
`facilities`, `series`, `rl`, `metamodel`, and `seed`. Series entries are either
a CSV path (resolved relative to the config file), a number (synthesize a
profile with that mean), or null (synthesize with the kind's default mean).
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .renewables import RenewableParams
from .rng import stream

__all__ = [
    "ConfigError", "IncompatibleArtifact", "StorageTechnology", "FacilityClass",
    "HourlySeries", "RlParams", "MetamodelParams", "PlanningConfig", "Config",
    "load_config", "save_config", "load_series", "synth_profile",
    "config_hash",
]

HOURS_PER_YEAR = 8760

SERIES_KINDS = ("demand", "irradiance", "wind")

# Fallback means for synthesized profiles, per kind. Irradiance is shaped with
# a fixed clear-sky peak of 1 kW/m^2 and is not rescaled by default.
DEFAULT_SYNTH_MEAN = {"demand": 1.0, "wind": 6.5, "irradiance": None}


class ConfigError(ValueError):
    """Raised for parse failures, schema violations, and invariant violations."""


class IncompatibleArtifact(RuntimeError):
    """An on-disk artifact was produced under a different configuration."""


@dataclass(frozen=True)
class StorageTechnology:
    """One storage option's per-period characteristic schedules and price chain."""

    id: int
    name: str
    price_schedule: tuple[float, ...]
    advance_prob_schedule: tuple[float, ...]
    lifetime_schedule: tuple[float, ...]
    efficiency_schedule: tuple[float, ...]
    dod_schedule: tuple[float, ...]

    def validate(self, horizon_periods: int) -> None:
        schedules = {
            "price_schedule": self.price_schedule,
            "advance_prob_schedule": self.advance_prob_schedule,
            "lifetime_schedule": self.lifetime_schedule,
            "efficiency_schedule": self.efficiency_schedule,
            "dod_schedule": self.dod_schedule,
        }
        for key, sched in schedules.items():
            if len(sched) != horizon_periods:
                raise ConfigError(
                    f"storage[{self.id}].{key}: expected {horizon_periods} entries, "
                    f"got {len(sched)}")
        if any(p <= 0 for p in self.price_schedule):
            raise ConfigError(f"storage[{self.id}].price_schedule: prices must be > 0")
        if any(b > a for a, b in zip(self.price_schedule, self.price_schedule[1:])):
            raise ConfigError(
                f"storage[{self.id}].price_schedule: must be non-increasing")
        if any(not 0 <= p <= 1 for p in self.advance_prob_schedule):
            raise ConfigError(
                f"storage[{self.id}].advance_prob_schedule: values must lie in [0, 1]")
        if self.advance_prob_schedule[-1] != 0:
            raise ConfigError(
                f"storage[{self.id}].advance_prob_schedule: final period must be 0")
        if any(not 0 < e <= 1 for e in self.efficiency_schedule):
            raise ConfigError(
                f"storage[{self.id}].efficiency_schedule: values must lie in (0, 1]")
        if any(not 0 < d <= 1 for d in self.dod_schedule):
            raise ConfigError(f"storage[{self.id}].dod_schedule: values must lie in (0, 1]")
        if any(life < 1 for life in self.lifetime_schedule):
            raise ConfigError(f"storage[{self.id}].lifetime_schedule: lifetimes must be >= 1")


@dataclass(frozen=True)
class FacilityClass:
    """A prioritized demand class: count, outage penalty, and critical fraction."""

    name: str
    count: int
    voll: float
    critical_factor: float
    priority_rank: int
    profile: str

    def validate(self) -> None:
        if self.count < 1:
            raise ConfigError(f"facilities[{self.name}].count: must be >= 1")
        if self.voll <= 0:
            raise ConfigError(f"facilities[{self.name}].voll: must be > 0")
        if not 0 < self.critical_factor <= 1:
            raise ConfigError(
                f"facilities[{self.name}].critical_factor: must lie in (0, 1]")


@dataclass(frozen=True)
class HourlySeries:
    """One year of hourly samples: demand in kWh, irradiance in kW/m^2, wind in m/s."""

    values: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in SERIES_KINDS:
            raise ConfigError(f"unknown series kind {self.kind!r}")
        values = np.asarray(self.values, dtype=float)
        if values.shape != (HOURS_PER_YEAR,):
            raise ConfigError(
                f"{self.kind} series: expected {HOURS_PER_YEAR} values, got {values.shape}")
        if np.any(values < 0):
            raise ConfigError(f"{self.kind} series: negative value")
        object.__setattr__(self, "values", values)
        self.values.setflags(write=False)


@dataclass(frozen=True)
class RlParams:
    gamma: float
    episodes: int
    alpha_start: float = 1.0
    alpha_end: float = 0.02
    epsilon_start: float = 1.0
    epsilon_end: float = 0.02

    def validate(self) -> None:
        if not 0 < self.gamma <= 1:
            raise ConfigError("rl.gamma: must lie in (0, 1]")
        if self.episodes < 1:
            raise ConfigError("rl.episodes: must be >= 1")
        for prefix in ("alpha", "epsilon"):
            start = getattr(self, f"{prefix}_start")
            end = getattr(self, f"{prefix}_end")
            if not 0 <= end <= start <= 1:
                raise ConfigError(f"rl.{prefix}: need 0 <= end <= start <= 1")


@dataclass(frozen=True)
class MetamodelParams:
    observations: int
    trials: int
    trees: int = 10
    train_fraction: float = 0.8
    min_leaf: int = 2
    max_depth: int | None = None
    features_per_split: int | None = None

    def validate(self) -> None:
        if self.observations < 1:
            raise ConfigError("metamodel.observations: must be >= 1")
        if self.trials < 1:
            raise ConfigError("metamodel.trials: must be >= 1")
        if self.trees < 1:
            raise ConfigError("metamodel.trees: must be >= 1")
        if not 0 < self.train_fraction < 1:
            raise ConfigError("metamodel.train_fraction: must lie in (0, 1)")
        if self.min_leaf < 1:
            raise ConfigError("metamodel.min_leaf: must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ConfigError("metamodel.max_depth: must be >= 1 or null")
        if self.features_per_split is not None and self.features_per_split < 1:
            raise ConfigError("metamodel.features_per_split: must be >= 1 or null")


@dataclass(frozen=True)
class PlanningConfig:
    horizon_periods: int
    years_per_period: int
    interest_rate: float
    demand_growth_rate: float
    caidi: float
    saifi: float
    expansion_levels_kwh: tuple[float, ...]
    renewables: RenewableParams

    def validate(self) -> None:
        if self.horizon_periods < 1:
            raise ConfigError("planning.horizon_periods: must be >= 1")
        if self.years_per_period < 1:
            raise ConfigError("planning.years_per_period: must be >= 1")
        if self.interest_rate < 0:
            raise ConfigError("planning.interest_rate: must be >= 0")
        if self.demand_growth_rate < 0:
            raise ConfigError("planning.demand_growth_rate: must be >= 0")
        if self.caidi <= 1:
            raise ConfigError("planning.caidi: must be > 1")
        if self.saifi <= 0:
            raise ConfigError("planning.saifi: must be > 0")
        levels = self.expansion_levels_kwh
        if not levels or any(lv <= 0 for lv in levels):
            raise ConfigError("planning.expansion_levels_kwh: must be positive")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ConfigError("planning.expansion_levels_kwh: must be strictly increasing")

    @property
    def horizon_hours(self) -> int:
        return self.horizon_periods * self.years_per_period * HOURS_PER_YEAR


@dataclass(frozen=True)
class Config:
    """A fully resolved configuration: validated types plus loaded series."""

    planning: PlanningConfig
    storage: tuple[StorageTechnology, ...]
    facilities: tuple[FacilityClass, ...]
    rl: RlParams
    metamodel: MetamodelParams
    master_seed: int
    series_spec: dict
    demand_profiles: dict[str, HourlySeries] = field(repr=False)
    irradiance: HourlySeries = field(repr=False)
    wind: HourlySeries = field(repr=False)
    # sha256 of referenced series files, path -> digest, folded into config_hash
    file_digests: dict[str, str] = field(default_factory=dict, repr=False)

    @property
    def facilities_by_priority(self) -> tuple[FacilityClass, ...]:
        return tuple(sorted(self.facilities, key=lambda f: f.priority_rank))

    @property
    def num_units(self) -> int:
        return len(self.storage)

    @property
    def num_levels(self) -> int:
        return len(self.planning.expansion_levels_kwh)


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown key {sorted(unknown)[0]!r}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing key {sorted(missing)[0]!r}")


def synth_profile(kind: str, seed: int, mean: float | None = None,
                  label: str = "") -> HourlySeries:
    """Deterministic synthetic year: diurnal and seasonal sinusoids, bounded noise.

    `mean` rescales the series to that exact annual mean; None keeps the kind's
    natural scale (irradiance) or the default mean (demand, wind). `label` keeps
    profiles with the same seed distinct, one stream per profile id.
    """
    if kind not in SERIES_KINDS:
        raise ConfigError(f"unknown series kind {kind!r}")
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
        # daylight window widens in summer; midnight and small hours stay dark
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
    return HourlySeries(values=values, kind=kind)


def load_series(path: str | Path, kind: str) -> HourlySeries:
    """Read an `hour,value` CSV with exactly one year of hourly rows."""
    path = Path(path)
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["hour", "value"]:
                raise ConfigError(f"{path}: expected header 'hour,value', got {header}")
            rows = list(reader)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if len(rows) != HOURS_PER_YEAR:
        raise ConfigError(f"{path}: expected {HOURS_PER_YEAR} rows, got {len(rows)}")
    values = np.empty(HOURS_PER_YEAR)
    for i, row in enumerate(rows):
        if len(row) != 2 or int(row[0]) != i:
            raise ConfigError(f"{path}: row {i}: expected 'hour,value' with hour={i}")
        values[i] = float(row[1])
        if values[i] < 0:
            raise ConfigError(f"{path}: row {i}: negative value {row[1]}")
    return HourlySeries(values=values, kind=kind)


def _resolve_series(entry, kind: str, label: str, base_dir: Path,
                    master_seed: int, digests: dict[str, str]) -> HourlySeries:
    if entry is None:
        return synth_profile(kind, master_seed, label=label)
    if isinstance(entry, (int, float)) and not isinstance(entry, bool):
        if entry <= 0:
            raise ConfigError(f"series.{label or kind}: synthetic mean must be > 0")
        return synth_profile(kind, master_seed, mean=float(entry), label=label)
    if isinstance(entry, str):
        path = base_dir / entry
        series = load_series(path, kind)
        digests[entry] = hashlib.sha256(path.read_bytes()).hexdigest()
        return series
    raise ConfigError(f"series.{label or kind}: expected path, number, or null")


def _parse_document(doc: dict, base_dir: Path) -> Config:
    _require_keys(doc, {"planning", "storage", "facilities", "series", "rl",
                        "metamodel", "seed"},
                  {"planning", "storage", "facilities", "series", "rl",
                   "metamodel", "seed"}, "config")

    plan_doc = dict(doc["planning"])
    _require_keys(plan_doc,
                  {"horizon_periods", "years_per_period", "interest_rate",
                   "demand_growth_rate", "caidi", "saifi",
                   "expansion_levels_kwh", "renewables"},
                  {"horizon_periods", "years_per_period", "interest_rate",
                   "demand_growth_rate", "caidi", "saifi",
                   "expansion_levels_kwh", "renewables"}, "planning")
    ren_doc = dict(plan_doc["renewables"])
    ren_fields = {"eta_solar", "cell_area_m2", "cells_per_panel", "panels",
                  "eta_wind", "air_density", "rotor_area_m2", "turbines",
                  "cut_in_ms", "cut_out_ms", "wind_exponent"}
    _require_keys(ren_doc, ren_fields, ren_fields - {"wind_exponent"},
                  "planning.renewables")
    try:
        renewables = RenewableParams(**ren_doc)
    except ValueError as exc:
        raise ConfigError(f"planning.renewables: {exc}") from exc
    planning = PlanningConfig(
        horizon_periods=int(plan_doc["horizon_periods"]),
        years_per_period=int(plan_doc["years_per_period"]),
        interest_rate=float(plan_doc["interest_rate"]),
        demand_growth_rate=float(plan_doc["demand_growth_rate"]),
        caidi=float(plan_doc["caidi"]),
        saifi=float(plan_doc["saifi"]),
        expansion_levels_kwh=tuple(float(x) for x in plan_doc["expansion_levels_kwh"]),
        renewables=renewables,
    )
    planning.validate()

    storage_fields = {"name", "price_schedule", "advance_prob_schedule",
                      "lifetime_schedule", "efficiency_schedule", "dod_schedule"}
    storage = []
    if not isinstance(doc["storage"], list) or not doc["storage"]:
        raise ConfigError("storage: expected a non-empty list")
    for idx, entry in enumerate(doc["storage"]):
        _require_keys(entry, storage_fields, storage_fields, f"storage[{idx}]")
        tech = StorageTechnology(
            id=idx,
            name=str(entry["name"]),
            price_schedule=tuple(float(x) for x in entry["price_schedule"]),
            advance_prob_schedule=tuple(float(x) for x in entry["advance_prob_schedule"]),
            lifetime_schedule=tuple(float(x) for x in entry["lifetime_schedule"]),
            efficiency_schedule=tuple(float(x) for x in entry["efficiency_schedule"]),
            dod_schedule=tuple(float(x) for x in entry["dod_schedule"]),
        )
        tech.validate(planning.horizon_periods)
        storage.append(tech)

    facility_fields = {"name", "count", "voll", "critical_factor",
                       "priority_rank", "profile"}
    facilities = []
    if not isinstance(doc["facilities"], list) or not doc["facilities"]:
        raise ConfigError("facilities: expected a non-empty list")
    for idx, entry in enumerate(doc["facilities"]):
        _require_keys(entry, facility_fields, facility_fields, f"facilities[{idx}]")
        fac = FacilityClass(
            name=str(entry["name"]),
            count=int(entry["count"]),
            voll=float(entry["voll"]),
            critical_factor=float(entry["critical_factor"]),
            priority_rank=int(entry["priority_rank"]),
            profile=str(entry["profile"]),
        )
        fac.validate()
        facilities.append(fac)
    ranks = sorted(f.priority_rank for f in facilities)
    if ranks != list(range(1, len(facilities) + 1)):
        raise ConfigError("facilities: priority ranks must be a permutation of "
                          f"1..{len(facilities)}, got {ranks}")

    rl_fields = {"gamma", "episodes", "alpha_start", "alpha_end",
                 "epsilon_start", "epsilon_end"}
    _require_keys(doc["rl"], rl_fields, {"gamma", "episodes"}, "rl")
    rl = RlParams(gamma=float(doc["rl"]["gamma"]),
                  episodes=int(doc["rl"]["episodes"]),
                  **{k: float(v) for k, v in doc["rl"].items()
                     if k not in ("gamma", "episodes")})
    rl.validate()

    meta_fields = {"observations", "trials", "trees", "train_fraction",
                   "min_leaf", "max_depth", "features_per_split"}
    _require_keys(doc["metamodel"], meta_fields, {"observations", "trials"},
                  "metamodel")
    meta_doc = dict(doc["metamodel"])
    metamodel = MetamodelParams(
        observations=int(meta_doc.pop("observations")),
        trials=int(meta_doc.pop("trials")),
        **meta_doc)
    metamodel.validate()

    seed = doc["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("seed: expected a non-negative integer")

    series_doc = doc["series"]
    _require_keys(series_doc, {"demand", "irradiance", "wind"},
                  {"demand", "irradiance", "wind"}, "series")
    if not isinstance(series_doc["demand"], dict):
        raise ConfigError("series.demand: expected an object keyed by profile id")
    digests: dict[str, str] = {}
    profiles = {}
    for profile_id, entry in series_doc["demand"].items():
        profiles[profile_id] = _resolve_series(entry, "demand", profile_id,
                                               base_dir, seed, digests)
    for fac in facilities:
        if fac.profile not in profiles:
            raise ConfigError(
                f"facilities[{fac.name}].profile: no series.demand entry "
                f"{fac.profile!r}")
    irradiance = _resolve_series(series_doc["irradiance"], "irradiance",
                                 "irradiance", base_dir, seed, digests)
    wind = _resolve_series(series_doc["wind"], "wind", "wind", base_dir,
                           seed, digests)

    return Config(planning=planning, storage=tuple(storage),
                  facilities=tuple(facilities), rl=rl, metamodel=metamodel,
                  master_seed=seed, series_spec=series_doc,
                  demand_profiles=profiles, irradiance=irradiance, wind=wind,
                  file_digests=digests)


def load_config(path: str | Path) -> Config:
    """Parse and validate a configuration file, resolving all series."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: parse error: {exc}") from exc
    return _parse_document(doc, path.parent)


def to_document(config: Config) -> dict:
    """The JSON document form of a configuration, suitable for saving."""
    ren = config.planning.renewables
    return {
        "planning": {
            "horizon_periods": config.planning.horizon_periods,
            "years_per_period": config.planning.years_per_period,
            "interest_rate": config.planning.interest_rate,
            "demand_growth_rate": config.planning.demand_growth_rate,
            "caidi": config.planning.caidi,
            "saifi": config.planning.saifi,
            "expansion_levels_kwh": list(config.planning.expansion_levels_kwh),
            "renewables": {
                "eta_solar": ren.eta_solar,
                "cell_area_m2": ren.cell_area_m2,
                "cells_per_panel": ren.cells_per_panel,
                "panels": ren.panels,
                "eta_wind": ren.eta_wind,
                "air_density": ren.air_density,
                "rotor_area_m2": ren.rotor_area_m2,
                "turbines": ren.turbines,
                "cut_in_ms": ren.cut_in_ms,
                "cut_out_ms": ren.cut_out_ms,
                "wind_exponent": ren.wind_exponent,
            },
        },
        "storage": [
            {
                "name": tech.name,
                "price_schedule": list(tech.price_schedule),
                "advance_prob_schedule": list(tech.advance_prob_schedule),
                "lifetime_schedule": list(tech.lifetime_schedule),
                "efficiency_schedule": list(tech.efficiency_schedule),
                "dod_schedule": list(tech.dod_schedule),
            }
            for tech in config.storage
        ],
        "facilities": [
            {
                "name": fac.name,
                "count": fac.count,
                "voll": fac.voll,
                "critical_factor": fac.critical_factor,
                "priority_rank": fac.priority_rank,
                "profile": fac.profile,
            }
            for fac in config.facilities
        ],
        "series": config.series_spec,
        "rl": {
            "gamma": config.rl.gamma,
            "episodes": config.rl.episodes,
            "alpha_start": config.rl.alpha_start,
            "alpha_end": config.rl.alpha_end,
            "epsilon_start": config.rl.epsilon_start,
            "epsilon_end": config.rl.epsilon_end,
        },
        "metamodel": {
            "observations": config.metamodel.observations,
            "trials": config.metamodel.trials,
            "trees": config.metamodel.trees,
            "train_fraction": config.metamodel.train_fraction,
            "min_leaf": config.metamodel.min_leaf,
            "max_depth": config.metamodel.max_depth,
            "features_per_split": config.metamodel.features_per_split,
        },
        "seed": config.master_seed,
    }


def save_config(config: Config, path: str | Path) -> None:
    Path(path).write_text(json.dumps(to_document(config), indent=2) + "\n")


def config_hash(config: Config) -> str:
    """Digest covering the document and the contents of referenced series files."""
    canonical = json.dumps(to_document(config), sort_keys=True,
                           separators=(",", ":"))
    h = hashlib.sha256(canonical.encode("utf-8"))
    for ref in sorted(config.file_digests):
        h.update(b"\0")
        h.update(ref.encode("utf-8"))
        h.update(config.file_digests[ref].encode("utf-8"))
    return h.hexdigest()
