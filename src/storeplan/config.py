"""Domain types, JSON configuration ingestion, and hourly series handling.

A configuration document has exactly the top-level keys `planning`, `storage`,
`facilities`, `series`, `rl`, `metamodel`, and `seed`. Each section's keys are
the fields of its dataclass and are named nowhere else: fields without a
default are required, and each value must have its field's declared type.
Series entries are either a CSV path (resolved relative to the config file), a
number (synthesize a profile with that mean), or null (synthesize with the
kind's default mean).
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import sys
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .renewables import RenewableParams
from .rng import stream

__all__ = [
    "ConfigError", "IncompatibleArtifact", "StorageTechnology", "FacilityClass",
    "HourlySeries", "RlParams", "MetamodelParams", "PlanningConfig", "Config",
    "load_config", "parse_json", "load_series", "synth_profile",
    "config_hash", "file_sha256",
]

HOURS_PER_YEAR = 8760

# The surrogate forest splits on (period, S_d, S_c); see metamodel.
NUM_PHYSICS_FEATURES = 3

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
        for f in fields(self):
            sched = getattr(self, f.name)
            if f.name.endswith("_schedule") and len(sched) != horizon_periods:
                raise ConfigError(
                    f"storage[{self.id}].{f.name}: expected {horizon_periods} "
                    f"entries, got {len(sched)}")
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
        if not np.isfinite(values).all():
            raise ConfigError(f"{self.kind} series: non-finite value")
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
    """`observations` and `trials` size the dataset; the optional fields are
    the forest's fit settings, with their defaults."""

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
        if (self.features_per_split is not None
                and not 1 <= self.features_per_split <= NUM_PHYSICS_FEATURES):
            raise ConfigError("metamodel.features_per_split: must lie in "
                              f"1..{NUM_PHYSICS_FEATURES} or be null")


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


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown key {sorted(unknown)[0]!r}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing key {sorted(missing)[0]!r}")


def _entries(doc: dict, key: str) -> list:
    if not isinstance(doc[key], list) or not doc[key]:
        raise ConfigError(f"{key}: expected a non-empty list")
    return doc[key]


# json reads `NaN`, `Infinity` and `1e400` as non-finite floats, and an
# integer of 309 digits or more as an int past the float range; a float
# field takes none of them.
_FLOAT_MAX = sys.float_info.max


def _finite_floats(value: list) -> tuple[float, ...] | None:
    """The JSON numbers in `value` as floats, checked in one pass; None if
    any entry is not a finite int or float (nor a bool), so that the
    entry-by-entry check names it."""
    if not set(map(type, value)) <= {int, float}:
        return None
    try:
        numbers = tuple(map(float, value))
    except OverflowError:  # an integer past the float range
        return None
    return numbers if all(map(math.isfinite, numbers)) else None


def _typed(hint, value, where: str):
    """`value` as the declared type `hint`; ConfigError if it is not one.

    A float field takes any finite JSON number, an int field only a JSON
    integer.
    """
    if is_dataclass(hint):
        # A nested section keeps its numbers as written: coercing the
        # renewables' `cut_in_ms: 3` to 3.0 would change the config hash.
        return _section(hint, value, where, coerce=False)
    if typing.get_origin(hint) is tuple:  # tuple[T, ...]
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        item = typing.get_args(hint)[0]
        numbers = _finite_floats(value) if item is float else None
        if numbers is not None:
            return numbers
        return tuple(_typed(item, v, f"{where}[{i}]")
                     for i, v in enumerate(value))
    if isinstance(hint, types.UnionType):  # T | None
        if value is None:
            return None
        hint, _ = typing.get_args(hint)
    accepted = (int, float) if hint is float else hint
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"{where}: expected {hint.__name__}, got {value!r}")
    if hint is float and not abs(value) <= _FLOAT_MAX:
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return hint(value)


# Resolving the annotation strings costs more than the rest of a parse.
_field_types = functools.cache(typing.get_type_hints)


def _section(cls, obj, where: str, coerce: bool = True, **given):
    """A `cls` section built from its JSON object `obj`.

    The allowed keys are the dataclass fields not passed in `given`, and the
    fields without a default are required. Each value must have its field's
    declared type; with `coerce` it is also converted to that type.
    """
    hints = _field_types(cls)
    keys = [f for f in fields(cls) if f.name not in given]
    _require_keys(obj, {f.name for f in keys},
                  {f.name for f in keys
                   if f.default is MISSING and f.default_factory is MISSING},
                  where)
    for name, raw in obj.items():
        value = _typed(hints[name], raw, f"{where}.{name}")
        given[name] = value if coerce else raw
    try:
        return cls(**given)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


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
    # Each periodic term is computed once on its own grid: hours of the day
    # along a row, days of the year down a column. Broadcasting combines
    # them in the full-year formula's order, and the (365, 24) day-by-hour
    # result read row by row is the year's hours in order, with its bits.
    hod = np.arange(24)
    doy = np.arange(HOURS_PER_YEAR // 24)[:, None]

    if kind == "demand":
        values = (1.0
                  + 0.25 * np.cos(2 * np.pi * (hod - 17) / 24)
                  + 0.10 * np.cos(2 * np.pi * (doy - 200) / 365)).ravel()
        values = values + rng.uniform(-0.08, 0.08, HOURS_PER_YEAR)
        values = np.maximum(values, 0.05)
    elif kind == "wind":
        values = (1.0
                  + 0.22 * np.cos(2 * np.pi * (doy - 15) / 365)
                  + 0.12 * np.cos(2 * np.pi * (hod - 15) / 24)).ravel()
        values = values * (mean if mean else 1.0)
        values = values + rng.uniform(-1.8, 1.8, HOURS_PER_YEAR)
        values = np.maximum(values, 0.0)
    else:
        # daylight window widens in summer; midnight and small hours stay dark
        seasonal = np.cos(2 * np.pi * (doy - 172) / 365)
        daylen = 12 + 3 * seasonal
        elevation = np.cos(np.pi * (hod - 12) / daylen)
        elevation[np.abs(hod - 12) >= daylen / 2] = 0.0
        season = 0.75 + 0.25 * seasonal
        cloud = 1.0 - 0.45 * rng.uniform(0.0, 1.0, HOURS_PER_YEAR) ** 2
        values = (np.maximum(elevation, 0.0) * season).ravel() * cloud

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
        try:
            if len(row) != 2 or int(row[0]) != i:
                raise ValueError
            values[i] = float(row[1])
        except ValueError:
            raise ConfigError(f"{path}: row {i}: expected 'hour,value' with "
                              f"hour={i} and a number, got {row}") from None
        if not math.isfinite(values[i]):
            raise ConfigError(f"{path}: row {i}: non-finite value {row[1]}")
        if values[i] < 0:
            raise ConfigError(f"{path}: row {i}: negative value {row[1]}")
    return HourlySeries(values=values, kind=kind)


def _resolve_series(entry, kind: str, label: str, base_dir: Path,
                    master_seed: int, digests: dict[str, str]) -> HourlySeries:
    if entry is None:
        return synth_profile(kind, master_seed, label=label)
    if isinstance(entry, (int, float)) and not isinstance(entry, bool):
        if not 0 < entry <= _FLOAT_MAX:
            raise ConfigError(f"series.{label or kind}: synthetic mean must be "
                              f"finite and > 0, got {entry!r}")
        return synth_profile(kind, master_seed, mean=float(entry), label=label)
    if isinstance(entry, str):
        path = base_dir / entry
        series = load_series(path, kind)
        digests[entry] = hashlib.sha256(path.read_bytes()).hexdigest()
        return series
    raise ConfigError(f"series.{label or kind}: expected path, number, or null")


def _parse_document(doc: dict, base_dir: Path) -> Config:
    sections = {"planning", "storage", "facilities", "series", "rl",
                "metamodel", "seed"}
    _require_keys(doc, sections, sections, "config")

    planning = _section(PlanningConfig, doc["planning"], "planning")
    planning.validate()

    storage = tuple(
        _section(StorageTechnology, entry, f"storage[{idx}]", id=idx)
        for idx, entry in enumerate(_entries(doc, "storage")))
    for tech in storage:
        tech.validate(planning.horizon_periods)

    facilities = tuple(_section(FacilityClass, entry, f"facilities[{idx}]")
                       for idx, entry in enumerate(_entries(doc, "facilities")))
    for fac in facilities:
        fac.validate()
    ranks = sorted(f.priority_rank for f in facilities)
    if ranks != list(range(1, len(facilities) + 1)):
        raise ConfigError("facilities: priority ranks must be a permutation of "
                          f"1..{len(facilities)}, got {ranks}")

    rl = _section(RlParams, doc["rl"], "rl")
    rl.validate()
    metamodel = _section(MetamodelParams, doc["metamodel"], "metamodel")
    metamodel.validate()

    seed = doc["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("seed: expected a non-negative integer")

    series_doc = doc["series"]
    _require_keys(series_doc, set(SERIES_KINDS), set(SERIES_KINDS), "series")
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

    return Config(planning=planning, storage=storage,
                  facilities=facilities, rl=rl, metamodel=metamodel,
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
    return _parse_document(parse_json(text, path), path.parent)


def file_sha256(path, visit=None) -> str:
    """The sha256 hex digest of the file at `path`, read in 256 KiB chunks,
    so no buffer the size of the file is held. `visit(offset, chunk)`, if
    given, sees each chunk with its offset in the file, in order."""
    digest, offset = hashlib.sha256(), 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 18):
            digest.update(chunk)
            if visit is not None:
                visit(offset, chunk)
            offset += len(chunk)
    return digest.hexdigest()


def parse_json(text: str, path, line: int | None = None):
    """`json.loads(text)`, where `text` is the file at `path`, or its line
    `line` when given. Text that is not JSON raises ConfigError naming the
    file and the line (and column) of the file where parsing stopped."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        where = (f"line {line}" if line is not None
                 else f"line {exc.lineno} column {exc.colno}")
        raise ConfigError(f"{path}: {where}: not valid JSON: {exc.msg}"
                          ) from None


def _section_document(section) -> dict:
    """A section's fields by name, a nested section as its own dict. The
    values are the section's own, not the copies `dataclasses.asdict`
    makes; json writes a tuple as it writes a list."""
    doc = {}
    for f in fields(section):
        value = getattr(section, f.name)
        doc[f.name] = _section_document(value) if is_dataclass(value) else value
    return doc


def to_document(config: Config) -> dict:
    """The JSON document form of a configuration, as `config_hash` digests it."""
    storage = [_section_document(tech) for tech in config.storage]
    for entry in storage:
        del entry["id"]  # a unit's id is its position in the list
    return {
        "planning": _section_document(config.planning),
        "storage": storage,
        "facilities": [_section_document(fac) for fac in config.facilities],
        "series": config.series_spec,
        "rl": _section_document(config.rl),
        "metamodel": _section_document(config.metamodel),
        "seed": config.master_seed,
    }


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
