"""Run configuration: one JSON document aggregating every knob, with strict
unknown-key rejection and the dataclass defaults for anything omitted.

SCHEMA is the single description of the document: parsing, the unknown-key
checks and the resolved echo are all derived from it."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from .contrastive import MiningSpec, PerturbSpec
from .crops import CropSpec
from .disambig import DisambigConfig
from .errors import ConfigurationError, ValidationError
from .floorplan import DEFAULT_FOV, DEFAULT_MAX_RANGE, DEFAULT_N_RAYS
from .raybins import BinSpec
from .scoring import DEFAULT_SIGMA
from .synth import NoiseSpec, WorldSpec


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _pair(value) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise TypeError(f"expected a pair of numbers, got {value!r}")
    return (_number(value[0]), _number(value[1]))


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _or_none(convert):
    return lambda value: None if value is None else convert(value)


@dataclass(frozen=True)
class RayParams:
    n_rays: int = DEFAULT_N_RAYS
    fov_deg: float = math.degrees(DEFAULT_FOV)
    max_range_m: float = DEFAULT_MAX_RANGE

    def __post_init__(self):
        if self.n_rays < 2:
            raise ValidationError(f"n_rays must be >= 2, got {self.n_rays}")
        if not 0 < self.fov_deg < 360:
            raise ValidationError(f"fov_deg must lie in (0, 360), got {self.fov_deg}")
        if not self.max_range_m > 0:
            raise ValidationError(f"max_range_m must be > 0, got {self.max_range_m}")

    @property
    def fov(self) -> float:
        return math.radians(self.fov_deg)


@dataclass(frozen=True)
class GridParams:
    cell_stride_m: float | None = None  # None: map resolution rule
    n_orientations: int = 36

    def __post_init__(self):
        if self.cell_stride_m is not None and not self.cell_stride_m > 0:
            raise ValidationError(f"cell_stride_m must be > 0, got {self.cell_stride_m}")
        if self.n_orientations < 1:
            raise ValidationError(
                f"n_orientations must be >= 1, got {self.n_orientations}"
            )


@dataclass(frozen=True)
class BenchParams:
    n_queries: int = 50
    n_worlds: int = 2
    n_anchors: int = 64
    query_seed: int = 1
    sigma_m: float = DEFAULT_SIGMA

    def __post_init__(self):
        for name in ("n_queries", "n_worlds", "n_anchors"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.query_seed < 0:
            raise ValidationError(f"query_seed must be >= 0, got {self.query_seed}")
        if not self.sigma_m > 0:
            raise ValidationError(f"sigma_m must be > 0, got {self.sigma_m}")


@dataclass(frozen=True)
class EmbedderParams:
    dim: int = 64
    seed: int = 7

    def __post_init__(self):
        if self.dim < 2:
            raise ValidationError(f"dim must be >= 2, got {self.dim}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


# section -> (dataclass, {JSON key: (dataclass field, converter)}); the
# top-level document is these sections plus an integer "seed".
SCHEMA = {
    "rays": (RayParams, {
        "n_rays": ("n_rays", _integer),
        "fov_deg": ("fov_deg", _number),
        "max_range_m": ("max_range_m", _number),
    }),
    "bins": (BinSpec, {
        "d_min_m": ("d_min", _number),
        "d_max_m": ("d_max", _number),
        "n_bins": ("n_bins", _integer),
        "gamma": ("gamma", _number),
    }),
    "grid": (GridParams, {
        "cell_stride_m": ("cell_stride_m", _or_none(_number)),
        "n_orientations": ("n_orientations", _integer),
    }),
    "crop": (CropSpec, {
        "side_m": ("side_m", _number),
        "out_px": ("out_px", _or_none(_integer)),
        "channels": ("channels", _text),
    }),
    "perturb": (PerturbSpec, {
        "pos_b_m": ("pos_b", _number),
        "ang_b_rad": ("ang_b", _number),
    }),
    "mining": (MiningSpec, {
        "inner_neg_dist_m": ("inner_neg_dist", _pair),
        "ori_neg_rotation_rad": ("ori_neg_rotation", _number),
        "n_inner": ("n_inner", _integer),
        "n_cross": ("n_cross", _integer),
        "n_ori": ("n_ori", _integer),
        "seed": ("seed", _integer),
    }),
    "disambig": (DisambigConfig, {
        "w": ("w", _number),
        "softmax_temperature": ("softmax_temperature", _number),
        "x": ("x", _integer),
    }),
    "world": (WorldSpec, {
        "layout": ("layout", _text),
        "extent_m": ("extent", _pair),
        "resolution_m": ("resolution", _number),
        "texture_policy": ("texture_policy", _text),
        "seed": ("seed", _integer),
    }),
    "noise": (NoiseSpec, {
        "depth_sigma_m": ("depth_sigma", _number),
        "dropout": ("dropout", _number),
    }),
    "embedder": (EmbedderParams, {
        "dim": ("dim", _integer),
        "seed": ("seed", _integer),
    }),
    "bench": (BenchParams, {
        "n_queries": ("n_queries", _integer),
        "n_worlds": ("n_worlds", _integer),
        "n_anchors": ("n_anchors", _integer),
        "query_seed": ("query_seed", _integer),
        "sigma_m": ("sigma_m", _number),
    }),
}


@dataclass(frozen=True)
class RunConfig:
    rays: RayParams = RayParams()
    bins: BinSpec = BinSpec()
    grid: GridParams = GridParams()
    crop: CropSpec = CropSpec()
    perturb: PerturbSpec = PerturbSpec()
    mining: MiningSpec = MiningSpec()
    disambig: DisambigConfig = DisambigConfig()
    world: WorldSpec = WorldSpec()
    noise: NoiseSpec = NoiseSpec()
    embedder: EmbedderParams = EmbedderParams()
    bench: BenchParams = BenchParams()
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")

    def resolved(self) -> dict:
        """Fully resolved document for echoing into the run directory."""
        doc = {}
        for name, (_, keys) in SCHEMA.items():
            section = getattr(self, name)
            doc[name] = {key: _plain(getattr(section, f)) for key, (f, _) in keys.items()}
        doc["seed"] = self.seed
        return doc


def _plain(value):
    return list(value) if isinstance(value, tuple) else value


def _convert(key: str, convert, value):
    try:
        return convert(value)
    except (TypeError, OverflowError) as exc:
        raise ConfigurationError(f"malformed config value {key}: {exc}") from exc


def _section(name: str, sub):
    cls, keys = SCHEMA[name]
    if not isinstance(sub, dict):
        raise ConfigurationError(f"config section {name!r} must be an object")
    unknown = set(sub) - set(keys)
    if unknown:
        raise ConfigurationError(
            f"unknown keys in config section {name!r}: {sorted(unknown)}"
        )
    fields = {}
    for key, value in sub.items():
        field, convert = keys[key]
        fields[field] = _convert(f"{name}.{key}", convert, value)
    return cls(**fields)


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigurationError("config must be a JSON object")
    unknown = set(doc) - set(SCHEMA) - {"seed"}
    if unknown:
        raise ConfigurationError(f"unknown top-level config keys: {sorted(unknown)}")
    fields = {name: _section(name, doc[name]) for name in SCHEMA if name in doc}
    if "seed" in doc:
        fields["seed"] = _convert("seed", _integer, doc["seed"])
    return RunConfig(**fields)


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return parse_config({})
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)


def echo_config(config: RunConfig, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "resolved_config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config.resolved(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
