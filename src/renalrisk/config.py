"""What a no-op stage run reads: the config schema and types, and the model-file header.

This module imports the standard library alone. The CLI, the config loader
and the lineage checks of ``pipeline`` need nothing else, so a stage that
finds its outputs up to date, and every usage or config error, exits without
loading numpy or a stage module; those load once a stage body runs. The stage
modules import these names back (``renalrisk.claims.CodeSetLibrary``,
``renalrisk.model.HyperParams``, ``renalrisk.synth.SynthConfig``,
``renalrisk.pipeline.load_pipeline_config`` and the rest), so each still
resolves there, to the same object.

Each config section, and the codesets file, declares its fields once in a
``*_FIELDS`` dict of name -> (kind, bound), which ``read_section`` parses.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from numbers import Integral, Real
from pathlib import Path
from typing import Mapping, Union

from .errors import ConfigError, DataError

TASKS = ("rrt", "dialysis", "transplant")

# The overlapping prediction horizons in days. The disjoint label windows end
# at them, (0,30], (30,60], ..., (180,365], and one more class means no event
# within the last horizon.
HORIZON_DAYS = (30, 60, 90, 180, 365)
N_CLASSES = len(HORIZON_DAYS) + 1


# ---------------------------------------------------------------------------
# Config fields: each is (kind, bound), checked by check_fields


def _is_number(value, kind=Real) -> bool:
    """Whether value is of kind (Real or Integral) and is no bool, NaN or infinity."""
    finite = not isinstance(value, float) or math.isfinite(value)
    return isinstance(value, kind) and not isinstance(value, bool) and finite


# kind -> (whether a value is of the kind, the words an error uses for it)
_KINDS = {
    "integer": (lambda v: _is_number(v, Integral), "an integer"),
    "number": (_is_number, "a finite number"),
    "probability": (lambda v: _is_number(v) and 0 <= v <= 1, "a probability in [0, 1]"),
    "dates": (
        lambda v: isinstance(v, tuple) and len(v) == 2 and all(isinstance(d, date) for d in v),
        "a [start, end] pair of ISO dates",
    ),
    "path": (lambda v: isinstance(v, str), "a path string"),
    "path or null": (lambda v: v is None or isinstance(v, str), "a path string or null"),
    "object": (lambda v: isinstance(v, dict), "a JSON object"),
    "list": (lambda v: isinstance(v, list) and len(v) > 0, "a non-empty list"),
    "tasks": (
        lambda v: isinstance(v, list) and all(t in TASKS for t in v) and 0 < len(set(v)) == len(v),
        f"a non-empty list of distinct tasks from {TASKS}",
    ),
    "ratios": (
        lambda v: isinstance(v, (list, tuple))
        and len(v) == 3
        and all(_is_number(r) and 0 <= r <= 1 for r in v)  # keeps a huge int out of sum() - 1.0
        and abs(sum(v) - 1.0) <= 1e-9,
        "three split ratios (train, valid, test) >= 0 that sum to 1",
    ),
    "sensitivities": (
        lambda v: isinstance(v, list) and all(_is_number(t) and 0 < t <= 1 for t in v),
        "a list of numbers in (0, 1]",
    ),
    # one performer role is the nephrology signal, so that pool needs two
    "vocab_sizes": (
        lambda v: isinstance(v, Mapping)
        and all(
            name in DEFAULT_VOCAB_SIZES
            and _is_number(size, Integral)
            and size >= 1 + (name == "PERFORMER_ROLE")
            for name, size in v.items()
        ),
        "a map from synth code systems to integers >= 1 (PERFORMER_ROLE >= 2)",
    ),
    "codes": (
        lambda v: isinstance(v, list) and all(isinstance(c, str) and c for c in v),
        "a list of non-empty code strings",
    ),
}

# bound -> whether a value of the field's kind lies within it
_BOUNDS = {
    None: lambda v: True,
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    "> 0": lambda v: v > 0,
    "in (0, 1]": lambda v: 0 < v <= 1,
    "holding a first of month": lambda v: (
        (v[0].year, v[0].month) < (v[1].year, v[1].month) or v[0].day == 1 and v[0] <= v[1]
    ),
    "spanning two calendar months": lambda v: (v[0].year, v[0].month) < (v[1].year, v[1].month),
}


def check_fields(where: str, values: Mapping, fields: Mapping) -> None:
    """Raise ConfigError for the first value not of its field's kind or outside its bound.

    fields maps each name in values to its (kind, bound); where leads the field
    name in the message (``"synth."``, or ``""`` at the top level).
    """
    for name, value in values.items():
        kind, bound = fields[name]
        test, noun = _KINDS[kind]
        if not (test(value) and _BOUNDS[bound](value)):
            noun += f" {bound}" if bound else ""
            raise ConfigError(f"{where}{name} must be {noun}, got {value!r}")


def _iso_dates(raw):
    """raw as a pair of dates when it is a [start, end] pair of ISO dates, else as it is."""
    try:
        lo, hi = raw
        return date.fromisoformat(lo), date.fromisoformat(hi)
    except (TypeError, ValueError):
        return raw


def read_section(raw, where: str, fields: Mapping, keys: str = "", required=()) -> dict:
    """The config section raw, its dates parsed, once every field passes check_fields.

    Refuses a raw that is not a JSON object, a key outside fields and a missing
    required key. where is the section's dotted name (``""`` at the top level);
    keys names its keys in the unknown-key error (default: "<where> config fields").
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{where or 'config root'} must be a JSON object, got {raw!r}")
    unknown = sorted(raw.keys() - fields.keys())
    if unknown:
        raise ConfigError(f"unknown {keys or where + ' config fields'}: {unknown}")
    missing = [name for name in required if name not in raw]
    if missing:
        raise ConfigError(f"{where or 'config'} requires {', '.join(missing)}")
    values = {k: _iso_dates(v) if fields[k][0] == "dates" else v for k, v in raw.items()}
    check_fields(where and where + ".", values, fields)
    return values


def _read_json(path, what: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}")
    except (OSError, ValueError) as exc:  # a directory, unreadable bytes or invalid JSON
        raise ConfigError(f"{what} {path}: not a readable JSON file ({exc})")


# ---------------------------------------------------------------------------
# Code sets


class CodeSystem(str, Enum):
    """Coded feature streams carried by claim items.

    Condition, procedure, encounter, and medication streams are kept separate
    even when the underlying code space overlaps (e.g. a principal diagnosis
    is a distinct stream from an ordinary diagnosis).
    """

    ICD9_DX = "ICD9_DX"
    ICD10_DX = "ICD10_DX"
    CCS_DX = "CCS_DX"
    HCC = "HCC"
    ICD9_PX = "ICD9_PX"
    ICD10_PX = "ICD10_PX"
    CCS_PX = "CCS_PX"
    CPT = "CPT"
    HCPCS = "HCPCS"
    HCPCS_ALPHA = "HCPCS_ALPHA"
    PERFORMER_ROLE = "PERFORMER_ROLE"
    ENCOUNTER_CLASS = "ENCOUNTER_CLASS"
    ADMIT_SOURCE = "ADMIT_SOURCE"
    DISCHARGE_DISPOSITION = "DISCHARGE_DISPOSITION"
    PRINCIPAL_DX_ICD9 = "PRINCIPAL_DX_ICD9"
    PRINCIPAL_DX_ICD10 = "PRINCIPAL_DX_ICD10"
    ENCOUNTER_CCS = "ENCOUNTER_CCS"
    ENCOUNTER_HCC = "ENCOUNTER_HCC"
    REVENUE_CODE = "REVENUE_CODE"
    MED_HCPCS = "MED_HCPCS"
    RXNORM = "RXNORM"


@dataclass(frozen=True)
class CodeSet:
    """Named set of (system, code) pairs, e.g. the dialysis procedure codes."""

    name: str
    codes: frozenset[tuple[CodeSystem, str]]


# Shipped defaults. Clinical definitions are configuration, not code: any of
# these can be overridden by a codesets JSON file (see load_codeset_library).
DEFAULT_CODESETS: dict[str, dict[str, list[str]]] = {
    "ckd": {
        "ICD9_DX": ["5851", "5852", "5853", "5854", "5855", "5856", "5859"],
        "ICD10_DX": ["N181", "N182", "N183", "N184", "N185", "N186", "N189"],
    },
    "dialysis": {
        "CPT": [str(c) for c in range(90951, 90971)],
    },
    "transplant": {
        "CPT": ["50360", "50365"],
    },
    "access_creation": {
        "CPT": ["36818", "36819", "36820", "36821", "36825", "36830", "49324", "49421"],
    },
}


@dataclass(frozen=True)
class CodeSetLibrary:
    """The four configured code sets; renal replacement (rrt) is dialysis or transplant."""

    ckd: CodeSet
    dialysis: CodeSet
    transplant: CodeSet
    access_creation: CodeSet


CODESETS_FIELDS = {name: ("object", None) for name in CodeSetLibrary.__dataclass_fields__}
CODESET_FIELDS = {system.value: ("codes", None) for system in CodeSystem}


def default_codeset_library() -> CodeSetLibrary:
    return _library_from_dict(DEFAULT_CODESETS)


def _library_from_dict(raw) -> CodeSetLibrary:
    raw = read_section(raw, "codesets", CODESETS_FIELDS, "codesets file sections", CODESETS_FIELDS)
    sets = []
    for name in CODESETS_FIELDS:
        where = f"codesets.{name}"
        systems = read_section(raw[name], where, CODESET_FIELDS, f"code systems in {where}")
        codes = frozenset((CodeSystem(s), c) for s, codes in systems.items() for c in codes)
        sets.append(CodeSet(name, codes))
    return CodeSetLibrary(*sets)


def load_codeset_library(path: Union[str, Path, None]) -> CodeSetLibrary:
    """Load code sets from a JSON file, or the shipped defaults when None."""
    if path is None:
        return default_codeset_library()
    return _library_from_dict(_read_json(path, "codesets file"))


# ---------------------------------------------------------------------------
# Checks of the trigger range and the split


def check_trigger_buffer(trigger_range: tuple[date, date], dataset_end: date) -> None:
    """Refuse a trigger range whose last month leaves under the longest horizon of data."""
    end = trigger_range[1]
    if end.toordinal() + HORIZON_DAYS[-1] > dataset_end.toordinal():
        raise ConfigError(
            f"trigger range end {end} needs {HORIZON_DAYS[-1]} days of buffer before "
            f"dataset end {dataset_end}"
        )


def check_split_ratios(ratios) -> None:
    """Refuse anything but three non-negative numbers that sum to 1 (train, valid, test)."""
    check_fields("split.", {"ratios": ratios}, SPLIT_FIELDS)


# ---------------------------------------------------------------------------
# Model hyperparameters and the model-file header


@dataclass(frozen=True)
class HyperParams:
    l1_coefficient: float = 0.0
    initial_learning_rate: float = 0.5
    decay_rate: float = 0.9
    decay_steps: int = 1000
    batch_size: int = 512
    max_epochs: int = 20
    patience: int = 5
    seed: int = 0

    def validate(self) -> None:
        check_fields("", vars(self), HYPERPARAM_FIELDS)


HYPERPARAM_FIELDS = {
    "l1_coefficient": ("number", ">= 0"),
    "initial_learning_rate": ("number", "> 0"),
    "decay_rate": ("number", "in (0, 1]"),
    "decay_steps": ("integer", ">= 1"),
    "batch_size": ("integer", ">= 1"),
    "max_epochs": ("integer", ">= 1"),
    "patience": ("integer", ">= 0"),
    "seed": ("integer", ">= 0"),
}


# The model file starts with this magic and a JSON header (format: see ``model``).
MODEL_MAGIC = b"RNRKLM01"

_HEADER_KEYS = (
    "format_version",
    "task",
    "n_classes",
    "n_features",
    "vocab_hash",
    "hyperparams",
    "lineage",
)


def _read_header(handle, path) -> dict:
    if handle.read(8) != MODEL_MAGIC:
        raise DataError(f"{path}: not a model file (bad magic)")
    size = handle.read(4)
    if len(size) != 4:
        raise DataError(f"{path}: truncated model header")
    (length,) = struct.unpack("<I", size)
    blob = handle.read(length)
    if len(blob) != length:
        raise DataError(f"{path}: truncated model header")
    try:
        header = json.loads(blob.decode("utf-8"))
    except ValueError:  # UnicodeDecodeError and JSONDecodeError
        raise DataError(f"{path}: model header is not UTF-8 JSON")
    if not isinstance(header, dict):
        raise DataError(f"{path}: model header is not a JSON object")
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise DataError(f"{path}: model header lacks {', '.join(missing)}")
    for key in ("n_classes", "n_features"):
        if type(header[key]) is not int or header[key] < 0:
            raise DataError(f"{path}: model header has a bad {key} {header[key]!r}")
    return header


def read_model_header(path: str | Path) -> dict:
    with open(path, "rb") as handle:
        return _read_header(handle, path)


# ---------------------------------------------------------------------------
# Synthetic cohort


DEFAULT_VOCAB_SIZES: dict[str, int] = {
    "ICD9_DX": 240,
    "ICD10_DX": 280,
    "CCS_DX": 90,
    "HCC": 60,
    "ICD9_PX": 90,
    "ICD10_PX": 90,
    "CCS_PX": 60,
    "CPT": 240,
    "HCPCS": 120,
    "HCPCS_ALPHA": 60,
    "PERFORMER_ROLE": 24,
    "ENCOUNTER_CLASS": 6,
    "ADMIT_SOURCE": 6,
    "DISCHARGE_DISPOSITION": 8,
    "REVENUE_CODE": 40,
    "MED_HCPCS": 100,
    "RXNORM": 160,
    "ENCOUNTER_CCS": 60,
    "ENCOUNTER_HCC": 40,
}


@dataclass(frozen=True)
class SynthConfig:
    n_beneficiaries: int
    date_range: tuple[date, date] = (date(2011, 1, 1), date(2016, 12, 31))
    seed: int = 7
    ckd_fraction: float = 0.3
    monthly_hazard_scale: float = 0.5
    target_365d_prevalence: float = 0.01
    access_creation_fraction: float = 0.65
    vocab_sizes: Mapping[str, int] = field(default_factory=lambda: dict(DEFAULT_VOCAB_SIZES))
    claims_rate: float = 0.55
    hazard_severity_weight: float = 0.9
    # cohort-shape knobs
    transplant_share: float = 0.07
    under_65_fraction: float = 0.03
    late_enrollment_fraction: float = 0.08
    decoy_access_monthly_rate: float = 0.010
    monthly_death_hazard: float = 0.0012
    severity_claims_slope: float = 0.13  # relative claims-rate increase per severity unit
    progressor_fraction: float = 0.06  # share of CKD patients on a fast gradual course
    crash_fraction: float = 0.04  # share of CKD patients whose course collapses abruptly

    def validate(self) -> None:
        check_fields("", vars(self), SYNTH_FIELDS)


SYNTH_FIELDS = {
    "n_beneficiaries": ("integer", ">= 1"),
    "date_range": ("dates", "spanning two calendar months"),
    "seed": ("integer", ">= 0"),
    "ckd_fraction": ("probability", None),
    "monthly_hazard_scale": ("probability", None),
    "target_365d_prevalence": ("probability", None),
    "access_creation_fraction": ("probability", None),
    "vocab_sizes": ("vocab_sizes", None),
    "claims_rate": ("number", ">= 0"),
    "hazard_severity_weight": ("number", ">= 0"),
    "transplant_share": ("probability", None),
    "under_65_fraction": ("probability", None),
    "late_enrollment_fraction": ("probability", None),
    "decoy_access_monthly_rate": ("probability", None),
    "monthly_death_hazard": ("probability", None),
    "severity_claims_slope": ("number", None),
    "progressor_fraction": ("probability", None),
    "crash_fraction": ("probability", None),
}


def config_from_dict(raw: dict) -> SynthConfig:
    """Build a SynthConfig from a parsed JSON synth section; any fault is a ConfigError."""
    return SynthConfig(**read_section(raw, "synth", SYNTH_FIELDS, required=["n_beneficiaries"]))


# ---------------------------------------------------------------------------
# The pipeline config


CONFIG_FIELDS = {
    "workdir": ("path", None),
    "seed": ("integer", ">= 0"),
    "synth": ("object", None),
    "claims": ("path", None),
    "dataset_range": ("dates", None),
    "trigger_range": ("dates", "holding a first of month"),
    "codesets": ("path or null", None),
    "split": ("object", None),
    "features": ("object", None),
    "train": ("object", None),
    "evaluate": ("object", None),
}
SPLIT_FIELDS = {"ratios": ("ratios", None), "seed": ("integer", ">= 0")}
FEATURES_FIELDS = {"min_count": ("integer", ">= 1")}
TRAIN_FIELDS = {"tasks": ("tasks", None), "hyperparams": ("object", None), "grid": ("list", None)}
EVALUATE_FIELDS = {"target_sensitivities": ("sensitivities", None)}


@dataclass
class PipelineConfig:
    workdir: Path
    seed: int
    synth: SynthConfig | None
    claims_path: Path | None
    dataset_range: tuple[date, date]
    trigger_range: tuple[date, date]
    codesets: CodeSetLibrary
    split_ratios: tuple[float, float, float]
    split_seed: int
    min_count: int
    tasks: tuple[str, ...]
    hyperparams: HyperParams | None
    grid: tuple[HyperParams, ...] | None
    target_sensitivities: tuple[float, ...]
    workers: int = 1


def load_pipeline_config(
    path: str | Path, seed_override: int | None = None, workers: int = 1
) -> PipelineConfig:
    """Parse the JSON pipeline config; any fault is a ConfigError, raised before any work.

    seed_override, when given, replaces every seed: the top-level one and the
    synth, split and hyperparameter seeds derived from it.
    """
    raw = _read_json(path, "config file")
    required = ("workdir", "seed", "trigger_range")
    raw = read_section(raw, "", CONFIG_FIELDS, "config sections", required)
    seed = raw["seed"] if seed_override is None else seed_override
    check_fields("", {"seed": seed}, CONFIG_FIELDS)
    if ("synth" in raw) == ("claims" in raw) or ("claims" in raw) != ("dataset_range" in raw):
        raise ConfigError("config needs a synth section, or a claims path and its dataset_range")
    if "synth" in raw:
        synth_raw = {"seed": seed, **raw["synth"]}
        if seed_override is not None:
            synth_raw["seed"] = seed
        synth = config_from_dict(synth_raw)
        claims_path, dataset_range = None, synth.date_range
    else:
        synth, claims_path, dataset_range = None, Path(raw["claims"]), raw["dataset_range"]
    check_trigger_buffer(raw["trigger_range"], dataset_range[1])

    split = read_section(raw.get("split", {}), "split", SPLIT_FIELDS)
    features = read_section(raw.get("features", {}), "features", FEATURES_FIELDS)
    train = read_section(raw.get("train", {}), "train", TRAIN_FIELDS)
    evaluate = read_section(raw.get("evaluate", {}), "evaluate", EVALUATE_FIELDS)
    if "grid" in train and "hyperparams" in train:
        raise ConfigError("train takes hyperparams or a grid, not both")
    where = "train.grid" if "grid" in train else "train.hyperparams"
    pinned = {} if seed_override is None else {"seed": seed + 2}
    hp_sets = tuple(
        HyperParams(**{"seed": seed + 2} | read_section(hp, where, HYPERPARAM_FIELDS) | pinned)
        for hp in train.get("grid", [train.get("hyperparams", {})])
    )
    targets = evaluate.get("target_sensitivities", (0.6, 0.7, 0.8))
    if not targets:
        raise ConfigError("evaluate.target_sensitivities must not be empty")
    return PipelineConfig(
        workdir=Path(raw["workdir"]),
        seed=seed,
        synth=synth,
        claims_path=claims_path,
        dataset_range=dataset_range,
        trigger_range=raw["trigger_range"],
        codesets=load_codeset_library(raw.get("codesets") or None),
        split_ratios=tuple(split.get("ratios", (0.8, 0.1, 0.1))),
        split_seed=seed + 1 if seed_override is not None else split.get("seed", seed + 1),
        min_count=features.get("min_count", 1),
        tasks=tuple(train.get("tasks", TASKS)),
        hyperparams=None if "grid" in train else hp_sets[0],
        grid=hp_sets if "grid" in train else None,
        target_sensitivities=tuple(map(float, targets)),
        workers=workers,
    )
