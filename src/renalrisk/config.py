"""What a no-op stage run reads: the config types, their checks and the model-file header.

This module imports the standard library alone. The CLI, the config loader
and the lineage checks of ``pipeline`` need nothing else, so a stage that
finds its outputs up to date, and every usage or config error, exits without
loading numpy or a stage module; those load once a stage body runs. The stage
modules import these names back (``renalrisk.claims.CodeSetLibrary``,
``renalrisk.model.HyperParams``, ``renalrisk.synth.SynthConfig`` and the
rest), so each still resolves there, to the same object.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from numbers import Integral
from pathlib import Path
from typing import Mapping, Union

from .errors import ConfigError, DataError, check_number_fields, is_number

TASKS = ("rrt", "dialysis", "transplant")

# The overlapping prediction horizons in days. The disjoint label windows end
# at them, (0,30], (30,60], ..., (180,365], and one more class means no event
# within the last horizon.
HORIZON_DAYS = (30, 60, 90, 180, 365)
N_CLASSES = len(HORIZON_DAYS) + 1


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


def _codeset_from_mapping(name: str, mapping: dict[str, list[str]]) -> CodeSet:
    pairs = set()
    for system_name, codes in mapping.items():
        try:
            system = CodeSystem(system_name)
        except ValueError:
            raise ConfigError(f"codeset {name!r}: unknown code system {system_name!r}")
        for code in codes:
            if not code:
                raise ConfigError(f"codeset {name!r}: empty code under {system_name}")
            pairs.add((system, str(code)))
    return CodeSet(name, frozenset(pairs))


def default_codeset_library() -> CodeSetLibrary:
    return _library_from_dict(DEFAULT_CODESETS)


def _library_from_dict(raw: dict) -> CodeSetLibrary:
    required = ("ckd", "dialysis", "transplant", "access_creation")
    missing = [k for k in required if k not in raw]
    if missing:
        raise ConfigError(f"codesets file missing sections: {', '.join(missing)}")
    return CodeSetLibrary(*(_codeset_from_mapping(k, raw[k]) for k in required))


def load_codeset_library(path: Union[str, Path, None]) -> CodeSetLibrary:
    """Load code sets from a JSON file, or the shipped defaults when None."""
    if path is None:
        return default_codeset_library()
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"codesets file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"codesets file {path}: invalid JSON ({exc})")
    return _library_from_dict(raw)


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
    numbers = isinstance(ratios, (list, tuple)) and all(map(is_number, ratios))
    if not numbers or len(ratios) != 3:
        raise ConfigError(f"split.ratios must be a list of three numbers, got {ratios!r}")
    if any(r < 0 for r in ratios):
        raise ConfigError(f"need 3 non-negative split ratios, got {ratios!r}")
    if not abs(sum(ratios) - 1.0) <= 1e-9:  # also refuses NaN
        raise ConfigError(f"split ratios must sum to 1, got {ratios!r}")


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
        check_number_fields(self)
        if self.l1_coefficient < 0:
            raise ConfigError("l1_coefficient must be non-negative")
        if self.initial_learning_rate <= 0:
            raise ConfigError("initial_learning_rate must be positive")
        if not (0 < self.decay_rate <= 1):
            raise ConfigError("decay_rate must be in (0, 1]")
        if self.decay_steps <= 0 or self.batch_size <= 0 or self.max_epochs <= 0:
            raise ConfigError("decay_steps, batch_size, max_epochs must be positive")
        if self.patience < 0:
            raise ConfigError("patience must be non-negative")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


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
        check_number_fields(self)
        if self.n_beneficiaries < 1:
            raise ConfigError("n_beneficiaries must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        start, end = self.date_range
        if start >= end:
            raise ConfigError("date_range start must precede end")
        if (end.year, end.month) == (start.year, start.month):
            raise ConfigError("date_range must span at least two calendar months")
        for name in (
            "ckd_fraction",
            "target_365d_prevalence",
            "access_creation_fraction",
            "transplant_share",
            "under_65_fraction",
            "late_enrollment_fraction",
            "progressor_fraction",
            "crash_fraction",
            "decoy_access_monthly_rate",
            "monthly_death_hazard",
        ):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ConfigError(f"{name} must be a probability, got {v}")
        if not (0.0 <= self.monthly_hazard_scale <= 1.0):
            raise ConfigError("monthly_hazard_scale must be in [0, 1]")
        if self.claims_rate < 0:
            raise ConfigError("claims_rate must be non-negative")
        if self.hazard_severity_weight < 0:
            raise ConfigError("hazard_severity_weight must be non-negative")
        if not isinstance(self.vocab_sizes, Mapping):
            raise ConfigError(
                f"vocab_sizes must map code systems to pool sizes, got {self.vocab_sizes!r}"
            )
        for name, size in self.vocab_sizes.items():
            if name not in DEFAULT_VOCAB_SIZES:
                raise ConfigError(
                    f"vocab_sizes: unknown code system {name!r} "
                    f"(expected one of {sorted(DEFAULT_VOCAB_SIZES)})"
                )
            least = 2 if name == "PERFORMER_ROLE" else 1  # one role is the nephrology signal
            if not is_number(size, Integral) or size < least:
                raise ConfigError(
                    f"vocab_sizes[{name!r}] must be an integer >= {least}, got {size!r}"
                )


def config_from_dict(raw: Mapping) -> SynthConfig:
    """Build a SynthConfig from parsed JSON, validating field names."""
    data = dict(raw)
    if "date_range" in data:
        try:
            lo, hi = data["date_range"]
            data["date_range"] = (date.fromisoformat(lo), date.fromisoformat(hi))
        except (TypeError, ValueError):
            raise ConfigError(
                "synth.date_range must be a [start, end] pair of ISO dates, "
                f"got {raw['date_range']!r}"
            )
    known = set(SynthConfig.__dataclass_fields__)
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown synth config fields: {sorted(unknown)}")
    if "n_beneficiaries" not in data:
        raise ConfigError("synth config requires n_beneficiaries")
    cfg = SynthConfig(**data)
    cfg.validate()
    return cfg
