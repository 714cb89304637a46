"""The standard-library module a no-op stage reads, and the names it took over.

The package's public names load their module on first access, and every name
that moved into `renalrisk.config` still resolves in the module that held it,
to the same object.
"""

import importlib

import pytest

import renalrisk
from renalrisk import config

# What `renalrisk/__init__.py` exported when it imported every module eagerly,
# by the module each name was imported from.
_PACKAGE_EXPORTS = {
    "renalrisk.claims": [
        "Beneficiary",
        "ClaimTimeline",
        "CodeSet",
        "CodeSetLibrary",
        "CodeSystem",
        "default_codeset_library",
        "iter_timelines",
        "load_codeset_library",
    ],
    "renalrisk.errors": [
        "ConfigError",
        "DataError",
        "NumericError",
        "ParseError",
        "RenalRiskError",
    ],
    "renalrisk.features": ["Vocabulary"],
    "renalrisk.model": ["HyperParams", "ModelParams", "predict_matrix", "train", "tune"],
    "renalrisk.synth": ["SynthConfig", "generate"],
    "renalrisk.triggers": [
        "HORIZON_DAYS",
        "IneligibilityReason",
        "Trigger",
        "enumerate_triggers",
        "split_beneficiaries",
    ],
}

# Names defined in `renalrisk.config`, by the module that defined them before.
_MOVED = {
    "renalrisk.claims": [
        "CodeSystem",
        "CodeSet",
        "CodeSetLibrary",
        "DEFAULT_CODESETS",
        "default_codeset_library",
        "load_codeset_library",
    ],
    "renalrisk.triggers": [
        "TASKS",
        "HORIZON_DAYS",
        "N_CLASSES",
        "check_trigger_buffer",
        "check_split_ratios",
    ],
    "renalrisk.model": ["HyperParams", "MODEL_MAGIC", "_read_header", "read_model_header"],
    "renalrisk.synth": ["SynthConfig", "DEFAULT_VOCAB_SIZES", "config_from_dict"],
}


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in _PACKAGE_EXPORTS.items() for n in names]
)
def test_package_export_is_the_defining_modules_object(module, name):
    value = getattr(renalrisk, name)
    assert value is getattr(importlib.import_module(module), name)
    home = "renalrisk.config" if name in _MOVED.get(module, ()) else module
    assert getattr(value, "__module__", home) == home
    assert name in dir(renalrisk) and name in renalrisk.__all__


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        renalrisk.no_such_name  # noqa: B018


@pytest.mark.parametrize("module, name", [(m, n) for m, names in _MOVED.items() for n in names])
def test_moved_name_resolves_in_its_old_module(module, name):
    assert getattr(importlib.import_module(module), name) is getattr(config, name)
