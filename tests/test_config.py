"""The standard-library module a no-op stage reads, and the names it took over.

The package's public names load their module on first access, and every name
that moved into `renalrisk.config`, or into the framing module
`renalrisk.artifacts`, still resolves in the module that held it, to the same
object.
"""

import importlib
from pathlib import Path

import pytest

import renalrisk
from renalrisk import artifacts, config
from renalrisk.pipeline import STAGE_ORDER, STAGES, _canonical, _sha256_text, load_pipeline_config

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
    "renalrisk.model": ["HyperParams"],
    "renalrisk.synth": ["SynthConfig", "DEFAULT_VOCAB_SIZES", "config_from_dict"],
    "renalrisk.pipeline": ["PipelineConfig", "load_pipeline_config"],
}

# Names defined in `renalrisk.artifacts`, by the module that defined them before.
_FRAMING = {
    "renalrisk.model": ["MODEL_MAGIC", "_read_header", "read_model_header"],
    "renalrisk.pipeline": ["LINEAGE_PREFIX", "_canonical", "read_artifact_lineage"],
    "renalrisk.features": ["VOCAB_HEADER"],
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


@pytest.mark.parametrize(
    "module, name",
    [(m, n) for moved in (_MOVED, _FRAMING) for m, names in moved.items() for n in names],
)
def test_moved_name_resolves_in_its_old_module(module, name):
    home = artifacts if name in _FRAMING.get(module, ()) else config
    assert getattr(importlib.import_module(module), name) is getattr(home, name)


# Each stage's lineage config_sha256 for the shipped configs. A change to how the
# config is parsed must leave them as they are, or every artifact made from these
# configs turns stale.
_SHIPPED_CONFIG_SHA256 = {
    "small.json": {
        "synth": "96c83ba98f20d2bfa726fe0490cbc35661d635df3fe680431b1f21236911ad6c",
        "triggers": "01c2e29075613c82afe6244600f477d11c009bcc89abb9cf5074e1be7c01a640",
        "featurize": "05b4ef9dfef22038cd3703242bb3cdc0b2e1c86335da01be040dd780bf5226a2",
        "train": "985fdfd7af69f1a04ed3aaee4d1e9c2510d56e0b6acf98c18a50dc28ee7e856b",
        "predict": "37f2dfdb59a6fdf8f9ad88ba298feba380580ff3ae60bad6852d197cb6c68822",
        "evaluate": "63355e995a3d8eeb78a58248f3bea8cb5d12883c61188e56b30cb51641741f73",
    },
    "default.json": {
        "synth": "11bff5e088ad363754ede7f140fbda76c078fcf53be3d59751bdf29bba4f9bb1",
        "triggers": "01c2e29075613c82afe6244600f477d11c009bcc89abb9cf5074e1be7c01a640",
        "featurize": "54343c5b5ed60d869720cfdfea8c7b6f02a378ba1981d858fb2381007ca9fe98",
        "train": "83e24a3113ddf8da29823b6ddb6931805e455fd863dbfe6265409fa89b9932fa",
        "predict": "37f2dfdb59a6fdf8f9ad88ba298feba380580ff3ae60bad6852d197cb6c68822",
        "evaluate": "63355e995a3d8eeb78a58248f3bea8cb5d12883c61188e56b30cb51641741f73",
    },
}


@pytest.mark.parametrize("name", _SHIPPED_CONFIG_SHA256)
def test_shipped_configs_keep_each_stages_config_hash(name):
    cfg = load_pipeline_config(Path(__file__).parents[1] / "configs" / name)
    hashes = {s: _sha256_text(_canonical(STAGES[s].config_subset(cfg))) for s in STAGE_ORDER}
    assert hashes == _SHIPPED_CONFIG_SHA256[name]
