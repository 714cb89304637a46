"""Dynamic prediction of renal-replacement-therapy onset from claims timelines.

The names below load their module on first access (PEP 562), so importing
the package, or the CLI through it, loads no numpy.
"""

from importlib import import_module

_EXPORTS = {  # public name -> the module that defines it
    name: module
    for module, names in {
        "config": (
            "CodeSet",
            "CodeSetLibrary",
            "CodeSystem",
            "HORIZON_DAYS",
            "HyperParams",
            "SynthConfig",
            "default_codeset_library",
            "load_codeset_library",
        ),
        "claims": ("Beneficiary", "ClaimTimeline", "iter_timelines"),
        "errors": ("ConfigError", "DataError", "NumericError", "ParseError", "RenalRiskError"),
        "features": ("Vocabulary",),
        "model": ("ModelParams", "predict_matrix", "train", "tune"),
        "synth": ("generate",),
        "triggers": ("IneligibilityReason", "Trigger", "enumerate_triggers", "split_beneficiaries"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
