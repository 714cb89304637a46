"""Dynamic prediction of renal-replacement-therapy onset from claims timelines."""

from .claims import (
    Beneficiary,
    ClaimTimeline,
    CodeSet,
    CodeSetLibrary,
    CodeSystem,
    default_codeset_library,
    iter_timelines,
    load_codeset_library,
)
from .errors import ConfigError, DataError, NumericError, ParseError, RenalRiskError
from .features import Vocabulary
from .model import HyperParams, ModelParams, predict_matrix, train, tune
from .synth import SynthConfig, generate
from .triggers import (
    HORIZON_DAYS,
    IneligibilityReason,
    Trigger,
    enumerate_triggers,
    split_beneficiaries,
)

__version__ = "0.1.0"
