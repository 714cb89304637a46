"""Dynamic prediction of renal-replacement-therapy onset from claims timelines."""

from .claims import (
    Beneficiary,
    Claim,
    ClaimTimeline,
    CodeSet,
    CodeSetLibrary,
    CodedItem,
    CodeSystem,
    default_codeset_library,
    first_occurrence,
    load_codeset_library,
    parse_claims,
    write_claims,
)
from .errors import ConfigError, DataError, NumericError, ParseError, RenalRiskError
from .features import Vocabulary
from .model import HyperParams, ModelParams, predict_matrix, train, tune
from .synth import SynthConfig, generate
from .triggers import (
    Horizons,
    IneligibilityReason,
    Trigger,
    check_eligibility,
    enumerate_triggers,
    label_trigger,
    split_beneficiaries,
)

__version__ = "0.1.0"
