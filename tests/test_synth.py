import hashlib
import io
from datetime import date

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renalrisk.claims import NEVER, default_codeset_library
from renalrisk.errors import ConfigError
from renalrisk.synth import (
    _CLAIM_TYPE_NAMES,
    DEFAULT_VOCAB_SIZES,
    ICD10_CUTOVER,
    SEV_MAX,
    SynthConfig,
    _background_claims,
    _Background,
    _Calendar,
    _claim_columns,
    _Tokens,
    calibrate_hazard_multiplier,
    config_from_dict,
    generate,
)
from renalrisk.triggers import enumerate_triggers

from conftest import timelines_by_id
from reference import Pools, claim_items, claim_type_for, decode, first_occurrence, task_codeset

LIB = default_codeset_library()


def run_generate(cfg, workers=1):
    claims, truth = io.StringIO(), io.StringIO()
    summary = generate(cfg, claims, truth, workers=workers)
    return claims.getvalue(), truth.getvalue(), summary


def parse_truth(text):
    rows = []
    for line in text.splitlines():
        bid, etype, day = line.split("\t")
        rows.append((bid, etype, date.fromisoformat(day)))
    return rows


@pytest.fixture(scope="module")
def small_cohort():
    cfg = SynthConfig(n_beneficiaries=250, seed=1234)
    claims_text, truth_text, summary = run_generate(cfg)
    return cfg, claims_text, truth_text, summary


def test_zero_target_means_no_event_codes():
    cfg = SynthConfig(n_beneficiaries=40, seed=5, target_365d_prevalence=0.0)
    claims_text, truth_text, summary = run_generate(cfg)
    assert summary.n_dialysis == summary.n_transplant == 0
    assert not any(
        line.split("\t")[1] in ("dialysis", "transplant")
        for line in truth_text.splitlines()
    )
    timelines = timelines_by_id(io.StringIO(claims_text))
    for tl in timelines.values():
        assert first_occurrence(tl, task_codeset(LIB, "rrt")) is None


def test_same_config_and_seed_bit_identical():
    cfg = SynthConfig(n_beneficiaries=120, seed=99)
    a = run_generate(cfg)
    b = run_generate(cfg)
    assert a[0] == b[0] and a[1] == b[1]


def test_output_independent_of_worker_count():
    # generate hands out 2,000 beneficiaries per chunk and uses a pool only for
    # more than one chunk
    cfg = SynthConfig(n_beneficiaries=2001, seed=99)
    serial = run_generate(cfg, workers=1)
    pooled = run_generate(cfg, workers=2)
    assert serial[0] == pooled[0] and serial[1] == pooled[1]


# Many deaths, late enrollments and crash courses, which the default cohort
# shape rarely reaches; the digests were recorded before synth moved its dates
# to day ordinals.
STRESSED = SynthConfig(
    n_beneficiaries=2100,
    seed=3,
    late_enrollment_fraction=0.5,
    monthly_death_hazard=0.02,
    crash_fraction=0.5,
    progressor_fraction=0.5,
    ckd_fraction=0.9,
    target_365d_prevalence=0.1,
)


@pytest.mark.parametrize("workers", [1, 2])
def test_stressed_cohort_digest(workers):
    claims_text, truth_text, summary = run_generate(STRESSED, workers=workers)
    counts = (summary.n_claims, summary.n_dialysis, summary.n_transplant, summary.n_access)
    assert counts == (76545, 268, 26, 275)
    bene_rows = [line.split("\t") for line in claims_text.splitlines() if line.startswith("B\t")]
    assert sum(1 for row in bene_rows if row[6]) == 1528  # death dates
    assert hashlib.sha256(claims_text.encode()).hexdigest() == (
        "e8b15bda1c2cc2773bfc47b9c29591e876cd97a2ed027296cb125f35635b4d9f"
    )
    assert hashlib.sha256(truth_text.encode()).hexdigest() == (
        "5bd530ea55ef493de53819dcd24dc40added78b650ef8372d9443c665da7774f"
    )


def test_different_seed_changes_output():
    a = run_generate(SynthConfig(n_beneficiaries=60, seed=1))
    b = run_generate(SynthConfig(n_beneficiaries=60, seed=2))
    assert a[0] != b[0]


def test_no_claims_after_death(small_cohort):
    _, claims_text, _, _ = small_cohort
    timelines = timelines_by_id(io.StringIO(claims_text))
    n_deceased = 0
    for tl in timelines.values():
        death = tl.beneficiary.death_date
        if death is None:
            continue
        n_deceased += 1
        assert all(c.service_date <= death for c in decode(tl))
    assert n_deceased > 0  # the fixture cohort should exercise mortality


def test_ground_truth_onsets_match_first_occurrence(small_cohort):
    _, claims_text, truth_text, _ = small_cohort
    timelines = timelines_by_id(io.StringIO(claims_text))
    events = parse_truth(truth_text)
    n_checked = 0
    for bid, etype, day in events:
        if etype == "dialysis":
            assert first_occurrence(timelines[bid], LIB.dialysis) == day
            n_checked += 1
        elif etype == "transplant":
            assert first_occurrence(timelines[bid], LIB.transplant) == day
    assert n_checked > 0


def test_access_creation_strictly_precedes_onset(small_cohort):
    _, _, truth_text, _ = small_cohort
    events = parse_truth(truth_text)
    onset = {bid: day for bid, etype, day in events if etype == "dialysis"}
    for bid, etype, day in events:
        if etype == "access_creation" and bid in onset:
            assert day < onset[bid]


def test_stage_codes_never_regress(small_cohort):
    # latent severity is monotone, so the emitted stage sequence is too
    _, claims_text, truth_text, _ = small_cohort
    timelines = timelines_by_id(io.StringIO(claims_text))
    onsets = {bid for bid, etype, _ in parse_truth(truth_text) if etype != "access_creation"}
    stage_codes = {f"585{i}": i for i in range(1, 7)} | {f"N18{i}": i for i in range(1, 7)}
    n_with_stages = 0
    for tl in timelines.values():
        if tl.beneficiary.id in onsets:
            continue  # post-onset coding jumps to end-stage by design
        best = 0
        seen = False
        for claim in decode(tl):
            for system, code in claim.items:
                stage = stage_codes.get(code)
                if stage is not None and system.value in ("ICD9_DX", "ICD10_DX"):
                    assert stage >= best, tl.beneficiary.id
                    best = max(best, stage)
                    seen = True
        n_with_stages += seen
    assert n_with_stages > 10


def test_claims_within_dataset_range(small_cohort):
    cfg, claims_text, _, _ = small_cohort
    timelines = timelines_by_id(io.StringIO(claims_text))
    lo, hi = cfg.date_range
    for tl in timelines.values():
        for claim in decode(tl):
            assert lo <= claim.service_date <= hi


def test_infeasible_target_raises_with_diagnostic():
    cfg = SynthConfig(
        n_beneficiaries=300,
        seed=3,
        target_365d_prevalence=0.8,
        monthly_hazard_scale=0.01,
    )
    with pytest.raises(ConfigError, match="infeasible prevalence"):
        calibrate_hazard_multiplier(cfg)


def test_no_ckd_no_events():
    cfg = SynthConfig(n_beneficiaries=50, seed=2, ckd_fraction=0.0, target_365d_prevalence=0.01)
    with pytest.raises(ConfigError):
        run_generate(cfg)


def test_prevalence_calibration_small_scale():
    # desk-size check of the calibration loop; the acceptance suite repeats it
    # at full scale with the trigger engine in the loop
    cfg = SynthConfig(n_beneficiaries=6000, seed=77, target_365d_prevalence=0.01)
    claims_text, _, summary = run_generate(cfg)
    assert summary.predicted_prevalence == pytest.approx(0.01, rel=0.05)
    timelines = timelines_by_id(io.StringIO(claims_text))
    n_pos = n_elig = 0
    for tl in timelines.values():
        for trig in enumerate_triggers(
            tl, (date(2012, 1, 1), date(2015, 12, 1)), LIB, cfg.date_range[1]
        ):
            if trig.eligible:
                n_elig += 1
                n_pos += trig.labels["rrt"][5] == 0
    assert n_elig > 0
    realized = n_pos / n_elig
    assert realized == pytest.approx(0.01, rel=0.5)


def test_config_from_dict_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown synth config fields"):
        config_from_dict({"n_beneficiaries": 10, "bogus": 1})


def test_config_from_dict_parses_dates_and_seed_override():
    cfg = config_from_dict(
        {"n_beneficiaries": 10, "date_range": ["2011-01-01", "2016-12-31"], "seed": 42}
    )
    assert cfg.seed == 42
    assert cfg.date_range[0] == date(2011, 1, 1)


def test_validate_rejects_bad_probabilities():
    with pytest.raises(ConfigError):
        SynthConfig(n_beneficiaries=5, ckd_fraction=1.5).validate()
    with pytest.raises(ConfigError):
        SynthConfig(n_beneficiaries=0).validate()


def test_validate_refuses_a_range_within_one_calendar_month():
    cfg = SynthConfig(
        n_beneficiaries=50,
        date_range=(date(2011, 1, 1), date(2011, 1, 20)),
        target_365d_prevalence=0.0,
        late_enrollment_fraction=1.0,
    )
    with pytest.raises(ConfigError, match="date_range"):
        generate(cfg, io.StringIO(), io.StringIO())
    # two calendar months are enough for a late enrollment in the second
    two_months = SynthConfig(
        n_beneficiaries=50,
        date_range=(date(2011, 1, 31), date(2011, 2, 1)),
        target_365d_prevalence=0.0,
        late_enrollment_fraction=1.0,
    )
    _, _, summary = run_generate(two_months)
    assert summary.n_beneficiaries == 50


# -- the batched background claims against the per-claim oracle ---------------------

CAL = _Calendar((date(2011, 1, 1), date(2016, 12, 31)))
CUTOVER_MONTH = next(m for m, start in enumerate(CAL.starts) if start == ICD10_CUTOVER)
TINY_VOCAB = {name: 2 if name == "PERFORMER_ROLE" else 1 for name in DEFAULT_VOCAB_SIZES}
U_EDGES = (0.15, 0.2, 0.25, 0.40, 0.5, 0.62, 0.70, 0.75, 0.8, 0.80, 0.82, 0.9)


def _p_inpatient(sev):
    return 0.04 + 0.016 * min(sev, 14.0)


def _edge_beneficiary(sev, is_ckd=True, onset=NEVER, death=NEVER):
    """Claims at every branch edge: each u of U_EDGES in every slot, and each claim-type edge.

    The claims fall on the last day of the ICD-9 era and on the first of ICD-10
    (the cutover), and early in the range.
    """
    type_edges = (0.0, 0.55, 0.84, 0.84 + _p_inpatient(sev), 0.92 + _p_inpatient(sev), 0.999)
    claims = []
    for j, u in enumerate(U_EDGES):
        for month, day_u in ((3, 0.5), (CUTOVER_MONTH - 1, 0.99), (CUTOVER_MONTH, 0.0)):
            type_u = type_edges[(j + month) % len(type_edges)]
            claims.append((month, day_u, type_u, (u,) * 10, (j, j + 1, j + 2, j + 3, j, j, j)))
    return (claims, (sev, sev, 0), is_ckd, onset, death)


_EDGE_BATCH = [
    _edge_beneficiary(0.0),
    ([], (0.0, 0.0, 0), False, NEVER, NEVER),  # no claims
    _edge_beneficiary(6.0),
    _edge_beneficiary(14.0),
    _edge_beneficiary(18.0, onset=CAL.starts[20] + 3),  # post-onset from month 20 on
    ([], (6.0, 6.0, 0), True, NEVER, NEVER),
    _edge_beneficiary(0.0, is_ckd=False),
    _edge_beneficiary(6.0, is_ckd=False, death=ICD10_CUTOVER - 1),  # dies on the last ICD-9 day
]

_unit = st.floats(0.0, 1.0, exclude_max=True)
_claim = st.tuples(
    st.integers(0, CAL.n_months - 1),
    _unit,
    _unit,
    st.tuples(*[st.one_of(st.sampled_from(U_EDGES), _unit)] * 10),
    st.tuples(*[st.integers(0, (1 << 30) - 1)] * 7),
)
_sev = st.one_of(st.sampled_from([0.0, 6.0, 14.0, 18.0]), st.floats(0.0, SEV_MAX))
_day = st.one_of(st.just(NEVER), st.integers(CAL.starts[0], CAL.starts[-1] + 30))
_beneficiary = st.tuples(
    st.lists(_claim, max_size=6),
    st.tuples(_sev, _sev, st.integers(0, CAL.n_months)),  # severity before and from a month
    st.booleans(),
    _day,  # onset
    _day,  # death
)


def _background(k, spec):
    claims, (sev0, sev1, step), is_ckd, onset, death = spec
    months, day_u, type_u, u, picks = ([c[i] for c in claims] for i in range(5))
    return _Background(
        f"B{k:06d}",
        np.array(months, dtype=np.int64),
        np.array(day_u, dtype=float),
        np.array(type_u, dtype=float),
        np.array(u, dtype=float).reshape(-1, 10),
        np.array(picks, dtype=np.int64).reshape(-1, 7),
        np.where(np.arange(CAL.n_months) < step, sev0, sev1),
        is_ckd,
        onset,
        death,
    )


@example(batch=_EDGE_BATCH, vocab={})
@example(batch=_EDGE_BATCH, vocab=TINY_VOCAB)
@settings(max_examples=150, deadline=None)
@given(
    batch=st.lists(_beneficiary, min_size=1, max_size=5),
    vocab=st.sampled_from([{}, TINY_VOCAB]),
)
def test_claim_columns_equal_per_claim_reference(batch, vocab):
    batch = [_background(k, spec) for k, spec in enumerate(batch)]
    tokens = _Tokens(vocab)
    pools = Pools(tokens)
    n = sum(b.months.size for b in batch)
    days, claim_type, slots, keep = _claim_columns(batch, CAL, tokens)
    assert len(days) == len(claim_type) == len(slots) == len(keep) == n
    lines = _background_claims(batch, CAL, tokens)
    row = 0
    for b, kept in zip(batch, lines):
        want = []
        for i, m in enumerate(b.months.tolist()):
            day = CAL.day(m, b.day_u[i])
            sev = float(b.sev[m])
            ctype = claim_type_for(float(b.type_u[i]), sev)
            items = claim_items(
                pools, b.u[i], b.picks[i], sev, b.is_ckd, day < ICD10_CUTOVER, ctype, day > b.onset
            )
            assert days[row] == day
            assert _CLAIM_TYPE_NAMES[claim_type[row]] == ctype
            assert [tokens.table[t][1:] for t in slots[row] if t >= 0] == items
            assert keep[row] == (day <= b.death)
            if day <= b.death:
                want.append((day, "\t".join(["C", b.bid, CAL.isoformat(day), ctype] + items)))
            row += 1
        assert kept == want
