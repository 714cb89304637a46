from datetime import date, timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renalrisk.claims import default_codeset_library
from renalrisk.errors import ConfigError, ParseError
from renalrisk.triggers import (
    N_CLASSES,
    TASKS,
    IneligibilityReason as R,
    enumerate_triggers,
    iter_trigger_rows,
    month_firsts,
    split_beneficiaries,
)

from conftest import make_beneficiary, make_claim, monthly_claims, timeline_with
from reference import (
    brute_force_label,
    first_occurrence,
    reference_enumerate_triggers,
    task_codeset,
    trigger_row,
)

LIB = default_codeset_library()
DATASET_END = date(2016, 12, 31)
RANGE = (date(2012, 1, 1), date(2015, 12, 1))


def trigger_at(timeline, t):
    """The candidate trigger of timeline at the first-of-month t."""
    (trig,) = enumerate_triggers(timeline, (t, t), LIB, t + timedelta(days=365))
    return trig


def eligibility(timeline, t):
    trig = trigger_at(timeline, t)
    return trig.eligible, trig.reasons


def test_48_monthly_triggers_in_study_range(eligible_timeline):
    triggers = list(enumerate_triggers(eligible_timeline, RANGE, LIB, DATASET_END))
    assert len(triggers) == 48
    assert all(t.trigger_date.day == 1 for t in triggers)
    assert triggers[0].trigger_date == date(2012, 1, 1)
    assert triggers[-1].trigger_date == date(2015, 12, 1)


def test_buffer_precondition_enforced(eligible_timeline):
    with pytest.raises(ConfigError, match="buffer"):
        enumerate_triggers(eligible_timeline, (date(2012, 1, 1), date(2016, 2, 1)), LIB, DATASET_END)
    # an end within 365 days of date.max is compared as day ordinals, without overflow
    with pytest.raises(ConfigError, match="buffer"):
        enumerate_triggers(eligible_timeline, (date(9999, 1, 1), date(9999, 6, 1)), LIB, DATASET_END)


def test_no_claims_beneficiary_gets_three_reasons():
    tl = timeline_with(make_beneficiary())
    for trig in enumerate_triggers(tl, RANGE, LIB, DATASET_END):
        assert not trig.eligible
        assert trig.reasons == {
            R.NO_CKD_DX,
            R.INSUFFICIENT_HISTORY,
            R.NO_RECENT_CLAIM,
        }


def test_no_event_labels_the_no_event_class_at_every_trigger(eligible_timeline):
    """An absent claim or event (claims.NEVER) is after every trigger and beyond every horizon."""
    empty = enumerate_triggers(timeline_with(make_beneficiary()), RANGE, LIB, DATASET_END)
    ckd_only = enumerate_triggers(eligible_timeline, RANGE, LIB, DATASET_END)
    for block in (empty, ckd_only):
        assert (block.classes == N_CLASSES - 1).all()
    assert all(R.INSUFFICIENT_HISTORY in trig.reasons for trig in empty)
    eligible = [trig for trig in ckd_only if trig.eligible]
    assert eligible
    assert all(trig.labels[task][-1] == 1 for trig in eligible for task in TASKS)


def test_post_onset_triggers_ineligible():
    bid = "b1"
    claims = monthly_claims(bid, date(2012, 1, 1), 40)
    claims.append(make_claim(bid, date(2012, 2, 2), [("ICD10_DX", "N184")]))
    claims.append(make_claim(bid, date(2014, 3, 15), [("CPT", "90960")]))
    tl = timeline_with(make_beneficiary(bid), *claims)
    by_date = {
        t.trigger_date: t for t in enumerate_triggers(tl, RANGE, LIB, DATASET_END)
    }
    assert by_date[date(2014, 3, 1)].eligible
    after = by_date[date(2014, 4, 1)]
    assert not after.eligible and R.RRT_ALREADY_INITIATED in after.reasons


def test_rrt_on_trigger_date_is_ineligible():
    bid = "b1"
    claims = monthly_claims(bid, date(2012, 1, 1), 40)
    claims.append(make_claim(bid, date(2012, 2, 2), [("ICD10_DX", "N184")]))
    claims.append(make_claim(bid, date(2014, 3, 1), [("CPT", "90960")]))
    tl = timeline_with(make_beneficiary(bid), *claims)
    ok, reasons = eligibility(tl, date(2014, 3, 1))
    assert not ok and R.RRT_ALREADY_INITIATED in reasons


def test_transplant_blocks_dialysis_triggers_too():
    # criterion 3 is based on the union set: any renal replacement disqualifies
    bid = "b1"
    claims = monthly_claims(bid, date(2012, 1, 1), 40)
    claims.append(make_claim(bid, date(2012, 2, 2), [("ICD10_DX", "N184")]))
    claims.append(make_claim(bid, date(2013, 6, 10), [("CPT", "50360")]))
    tl = timeline_with(make_beneficiary(bid), *claims)
    ok, reasons = eligibility(tl, date(2013, 7, 1))
    assert not ok and reasons == {R.RRT_ALREADY_INITIATED}


def test_recent_claim_window_boundaries():
    bid = "b1"
    t = date(2013, 6, 1)
    base = [
        make_claim(bid, date(2012, 1, 10), [("ICD10_DX", "N183")]),
        make_claim(bid, date(2012, 4, 1)),
    ]
    # claim exactly 31 days back -> stale
    tl = timeline_with(make_beneficiary(bid), *base, make_claim(bid, t - timedelta(days=31)))
    ok, reasons = eligibility(tl, t)
    assert not ok and reasons == {R.NO_RECENT_CLAIM}
    # exactly 30 days back counts
    tl = timeline_with(make_beneficiary(bid), *base, make_claim(bid, t - timedelta(days=30)))
    ok, reasons = eligibility(tl, t)
    assert ok
    # a claim dated on the trigger day itself does not count as recent
    tl = timeline_with(make_beneficiary(bid), *base, make_claim(bid, t))
    ok, reasons = eligibility(tl, t)
    assert not ok and reasons == {R.NO_RECENT_CLAIM}


def test_history_boundary_364_vs_365_days():
    bid = "b1"
    t = date(2013, 6, 1)

    def tl_with_first_claim(days_back):
        return timeline_with(
            make_beneficiary(bid),
            make_claim(bid, t - timedelta(days=days_back), [("ICD10_DX", "N183")]),
            make_claim(bid, t - timedelta(days=10)),
        )

    ok, reasons = eligibility(tl_with_first_claim(364), t)
    assert not ok and reasons == {R.INSUFFICIENT_HISTORY}
    ok, reasons = eligibility(tl_with_first_claim(365), t)
    assert ok


def test_age_under_65_flagged():
    bid = "b1"
    claims = monthly_claims(bid, date(2012, 1, 1), 30)
    claims.append(make_claim(bid, date(2012, 2, 2), [("ICD10_DX", "N184")]))
    tl = timeline_with(make_beneficiary(bid, birth_year=1950), *claims)
    ok, reasons = eligibility(tl, date(2013, 6, 1))  # age 63 by birth year
    assert not ok and reasons == {R.UNDER_65}


def test_all_five_satisfied_is_eligible(eligible_timeline):
    ok, reasons = eligibility(eligible_timeline, date(2013, 6, 1))
    assert ok and reasons == frozenset()


def test_ckd_code_must_precede_trigger():
    bid = "b1"
    claims = monthly_claims(bid, date(2012, 1, 1), 30)
    claims.append(make_claim(bid, date(2013, 6, 1), [("ICD10_DX", "N184")]))
    tl = timeline_with(make_beneficiary(bid), *claims)
    ok, reasons = eligibility(tl, date(2013, 6, 1))
    assert not ok and R.NO_CKD_DX in reasons
    ok, reasons = eligibility(tl, date(2013, 7, 1))
    assert ok


# -- per-beneficiary blocks against the per-month oracle ---------------------------

SCREEN_RANGE = (date(2012, 1, 1), date(2013, 12, 1))
_SCREEN_MONTHS = month_firsts(*SCREEN_RANGE)
# Day offsets before (positive) and after (negative) a month-first at the edges of
# the recent-claim, history, feature-bucket and label windows.
_EDGE_OFFSETS = (0, 1, 29, 30, 31, 89, 90, 364, 365, 366, 3649, 3650,
                 -1, -30, -31, -60, -61, -90, -180, -181, -365, -366)
CKD, DIALYSIS, TRANSPLANT, OTHER = (
    ("ICD10_DX", "N183"), ("CPT", "90951"), ("CPT", "50360"), ("CPT", "11111")
)


def _screening_timeline(birth_year, n_monthly, events):
    """Monthly uncoded claims from 2010-12 on, plus (month index, offset, item) events."""
    claims = monthly_claims("b1", date(2010, 12, 1), n_monthly, items=())
    for month, offset, item in events:
        claims.append(make_claim("b1", _SCREEN_MONTHS[month] - timedelta(days=offset), [item]))
    return timeline_with(make_beneficiary("b1", birth_year=birth_year), *claims)


@st.composite
def screening_timelines(draw):
    events = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(_SCREEN_MONTHS) - 1),
                st.one_of(st.sampled_from(_EDGE_OFFSETS), st.integers(-400, 800)),
                st.sampled_from((CKD, DIALYSIS, TRANSPLANT, OTHER)),
            ),
            max_size=8,
        )
    )
    if draw(st.booleans()):
        events.append((0, 400, CKD))  # CKD before every trigger, so that most can be eligible
    # 1947 and 1948 turn 65 inside the range
    birth_year = draw(st.sampled_from((1930, 1947, 1948, 1960)))
    return _screening_timeline(birth_year, draw(st.integers(0, 45)), events)


@given(screening_timelines())
@example(timeline_with(make_beneficiary("b1")))  # no claims at all
@example(_screening_timeline(1940, 40, [(6, 0, CKD)]))  # first_ckd == t
@example(_screening_timeline(1940, 40, [(0, 400, CKD), (6, 0, DIALYSIS)]))  # first_rrt == t
@example(_screening_timeline(1940, 40, [(0, 400, CKD), (6, 0, TRANSPLANT)]))
@example(_screening_timeline(1947, 40, [(0, 400, CKD)]))  # age exactly 65 through 2012
@example(_screening_timeline(1940, 0, [(0, 400, CKD), (6, 0, OTHER), (9, 30, OTHER)]))
@settings(max_examples=300, deadline=None)
def test_block_equals_the_per_month_reference(timeline):
    block = enumerate_triggers(timeline, SCREEN_RANGE, LIB, DATASET_END)
    reference = reference_enumerate_triggers(timeline, SCREEN_RANGE, LIB)
    assert len(block) == len(reference) == len(_SCREEN_MONTHS)
    assert list(block) == reference
    assert block.lines() == [trigger_row(trig) for trig in reference]


# -- labels -------------------------------------------------------------------


LABEL_T = date(2014, 1, 1)


def _timeline_with_event(offset_days, code="90951"):
    """Eligible at LABEL_T, with one dialysis event offset_days after it."""
    bid = "b1"
    claims = [
        make_claim(bid, LABEL_T - timedelta(days=400), [("ICD10_DX", "N183")]),
        make_claim(bid, LABEL_T - timedelta(days=10)),
        make_claim(bid, LABEL_T + timedelta(days=offset_days), [("CPT", code)]),
    ]
    return timeline_with(make_beneficiary(bid), *claims)


def _rrt_label(offset_days):
    trig = trigger_at(_timeline_with_event(offset_days), LABEL_T)
    assert trig.eligible
    return trig.labels["rrt"]


def test_event_at_day_50_labels_second_window():
    assert _rrt_label(50) == (0, 1, 0, 0, 0, 0)


def test_no_event_within_365_labels_negative_class():
    assert _rrt_label(400) == (0, 0, 0, 0, 0, 1)


def test_boundary_offsets_fall_in_lower_window():
    for offset, cls in ((1, 0), (30, 0), (31, 1), (60, 1), (90, 2), (180, 3), (365, 4), (366, 5)):
        label = _rrt_label(offset)
        assert label.index(1) == cls, (offset, label)
        tl = _timeline_with_event(offset)
        assert label == brute_force_label(tl, LABEL_T, task_codeset(LIB, "rrt"))


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=800),
            st.sampled_from(["90951", "90960", "50360", "11111", "N183"]),
        ),
        max_size=6,
    )
)
@settings(max_examples=100, deadline=None)
def test_enumerated_labels_match_brute_force_oracle(events):
    """The labels the triggers stage writes, against the day-scan oracle."""
    bid = "b1"
    claims = monthly_claims(bid, date(2010, 12, 1), 25)  # eligible through 2012
    claims.append(make_claim(bid, date(2011, 1, 5), [("ICD10_DX", "N183")]))
    for offset, code in events:
        system = "ICD10_DX" if code.startswith("N") else "CPT"
        claims.append(make_claim(bid, date(2012, 1, 1) + timedelta(days=offset), [(system, code)]))
    tl = timeline_with(make_beneficiary(bid), *claims)
    triggers = enumerate_triggers(tl, (date(2012, 1, 1), date(2012, 12, 1)), LIB, DATASET_END)
    for trig in triggers:
        if trig.eligible:
            for task in TASKS:
                codeset = task_codeset(LIB, task)
                assert trig.labels[task] == brute_force_label(tl, trig.trigger_date, codeset)


# -- splits -------------------------------------------------------------------


def test_split_sizes_10_ids():
    ids = {f"p{i}" for i in range(10)}
    train, valid, test = split_beneficiaries(ids, (0.8, 0.1, 0.1), seed=3)
    assert (len(train), len(valid), len(test)) == (8, 1, 1)


def test_split_deterministic_and_partition():
    ids = {f"x{i}" for i in range(57)}
    a = split_beneficiaries(ids, seed=12)
    b = split_beneficiaries(sorted(ids), seed=12)
    assert a == b
    train, valid, test = a
    assert train | valid | test == ids
    assert not (train & valid or train & test or valid & test)


def test_split_changes_with_seed():
    ids = {f"x{i}" for i in range(200)}
    assert split_beneficiaries(ids, seed=1) != split_beneficiaries(ids, seed=2)


def test_split_ratios_must_sum_to_one():
    with pytest.raises(ConfigError, match="sum to 1"):
        split_beneficiaries({"a"}, (0.5, 0.2, 0.2), seed=0)


@given(st.sets(st.text(min_size=1, max_size=8), max_size=40), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_split_is_always_a_partition(ids, seed):
    train, valid, test = split_beneficiaries(ids, seed=seed)
    assert train | valid | test == set(ids)
    assert len(train) + len(valid) + len(test) == len(ids)


# -- row round trip -------------------------------------------------------------


def test_trigger_row_round_trip(eligible_timeline):
    block = enumerate_triggers(eligible_timeline, RANGE, LIB, DATASET_END)
    (read,) = iter_trigger_rows(block.lines())
    assert list(read) == list(block) and read.lines() == block.lines()


def test_month_firsts_mid_month_start():
    months = month_firsts(date(2012, 1, 15), date(2012, 4, 1))
    assert months == [date(2012, 2, 1), date(2012, 3, 1), date(2012, 4, 1)]


def test_enumeration_idempotent(eligible_timeline):
    a = enumerate_triggers(eligible_timeline, RANGE, LIB, DATASET_END)
    b = enumerate_triggers(eligible_timeline, RANGE, LIB, DATASET_END)
    assert list(a) == list(b) and a.lines() == b.lines()


def test_no_eligible_trigger_at_or_after_first_rrt():
    bid = "b1"
    claims = monthly_claims(bid, date(2012, 1, 1), 48)
    claims.append(make_claim(bid, date(2012, 2, 2), [("ICD10_DX", "N184")]))
    claims.append(make_claim(bid, date(2014, 7, 21), [("CPT", "90962")]))
    tl = timeline_with(make_beneficiary(bid), *claims)
    onset = first_occurrence(tl, task_codeset(LIB, "rrt"))
    for trig in enumerate_triggers(tl, RANGE, LIB, DATASET_END):
        if trig.eligible:
            assert trig.trigger_date < onset


# -- malformed rows -------------------------------------------------------------

_GOOD_ROW = "b1\t2013-06-01\t1\t\t000001\t010000\t000001"


@pytest.mark.parametrize(
    "row, message",
    [
        ("b1\t2013-13-01\t1\t\t000001\t010000\t000001", "trigger_date"),
        ("b1\t2013-06-01\t0\tunder_65,too_young\t-\t-\t-", "ineligibility reason"),
        ("b1\t2013-06-01\tyes\t\t000001\t010000\t000001", "eligible flag"),
        ("b1\t2013-06-01\t1\t\t00001\t010000\t000001", "rrt label"),
        ("b1\t2013-06-01\t1\t\t000001\t011000\t000001", "dialysis label"),
        ("b1\t2013-06-01\t1\t\t000001\t010000\t-", "transplant label"),
        ("b1\t2013-06-01\t1\t\t000001\t010000\t00000x", "transplant label"),
        ("\t2013-06-01\t1\t\t000001\t010000\t000001", "beneficiary_id"),
        ("b1\t2013-06-01\t1\t\t000001\t010000", "bad trigger row"),
        ("b1\t2013-06-01\t1\tunder_65\t000001\t010000\t000001", "eligible .* with reasons"),
        ("b1\t2013-06-01\t0\t\t-\t-\t-", "ineligible .* no ineligibility reason"),
        ("b1\t2013-06-01\t0\tunder_65\tjunk\t\t010000", "bad rrt label 'junk' .*ineligible"),
        ("b1\t2013-06-01\t0\tunder_65\t-\t-\t000001", "bad transplant label '000001'"),
    ],
)
def test_malformed_trigger_row_is_a_data_error(row, message):
    with pytest.raises(ParseError, match=f"line 2: .*{message}"):
        list(iter_trigger_rows(["#! {}", row, _GOOD_ROW]))
