"""The interning readers and one-scan facts against per-token reference versions.

The reference parsers in ``reference.py`` validate every token and build a
new object for it on every line, as the readers did before they interned
repeated tokens. The interned readers must return equal timelines and trigger
rows, and raise the same ParseError (line number and message) on malformed
input.
"""

from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renalrisk import triggers as trig_mod
from renalrisk.claims import (
    ClaimTimeline,
    ClaimType,
    CodedItem,
    CodeSystem,
    ParseError,
    default_codeset_library,
    first_occurrences,
    iter_timelines,
)
from renalrisk.errors import DataError
from renalrisk.evaluation import access_before_onset
from renalrisk.features import ClaimInterner, CompiledTimeline
from renalrisk.triggers import TASKS, _facts, enumerate_triggers, iter_trigger_rows

from conftest import make_beneficiary, make_claim, timeline_with, timelines_by_id
from reference import (
    first_occurrence,
    reference_parse_claims,
    reference_parse_trigger_row,
    task_codeset,
)

LIB = default_codeset_library()


# -- generated claims files -----------------------------------------------------

# Small pools, so that most tokens repeat and the intern tables are hit.
_systems = st.sampled_from(["CPT", "ICD10_DX", "ICD9_DX", "HCPCS", "RXNORM"])
_codes = st.sampled_from(["90951", "50360", "N183", "5853", "36818", "A1", "B2", "C3"])
_days = st.integers(min_value=0, max_value=120)
_types = st.sampled_from([t.value for t in ClaimType])
_tokens = st.builds(lambda s, c: f"{s}:{c}", _systems, _codes)


def _claim_line(bid: str, day: int, claim_type: str, tokens: list[str]) -> str:
    service = (date(2012, 1, 1) + timedelta(days=day)).isoformat()
    return "\t".join(["C", bid, service, claim_type, *tokens])


@st.composite
def claims_files(draw):
    """Grouped claims files: each B record directly followed by its claims."""
    lines = []
    for i in range(draw(st.integers(min_value=0, max_value=4))):
        bid = f"p{i}"
        lines.append(f"B\t{bid}\tfemale\twhite\t1940\t2011-01-01\t")
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            tokens = draw(st.lists(_tokens, max_size=4))
            lines.append(_claim_line(bid, draw(_days), draw(_types), tokens))
    return lines


@given(claims_files())
@settings(max_examples=150, deadline=None)
def test_interned_readers_equal_reference(lines):
    want = reference_parse_claims(lines)
    assert timelines_by_id(lines) == want


# The head of every file below has already interned CPT:90951 before a bad line.
_BAD_LINES = {
    "missing colon": "C\tp0\t2012-03-01\tcarrier\tCPT90951",
    "empty code": "C\tp0\t2012-03-01\tcarrier\tICD10_DX:",
    "unknown system": "C\tp0\t2012-03-01\tcarrier\tNOPE:90951",
    "bad date": "C\tp0\t2012-13-01\tcarrier\tCPT:90951",
    "bad claim type": "C\tp0\t2012-03-01\tcarriers\tCPT:90951",
    "bad token after an interned one of its system": "C\tp0\t2012-03-01\tcarrier\tCPT:90951\tCPT:",
    "too few fields": "C\tp0\t2012-03-01",
}


def _error_of(parse, lines):
    with pytest.raises(ParseError) as info:
        parse(lines)
    return info.value.line_number, str(info.value)


@pytest.mark.parametrize("kind", sorted(_BAD_LINES))
@given(lines=claims_files(), at=st.integers(min_value=0, max_value=40))
@settings(max_examples=25, deadline=None)
def test_malformed_claim_errors_equal_reference(kind, lines, at):
    head = [
        "B\tp0\tfemale\twhite\t1940\t2011-01-01\t",
        "C\tp0\t2012-02-01\tcarrier\tCPT:90951\tICD10_DX:N183",
    ]
    p0_claims = [line for line in lines if line.startswith("C\tp0\t")]
    at = min(at, len(p0_claims))
    rest = [line for line in lines if not line.startswith(("B\tp0\t", "C\tp0\t"))]
    bad = head + p0_claims[:at] + [_BAD_LINES[kind]] + p0_claims[at:] + rest
    want = _error_of(reference_parse_claims, bad)
    assert want[0] == len(head) + at + 1
    assert _error_of(lambda ls: list(iter_timelines(ls)), bad) == want


def test_claims_do_not_share_item_lists():
    lines = [
        "B\tp0\tfemale\twhite\t1940\t2011-01-01\t",
        "C\tp0\t2012-02-01\tcarrier\tCPT:90951\tICD10_DX:N183",
        "C\tp0\t2012-03-01\tcarrier\tCPT:90951\tICD10_DX:N183",
        "C\tp0\t2012-04-01\tcarrier",
        "C\tp0\t2012-05-01\tcarrier",
    ]
    (timeline,) = iter_timelines(lines)
    first = timeline.claims[0]
    assert first.items[0] is timeline.claims[1].items[0]  # interned value, shared
    first.items.append(CodedItem(CodeSystem.CPT, "50360"))
    timeline.claims[2].items.append(CodedItem(CodeSystem.CPT, "36818"))
    fresh = reference_parse_claims(lines)["p0"]
    assert timeline.claims[1] == fresh.claims[1]
    assert timeline.claims[3] == fresh.claims[3]
    assert len(first.items) == 3 and len(timeline.claims[2].items) == 1


# -- one-scan facts ---------------------------------------------------------------

_fact_codes = st.sampled_from(
    [
        ("CPT", "90951"),
        ("CPT", "90970"),
        ("CPT", "50360"),
        ("CPT", "36818"),
        ("ICD10_DX", "N183"),
        ("ICD9_DX", "5853"),
        ("ICD9_DX", "90951"),  # a dialysis code under another system
        ("CPT", "N183"),
        ("HCPCS", "A1"),
    ]
)


@st.composite
def fact_timelines(draw):
    claims = [
        make_claim(
            "b1",
            date(2012, 1, 1) + timedelta(days=draw(_days)),
            draw(st.lists(_fact_codes, max_size=3)),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=8)))
    ]
    return timeline_with(make_beneficiary("b1", birth_year=1940), *claims)


def reference_facts(timeline, library):
    """The trigger facts from one first_occurrence scan per code set."""
    fo = {task: first_occurrence(timeline, task_codeset(library, task)) for task in TASKS}
    ckd = first_occurrence(timeline, library.ckd)
    return trig_mod._TimelineFacts(
        birth_year=timeline.beneficiary.birth_year,
        claim_ordinals=tuple(c.service_date.toordinal() for c in timeline.claims),
        first_ckd=ckd.toordinal() if ckd else None,
        first_rrt=fo["rrt"].toordinal() if fo["rrt"] else None,
        first_by_task={k: (v.toordinal() if v else None) for k, v in fo.items()},
    )


def reference_access_before_onset(timeline, dialysis, access):
    onset = first_occurrence(timeline, dialysis)
    if onset is None:
        return None
    for claim in timeline.claims:
        if claim.service_date >= onset:
            break
        if any(item in access for item in claim.items):
            return True
    return False


@given(fact_timelines())
@settings(max_examples=200, deadline=None)
def test_one_scan_facts_equal_first_occurrence(timeline):
    sets = (LIB.ckd, LIB.dialysis, LIB.transplant, LIB.access_creation, task_codeset(LIB, "rrt"))
    assert first_occurrences(timeline, sets) == [first_occurrence(timeline, cs) for cs in sets]
    assert _facts(timeline, LIB) == reference_facts(timeline, LIB)
    assert access_before_onset(
        timeline, LIB.dialysis, LIB.access_creation
    ) == reference_access_before_onset(timeline, LIB.dialysis, LIB.access_creation)


def test_first_occurrences_of_no_sets_is_empty():
    tl = timeline_with(make_beneficiary(), make_claim("b1", date(2012, 1, 1), [("CPT", "90951")]))
    assert first_occurrences(tl, ()) == []


# -- compiled timelines -------------------------------------------------------------


def test_item_pair_ids_match_pair_id_for_shared_and_distinct_items():
    lines = [
        "B\tp0\tfemale\twhite\t1940\t2011-01-01\t",
        "C\tp0\t2012-02-01\tcarrier\tCPT:90951\tICD10_DX:N183",
        "C\tp0\t2012-03-01\tcarrier\tICD10_DX:N183\tCPT:90951\tCPT:50360",
    ]
    (interned,) = iter_timelines(lines)
    rebuilt = timeline_with(
        make_beneficiary("p0"),
        make_claim("p0", date(2012, 2, 1), [("CPT", "90951"), ("ICD10_DX", "N183")]),
        make_claim(
            "p0", date(2012, 3, 1), [("ICD10_DX", "N183"), ("CPT", "90951"), ("CPT", "50360")]
        ),
    )
    interner = ClaimInterner()
    a = CompiledTimeline(interned, interner)
    b = CompiledTimeline(rebuilt, interner)
    want = [
        interner.pair_id(item.system.value, item.code)
        for claim in rebuilt.claims
        for item in claim.items
    ]
    assert a.item_ids.tolist() == b.item_ids.tolist() == want == [0, 1, 1, 0, 2]
    assert a.claim_ptr.tolist() == [0, 2, 5]
    assert CompiledTimeline(ClaimTimeline(make_beneficiary()), interner).claim_ptr.tolist() == [0]


# -- trigger rows ---------------------------------------------------------------------


@given(st.lists(fact_timelines(), max_size=3))
@settings(max_examples=60, deadline=None)
def test_interned_trigger_reader_equals_reference(timelines):
    rows = [
        row
        for timeline in timelines
        for row in enumerate_triggers(
            timeline, (date(2012, 3, 1), date(2013, 6, 1)), LIB, date(2016, 12, 31)
        ).lines()
    ]
    assert list(iter_trigger_rows(rows)) == [reference_parse_trigger_row(r) for r in rows]


def test_trigger_reader_shares_interned_values():
    rows = [
        "b1\t2013-01-01\t1\t\t000001\t000001\t100000",
        "b2\t2013-01-01\t1\t\t000001\t000001\t000001",
    ]
    a, b = iter_trigger_rows(rows)
    assert a.trigger_date is b.trigger_date and a.reasons is b.reasons
    assert a.labels["rrt"] is b.labels["transplant"]
    assert a.labels is not b.labels
    with pytest.raises(DataError):
        list(iter_trigger_rows(["b1\t2013-01-01\t1\t\t000001\t000001\t-"]))
