"""The columnar claims and trigger readers, the pair table and first occurrences, against
per-token references.

The reference parsers in ``reference.py`` validate every token on every line
and build one object per claim or row. The readers validate each distinct
token once per read; the claims reader yields columns, which ``decode`` turns
back into the per-claim form, and the trigger reader yields blocks, which
iterate as Triggers. Both must give equal timelines and trigger rows, and
raise the same ParseError (line number and message) on malformed input.
"""

import itertools
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renalrisk.claims import (
    NEVER,
    ClaimType,
    CodeSystem,
    ParseError,
    default_codeset_library,
    first_occurrences,
    iter_timelines,
)
from renalrisk.evaluation import access_before_onset
from renalrisk.triggers import TASKS, enumerate_triggers, iter_trigger_rows

from conftest import make_beneficiary, make_claim, monthly_claims, timeline_with
from reference import (
    day_or_never,
    decode,
    decoded,
    first_occurrence,
    reference_parse_claims,
    reference_trigger_rows,
    task_codeset,
)

LIB = default_codeset_library()


# -- generated claims files -----------------------------------------------------

# Small pools, so that most tokens repeat and the intern tables are hit.
_systems = st.sampled_from(["CPT", "ICD10_DX", "ICD9_DX", "HCPCS", "RXNORM"])
_codes = st.sampled_from(["90951", "50360", "N183", "5853", "36818", "A1", "B2", "C3"])
# Days from a narrow range half the time, so that equal-date claims are common.
_days = st.one_of(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=120))
_types = st.sampled_from([t.value for t in ClaimType])
_tokens = st.builds(lambda s, c: f"{s}:{c}", _systems, _codes)


def _claim_line(bid: str, day: int, claim_type: str, tokens: list[str]) -> str:
    service = (date(2012, 1, 1) + timedelta(days=day)).isoformat()
    return "\t".join(["C", bid, service, claim_type, *tokens])


@st.composite
def claims_files(draw):
    """Grouped claims files: each B record directly followed by its claims.

    Claims come in any date order and may carry no items; tokens repeat.
    """
    lines = []
    for i in range(draw(st.integers(min_value=0, max_value=4))):
        bid = f"p{i}"
        lines.append(f"B\t{bid}\tfemale\twhite\t1940\t2011-01-01\t")
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            tokens = draw(st.lists(_tokens, max_size=4))
            lines.append(_claim_line(bid, draw(_days), draw(_types), tokens))
    return lines


_TIES_FILE = [
    "B\tp0\tfemale\twhite\t1940\t2011-01-01\t",
    _claim_line("p0", 5, "carrier", ["CPT:90951", "CPT:90951"]),
    _claim_line("p0", 2, "inpatient", []),
    _claim_line("p0", 5, "outpatient", ["ICD10_DX:N183"]),
    _claim_line("p0", 2, "carrier", ["CPT:90951"]),
    "B\tp1\tmale\tblack\t1935\t2011-02-01\t",
    "B\tp2\tfemale\twhite\t1940\t2011-01-01\t",
    _claim_line("p2", 0, "carrier", ["ICD10_DX:N183", "HCPCS:A1"]),
]


# Forty claims over five dates, each with its own code: long enough for an unstable sort
# to reorder ties.
_LONG_FILE = ["B\tp0\tfemale\twhite\t1940\t2011-01-01\t"] + [
    _claim_line("p0", (7 * k) % 5, "carrier", [f"CPT:{k}"]) for k in range(40)
]


@given(claims_files())
@example(_TIES_FILE)  # out-of-order ties, an empty claim, repeated tokens, no claims
@example(_LONG_FILE)
@settings(max_examples=150, deadline=None)
def test_interned_readers_equal_reference(lines):
    want = reference_parse_claims(lines)
    assert decoded(iter_timelines(lines)) == want


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


def reference_access_before_onset(timeline, dialysis, access):
    onset = first_occurrence(timeline, dialysis)
    if onset is None:
        return None
    for claim in decode(timeline):
        if claim.service_date >= onset:
            break
        if any(pair in access.codes for pair in claim.items):
            return True
    return False


@given(fact_timelines())
@settings(max_examples=200, deadline=None)
def test_one_scan_facts_equal_first_occurrence(timeline):
    sets = (LIB.ckd, LIB.dialysis, LIB.transplant, LIB.access_creation, task_codeset(LIB, "rrt"))
    firsts = first_occurrences(timeline, sets)
    assert firsts == [day_or_never(first_occurrence(timeline, cs)) for cs in sets]
    # enumerate_triggers takes the rrt event as the earlier of dialysis and transplant
    assert min(firsts[1], firsts[2]) == firsts[4]
    assert access_before_onset(
        timeline, LIB.dialysis, LIB.access_creation
    ) == reference_access_before_onset(timeline, LIB.dialysis, LIB.access_creation)


def test_first_occurrences_of_no_sets_is_empty():
    tl = timeline_with(make_beneficiary(), make_claim("b1", date(2012, 1, 1), [("CPT", "90951")]))
    assert first_occurrences(tl, ()) == []


_SETS = (LIB.ckd, LIB.dialysis, LIB.transplant, LIB.access_creation, task_codeset(LIB, "rrt"))


@given(claims_files())
@example(  # the first dialysis claim follows claims without items
    ["B\tp0\tfemale\twhite\t1940\t2011-01-01\t"]
    + [_claim_line("p0", day, "carrier", []) for day in (0, 1)]
    + [_claim_line("p0", 2, "carrier", ["CPT:90951"]), _claim_line("p0", 3, "carrier", [])]
)
@settings(max_examples=150, deadline=None)
def test_first_occurrences_equal_first_occurrence_across_one_read(lines):
    """Each timeline is checked as the read streams, before later ones intern their pairs."""
    for timeline in iter_timelines(lines):
        assert first_occurrences(timeline, _SETS) == [
            day_or_never(first_occurrence(timeline, cs)) for cs in _SETS
        ]


def test_membership_grows_with_pairs_interned_after_it_was_computed():
    lines = [
        "B\tp0\tfemale\twhite\t1940\t2011-01-01\t",
        "C\tp0\t2012-02-01\tcarrier\tCPT:11111",
        "B\tp1\tfemale\twhite\t1940\t2011-01-01\t",
        "C\tp1\t2012-03-01\tcarrier\tCPT:11111\tCPT:90951",
    ]
    found = []
    for timeline in iter_timelines(lines):
        found.append(first_occurrences(timeline, [LIB.dialysis]))
    assert found == [[NEVER], [date(2012, 3, 1).toordinal()]]
    assert timeline.pairs.members(LIB.dialysis).tolist() == [False, True]


# -- pair ids -----------------------------------------------------------------------


def test_reader_pair_ids_for_shared_and_distinct_items():
    lines = [
        "B\tp0\tfemale\twhite\t1940\t2011-01-01\t",
        "C\tp0\t2012-02-01\tcarrier\tCPT:90951\tICD10_DX:N183",
        "C\tp0\t2012-03-01\tcarrier\tICD10_DX:N183\tCPT:90951\tCPT:50360",
        "B\tp1\tfemale\twhite\t1940\t2011-01-01\t",
        "B\tp2\tfemale\twhite\t1940\t2011-01-01\t",
        "C\tp2\t2012-02-01\tcarrier\tCPT:50360\tHCPCS:A1",
    ]
    p0, p1, p2 = iter_timelines(lines)
    assert p0.pair_ids.tolist() == [0, 1, 1, 0, 2]
    assert p0.claim_ptr.tolist() == [0, 2, 5]
    assert p1.claim_ptr.tolist() == [0] and p1.pair_ids.tolist() == []
    assert p2.pair_ids.tolist() == [2, 3]  # ids are shared by every timeline of the read
    assert p0.pairs is p1.pairs is p2.pairs
    assert p0.pairs.pairs == [
        (CodeSystem.CPT, "90951"),
        (CodeSystem.ICD10_DX, "N183"),
        (CodeSystem.CPT, "50360"),
        (CodeSystem.HCPCS, "A1"),
    ]
    for array in (p0.days, p0.claim_ptr, p0.pair_ids):
        assert array.dtype == np.int64


# -- trigger rows ---------------------------------------------------------------------


_RANGES = [
    (date(2012, 3, 1), date(2013, 6, 1)),
    (date(2012, 3, 1), date(2012, 5, 1)),
    (date(2013, 1, 15), date(2013, 4, 1)),  # starts mid-month
]
# Per field, values a mutation writes into it, valid there or not; a label value
# goes into any of the three label fields. "a\tb" makes one field more.
_LABEL_VALUES = ("000001", "100000", "-", "00001", "011000", "00000x", "")
_FIELD_VALUES = (
    ("", "b1", "b2", "a\tb"),
    ("2012-03-01", "20120301", "2012-03-15", "2013-13-01", ""),
    ("0", "1", "yes", ""),
    ("under_65", "no_ckd_dx,under_65", "under_65,under_65", ",", "", "under_65,too_young"),
) + (_LABEL_VALUES,) * len(TASKS)
_ANY_VALUE = sorted(set().union(*_FIELD_VALUES))


@st.composite
def screened_timelines(draw):
    """Monthly claims, CKD-coded or not, from 2011 on, plus a few coded claims: many of
    its triggers are eligible, and some have an event within a horizon."""
    claims = monthly_claims(
        "b1",
        date(2011, 1, 1),
        draw(st.integers(min_value=0, max_value=40)),
        items=[draw(st.sampled_from([("ICD10_DX", "N183"), ("ICD10_DX", "E001")]))],
    )
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        day = date(2011, 6, 1) + timedelta(days=draw(st.integers(min_value=0, max_value=900)))
        claims.append(make_claim("b1", day, [draw(_fact_codes)]))
    birth_year = draw(st.sampled_from([1940, 1948]))
    return timeline_with(make_beneficiary("b1", birth_year=birth_year), *claims)


@st.composite
def trigger_tables(draw):
    """Rows of enumerate_triggers(...).lines() for a few timelines, under beneficiary ids
    that may repeat, with a comment and a blank line in between."""
    rows = ["#! {}"]
    for timeline in draw(st.lists(screened_timelines(), max_size=3)):
        bid = draw(st.sampled_from(["b1", "b2", "b3"]))
        trigger_range = draw(st.sampled_from(_RANGES))
        block = enumerate_triggers(timeline, trigger_range, LIB, date(2016, 12, 31))
        rows += [bid + row[row.index("\t") :] for row in block.lines()]
        rows.append("")
    return rows


def _outcome(read, rows):
    """The Triggers read from rows, or the line number and message of the ParseError."""
    try:
        return read(rows)
    except ParseError as exc:
        return exc.line_number, str(exc)


def _read_blocks(rows):
    blocks = list(iter_trigger_rows(rows))
    assert all(a.beneficiary_id != b.beneficiary_id for a, b in zip(blocks, blocks[1:]))
    return [trig for block in blocks for trig in block]


_edits = st.tuples(
    st.integers(min_value=0, max_value=3 + len(TASKS)),  # which field
    st.integers(min_value=0),  # which value, from the field's values or from all
    st.booleans(),  # from all
)
_mutations = st.none() | st.tuples(
    st.booleans(),  # prefer an eligible row
    st.integers(min_value=0),  # which row, modulo the candidates
    st.lists(_edits, min_size=1, max_size=3),  # several bad fields pin the check order
)
_TWO_ROWS = ["b1\t2012-03-01\t1\t\t000001\t000001\t000001", "b1\t2012-04-01\t0\tno_ckd_dx\t-\t-\t-"]


def _mutated(rows, body, mutation):
    prefer_eligible, row, edits = mutation
    eligible = [i for i in body if rows[i].split("\t")[2] == "1"]
    candidates = eligible if prefer_eligible and eligible else body
    at = candidates[row % len(candidates)]
    fields = rows[at].split("\t")
    for field, value, from_all in edits:
        values = _ANY_VALUE if from_all else _FIELD_VALUES[field]
        fields[field] = values[value % len(values)]
    return rows[:at] + ["\t".join(fields)] + rows[at + 1 :]


def _assert_reader_equals_reference(rows):
    """The block reader gives the per-row oracle's Triggers or its exact ParseError."""
    assert _outcome(_read_blocks, rows) == _outcome(reference_trigger_rows, rows)


@given(trigger_tables(), _mutations)
@example(_TWO_ROWS, (True, 0, [(3, 0, False)]))  # an eligible row with reasons
@example(_TWO_ROWS, (False, 1, [(3, 3, False)]))  # an ineligible row with none
@example(_TWO_ROWS, (False, 1, [(4, 0, False)]))  # an ineligible row with a label
@settings(max_examples=300, deadline=None)
def test_trigger_reader_equals_per_row_reference(rows, mutation):
    """Rows as the triggers stage writes them, and with fields of one row replaced.

    Unchanged rows read back into blocks whose lines() are the rows again.
    """
    body = [i for i, row in enumerate(rows) if row and not row.startswith("#")]
    if body and mutation is not None:
        rows = _mutated(rows, body, mutation)
    elif body:
        canonical = [line for block in iter_trigger_rows(rows) for line in block.lines()]
        assert canonical == [rows[i] for i in body]
    _assert_reader_equals_reference(rows)


def test_trigger_reader_check_order_equals_reference():
    """Every row with two of its fields replaced, read first and after rows that
    interned a date and tails: the first failing check is the oracle's."""
    for base in _TWO_ROWS:
        for i, j in itertools.combinations(range(4 + len(TASKS)), 2):
            for values in itertools.product(_FIELD_VALUES[i], _FIELD_VALUES[j]):
                fields = base.split("\t")
                fields[i], fields[j] = values
                row = "\t".join(fields)
                _assert_reader_equals_reference([row])
                _assert_reader_equals_reference(_TWO_ROWS + [row])
