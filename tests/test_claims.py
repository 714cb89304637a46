import json
import re
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renalrisk.claims import (
    NEVER,
    CodeSet,
    CodeSystem,
    ParseError,
    default_codeset_library,
    first_occurrences,
    iter_timelines,
    load_codeset_library,
)
from renalrisk.errors import ConfigError
from renalrisk.triggers import TASKS, enumerate_triggers

from conftest import make_beneficiary, make_claim, timeline_with, timelines_by_id
from reference import decode, decoded, reference_parse_claims, task_codeset

B_LINE = "B\tb1\tfemale\twhite\t1940\t2011-01-01\t"
C_LINE = "C\tb1\t2013-05-02\toutpatient\tICD10_DX:N183"


def test_empty_stream_gives_empty_dataset():
    assert timelines_by_id([]) == {}


def test_sort_keeps_equal_dates_in_input_order():
    lines = [
        B_LINE,
        "C\tb1\t2013-05-02\toutpatient\tCPT:11111",
        "C\tb1\t2012-01-01\tcarrier",
        "C\tb1\t2013-05-02\tinpatient\tCPT:22222",
    ]
    claims = decode(timelines_by_id(lines)["b1"])
    assert [c.service_date.isoformat() for c in claims] == [
        "2012-01-01",
        "2013-05-02",
        "2013-05-02",
    ]
    # the 2013-05-02 pair keeps input order
    assert claims[1].items == ((CodeSystem.CPT, "11111"),)
    assert claims[2].items == ((CodeSystem.CPT, "22222"),)


def test_zero_claim_beneficiary_retained():
    data = timelines_by_id([B_LINE])
    assert list(data) == ["b1"]
    assert decode(data["b1"]) == []
    assert data["b1"].claim_ptr.tolist() == [0]


def test_missing_field_error_names_line():
    lines = [B_LINE, "C\tb1\toutpatient"]
    with pytest.raises(ParseError, match="line 2"):
        timelines_by_id(lines)


def test_bad_date_error_names_line():
    with pytest.raises(ParseError, match="line 2.*service_date"):
        timelines_by_id([B_LINE, "C\tb1\tnot-a-date\toutpatient"])


def test_unknown_tag_rejected():
    with pytest.raises(ParseError, match="unknown record tag"):
        timelines_by_id(["X\tstuff"])


def test_claim_for_unknown_beneficiary_rejected():
    with pytest.raises(ParseError, match="unknown beneficiary"):
        timelines_by_id([C_LINE])


def test_duplicate_beneficiary_rejected():
    with pytest.raises(ParseError, match="duplicate beneficiary"):
        timelines_by_id([B_LINE, B_LINE])


def test_ungrouped_claim_error_names_line():
    lines = [B_LINE, C_LINE, "B\tb2\tmale\tblack\t1935\t2011-02-01\t", C_LINE]
    with pytest.raises(ParseError, match="line 4: claim of beneficiary 'b1' does not follow"):
        timelines_by_id(lines)


def test_unknown_code_system_rejected():
    with pytest.raises(ParseError, match="unknown code system"):
        timelines_by_id([B_LINE, "C\tb1\t2013-01-01\toutpatient\tNOPE:123"])


def test_birth_year_must_precede_enrollment():
    with pytest.raises(ParseError, match="birth_year"):
        timelines_by_id(["B\tb1\tfemale\twhite\t2012\t2011-01-01\t"])


def test_death_before_enrollment_rejected():
    with pytest.raises(ParseError, match="death_date"):
        timelines_by_id(["B\tb1\tfemale\twhite\t1940\t2011-01-01\t2010-12-31"])


def test_iter_timelines_matches_parse_on_grouped_input():
    lines = [B_LINE, C_LINE, "B\tb2\tmale\tblack\t1935\t2011-02-01\t"]
    assert decoded(iter_timelines(lines)) == reference_parse_claims(lines)


# -- claim order --------------------------------------------------------------

_sexes = st.sampled_from(["female", "male", "unknown"])
_races = st.sampled_from(["white", "black", "asian", "other"])
_codes = st.text(alphabet="ABCDEFG0123456789", min_size=1, max_size=6)
_systems = st.sampled_from([s.value for s in CodeSystem])
_days = st.integers(min_value=0, max_value=2100)
_START = date(2011, 1, 1)


@st.composite
def datasets(draw):
    """Claims files grouped by beneficiary, as list of (B line, claim lines)."""
    groups = []
    for i in range(draw(st.integers(min_value=0, max_value=4))):
        death = draw(st.one_of(st.none(), st.integers(min_value=30, max_value=2190)))
        death_txt = (_START + timedelta(days=death)).isoformat() if death else ""
        birth = draw(st.integers(1920, 1950))
        bene = f"B\tp{i}\t{draw(_sexes)}\t{draw(_races)}\t{birth}\t2011-01-01\t{death_txt}"
        claims = []
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            day = _START + timedelta(days=draw(_days))
            tokens = [f"{draw(_systems)}:{draw(_codes)}" for _ in range(draw(st.integers(0, 3)))]
            claims.append("\t".join(["C", f"p{i}", day.isoformat(), "outpatient", *tokens]))
        groups.append((bene, claims))
    return groups


@given(datasets(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_timeline_invariant_under_claim_line_permutation(groups, rnd):
    """Shuffling a beneficiary's claim lines never changes its timeline, except equal-date ties."""
    lines = [line for bene, claims in groups for line in (bene, *claims)]
    shuffled = []
    for bene, claims in groups:
        claims = list(claims)
        rnd.shuffle(claims)
        shuffled += [bene, *claims]
    base = decoded(iter_timelines(lines))
    again = decoded(iter_timelines(shuffled))
    assert list(again) == list(base)
    for bid, (bene, claims) in base.items():
        dates = [c.service_date for c in claims]
        assert again[bid][0] == bene
        assert [c.service_date for c in again[bid][1]] == sorted(dates)
        if len(set(dates)) == len(dates):  # no ties: full equality
            assert again[bid][1] == claims


# -- first occurrences --------------------------------------------------------


def _single_code_set(name, system, code):
    return CodeSet(name, frozenset({(CodeSystem(system), code)}))


def test_first_occurrence_absent_without_match():
    tl = timeline_with(
        make_beneficiary(), make_claim("b1", date(2012, 1, 1), [("CPT", "00000")])
    )
    assert first_occurrences(tl, [_single_code_set("d", "CPT", "90951")]) == [NEVER]


def test_first_occurrence_takes_min_date():
    tl = timeline_with(
        make_beneficiary(),
        make_claim("b1", date(2014, 6, 1), [("CPT", "90951")]),
        make_claim("b1", date(2014, 3, 1), [("CPT", "90955")]),
    )
    lib = default_codeset_library()
    assert first_occurrences(tl, [lib.dialysis]) == [date(2014, 3, 1).toordinal()]


def test_first_occurrence_union_semantics():
    lib = default_codeset_library()
    tl = timeline_with(
        make_beneficiary(), make_claim("b1", date(2013, 7, 4), [("CPT", "50360")])
    )
    rrt = task_codeset(lib, "rrt")
    assert first_occurrences(tl, (lib.transplant, rrt, lib.dialysis)) == [
        date(2013, 7, 4).toordinal(),
        date(2013, 7, 4).toordinal(),
        NEVER,
    ]


@given(
    st.lists(
        st.tuples(st.integers(0, 400), st.sampled_from(["90951", "50360", "11111"])),
        max_size=8,
    )
)
@settings(max_examples=100, deadline=None)
def test_first_occurrence_of_union_is_min_of_parts(events):
    lib = default_codeset_library()
    claims = [
        make_claim("b1", date(2012, 1, 1) + timedelta(days=d), [("CPT", code)])
        for d, code in events
    ]
    tl = timeline_with(make_beneficiary(), *claims)
    sets = (lib.dialysis, lib.transplant, task_codeset(lib, "rrt"))
    d, t, u = first_occurrences(tl, sets)
    assert u == min(d, t)


def test_rrt_is_union_of_dialysis_and_transplant(library):
    """The rrt event is the first claim coded from either the dialysis or the transplant set."""
    tl = timeline_with(
        make_beneficiary(),
        make_claim("b1", date(2012, 1, 10), [("ICD10_DX", "N183")]),
        make_claim("b1", date(2013, 6, 20)),
        make_claim("b1", date(2013, 7, 4), [("CPT", "50360")]),
        make_claim("b1", date(2013, 9, 1), [("CPT", "90951")]),
    )
    sets = (task_codeset(library, "rrt"), library.transplant, library.dialysis)
    assert first_occurrences(tl, sets) == [
        date(2013, 7, 4).toordinal(),
        date(2013, 7, 4).toordinal(),
        date(2013, 9, 1).toordinal(),
    ]
    t = date(2013, 7, 1)
    (trig,) = enumerate_triggers(tl, (t, t), library, date(2016, 12, 31))
    assert trig.eligible
    # rrt and transplant 3 days out (0,30]; dialysis 62 days out (60,90]
    assert {task: trig.labels[task].index(1) for task in TASKS} == {
        "rrt": 0,
        "transplant": 0,
        "dialysis": 2,
    }


def test_codeset_file_override(tmp_path):
    path = tmp_path / "codesets.json"
    path.write_text(
        '{"ckd": {"ICD10_DX": ["N185"]}, "dialysis": {"CPT": ["1"]},'
        ' "transplant": {"CPT": ["2"]}, "access_creation": {"CPT": ["3"]}}'
    )
    lib = load_codeset_library(path)
    assert (CodeSystem.CPT, "1") in lib.dialysis.codes
    assert len(task_codeset(lib, "rrt").codes) == 2


def test_codeset_unknown_system_rejected(tmp_path):
    path = tmp_path / "codesets.json"
    path.write_text(
        '{"ckd": {"BOGUS": ["x"]}, "dialysis": {}, "transplant": {}, "access_creation": {}}'
    )
    with pytest.raises(ConfigError, match="unknown code system"):
        load_codeset_library(path)


_GOOD_CODESETS = {
    "ckd": {"ICD10_DX": ["N181"]},
    "dialysis": {"CPT": ["90951"]},
    "transplant": {"CPT": ["50360"]},
    "access_creation": {"CPT": ["36818"]},
}
_BAD_CODESETS = {
    "section_a_list": ({"ckd": ["N181"]}, "codesets.ckd must be a JSON object"),
    "codes_null": ({"ckd": {"ICD10_DX": None}}, "codesets.ckd.ICD10_DX must be a list"),
    "codes_a_string": ({"ckd": {"ICD10_DX": "N181"}}, "codesets.ckd.ICD10_DX must be a list"),
    "int_code": ({"dialysis": {"CPT": [90951]}}, "codesets.dialysis.CPT must be a list"),
    "empty_code": ({"dialysis": {"CPT": [""]}}, "codesets.dialysis.CPT must be a list"),
    "unknown_section": ({"ckdd": {}}, "unknown codesets file sections: ['ckdd']"),
}


@pytest.mark.parametrize("change, message", _BAD_CODESETS.values(), ids=_BAD_CODESETS)
def test_malformed_codesets_file_is_a_config_error(tmp_path, change, message):
    path = tmp_path / "codesets.json"
    path.write_text(json.dumps(_GOOD_CODESETS | change))
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_codeset_library(path)
