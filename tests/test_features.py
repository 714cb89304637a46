import json
import re
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renalrisk.claims import Race, Sex, iter_timelines
from renalrisk.errors import DataError, ParseError
from renalrisk.features import (
    AGE_BUCKET_LABELS,
    N_BUCKETS,
    CompiledTimeline,
    Vocabulary,
    age_bucket,
    column_map,
    iter_feature_rows,
    pair_bucket_key,
    read_feature_matrix,
    vocabulary_from_counts,
)
from renalrisk.pipeline import load_pipeline_config, run_stage

from conftest import (
    feature_indices,
    make_beneficiary,
    make_claim,
    pair_buckets,
    timeline_lines,
    timeline_with,
    timelines_by_id,
)
from reference import (
    build_vocabulary,
    collect_active_keys,
    featurize,
    reference_active_indices,
    reference_active_pair_buckets,
)

T = date(2014, 1, 1)


def _tl(*claims, bene=None):
    return timeline_with(bene or make_beneficiary(), *claims)


def _build_vocabulary(training, min_count=1):
    """The featurize stage's vocabulary: pair-bucket counts over timelines of one read."""
    pairs = training[0][0].pairs
    assert all(timeline.pairs is pairs for timeline, _ in training)
    counts = np.zeros(len(pairs) * N_BUCKETS, dtype=np.int64)
    for timeline, dates in training:
        for active in pair_buckets(CompiledTimeline(timeline), dates):
            counts[active] += 1
    return vocabulary_from_counts(counts, pairs, min_count)


def _vocab_for(timeline, t=T):
    return _build_vocabulary([(timeline, [t])])


def _features(timeline, vocab, t=T):
    """The column indices the featurize stage writes for timeline at t."""
    compiled = CompiledTimeline(timeline)
    (row,) = feature_indices(compiled, [t], vocab, column_map(vocab, timeline.pairs))
    return tuple(row.tolist())


def _active_keys(timeline, t=T):
    """Every key active at t: with a vocabulary built on t itself, none is dropped."""
    vocab = _vocab_for(timeline, t)
    keys = vocab.keys()
    return {keys[i] for i in _features(timeline, vocab, t)}


def test_day_bucket_boundaries():
    def day_bucket(offset):
        tl = _tl(make_claim("b1", T - timedelta(days=offset), [("CPT", "1")]))
        (buckets,) = pair_buckets(CompiledTimeline(tl), [T])
        assert buckets.size <= 1
        return int(buckets[0]) % N_BUCKETS if buckets.size else None

    assert day_bucket(0) is None  # claim on the trigger day is excluded
    assert day_bucket(1) == 0
    assert day_bucket(29) == 0
    assert day_bucket(30) == 1
    assert day_bucket(89) == 1
    assert day_bucket(90) == 2
    assert day_bucket(364) == 2
    assert day_bucket(365) == 3
    assert day_bucket(3649) == 3
    assert day_bucket(3650) is None


def test_bucket_membership_shifts_at_30_days():
    code = ("ICD10_DX", "E042")
    tl_29 = _tl(make_claim("b1", T - timedelta(days=29), [code]))
    tl_30 = _tl(make_claim("b1", T - timedelta(days=30), [code]))
    assert "code/ICD10_DX/E042/b0" in _active_keys(tl_29)
    assert "code/ICD10_DX/E042/b1" in _active_keys(tl_30)
    assert "code/ICD10_DX/E042/b0" not in _active_keys(tl_30)


def test_age_buckets():
    assert age_bucket(65) == "65-74"
    assert age_bucket(67) == "65-74"
    assert age_bucket(74) == "65-74"
    assert age_bucket(75) == "75-84"
    assert age_bucket(85) == "85-94"
    assert age_bucket(95) == "95plus"
    assert age_bucket(101) == "95plus"
    with pytest.raises(DataError):
        age_bucket(64)


def test_age_67_activates_first_bucket():
    tl = _tl(bene=make_beneficiary(birth_year=1947))  # 67 at 2014 trigger
    keys = _active_keys(tl)
    assert "dem/age=65-74" in keys


def test_vocabulary_seeds_demographic_value_sets():
    tl = _tl(make_claim("b1", T - timedelta(days=5), [("ICD10_DX", "N183")]))
    vocab = _vocab_for(tl)
    n_dem = len(Sex) + len(Race) + len(AGE_BUCKET_LABELS)
    assert len(vocab) == n_dem + 1
    assert "code/ICD10_DX/N183/b0" in vocab


def test_vocabulary_deterministic():
    tl = _tl(make_claim("b1", T - timedelta(days=5), [("ICD10_DX", "N183")]))
    a = _build_vocabulary([(tl, [T])])
    b = _build_vocabulary([(tl, [T])])
    assert a.index == b.index and a.content_hash() == b.content_hash()


def test_vocabulary_empty_training_set_errors(tmp_path):
    workdir = tmp_path / "work"
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "workdir": str(workdir),
                "seed": 5,
                "synth": {"n_beneficiaries": 60, "target_365d_prevalence": 0.05},
                "trigger_range": ["2012-01-01", "2015-12-01"],
                "split": {"ratios": [0.0, 0.5, 0.5]},
            }
        )
    )
    cfg = load_pipeline_config(config)
    for stage in ("synth", "triggers"):
        run_stage(cfg, stage)
    with pytest.raises(DataError, match="no eligible training triggers"):
        run_stage(cfg, "featurize")
    assert not (workdir / "vocab.tsv").exists()
    assert not (workdir / "split.tsv").exists()
    assert not list(workdir.glob("*.tmp"))


def test_min_count_cutoff_drops_rare_coded_keys():
    timelines = timelines_by_id(
        timeline_lines(
            make_beneficiary("b1"), make_claim("b1", T - timedelta(days=5), [("CPT", "11111")])
        )
        + timeline_lines(
            make_beneficiary("b2"),
            make_claim("b2", T - timedelta(days=5), [("CPT", "11111"), ("CPT", "22222")]),
        )
    )
    vocab = _build_vocabulary([(timelines["b1"], [T]), (timelines["b2"], [T])], min_count=2)
    assert "code/CPT/11111/b0" in vocab
    assert "code/CPT/22222/b0" not in vocab


def test_out_of_vocabulary_codes_dropped():
    tl_train = _tl(make_claim("b1", T - timedelta(days=5), [("CPT", "11111")]))
    vocab = _vocab_for(tl_train)
    tl_test = _tl(
        make_claim("b1", T - timedelta(days=5), [("CPT", "99999"), ("CPT", "11111")])
    )
    indices = _features(tl_test, vocab)
    keys = {k for k, i in vocab.index.items() if i in indices}
    assert "code/CPT/11111/b0" in keys
    assert all("99999" not in k for k in keys)


def test_feature_vector_sorted_and_demographics_present():
    tl = _tl(
        make_claim("b1", T - timedelta(days=3), [("ICD10_DX", "N183")]),
        make_claim("b1", T - timedelta(days=100), [("CPT", "11111")]),
    )
    vocab = _vocab_for(tl)
    indices = _features(tl, vocab)
    assert list(indices) == sorted(set(indices))
    assert all(0 <= i < len(vocab) for i in indices)
    dem_active = [
        k for k, i in vocab.index.items() if i in indices and k.startswith("dem/")
    ]
    assert len(dem_active) == 3


def test_binary_presence_ignores_multiplicity():
    code = [("RXNORM", "12345")]
    tl_many = _tl(*[make_claim("b1", T - timedelta(days=d), code) for d in (3, 7, 12, 20, 25)])
    tl_once = _tl(make_claim("b1", T - timedelta(days=3), code))
    vocab = _vocab_for(tl_many)
    assert _features(tl_many, vocab) == _features(tl_once, vocab)


def test_featurize_invariant_to_claim_order():
    claims = [
        make_claim("b1", T - timedelta(days=d), [("CPT", c)])
        for d, c in ((3, "1"), (40, "2"), (100, "3"), (400, "4"))
    ]
    tl_fwd = _tl(*claims)
    tl_rev = _tl(*reversed(claims))
    vocab = _vocab_for(tl_fwd)
    assert _features(tl_fwd, vocab) == _features(tl_rev, vocab)


def test_claims_at_or_after_trigger_never_contribute():
    base = [make_claim("b1", T - timedelta(days=10), [("CPT", "1")])]
    tl_base = _tl(*base)
    vocab = _vocab_for(tl_base)
    future = [
        make_claim("b1", T, [("CPT", "7")]),
        make_claim("b1", T + timedelta(days=3), [("CPT", "8")]),
    ]
    tl_leaky = _tl(*(base + future))
    assert _features(tl_base, vocab) == _features(tl_leaky, vocab)


_offsets = st.integers(min_value=-400, max_value=4000)
_codes = st.sampled_from(["A", "B", "C", "D", "N183", "90951"])


@given(
    st.lists(st.tuples(_offsets, _codes), max_size=10),
    st.lists(st.tuples(st.integers(-200, 0), _codes), min_size=1, max_size=5),
)
@settings(max_examples=200, deadline=None)
def test_future_claim_injection_never_changes_features(history, future):
    base_claims = [
        make_claim("b1", T - timedelta(days=off), [("CPT", c)]) for off, c in history
    ]
    tl = _tl(*base_claims)
    vocab = _vocab_for(tl)
    injected = [
        make_claim("b1", T + timedelta(days=-off), [("CPT", c)]) for off, c in future
    ]
    tl_plus = _tl(*(base_claims + injected))
    assert _features(tl, vocab) == _features(tl_plus, vocab)


@given(
    st.lists(
        st.tuples(st.integers(-100, 3700), _codes, st.sampled_from(["CPT", "ICD10_DX", "HCC"])),
        max_size=12,
    ),
    st.integers(66, 99),
)
@settings(max_examples=200, deadline=None)
def test_compiled_path_matches_reference_featurize(events, age):
    bene = make_beneficiary("b1", birth_year=T.year - age)
    claims = [
        make_claim("b1", T - timedelta(days=off), [(system, c)])
        for off, c, system in events
    ]
    tl = timeline_with(bene, *claims)
    vocab = build_vocabulary([(tl, [T])])
    assert _features(tl, vocab) == featurize(tl, T, vocab)


# -- per-beneficiary featurization against the per-trigger oracle -----------------

_TRIGGER_DATES = [date(2012 + m // 12, m % 12 + 1, 1) for m in range(0, 48, 5)]
# Day offsets before a trigger at the bucket edges; 0 is the trigger date itself.
_BUCKET_OFFSETS = (0, 1, 29, 30, 89, 90, 364, 365, 3649, 3650, -1)
_items = st.lists(st.tuples(st.sampled_from(["CPT", "ICD10_DX", "HCC"]), _codes), max_size=3)


@st.composite
def featurized_lines(draw, bid="b1"):
    """A beneficiary's claims lines and its eligible trigger dates.

    Claims may carry no items at all.
    """
    dates = sorted(set(draw(st.lists(st.sampled_from(_TRIGGER_DATES), min_size=1, max_size=6))))
    claims = [
        make_claim(bid, t - timedelta(days=offset), items)
        for t, offset, items in draw(
            st.lists(
                st.tuples(
                    st.sampled_from(dates),
                    st.one_of(st.sampled_from(_BUCKET_OFFSETS), st.integers(-100, 3700)),
                    _items,
                ),
                max_size=12,
            )
        )
    ]
    # 1947 turns 65 in 2012; 1918 crosses into the 95plus bucket in 2013
    bene = make_beneficiary(bid, birth_year=draw(st.sampled_from((1918, 1935, 1947))))
    return timeline_lines(bene, *claims), dates


def _read_one(case):
    lines, dates = case
    (timeline,) = iter_timelines(lines)
    return timeline, dates


@st.composite
def training_sets(draw):
    """One to four beneficiaries read together, each with its trigger dates."""
    cases = [draw(featurized_lines(f"b{i}")) for i in range(draw(st.integers(1, 4)))]
    timelines = iter_timelines([line for lines, _ in cases for line in lines])
    return [(timeline, dates) for timeline, (_, dates) in zip(timelines, cases)]


def _arrays_equal(got, want):
    return len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))


@given(featurized_lines().map(_read_one))
@example((_tl(bene=make_beneficiary(birth_year=1947)), [date(2012, 1, 1), date(2012, 6, 1)]))
@example((_tl(make_claim("b1", T, [("CPT", "A")]), make_claim("b1", T - timedelta(days=40))), [T]))
@settings(max_examples=300, deadline=None)
def test_per_beneficiary_sets_equal_the_per_trigger_reference(case):
    timeline, dates = case
    compiled = CompiledTimeline(timeline)
    buckets = pair_buckets(compiled, dates)
    assert _arrays_equal(buckets, [reference_active_pair_buckets(compiled, t) for t in dates])
    for t, active in zip(dates, buckets):
        coded = {k for k in collect_active_keys(timeline, t) if k.startswith("code/")}
        assert {pair_bucket_key(timeline.pairs, pb) for pb in active.tolist()} == coded
    # a vocabulary from the first trigger only, so later triggers have unseen keys
    vocab = build_vocabulary([(timeline, dates[:1])])
    colmap = column_map(vocab, timeline.pairs)
    rows = feature_indices(compiled, dates, vocab, colmap)
    want = [reference_active_indices(compiled, t, vocab, colmap) for t in dates]
    assert _arrays_equal(rows, want)
    assert [tuple(row.tolist()) for row in rows] == [featurize(timeline, t, vocab) for t in dates]


@given(training_sets(), st.integers(min_value=1, max_value=3))
@settings(max_examples=100, deadline=None)
def test_array_count_vocabulary_equals_build_vocabulary(training, min_count):
    vocab = _build_vocabulary(training, min_count)
    assert vocab.index == build_vocabulary(training, min_count).index


def test_vocabulary_file_round_trip(tmp_path):
    tl = _tl(
        make_claim("b1", T - timedelta(days=3), [("ICD10_DX", "N183"), ("CPT", "11111")])
    )
    vocab = _vocab_for(tl)
    path = tmp_path / "vocab.tsv"
    path.write_text("#! {}\n" + "".join(vocab.lines()))
    again = Vocabulary.from_file(path)
    assert again.index == vocab.index
    assert again.content_hash() == vocab.content_hash()


def test_vocabulary_from_counts_matches_reference_build():
    timelines = timelines_by_id(
        timeline_lines(
            make_beneficiary("b1"),
            make_claim("b1", T - timedelta(days=5), [("CPT", "1"), ("HCC", "9")]),
        )
        + timeline_lines(
            make_beneficiary("b2"), make_claim("b2", T - timedelta(days=45), [("CPT", "1")])
        )
    )
    tl1, tl2 = timelines["b1"], timelines["b2"]
    reference = build_vocabulary([(tl1, [T]), (tl2, [T])], min_count=1)
    assert _build_vocabulary([(tl1, [T]), (tl2, [T])]).index == reference.index


def test_vocabulary_file_refuses_a_malformed_line():
    good = "dem/sex=female\t0\n"
    for bad in ("no tab here\n", "dem/race=white\tx\n", "\t1\n", "dem/race=white\t-1\n"):
        with pytest.raises(ParseError, match="^line 3: bad vocabulary line"):
            Vocabulary.from_file(["#! {}\n", good, bad])
    for lines in (["b\t0\n", "a\t1\n"], ["a\t0\n", "b\t2\n"], ["a\t0\n", "a\t1\n"]):
        with pytest.raises(DataError, match="sorted keys with dense indices"):
            Vocabulary.from_file(lines)


def _feature_line(classes="0\t1\t5", indices="1,4,7"):
    return f"b1\t2014-01-01\t{classes}\t{indices}\n"


@pytest.mark.parametrize(
    "line, message",
    [
        (_feature_line(classes="X\t1\t5"), "bad rrt class 'X'"),
        (_feature_line(classes="0\t6\t5"), "bad dialysis class '6'"),
        (_feature_line(classes="0\t1\t-1"), "bad transplant class '-1'"),
        (_feature_line(indices="1,x,3"), "bad feature index list '1,x,3'"),
        (_feature_line(indices="4,1"), "not strictly increasing"),
        (_feature_line(indices="1,1"), "not strictly increasing"),
        (_feature_line(indices="-1,2"), "not strictly increasing"),
        (_feature_line(indices="1,4294967297"), "not strictly increasing"),
        ("b1\t2014-01-01\t0\t1\n", "bad feature row"),
        ("b1\t2013-13-01\t0\t1\t5\t1,4,7\n", "bad trigger_date '2013-13-01'"),
        ("\t2014-01-01\t0\t1\t5\t1,4,7\n", "feature row with empty beneficiary_id"),
    ],
    ids=["letter", "class 6", "class -1", "letter index", "decreasing", "repeated", "negative",
         "beyond int32", "short row", "bad date", "empty id"],
)
def test_feature_rows_refuse_bad_classes_and_indices(line, message):
    with pytest.raises(ParseError, match=f"^line 3: .*{re.escape(message)}"):
        list(iter_feature_rows(["#! {}\n", _feature_line(), line]))


@pytest.mark.parametrize("indices", ["0,10", "10", "3,11"])
def test_feature_matrix_refuses_indices_outside_the_vocabulary(indices):
    lines = [_feature_line(indices="0,2"), _feature_line(indices=indices)]
    with pytest.raises(DataError, match="outside the 10 vocabulary columns"):
        read_feature_matrix(lines + [_feature_line(indices="")], 10)
    matrix = read_feature_matrix([_feature_line(indices="0,9"), _feature_line(indices="")], 10)
    assert matrix.indices.tolist() == [0, 9] and matrix.indptr.tolist() == [0, 2, 2]


def test_feature_matrix_index_error_names_its_file(tmp_path):
    path = tmp_path / "features_test.tsv"
    path.write_text(_feature_line(indices="0,2") + _feature_line(indices="3,12"))
    with pytest.raises(DataError) as info:
        read_feature_matrix(path, 10)
    assert str(info.value) == (
        f"{path}: feature index 12 of the row for b1 2014-01-01 "
        "is outside the 10 vocabulary columns"
    )


_HASH, _OTHER_HASH = "ab" * 32, "cd" * 32


@pytest.mark.parametrize(
    "header, vocab_hash, message",
    [
        ("", _HASH, "feature table has no vocabulary header (expected # vocab=abababababab...)"),
        (f"# vocab={_OTHER_HASH}\n", _HASH, "feature table was built against another vocabulary"),
        ("", None, None),
        (f"# vocab={_OTHER_HASH}\n", None, None),
        (f"# vocab={_HASH}\n", _HASH, None),
    ],
    ids=["missing", "another vocabulary", "missing, no hash", "another, no hash", "same"],
)
def test_feature_matrix_checks_the_vocabulary_header_when_given_a_hash(
    tmp_path, header, vocab_hash, message
):
    path = tmp_path / "features_train.tsv"
    path.write_text("#! {}\n" + header + _feature_line(indices="0,2"))
    if message is not None:
        with pytest.raises(DataError) as info:
            read_feature_matrix(path, 10, vocab_hash)
        assert str(info.value).startswith(f"{path}: {message}")
        return
    matrix = read_feature_matrix(path, 10, vocab_hash)
    assert matrix.vocab_hash == vocab_hash and matrix.ids == [("b1", "2014-01-01")]
    assert {task: y.tolist() for task, y in matrix.y.items()} == {
        "rrt": [0], "dialysis": [1], "transplant": [5]
    }


def test_vocabulary_order_error_names_its_file(tmp_path):
    path = tmp_path / "vocab.tsv"
    path.write_text("#! {}\nb\t0\na\t1\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: vocabulary file is not its sorted"):
        Vocabulary.from_file(path)
