"""The artifact framing: one row reader for every text format, and what it refuses.

A non-UTF-8 byte, or a file whose last line lacks its newline, is a data error
(exit 2) that names the file and the line, in every reader: the claims, the
trigger rows and summary, the vocabulary, the feature tables and the
predictions.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renalrisk import claims, features, stages, triggers
from renalrisk.artifacts import data_rows
from renalrisk.cli import main
from renalrisk.errors import ParseError
from renalrisk.pipeline import STAGES, artifact_paths, load_pipeline_config


def test_data_rows_names_a_bad_byte_past_the_first_buffer(tmp_path):
    path = tmp_path / "rows.tsv"
    lines = [f"row\t{i:06d}\n".encode() for i in range(3000)]  # 33 KB
    lines[2345] = b"row\t\xff\n"
    path.write_bytes(b"".join(lines))
    with pytest.raises(ParseError) as info:
        with data_rows(path) as rows:
            for _ in rows:
                pass
    assert (info.value.path, info.value.line_number) == (path, 2346)
    assert info.value.message == "byte 0xff is not UTF-8 text"


def test_data_rows_refuses_a_file_cut_short_before_its_first_row(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_text("#! {}\na\n\nb")
    with pytest.raises(ParseError, match=f"^{path}: line 4: last line has no newline"):
        with data_rows(path):
            raise AssertionError("no row is read from a file cut short")


def test_data_rows_accepts_lines_in_memory_without_a_final_newline():
    comments = []
    with data_rows(["# one\n", "\n", "a\tb\n", "c"], comments) as rows:
        assert list(rows) == [(3, "a\tb"), (4, "c")]
    assert comments == ["# one"]


_READERS = {
    "claims": lambda path: list(claims.iter_timelines(path)),
    "vocabulary": features.Vocabulary.from_file,
    "feature_table": lambda path: features.read_feature_matrix(path, 10),
    "trigger_rows": lambda path: list(triggers.iter_trigger_rows(path)),
    "trigger_summary": triggers.read_trigger_summary,
    "predictions": stages.read_predictions,
}


@pytest.mark.parametrize("read", _READERS.values(), ids=_READERS)
def test_a_whitespace_only_line_is_a_malformed_row(tmp_path, read):
    path = tmp_path / "artifact.tsv"
    path.write_text('#! {"stage": "x"}\n\n \t \n')
    with pytest.raises(ParseError) as info:
        read(path)
    assert (info.value.path, info.value.line_number) == (path, 3)


# ---------------------------------------------------------------------------
# Mutations of one artifact's body, read by the stage that consumes it

_CONSUMER = {
    "claims.tsv": "triggers",
    "triggers.tsv": "featurize",
    "trigger_summary.tsv": "evaluate",
    "vocab.tsv": "train",
    "features_train.tsv": "train",
    "features_valid.tsv": "train",
    "features_test.tsv": "predict",
    "predictions_rrt.tsv": "evaluate",
}


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    """A finished small run: its config and the file names of each stage's outputs."""
    tmp = tmp_path_factory.mktemp("cohort")
    raw = {
        "workdir": str(tmp / "run"),
        "seed": 404,
        "synth": {"n_beneficiaries": 200, "target_365d_prevalence": 0.01},
        "trigger_range": ["2012-01-01", "2015-12-01"],
        "train": {"tasks": ["rrt"], "hyperparams": {"max_epochs": 2, "batch_size": 256}},
    }
    (tmp / "config.json").write_text(json.dumps(raw))
    assert main(["reproduce", "--config", str(tmp / "config.json")]) == 0
    cfg = load_pipeline_config(tmp / "config.json")
    paths = artifact_paths(cfg)
    outputs = {stage: {paths[n].name for n in spec.outputs(cfg)} for stage, spec in STAGES.items()}
    return raw, outputs


def _mutate(data: bytes, mutation: tuple) -> bytes:
    """data with one mutation of its body; the lineage line stays."""
    kind, *args = mutation
    if kind == "cut":
        return data[: -args[0]]
    body = data.index(b"\n") + 1
    at = body + int(args[0] * (len(data) - body))
    if kind == "non_utf8":
        return data[:at] + b"\xff" + data[at + 1 :]
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ args[1]]) + data[at + 1 :]
    start = data.rindex(b"\n", 0, at) + 1  # drop the line that holds byte at
    return data[:start] + data[data.index(b"\n", at) + 1 :]


def _is_utf8(data: bytes) -> bool:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


_FRACTIONS = st.floats(0, 1, exclude_max=True)
_MUTATIONS = st.one_of(
    st.tuples(st.just("non_utf8"), _FRACTIONS),
    st.tuples(st.just("cut"), st.integers(1, 5)),
    st.tuples(st.just("flip"), _FRACTIONS, st.integers(1, 255)),
    st.tuples(st.just("drop_line"), _FRACTIONS),
)


@given(st.sampled_from(sorted(_CONSUMER)), _MUTATIONS)
@example("claims.tsv", ("non_utf8", 0.9))
@example("triggers.tsv", ("non_utf8", 0.9))
@example("vocab.tsv", ("non_utf8", 0.9))
@example("features_train.tsv", ("non_utf8", 0.9))
@example("features_test.tsv", ("non_utf8", 0.9))
@example("predictions_rrt.tsv", ("non_utf8", 0.9))
@example("claims.tsv", ("cut", 2))
@example("features_train.tsv", ("cut", 5))
@example("features_test.tsv", ("cut", 5))
@example("predictions_rrt.tsv", ("cut", 2))
@example("predictions_rrt.tsv", ("cut", 5))
@settings(max_examples=40, deadline=None)
def test_a_mutated_artifact_is_read_or_refused_by_its_consumer(cohort, name, mutation):
    """The consumer exits 0, or 2 with one error line; a file cut short or not UTF-8 is refused.

    The lineage line stays, so the mutation reaches the consumer's reader. Every
    other file is a link to the finished run's, and the consumer's outputs are
    left out, so the consumer runs.
    """
    raw, outputs = cohort
    stage = _CONSUMER[name]
    run = Path(raw["workdir"])
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp) / "run"
        workdir.mkdir()
        for path in run.iterdir():
            if path.name != name and path.name not in outputs[stage]:
                os.symlink(path, workdir / path.name)
        mutated = _mutate((run / name).read_bytes(), mutation)
        (workdir / name).write_bytes(mutated)
        cfg_path = Path(tmp) / "config.json"
        cfg_path.write_text(json.dumps({**raw, "workdir": str(workdir)}))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([stage, "--config", str(cfg_path)])
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert code in (0, 2) and len(errors) == (code == 2), err.getvalue()
    if not mutated.endswith(b"\n") or not _is_utf8(mutated):
        assert code == 2 and errors[0].startswith(f"error: {workdir / name}: line "), errors
