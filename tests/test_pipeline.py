import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import renalrisk
import renalrisk.pipeline as pipeline_mod
import renalrisk.synth as synth_mod
from renalrisk.claims import iter_timelines
from renalrisk.cli import main
from renalrisk.errors import ConfigError
from renalrisk.evaluation import access_before_onset
from renalrisk.pipeline import (
    STAGE_ORDER,
    STAGES,
    artifact_paths,
    atomic_output,
    load_pipeline_config,
    read_artifact_lineage,
)
from renalrisk.triggers import (
    N_CLASSES,
    N_REASON_MASKS,
    TASKS,
    iter_trigger_rows,
    read_trigger_summary,
)


def write_config(tmp_path, workdir_name="run", **overrides):
    cfg = {
        "workdir": str(tmp_path / workdir_name),
        "seed": 404,
        "synth": {
            "n_beneficiaries": 400,
            "target_365d_prevalence": 0.01,
        },
        "trigger_range": ["2012-01-01", "2015-12-01"],
        "features": {"min_count": 1},
        "train": {
            "tasks": ["rrt"],
            "hyperparams": {"max_epochs": 2, "batch_size": 256},
        },
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("pipe")
    cfg_path = write_config(tmp_path)
    assert main(["reproduce", "--config", str(cfg_path)]) == 0
    return tmp_path, cfg_path


def test_config_validation_fails_before_any_work(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"workdir": "x"}')
    assert main(["synth", "--config", str(bad)]) == 1
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "x").exists() or not any((tmp_path / "x").iterdir())


def test_unknown_config_section_rejected(tmp_path):
    path = write_config(tmp_path)
    raw = json.loads(path.read_text())
    raw["surprise"] = 1
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match="unknown config sections"):
        load_pipeline_config(path)


# What a stage loads only once its body runs: a no-op stage and a refused command need none.
_STAGE_MODULES = [
    "numpy",
    "renalrisk.claims",
    "renalrisk.features",
    "renalrisk.model",
    "renalrisk.synth",
    "renalrisk.triggers",
    "renalrisk.evaluation",
    "renalrisk.stages",
]


def _fresh_cli(argv: list[str], watched: list[str]) -> tuple[int, str, list[str]]:
    """Run the CLI on argv in a fresh interpreter (no command: only import it).

    Returns the exit code, the stage output and the watched modules it loaded.
    """
    code = (
        "import json, sys\n"
        "from renalrisk.cli import main\n"
        "argv, watched = json.loads(sys.argv[1]), json.loads(sys.argv[2])\n"
        "code = main(argv) if argv else 0\n"
        "print(json.dumps([code, sorted(set(watched) & set(sys.modules))]))\n"
    )
    src = str(Path(renalrisk.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argv), json.dumps(watched)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    *output, last = proc.stdout.splitlines()
    exit_code, loaded = json.loads(last)
    return exit_code, "\n".join(output), loaded


def test_cli_import_loads_no_process_pool_or_calendar():
    """Every stage process imports the CLI, so its import does no work a stage may not need."""
    unwanted = ["concurrent.futures", "multiprocessing", "calendar", *_STAGE_MODULES]
    assert _fresh_cli([], unwanted) == (0, "", [])


def test_noop_stages_and_refused_commands_load_no_numpy(completed_run, tmp_path):
    """An up-to-date stage, a usage error and a config error each exit before numpy loads."""
    _, cfg_path = _copy_of_run(completed_run, tmp_path)
    for stage in STAGE_ORDER:
        code, out, loaded = _fresh_cli([stage, "--config", str(cfg_path)], _STAGE_MODULES)
        assert (code, out, loaded) == (0, f"{stage}: up to date", []), stage
    bad = write_config(tmp_path, workdir_name="bad", seed=-1)
    for argv in (["definitely-not-a-stage"], ["train", "--config", str(bad)]):
        assert _fresh_cli(argv, _STAGE_MODULES) == (1, "", []), argv
    assert not (tmp_path / "bad").exists()


def test_working_stages_load_only_their_own_modules(completed_run, tmp_path):
    """Only the synth stage loads the generator; each other stage reruns without it."""
    _, cfg_path = _copy_of_run(completed_run, tmp_path)
    cfg = load_pipeline_config(cfg_path)
    paths = artifact_paths(cfg)
    for stage in STAGE_ORDER[1:]:
        for name in STAGES[stage].outputs(cfg):
            paths[name].unlink()
        code, out, loaded = _fresh_cli([stage, "--config", str(cfg_path)], _STAGE_MODULES)
        assert code == 0 and "up to date" not in out, stage
        assert "numpy" in loaded and "renalrisk.synth" not in loaded, (stage, loaded)
        assert "renalrisk.stages" in loaded, stage


def test_usage_error_exit_code_1(capsys):
    assert main(["definitely-not-a-stage", "--config", "x"]) == 1


def test_missing_config_file_exit_code_1(capsys):
    assert main(["synth", "--config", "/nonexistent/cfg.json"]) == 1


def test_evaluate_before_train_names_missing_model(tmp_path, capsys):
    cfg_path = write_config(tmp_path, workdir_name="fresh")
    assert main(["synth", "--config", str(cfg_path)]) == 0
    assert main(["triggers", "--config", str(cfg_path)]) == 0
    assert main(["featurize", "--config", str(cfg_path)]) == 0
    code = main(["evaluate", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "model_rrt.bin" in err and "train" in err


def test_reproduce_end_to_end_writes_report(completed_run, capsys):
    tmp_path, cfg_path = completed_run
    cfg = load_pipeline_config(cfg_path)
    paths = artifact_paths(cfg)
    for name in ("claims", "triggers", "vocab", "features_train", "model_rrt", "report_json"):
        assert paths[name].exists(), name
    report = json.loads(paths["report_json"].read_text())
    assert report["prevalence"]["rrt"] == sorted(report["prevalence"]["rrt"])
    text = paths["report_text"].read_text()
    assert "Label prevalence" in text


def test_rerun_is_noop(completed_run, capsys):
    tmp_path, cfg_path = completed_run
    cfg = load_pipeline_config(cfg_path)
    paths = artifact_paths(cfg)
    before = {n: p.stat().st_mtime_ns for n, p in paths.items() if p.exists()}
    assert main(["reproduce", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("up to date") >= 6
    after = {n: p.stat().st_mtime_ns for n, p in paths.items() if p.exists()}
    assert before == after


def test_artifacts_embed_lineage(completed_run):
    tmp_path, cfg_path = completed_run
    cfg = load_pipeline_config(cfg_path)
    paths = artifact_paths(cfg)
    for name, stage in (
        ("claims", "synth"),
        ("triggers", "triggers"),
        ("vocab", "featurize"),
        ("model_rrt", "train"),
        ("predictions_rrt", "predict"),
        ("report_json", "evaluate"),
    ):
        lineage = read_artifact_lineage(paths[name])
        assert lineage is not None, name
        assert lineage["stage"] == stage
        assert lineage["seed"] == 404
        assert "config_sha256" in lineage


def test_stale_upstream_refused(completed_run, capsys):
    tmp_path, cfg_path = completed_run
    cfg = load_pipeline_config(cfg_path)
    paths = artifact_paths(cfg)
    original = paths["model_rrt"].read_bytes()
    try:
        # tamper with the model: evaluate must refuse the mismatched lineage
        blob = bytearray(original)
        blob[-1] ^= 0xFF
        paths["model_rrt"].write_bytes(bytes(blob))
        code = main(["evaluate", "--config", str(cfg_path)])
        assert code == 2
        assert "stale" in capsys.readouterr().err
    finally:
        paths["model_rrt"].write_bytes(original)


def _copy_of_run(completed_run, tmp_path):
    """A private copy of the completed run's work directory and its config."""
    _, cfg_path = completed_run
    raw = json.loads(cfg_path.read_text())
    workdir = tmp_path / "copy"
    shutil.copytree(raw["workdir"], workdir)
    raw["workdir"] = str(workdir)
    path = tmp_path / "copy.json"
    path.write_text(json.dumps(raw))
    return workdir, path


def test_reproduce_builds_no_trigger(tmp_path, monkeypatch, capsys):
    """Every stage works on TriggerBlocks; the per-month Trigger is a view for callers."""

    def no_trigger(*args, **kwargs):
        raise AssertionError("a stage built a Trigger")

    monkeypatch.setattr("renalrisk.triggers.Trigger", no_trigger)
    cfg_path = write_config(tmp_path, synth={"n_beneficiaries": 150, "target_365d_prevalence": 0.05})
    assert main(["reproduce", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "run" / "report.json").exists()


@pytest.fixture(scope="module")
def dialysis_run(tmp_path_factory):
    """A finished run of every task whose test split holds dialysis positives."""
    tmp_path = tmp_path_factory.mktemp("dialysis")
    cfg_path = write_config(
        tmp_path,
        synth={"n_beneficiaries": 300, "target_365d_prevalence": 0.2},
        train={"tasks": list(TASKS), "hyperparams": {"max_epochs": 2, "batch_size": 256}},
    )
    assert main(["reproduce", "--config", str(cfg_path)]) == 0
    assert json.loads((tmp_path / "run" / "report.json").read_text())["impact"]
    return tmp_path, cfg_path


def test_evaluate_reads_neither_the_claims_nor_the_trigger_table(
    dialysis_run, tmp_path, monkeypatch, capsys
):
    """Evaluate takes the prevalence counts and the access flags from the trigger summary."""
    workdir, cfg_path = _copy_of_run(dialysis_run, tmp_path)
    report = (workdir / "report.json").read_bytes()
    (workdir / "report.json").unlink()

    def no_read(*args, **kwargs):
        raise AssertionError("evaluate read the claims or the trigger table")

    monkeypatch.setattr("renalrisk.claims.iter_timelines", no_read)
    monkeypatch.setattr("renalrisk.triggers.iter_trigger_rows", no_read)
    assert main(["evaluate", "--config", str(cfg_path)]) == 0
    assert (workdir / "report.json").read_bytes() == report


def test_trigger_summary_matches_the_trigger_table_and_the_claims(dialysis_run):
    """Evaluate's former paths as oracles: the eligible rows of the trigger table, and
    access_before_onset on the claims timeline of each beneficiary with a dialysis positive."""
    _, cfg_path = dialysis_run
    cfg = load_pipeline_config(cfg_path)
    paths = artifact_paths(cfg)
    class_counts = np.zeros((len(TASKS), N_CLASSES), dtype=np.int64)
    mask_counts = np.zeros(N_REASON_MASKS, dtype=np.int64)
    positive_ids = set()
    for block in iter_trigger_rows(paths["triggers"]):
        mask_counts += np.bincount(block.reason_masks, minlength=N_REASON_MASKS)
        classes = block.classes[:, block.reason_masks == 0]
        for task_counts, task_classes in zip(class_counts, classes):
            task_counts += np.bincount(task_classes, minlength=N_CLASSES)
        if (classes[TASKS.index("dialysis")] < N_CLASSES - 1).any():
            positive_ids.add(block.beneficiary_id)
    had_access = {
        tl.beneficiary.id: access_before_onset(
            tl, cfg.codesets.dialysis, cfg.codesets.access_creation
        )
        for tl in iter_timelines(paths["claims"])
        if tl.beneficiary.id in positive_ids
    }
    summary = read_trigger_summary(paths["trigger_summary"])
    assert summary.class_counts.tolist() == class_counts.tolist()
    assert summary.mask_counts.tolist() == mask_counts.tolist()
    assert summary.had_access == had_access
    assert set(had_access.values()) == {False, True}


def test_a_work_directory_without_the_trigger_summary_reruns_triggers_once(
    dialysis_run, tmp_path, capsys
):
    """A work directory made before the summary existed: triggers reruns, nothing else moves."""
    workdir, cfg_path = _copy_of_run(dialysis_run, tmp_path)
    before = {path.name: path.read_bytes() for path in workdir.iterdir()}
    assert len(before) == 20
    (workdir / "trigger_summary.tsv").unlink()
    capsys.readouterr()
    assert main(["reproduce", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "triggers: up to date" not in out and out.count("up to date") == 5
    assert {path.name: path.read_bytes() for path in workdir.iterdir()} == before


def _edit_row(lines, kind, edit):
    """lines with the first row that starts with kind passed through edit (None deletes it)."""
    at = next(i for i, line in enumerate(lines) if line.startswith(kind))
    return lines[:at] + ([] if edit is None else [edit(lines[at])]) + lines[at + 1 :]


_SUMMARY_FAULTS = {
    "truncated": (lambda lines: lines[:-1] + [lines[-1][:-4]], "no newline (file cut short?)"),
    "bad_integer": (
        lambda lines: _edit_row(lines, "masks", lambda row: row.replace("\t", "\tx", 1)),
        "bad reason mask counts 'x",
    ),
    "wrong_class_count": (
        lambda lines: _edit_row(lines, "eligible\trrt", lambda row: row.rsplit(",", 1)[0] + "\n"),
        "5 class counts, expected 6",
    ),
    "repeated_beneficiary": (
        lambda lines: _edit_row(lines, "access", lambda row: row + row),
        "second access row for beneficiary",
    ),
    "missing_task": (
        lambda lines: _edit_row(lines, "eligible\tdialysis", None),
        "no eligible row for task 'dialysis'",
    ),
    "edited_count": (
        lambda lines: _edit_row(lines, "eligible\ttransplant", lambda row: row[:-1] + "0\n"),
        "the transplant class counts sum to",
    ),
}


@pytest.mark.parametrize("fault, message", _SUMMARY_FAULTS.values(), ids=_SUMMARY_FAULTS)
def test_evaluate_refuses_a_damaged_trigger_summary(dialysis_run, tmp_path, capsys, fault, message):
    workdir, cfg_path = _copy_of_run(dialysis_run, tmp_path)
    summary = workdir / "trigger_summary.tsv"
    summary.write_text("".join(fault(summary.read_text().splitlines(keepends=True))))
    (workdir / "report.json").unlink()  # the summary is not an input of evaluate's lineage
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {summary}: ") and message in err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert not (workdir / "report.json").exists()


def test_evaluate_refuses_a_missing_access_status(dialysis_run, tmp_path, capsys):
    """Only a test split without dialysis positives has no impact analysis; a gap is an error."""
    workdir, cfg_path = _copy_of_run(dialysis_run, tmp_path)
    summary = workdir / "trigger_summary.tsv"
    lines = summary.read_text().splitlines(keepends=True)
    summary.write_text("".join(line for line in lines if not line.startswith("access\t")))
    (workdir / "report.json").unlink()
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: impact analysis: no access status for beneficiaries")
    assert not (workdir / "report.json").exists()


def test_featurize_refuses_a_malformed_trigger_row(completed_run, tmp_path, capsys):
    workdir, cfg_path = _copy_of_run(completed_run, tmp_path)
    triggers = workdir / "triggers.tsv"
    lines = triggers.read_text().splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.split("\t")[2:3] == ["1"])
    fields = lines[at].split("\t")
    fields[1] = "2013-13-01"
    lines[at] = "\t".join(fields)
    triggers.write_text("".join(lines))
    capsys.readouterr()
    assert main(["featurize", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {triggers}: line {at + 1}: bad trigger_date '2013-13-01'")
    assert "Traceback" not in err
    assert not list(workdir.glob("*.tmp"))


def test_featurize_names_a_truncated_trigger_table(completed_run, tmp_path, capsys):
    workdir, cfg_path = _copy_of_run(completed_run, tmp_path)
    triggers = workdir / "triggers.tsv"
    lines = triggers.read_text().splitlines(keepends=True)
    last = max(i for i, line in enumerate(lines) if line.split("\t")[2:3] == ["1"])
    cut = lines[last].rstrip("\n")[:-1]  # mid-line: the transplant label loses its last bit
    triggers.write_text("".join(lines[:last]) + cut)
    capsys.readouterr()
    assert main(["featurize", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    label = cut.rsplit("\t", 1)[1]
    assert err.startswith(f"error: {triggers}: line {last + 1}: bad transplant label {label!r}")
    assert "Traceback" not in err
    assert not list(workdir.glob("*.tmp"))


def test_featurize_refuses_a_beneficiary_whose_trigger_rows_are_split(
    completed_run, tmp_path, capsys
):
    workdir, cfg_path = _copy_of_run(completed_run, tmp_path)
    (workdir / "split.tsv").unlink()
    triggers = workdir / "triggers.tsv"
    lines = triggers.read_text().splitlines(keepends=True)
    ids = [line.split("\t")[0] for line in lines]
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    second = next(i for i in range(first, len(ids)) if ids[i] != ids[first])
    third = next(i for i in range(second, len(ids)) if ids[i] != ids[second])
    half = (first + second) // 2  # the first beneficiary's rows from here on move down
    lines[half:third] = lines[second:third] + lines[half:second]
    triggers.write_text("".join(lines))
    capsys.readouterr()
    assert main(["featurize", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {triggers}: the rows of beneficiary {ids[first]!r}")
    assert not (workdir / "split.tsv").exists()
    assert not list(workdir.glob("*.tmp"))


def test_featurize_refuses_a_beneficiary_the_claims_lack(completed_run, tmp_path, capsys):
    workdir, cfg_path = _copy_of_run(completed_run, tmp_path)
    triggers = workdir / "triggers.tsv"
    lines = triggers.read_text().splitlines(keepends=True)
    bid = next(line.split("\t")[0] for line in lines if line.split("\t")[2:3] == ["1"])
    lines = ["ZZZ999" + line[len(bid) :] if line.startswith(bid + "\t") else line for line in lines]
    triggers.write_text("".join(lines))
    capsys.readouterr()
    assert main(["featurize", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: featurize: beneficiary 'ZZZ999' of {triggers} has no record in "
        f"{workdir / 'claims.tsv'} (rerun the triggers stage)\n"
    )
    assert not list(workdir.glob("*.tmp"))


def test_predict_refuses_a_model_with_a_corrupted_header(completed_run, tmp_path, capsys):
    workdir, cfg_path = _copy_of_run(completed_run, tmp_path)
    model = workdir / "model_rrt.bin"
    blob = bytearray(model.read_bytes())
    blob[20] ^= 0xFF  # inside the JSON header
    model.write_bytes(bytes(blob))
    assert read_artifact_lineage(model) is None
    capsys.readouterr()
    assert main(["predict", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "stale" in err and "Traceback" not in err
    assert not list(workdir.glob("*.tmp"))


def _set_field(path, field, value, row=0):
    """Overwrite one tab-separated field of a data row of path; return its line number."""
    lines = path.read_text().splitlines(keepends=True)
    at = [i for i, line in enumerate(lines) if not line.startswith("#")][row]
    fields = lines[at].rstrip("\n").split("\t")
    fields[field] = value
    lines[at] = "\t".join(fields) + "\n"
    path.write_text("".join(lines))
    return at + 1


@pytest.mark.parametrize(
    "field, value, message",
    [
        (2, "7", "bad rrt class '7'"),
        (2, "-1", "bad rrt class '-1'"),
        (3, "X", "bad dialysis class 'X'"),
        (-1, "1,x,3", "bad feature index list '1,x,3'"),
        (-1, "5,3", "feature indices '5,3' are not strictly increasing"),
    ],
)
def test_train_refuses_a_malformed_feature_row(
    completed_run, tmp_path, capsys, field, value, message
):
    workdir, cfg_path = _copy_of_run(completed_run, tmp_path)
    line_no = _set_field(workdir / "features_train.tsv", field, value)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    features = workdir / "features_train.tsv"
    assert err.startswith(f"error: {features}: line {line_no}: {message}")
    assert "Traceback" not in err
    assert not list(workdir.glob("*.tmp"))


@pytest.mark.parametrize(
    "stage, table, outputs",
    [
        ("train", "features_train", "model_*.bin"),
        ("predict", "features_test", "predictions_*.tsv"),
        ("evaluate", "features_test", "report.*"),
    ],
)
def test_a_feature_table_without_its_vocabulary_header_is_refused(
    completed_run, tmp_path, capsys, stage, table, outputs
):
    workdir, cfg_path = _copy_of_run(completed_run, tmp_path)
    features = workdir / f"{table}.tsv"
    before = features.read_bytes()
    lines = features.read_text().splitlines(keepends=True)
    features.write_text("".join(line for line in lines if not line.startswith("# vocab=")))
    for path in workdir.glob(outputs):
        path.unlink()
    # keep the predictions fresh, so that evaluate reads the edited table
    old, new = (hashlib.sha256(data).hexdigest() for data in (before, features.read_bytes()))
    for path in workdir.glob("predictions_*.tsv"):
        path.write_text(path.read_text().replace(old, new))
    capsys.readouterr()
    assert main([stage, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {features}: feature table has no vocabulary header")
    assert "Traceback" not in err
    assert not list(workdir.glob(outputs)) and not list(workdir.glob("*.tmp"))


@pytest.mark.parametrize("command", ["predict", "reproduce"])
def test_predict_refuses_a_malformed_trigger_date(completed_run, tmp_path, capsys, command):
    workdir, cfg_path = _copy_of_run(completed_run, tmp_path)
    features = workdir / "features_test.tsv"
    line_no = _set_field(features, 1, "2013-13-01")
    capsys.readouterr()
    assert main([command, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: {features}: line {line_no}: bad trigger_date '2013-13-01' (expected YYYY-MM-DD)"
    )
    assert "Traceback" not in err
    assert not list(workdir.glob("*.tmp"))


@pytest.mark.parametrize("outside", ["-1", "vocab size"])
def test_predict_refuses_a_feature_index_outside_the_vocabulary(
    completed_run, tmp_path, capsys, outside
):
    workdir, cfg_path = _copy_of_run(completed_run, tmp_path)
    n_vocab = sum(1 for line in (workdir / "vocab.tsv").open() if not line.startswith("#"))
    value = str(n_vocab) if outside == "vocab size" else outside
    _set_field(workdir / "features_test.tsv", -1, value, row=1)
    capsys.readouterr()
    assert main(["predict", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if outside == "-1":
        assert "not strictly increasing column indices" in err
    else:
        assert f"feature index {n_vocab} of the row for" in err
        assert f"outside the {n_vocab} vocabulary columns" in err
    assert not list(workdir.glob("*.tmp"))


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_evaluate_refuses_a_non_finite_prediction(completed_run, tmp_path, capsys, value):
    workdir, cfg_path = _copy_of_run(completed_run, tmp_path)
    predictions = workdir / "predictions_rrt.tsv"
    row = next(line for line in predictions.read_text().splitlines() if not line.startswith("#"))
    probabilities = row.split("\t")[3].split(",")
    line_no = _set_field(predictions, 3, ",".join(probabilities[:-1] + [value]))  # 365 days
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {predictions}: line {line_no}: non-finite score or probability")
    assert "Traceback" not in err
    assert not (workdir / "report.json.tmp").exists()


def test_evaluate_refuses_a_malformed_prediction_row(completed_run, tmp_path, capsys):
    workdir, cfg_path = _copy_of_run(completed_run, tmp_path)
    line_no = _set_field(workdir / "predictions_rrt.tsv", 2, "0.5,0.5")
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    predictions = workdir / "predictions_rrt.tsv"
    assert err.startswith(f"error: {predictions}: line {line_no}: bad prediction row")
    assert "Traceback" not in err


def test_evaluate_refuses_an_empty_test_split(tmp_path, capsys):
    """configs/small.json cut to 40 beneficiaries leaves no eligible trigger in the test split."""
    small = Path(__file__).resolve().parent.parent / "configs" / "small.json"
    raw = json.loads(small.read_text())
    raw["workdir"] = str(tmp_path / "run")
    raw["synth"]["n_beneficiaries"] = 40
    raw["train"]["hyperparams"]["max_epochs"] = 1
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["reproduce", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert " test=0" in captured.out
    assert captured.err.startswith("error: evaluate: the test split is empty: ")
    assert "features_test.tsv" in captured.err and len(captured.err.splitlines()) == 1
    assert not (tmp_path / "run" / "report.json").exists()


def test_failed_triggers_write_leaves_no_temp_file(completed_run, tmp_path, capsys):
    workdir, cfg_path = _copy_of_run(completed_run, tmp_path)
    claims = workdir / "claims.tsv"
    rows = [line for line in claims.read_text().splitlines() if not line.startswith("#")]
    last_claim = max(i for i, row in enumerate(rows) if row.startswith("C\t"))
    _set_field(claims, 2, "2013-02-30", row=last_claim)  # after most rows are written
    before = (workdir / "triggers.tsv").read_bytes()
    capsys.readouterr()
    assert main(["triggers", "--config", str(cfg_path)]) == 2
    assert "2013-02-30" in capsys.readouterr().err
    assert not list(workdir.glob("*.tmp"))
    assert (workdir / "triggers.tsv").read_bytes() == before


@pytest.mark.parametrize("name", ["triggers.tsv", "report.json", "model_rrt.bin"])
@pytest.mark.parametrize("content", [b"", b"\xff\xfe not utf-8\n", b'#! {"stage": \n', b"[1]\n"])
def test_an_artifact_without_a_readable_lineage_reads_as_none(tmp_path, name, content):
    (tmp_path / name).write_bytes(content)
    assert read_artifact_lineage(tmp_path / name) is None
    assert read_artifact_lineage(tmp_path / "missing.tsv") is None


def test_atomic_output_replaces_on_success_and_cleans_up_on_error(tmp_path):
    path = tmp_path / "artifact.txt"
    path.write_text("old")
    with pytest.raises(RuntimeError):
        with atomic_output(path) as tmp:
            tmp.write_text("partial")
            raise RuntimeError("interrupted")
    assert path.read_text() == "old" and not tmp.exists()
    with atomic_output(path) as tmp:
        tmp.write_text("new")
    assert path.read_text() == "new" and not tmp.exists()


def test_seed_override_changes_artifacts(completed_run, tmp_path, capsys):
    _, cfg_path = completed_run
    cfg = load_pipeline_config(cfg_path, seed_override=777)
    assert cfg.seed == 777
    assert cfg.synth.seed == 777
    assert cfg.split_seed == 778
    hp = cfg.hyperparams
    assert hp.seed == 779
    # a seed set in the hyperparameters or a grid entry follows --seed too
    raw = json.loads(cfg_path.read_text())
    raw["train"]["hyperparams"]["seed"] = 5
    seeded = tmp_path / "seeded.json"
    seeded.write_text(json.dumps(raw))
    assert load_pipeline_config(seeded).hyperparams.seed == 5
    assert load_pipeline_config(seeded, seed_override=9).hyperparams.seed == 11
    raw["train"] = {"grid": [{"seed": 5}, {"seed": 6, "max_epochs": 2}]}
    seeded.write_text(json.dumps(raw))
    assert [g.seed for g in load_pipeline_config(seeded).grid] == [5, 6]
    assert [g.seed for g in load_pipeline_config(seeded, seed_override=9).grid] == [11, 11]


def test_noop_reproduce_hashes_each_input_once(completed_run, tmp_path, monkeypatch, capsys):
    workdir, cfg_path = _copy_of_run(completed_run, tmp_path)
    hashed = []

    def spy_open(path, mode="r", *args, **kwargs):
        if "b" in mode:  # the hash cache reads files in binary
            hashed.append(Path(path).name)
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(pipeline_mod, "open", spy_open, raising=False)
    capsys.readouterr()
    assert main(["reproduce", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out.count("up to date") == 6
    assert sorted(hashed) == [
        "claims.tsv",
        "features_test.tsv",
        "features_train.tsv",
        "features_valid.tsv",
        "model_rrt.bin",
        "predictions_rrt.tsv",
        "triggers.tsv",
        "vocab.tsv",
    ]


def test_task_flag_restricted_to_known_tasks():
    assert main(["train", "--config", "x", "--task", "bogus"]) == 1


def test_task_flag_runs_single_task(completed_run, capsys):
    _, cfg_path = completed_run
    assert main(["train", "--config", str(cfg_path), "--task", "rrt"]) == 0
    assert "up to date" in capsys.readouterr().out


def test_task_flag_must_name_a_configured_task(completed_run, tmp_path, capsys):
    """A task outside train.tasks is a config error before any work; the report keeps its bytes."""
    workdir, cfg_path = _copy_of_run(completed_run, tmp_path)
    before = {path.name: path.read_bytes() for path in workdir.iterdir()}
    capsys.readouterr()
    for stage, task in [("train", "dialysis"), ("predict", "dialysis"), ("evaluate", "transplant")]:
        assert main([stage, "--config", str(cfg_path), "--task", task]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --task {task} is not a configured task (train.tasks: rrt)\n"
    assert {path.name: path.read_bytes() for path in workdir.iterdir()} == before


def test_a_task_run_is_fresh_when_its_own_outputs_are(dialysis_run, tmp_path, capsys):
    """train --task T reads T's outputs for freshness and stamps the full config's lineage, so
    it retrains only a missing T, byte for byte; predict --task still needs every model."""
    workdir, cfg_path = _copy_of_run(dialysis_run, tmp_path)
    model = workdir / "model_dialysis.bin"
    before = {path.name: path.read_bytes() for path in workdir.iterdir()}
    model.unlink()
    capsys.readouterr()
    for _ in range(2):
        assert main(["train", "--config", str(cfg_path), "--task", "rrt"]) == 0
        assert capsys.readouterr().out == "train: up to date\n"
    assert main(["predict", "--config", str(cfg_path), "--task", "rrt"]) == 2
    assert f"missing {model} (run the train stage first)" in capsys.readouterr().err
    assert main(["train", "--config", str(cfg_path), "--task", "dialysis"]) == 0
    assert "train[dialysis]" in capsys.readouterr().out
    assert {path.name: path.read_bytes() for path in workdir.iterdir()} == before
    assert main(["reproduce", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out.count("up to date") == 6
    (workdir / "predictions_dialysis.tsv").unlink()
    assert main(["predict", "--config", str(cfg_path), "--task", "rrt"]) == 0
    assert capsys.readouterr().out == "predict: up to date\n"
    assert main(["predict", "--config", str(cfg_path), "--task", "dialysis"]) == 0
    assert {path.name: path.read_bytes() for path in workdir.iterdir()} == before


def test_partial_evaluate_report_is_replaced_by_a_full_evaluate(completed_run, tmp_path, capsys):
    workdir, cfg_path = _copy_of_run(completed_run, tmp_path)
    raw = json.loads(cfg_path.read_text())
    raw["train"]["tasks"] = ["rrt", "dialysis"]
    cfg_path.write_text(json.dumps(raw))
    assert main(["reproduce", "--config", str(cfg_path)]) == 0
    report = workdir / "report.json"
    full = report.read_bytes()
    assert sorted(json.loads(full)["performance"]) == ["dialysis", "rrt"]

    report.unlink()
    assert main(["evaluate", "--config", str(cfg_path), "--task", "rrt"]) == 0
    partial = json.loads(report.read_text())
    assert sorted(partial["performance"]) == ["rrt"] and partial["impact"] is None
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg_path)]) == 0
    assert "evaluate: up to date" not in capsys.readouterr().out
    assert report.read_bytes() == full
    assert main(["reproduce", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out.count("up to date") == 6


_WRONG_TYPES = [
    ("seed", "abc"),
    ("features.min_count", "x"),
    ("train.hyperparams.batch_size", "x"),
    ("synth.date_range", ["2011-13-01", "2016-12-31"]),
    ("synth.ckd_fraction", "x"),
    ("evaluate.target_sensitivities", ["x"]),
    ("split.ratios", "abc"),
    ("features", 5),
    ("train.hyperparams", 5),
    ("train.grid", 5),
    ("seed", -1),
    ("seed", True),
    ("seed", 1.5),
    ("features.min_count", 2.7),
    ("workdir", 5),
    ("train.tasks", []),
    ("train.tasks", ["rrt", "rrt"]),
]
# a field's first case is named by the field alone, a later one also by its value
_WRONG_TYPE_IDS = [
    field if [f for f, _ in _WRONG_TYPES].index(field) == i else f"{field}={json.dumps(value)}"
    for i, (field, value) in enumerate(_WRONG_TYPES)
]


@pytest.mark.parametrize("field, value", _WRONG_TYPES, ids=_WRONG_TYPE_IDS)
def test_wrong_typed_config_value_is_a_config_error(tmp_path, capsys, field, value):
    raw = json.loads(write_config(tmp_path).read_text())
    *sections, key = field.split(".")
    section = raw
    for name in sections:
        section = section.setdefault(name, {})
    section[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["synth", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


_REFUSED_AT_LOAD = {
    "short_trigger_buffer": ({"trigger_range": ["2012-01-01", "2016-06-01"]}, "buffer"),
    "trigger_buffer_past_year_9999": ({"trigger_range": ["9999-01-01", "9999-06-01"]}, "buffer"),
    "trigger_range_without_first_of_month": (
        {"trigger_range": ["2012-01-02", "2012-01-31"]},
        "holding a first of month",
    ),
    "missing_codesets_file": ({"codesets": "/nonexistent.json"}, "codesets file not found"),
    "empty_target_sensitivities": (
        {"evaluate": {"target_sensitivities": []}},
        "target_sensitivities must not be empty",
    ),
}


@pytest.mark.parametrize("overrides, message", _REFUSED_AT_LOAD.values(), ids=_REFUSED_AT_LOAD)
def test_config_a_stage_would_refuse_is_refused_before_synth(tmp_path, capsys, overrides, message):
    path = write_config(tmp_path, **overrides)
    assert main(["reproduce", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


_NAN, _INF = float("nan"), float("inf")
# Per config field, values no stage can use, or that the base config's synth section
# and hyperparameters exclude (a claims path, a dataset_range, a grid). Each must be
# refused when the config loads, whatever the rest of the config holds.
_BAD_VALUES = {
    "workdir": [5, None, [], True],
    "seed": [-1, True, 1.5, "abc", None],
    "synth": [5, "x", [1]],
    "synth.n_beneficiaries": [0, -5, 1.5, "x", True, None],
    "synth.seed": [-1, 1.5, "x", True],
    "synth.date_range": [
        ["2011-13-01", "2016-12-31"],
        ["2016-12-31", "2011-01-01"],
        ["2011-01-01", "2011-01-20"],
        ["2011-01-01"],
        [1, 2],
        "2011",
        None,
    ],
    "synth.ckd_fraction": [-0.1, 1.5, "x", None, True, _NAN],
    "synth.monthly_hazard_scale": [-1, 1.5, "x", _NAN],
    "synth.claims_rate": [-1, "x", _NAN, _INF],
    "synth.hazard_severity_weight": [-1, "x", _NAN, _INF],
    "synth.decoy_access_monthly_rate": [-1, 2.0, _NAN],
    "synth.monthly_death_hazard": [-1, 2.0, _NAN],
    "synth.severity_claims_slope": ["x", _NAN, _INF],
    "synth.vocab_sizes": [
        [1, 2],
        {"CPTT": 5},
        {"CPT": 0},
        {"CPT": True},
        {"CPT": 2.7},
        {"PERFORMER_ROLE": 1},
    ],
    "synth.no_such_field": [1],
    "trigger_range": [
        ["2012-01-01", "2016-06-01"],
        ["9999-01-01", "9999-06-01"],
        ["2015-01-01", "2012-01-01"],
        ["2012-01-02", "2012-01-31"],
        ["2012-01-01"],
        "x",
        None,
    ],
    "claims": [5, ["a"], "claims.tsv"],
    "dataset_range": [["2011-01-01", "2016-12-31"]],
    "codesets": ["/nonexistent.json", 5, []],
    "split": [5, "x"],
    "split.no_such_field": [1],
    "split.ratios": [
        [0.5, 0.2, 0.2],
        [1.2, -0.1, -0.1],
        [_NAN, 0.5, 0.5],
        [_INF, 0, 0],
        [0.5, 0.5],
        [1, 0, 0, 0],
        ["a", "b", "c"],
        [True, False, False],
        "abc",
    ],
    "split.seed": [-1, "x", 1.5, True, None],
    "features": [5, "x"],
    "features.min_count": [0, -1, 2.7, "x", True, None],
    "features.no_such_field": [1],
    "train": [5, "x"],
    "train.no_such_field": [1],
    "train.tasks": [[], ["rrt", "rrt"], ["kidney"], "rrt", 5, None],
    "train.hyperparams": [5, "x"],
    "train.hyperparams.l1_coefficient": [-1, "x", True, _NAN, _INF],
    "train.hyperparams.initial_learning_rate": [0, -1, "x", _NAN, _INF],
    "train.hyperparams.decay_rate": [0, 1.5, "x", _NAN],
    "train.hyperparams.decay_steps": [0, -1, 1.5],
    "train.hyperparams.batch_size": [0, -1, 1.5, True, "x"],
    "train.hyperparams.max_epochs": [0, -1, 1.5],
    "train.hyperparams.patience": [-1, 1.5, "x"],
    "train.hyperparams.seed": [-1, 1.5, "x", True],
    "train.hyperparams.no_such_field": [1],
    "train.grid": [[], 5, [5], [{"max_epochs": 0}], [{"max_epochs": 1}]],
    "evaluate": [5, "x"],
    "evaluate.no_such_field": [1],
    "evaluate.target_sensitivities": [
        [],
        ["x"],
        [0],
        [1.5],
        [_NAN],
        5,
        None,
        "1",
        [True],
        ["0.5"],
        {"0.5": 1},
    ],
}


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(_BAD_VALUES)).flatmap(
        lambda field: st.tuples(st.just(field), st.sampled_from(_BAD_VALUES[field]))
    )
)
def test_one_bad_field_is_refused_at_load(case):
    """A valid config with one field set to a bad value: exit 1, one error line, no work."""
    field, value = case
    with tempfile.TemporaryDirectory() as tmp:
        raw = json.loads(write_config(Path(tmp)).read_text())
        *sections, key = field.split(".")
        section = raw
        for name in sections:
            section = section.setdefault(name, {})
        section[key] = value
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(raw))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["reproduce", "--config", str(path)]) == 1
        assert err.getvalue().startswith("error: ") and len(err.getvalue().splitlines()) == 1
        assert not (Path(tmp) / "run").exists()


def test_negative_seed_override_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["synth", "--config", str(path), "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


_BAD_VOCAB_SIZES = {
    "not_a_mapping": [1, 2],
    "unknown_system": {"CPTT": 5},
    "string_size": {"CPT": "abc"},
    "bool_size": {"CPT": True},
    "float_size": {"CPT": 2.7},
    "zero_size": {"CPT": 0},
    "one_performer_role": {"PERFORMER_ROLE": 1},
}


@pytest.mark.parametrize("sizes", _BAD_VOCAB_SIZES.values(), ids=_BAD_VOCAB_SIZES.keys())
def test_bad_vocab_sizes_are_a_config_error(tmp_path, capsys, sizes):
    path = write_config(tmp_path, synth={"n_beneficiaries": 400, "vocab_sizes": sizes})
    assert main(["synth", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "vocab_sizes" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_smallest_vocab_sizes_are_accepted(tmp_path):
    sizes = {name: 1 for name in synth_mod.DEFAULT_VOCAB_SIZES} | {"PERFORMER_ROLE": 2}
    path = write_config(tmp_path, synth={"n_beneficiaries": 60, "vocab_sizes": sizes})
    assert main(["synth", "--config", str(path)]) == 0


_BAD_RATIOS = {
    "sum_below_one": [0.5, 0.2, 0.2],
    "negative": [1.2, -0.1, -0.1],
    "nan": [float("nan"), 0.5, 0.5],
}


@pytest.mark.parametrize("ratios", _BAD_RATIOS.values(), ids=_BAD_RATIOS.keys())
def test_bad_split_ratios_fail_before_any_stage_runs(tmp_path, capsys, ratios):
    path = write_config(tmp_path, split={"ratios": ratios})
    assert main(["reproduce", "--config", str(path)]) == 1
    assert "split ratios" in capsys.readouterr().err
    assert not (tmp_path / "run" / "claims.tsv").exists()


def test_workers_validation():
    assert main(["synth", "--config", "x", "--workers", "0"]) == 1


def test_external_claims_config_requires_dataset_range(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "workdir": str(tmp_path / "w"),
                "seed": 1,
                "claims": str(tmp_path / "claims.tsv"),
                "trigger_range": ["2012-01-01", "2015-12-01"],
            }
        )
    )
    with pytest.raises(ConfigError, match="dataset_range"):
        load_pipeline_config(path)


@pytest.mark.parametrize("claims", [5, ["a"]], ids=["int", "list"])
def test_external_claims_path_must_be_a_string(tmp_path, capsys, claims):
    path = write_config(tmp_path, claims=claims, dataset_range=["2011-01-01", "2016-12-31"])
    raw = json.loads(path.read_text())
    del raw["synth"]
    path.write_text(json.dumps(raw))
    assert main(["triggers", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: claims must be a path string") and len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


def test_external_claims_skip_synth(completed_run, tmp_path, capsys):
    """With a claims file in place of a synth section, synth neither runs nor is checked."""
    workdir, _ = completed_run
    claims = tmp_path / "external.tsv"
    path = write_config(tmp_path, claims=str(claims), dataset_range=["2011-01-01", "2016-12-31"])
    raw = json.loads(path.read_text())
    del raw["synth"]
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert main(["synth", "--config", str(path)]) == 1
    assert main(["featurize", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"missing input {claims} (provide the configured claims file)" in err
    shutil.copy(workdir / "run" / "claims.tsv", claims)
    assert main(["reproduce", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "synth" not in out and "up to date" not in out
    assert main(["reproduce", "--config", str(path)]) == 0
    assert capsys.readouterr().out.count("up to date") == 5


def test_grid_config_parsed(tmp_path):
    cfg_path = write_config(
        tmp_path,
        train={
            "tasks": ["rrt"],
            "grid": [
                {"l1_coefficient": 0.0, "max_epochs": 1},
                {"l1_coefficient": 1e-4, "max_epochs": 1},
            ],
        },
    )
    cfg = load_pipeline_config(cfg_path)
    assert cfg.grid is not None and len(cfg.grid) == 2
    assert cfg.hyperparams is None


@pytest.mark.parametrize("tasks", [["rrt", "dialysis", "transplant"], ["dialysis"]])
@pytest.mark.parametrize("external_claims", [False, True])
def test_every_earlier_stage_feeds_each_stage(tmp_path, tasks, external_claims):
    """Upstream checks walk every earlier stage, so each must feed the stage through inputs."""
    cfg = load_pipeline_config(write_config(tmp_path, train={"tasks": tasks}))
    if external_claims:
        cfg = replace(cfg, synth=None, claims_path=tmp_path / "claims.tsv")
    producer_of = {name: stage for stage in STAGE_ORDER for name in STAGES[stage].outputs(cfg)}
    for i, stage in enumerate(STAGE_ORDER):
        producers, frontier = set(), [stage]
        while frontier:
            for producer in map(producer_of.get, STAGES[frontier.pop()].inputs(cfg)):
                if producer not in producers:
                    producers.add(producer)
                    frontier.append(producer)
        assert producers == set(STAGE_ORDER[:i]), stage
