"""Stage bodies: the work each of the six stages does once it is found stale.

``pipeline.run_stage`` imports this module only after its freshness check
finds work to do, so an up-to-date stage never loads it. Each body receives
the lineage to stamp on its outputs and the artifact paths, and imports the
stage modules it calls itself, so a working stage loads only its own.

Outputs are written through ``pipeline.write_text_artifact``,
``pipeline.atomic_output`` and ``pipeline._open_text_artifact``, looked up on
the module at each call, so a wrapper installed on ``pipeline`` sees them.
"""

from __future__ import annotations

import json
import time
from contextlib import ExitStack
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import pipeline
from .config import HORIZON_DAYS, N_CLASSES, TASKS, PipelineConfig
from .errors import DataError, ParseError, naming_file


def _feature_tables(paths: dict[str, Path], *splits: str) -> list:
    """The feature tables of these splits, read against vocab.tsv's width and hash."""
    from . import features as feat_mod

    vocab = feat_mod.Vocabulary.from_file(paths["vocab"])
    width, vocab_hash = len(vocab), vocab.content_hash()
    return [
        feat_mod.read_feature_matrix(paths[f"features_{split}"], width, vocab_hash)
        for split in splits
    ]


def _run_synth(cfg: PipelineConfig, lineage: dict, paths: dict[str, Path]) -> None:
    from . import synth as synth_mod

    assert cfg.synth is not None
    with ExitStack() as stack:
        ch = pipeline._open_text_artifact(stack, paths["claims"], lineage)
        th = pipeline._open_text_artifact(stack, paths["ground_truth"], lineage)
        summary = synth_mod.generate(cfg.synth, ch, th, workers=cfg.workers)
    print(
        f"synth: {summary.n_beneficiaries} beneficiaries, {summary.n_claims} claims, "
        f"{summary.n_dialysis} dialysis / {summary.n_transplant} transplant onsets, "
        f"{summary.n_access} access procedures "
        f"(hazard multiplier {summary.hazard_multiplier:.3g}, "
        f"predicted 365d prevalence {summary.predicted_prevalence:.4f})"
    )


def _run_triggers(cfg: PipelineConfig, lineage: dict, paths: dict[str, Path]) -> None:
    from . import claims as claims_mod
    from . import evaluation as eval_mod
    from . import triggers as trig_mod

    mask_counts = np.zeros(trig_mod.N_REASON_MASKS, dtype=np.int64)
    class_counts = np.zeros((len(TASKS), N_CLASSES), dtype=np.int64)
    had_access: dict[str, bool] = {}
    dialysis, last_window = TASKS.index("dialysis"), len(HORIZON_DAYS) - 1

    def rows():
        for timeline in claims_mod.iter_timelines(paths["claims"]):
            block = trig_mod.enumerate_triggers(
                timeline, cfg.trigger_range, cfg.codesets, cfg.dataset_range[1]
            )
            counts = np.bincount(block.reason_masks, minlength=trig_mod.N_REASON_MASKS)
            mask_counts[:] += counts
            if counts[0]:
                classes = block.classes[:, block.reason_masks == 0]
                for task_counts, task_classes in zip(class_counts, classes):
                    task_counts += np.bincount(task_classes, minlength=N_CLASSES)
                # only these beneficiaries can be dialysis positives in evaluate
                if (classes[dialysis] <= last_window).any():
                    had_access[block.beneficiary_id] = bool(
                        eval_mod.access_before_onset(
                            timeline, cfg.codesets.dialysis, cfg.codesets.access_creation
                        )
                    )
            if len(block):
                yield "\n".join(block.lines())

    pipeline.write_text_artifact(paths["triggers"], lineage, rows())
    summary = trig_mod.TriggerSummary(class_counts, mask_counts, had_access)
    pipeline.write_text_artifact(paths["trigger_summary"], lineage, summary.lines())
    reasons = trig_mod.reason_counts(mask_counts)
    print(
        f"triggers: {int(mask_counts.sum())} candidates, {int(mask_counts[0])} eligible; "
        "ineligible by reason: " + ", ".join(f"{r.value} {n}" for r, n in reasons.items())
    )


def _run_featurize(cfg: PipelineConfig, lineage: dict, paths: dict[str, Path]) -> None:
    from . import claims as claims_mod
    from . import features as feat_mod
    from . import triggers as trig_mod

    # per beneficiary with an eligible trigger: its date grid, the eligible
    # positions on it and their classes (one column per trigger)
    eligible_by_bid: dict[str, tuple[trig_mod._DateGrid, np.ndarray, np.ndarray]] = {}
    all_ids: set[str] = set()
    for block in trig_mod.iter_trigger_rows(paths["triggers"]):
        if block.beneficiary_id in all_ids:
            raise DataError(
                f"{paths['triggers']}: the rows of beneficiary {block.beneficiary_id!r} "
                "are not contiguous"
            )
        all_ids.add(block.beneficiary_id)
        eligible = np.flatnonzero(block.reason_masks == 0)
        if eligible.size:
            classes = block.classes[:, eligible]
            eligible_by_bid[block.beneficiary_id] = (block.grid, eligible, classes)
    train_ids, valid_ids, test_ids = trig_mod.split_beneficiaries(
        all_ids, cfg.split_ratios, cfg.split_seed
    )
    if not any(bid in train_ids for bid in eligible_by_bid):
        raise DataError("featurize: no eligible training triggers to build a vocabulary from")

    def split_of(bid: str) -> str:
        if bid in train_ids:
            return "train"
        if bid in valid_ids:
            return "valid"
        return "test"

    pipeline.write_text_artifact(
        paths["split"], lineage, (f"{bid}\t{split_of(bid)}" for bid in sorted(all_ids))
    )

    # single parse: keep the timelines that have at least one eligible trigger;
    # their pair ids all number pairs of this one read
    compiled: dict[str, feat_mod.CompiledTimeline] = {}
    for timeline in claims_mod.iter_timelines(paths["claims"]):
        pairs = timeline.pairs
        bid = timeline.beneficiary.id
        if bid in eligible_by_bid:
            compiled[bid] = feat_mod.CompiledTimeline(timeline)
    unknown = eligible_by_bid.keys() - compiled.keys()
    if unknown:
        raise DataError(
            f"featurize: beneficiary {min(unknown)!r} of {paths['triggers']} has no record "
            f"in {paths['claims']} (rerun the triggers stage)"
        )

    # training triggers per pair-bucket key; each active set holds a key once
    counts = np.zeros(len(pairs) * feat_mod.N_BUCKETS, dtype=np.int64)
    for bid, (grid, eligible, _) in eligible_by_bid.items():
        if bid in train_ids:
            for active in compiled[bid].active_pair_buckets(grid.ordinals[eligible]):
                counts[active] += 1
    vocab = feat_mod.vocabulary_from_counts(counts, pairs, cfg.min_count)
    vocab_hash = vocab.content_hash()
    pipeline.write_text_artifact(paths["vocab"], lineage, vocab.lines())
    colmap = feat_mod.column_map(vocab, pairs)

    columns = [str(i) for i in range(len(vocab))]
    n_rows = {"train": 0, "valid": 0, "test": 0}
    with ExitStack() as stack:
        handles = {}
        for split in n_rows:
            path = paths[f"features_{split}"]
            handles[split] = pipeline._open_text_artifact(stack, path, lineage)
            handles[split].write(f"{feat_mod.VOCAB_HEADER}{vocab_hash}\n")
        for bid in sorted(eligible_by_bid):
            split = split_of(bid)
            out = handles[split]
            grid, eligible, classes = eligible_by_bid[bid]
            rows = compiled[bid].active_indices(
                grid.ordinals[eligible], grid.years[eligible], vocab, colmap
            )
            for i, triple, indices in zip(eligible.tolist(), classes.T.tolist(), rows):
                out.write(feat_mod.feature_row(bid, grid.iso[i], triple, indices, columns) + "\n")
            n_rows[split] += eligible.size
    print(
        f"featurize: vocab {len(vocab)} columns; rows "
        f"train={n_rows['train']} valid={n_rows['valid']} test={n_rows['test']}"
    )


def _run_train(cfg: PipelineConfig, lineage: dict, paths: dict[str, Path], only_task=None) -> None:
    from . import model as model_mod

    train_matrix, valid_matrix = _feature_tables(paths, "train", "valid")
    started = time.monotonic()
    for ti, task in enumerate(cfg.tasks):
        if only_task and task != only_task:
            continue
        y_train = train_matrix.y[task]
        y_valid = valid_matrix.y[task]
        grid = tuple(replace(hp, seed=hp.seed + ti) for hp in cfg.grid or (cfg.hyperparams,))
        hp, result, _ = model_mod.tune(grid, train_matrix, y_train, valid_matrix, y_valid)
        with pipeline.atomic_output(paths[f"model_{task}"]) as tmp:
            model_mod.save_model(tmp, result.params, hp, task, lineage)
        log_lines = ["epoch\tstep\tlearning_rate\ttrain_loss\tvalid_loss"]
        log_lines += [
            f"{s.epoch}\t{s.steps}\t{s.learning_rate!r}\t{s.train_loss!r}\t{s.valid_loss!r}"
            for s in result.log
        ]
        pipeline.write_text_artifact(paths[f"train_log_{task}"], lineage, log_lines)
        nnz = int(np.count_nonzero(result.params.weights))
        print(
            f"train[{task}]: best epoch {result.best_epoch} "
            f"valid_ce {result.best_valid_loss:.5f}, {nnz} nonzero weights "
            f"({time.monotonic() - started:.1f}s elapsed)"
        )


def _run_predict(cfg: PipelineConfig, lineage: dict, paths: dict[str, Path], only_task=None) -> None:
    from . import model as model_mod

    (test_matrix,) = _feature_tables(paths, "test")
    for task in cfg.tasks:
        if only_task and task != only_task:
            continue
        params, _, _ = model_mod.load_model(paths[f"model_{task}"], test_matrix.vocab_hash)
        s, p = model_mod.predict_matrix(params, test_matrix)

        def rows():
            for i, (bid, tdate) in enumerate(test_matrix.ids):
                s_txt = ",".join(repr(float(v)) for v in s[i])
                p_txt = ",".join(repr(float(v)) for v in p[i])
                yield f"{bid}\t{tdate}\t{s_txt}\t{p_txt}"

        pipeline.write_text_artifact(paths[f"predictions_{task}"], lineage, rows())
        print(f"predict[{task}]: {len(test_matrix)} rows")


def read_predictions(path: Path) -> tuple[list[tuple[str, str]], np.ndarray, np.ndarray]:
    """Ids, window scores and horizon probabilities; a malformed row is a ParseError."""
    n_classes = N_CLASSES
    ids = []
    line_nos = []
    s_rows = []
    p_rows = []
    with naming_file(path):
        with open(path, "r", encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                if line.startswith("#") or not line.strip():
                    continue
                try:
                    bid, tdate, s_txt, p_txt = line.rstrip("\n").split("\t")
                    s_rows.append([float(v) for v in s_txt.split(",")])
                    p_rows.append([float(v) for v in p_txt.split(",")])
                    if len(s_rows[-1]) != n_classes or len(p_rows[-1]) != n_classes - 1:
                        raise ValueError
                except ValueError:
                    raise ParseError(
                        line_no,
                        f"bad prediction row {line[:80]!r} (expected id, date, {n_classes} "
                        f"window scores and {n_classes - 1} horizon probabilities)",
                    )
                ids.append((bid, tdate))
                line_nos.append(line_no)
        s, p = np.asarray(s_rows), np.asarray(p_rows)
        finite = np.isfinite(s).all(axis=-1) & np.isfinite(p).all(axis=-1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ParseError(
                line_nos[i], f"non-finite score or probability for {ids[i][0]} at {ids[i][1]}"
            )
    return ids, s, p


def _run_evaluate(cfg: PipelineConfig, lineage: dict, paths: dict[str, Path]) -> None:
    from . import evaluation as eval_mod
    from . import triggers as trig_mod

    # the trigger table and the claims come in through their summary
    summary = trig_mod.read_trigger_summary(paths["trigger_summary"])
    prevalence = eval_mod.prevalence_table(dict(zip(TASKS, summary.class_counts)))

    # vocab.tsv gives the table's width and header hash; it is not a lineage input
    (test,) = _feature_tables(paths, "test")
    if not len(test):
        raise DataError(
            f"evaluate: the test split is empty: {paths['features_test']} holds no eligible "
            "trigger to score (use a larger cohort or a larger test ratio)"
        )

    performance = {}
    dialysis_scores = None
    for task in cfg.tasks:
        ids, _, p = read_predictions(paths[f"predictions_{task}"])
        if ids != test.ids:
            raise DataError(
                f"predictions_{task} rows do not line up with features_test "
                "(stale artifact lineage?)"
            )
        performance[task] = eval_mod.horizon_metrics(p, test.y[task])
        if task == "dialysis":
            dialysis_scores = p[:, -1]

    impact_rows = None  # also when no test trigger is a dialysis positive
    positives = test.y["dialysis"] <= len(HORIZON_DAYS) - 1
    if dialysis_scores is not None and positives.any():
        impact = eval_mod.impact_analysis(
            [bid for bid, _ in test.ids],
            dialysis_scores,
            positives,
            summary.had_access,
            cfg.target_sensitivities,
        )
        impact_rows = []
        for result in impact:
            row = asdict(result)
            row |= row.pop("operating_point")
            impact_rows.append(row)

    report = {
        "horizon_days": list(HORIZON_DAYS),
        "n_test_triggers": len(test),
        "prevalence": prevalence,
        "performance": performance,
        "impact": impact_rows,
        "lineage": lineage,
    }
    with pipeline.atomic_output(paths["report_json"]) as tmp:
        tmp.write_text(json.dumps(report, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    text = eval_mod.render_report_text(report)
    pipeline.write_text_artifact(paths["report_text"], lineage, [text])
    print(text)


BODIES = {
    "synth": _run_synth,
    "triggers": _run_triggers,
    "featurize": _run_featurize,
    "train": _run_train,
    "predict": _run_predict,
    "evaluate": _run_evaluate,
}
