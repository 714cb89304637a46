"""Golden-digest regression: no stage's artifacts may move.

A tiny fixed-seed cohort runs all six stages in-process, and every
artifact's sha256 must equal its recorded digest. The claims, trigger and
feature digests date from before the claims and trigger readers were
rewritten to intern tokens; the model, prediction and report digests from
before the sparse gather was shared by training and prediction; the trigger
summary's from when the triggers stage began to write it. A change
that alters any of these bytes on purpose (a new synth draw order, another
float format or summation order) must say so and record new digests, e.g.
with ``python scripts/artifact_digests.py WORKDIR``.
"""

import hashlib
import json

from renalrisk.pipeline import STAGE_ORDER, load_pipeline_config, run_stage

GOLDEN_SHA256 = {
    "claims.tsv": "6737977b27dda9d48cf7983147921a02fd735eafc02ee1b42501b75c59c2b6f1",
    "features_test.tsv": "92257c4f2570821501749ea6d13ec187e797643c895033e3bbc87d8e65a82c2b",
    "features_train.tsv": "ea4f6dd95223af86fb59200dff8ea5157e8777ca786c3a7a88239e9d853718aa",
    "features_valid.tsv": "4ff33d2c2fa5640401a40c829ac8e863a603659b8369ead5b1fd65516c360fb2",
    "ground_truth.tsv": "33a0105dc0b29c3e4cf50fb2c0371c8a7f71d1726b669b223e58487328e2724a",
    "model_dialysis.bin": "8fbc66cb7e45c5eb5f505e389c091b7ea28b6068375773241d49d978b46b7fa5",
    "model_rrt.bin": "d0da906fab4d6f98b2ae94638204f8d37b8a86fef594ff26f53f8bfffce30ced",
    "model_transplant.bin": "954aed43c201c5a12760dd1b06fb9eb840ce079ed9835cd34dc7501e228e7392",
    "predictions_dialysis.tsv": "099377b296f23d3ce3e4c2b2d6345026290573d159d63b4db8bd2fc3b8548b76",
    "predictions_rrt.tsv": "fa192d502fe12636d0385f2f02203f9c2d28d07c5599ec7a33c5cf3e6e99ccef",
    "predictions_transplant.tsv": "d0b337375ad441d10660b036ce3a1de7e19268811174709485b8f326476afb5f",
    "report.json": "056d5f549f3952ad355935b2bd188bf0a4f96a30811acf2c70803e8e51f625e2",
    "report.txt": "dd61d739a0cfcaafb3b1a832f1989b89329dc9d01fc2bccb2cdaa386e4aa91c5",
    "split.tsv": "f280abe1e56a49c9cd86c0f6b3021e84acec13f21a52843a833a7f639fcbb7b3",
    "train_log_dialysis.tsv": "20f57941ae9bb76d77e45294b607aa47646d4bd08b1ab1cbfd910564ffa52d8a",
    "train_log_rrt.tsv": "b532451a50e789093681bdb36f184387cc2deea9bb09ea5733965d7a71982e56",
    "train_log_transplant.tsv": "d643577ffa5e2daff00db5c594f85da1981ff2b7450eab303bcc1bd6310b463a",
    "triggers.tsv": "cb9c561a7ae90c36a8004927e0b2636cb36d55bbefc0d8a5db3a0c0a2ec53c54",
    "trigger_summary.tsv": "dd036299bbbc293db4266b2ba8cdf3fc306b6f976a845f939de13a69fe3dc62f",
    "vocab.tsv": "ca5d00b7189c3e14f1d18bd9d183fce78f4da6b7e47c1afd48de5a43e302abc1",
}


def test_tiny_cohort_artifacts_match_golden_digests(tmp_path, capsys):
    workdir = tmp_path / "work"
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "workdir": str(workdir),
                "seed": 2209,
                "synth": {"n_beneficiaries": 150, "target_365d_prevalence": 0.05},
                "trigger_range": ["2012-01-01", "2015-12-01"],
                "features": {"min_count": 1},
            }
        )
    )
    cfg = load_pipeline_config(config)
    for stage in STAGE_ORDER:
        assert run_stage(cfg, stage)
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in workdir.iterdir()
    }
    assert digests == GOLDEN_SHA256
