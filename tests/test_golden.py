"""Golden-digest regression: the first three stages' artifacts must not move.

A tiny fixed-seed cohort runs synth -> triggers -> featurize in-process, and
every artifact's sha256 must equal the digest recorded before the claims and
trigger readers were rewritten to intern tokens. A change that alters any of
these bytes on purpose (a new synth draw order, another float format) must
say so and record new digests, e.g. with
``python scripts/artifact_digests.py WORKDIR``.
"""

import hashlib
import json

from renalrisk.pipeline import load_pipeline_config, run_stage

GOLDEN_SHA256 = {
    "claims.tsv": "6737977b27dda9d48cf7983147921a02fd735eafc02ee1b42501b75c59c2b6f1",
    "ground_truth.tsv": "33a0105dc0b29c3e4cf50fb2c0371c8a7f71d1726b669b223e58487328e2724a",
    "triggers.tsv": "cb9c561a7ae90c36a8004927e0b2636cb36d55bbefc0d8a5db3a0c0a2ec53c54",
    "split.tsv": "f280abe1e56a49c9cd86c0f6b3021e84acec13f21a52843a833a7f639fcbb7b3",
    "vocab.tsv": "ca5d00b7189c3e14f1d18bd9d183fce78f4da6b7e47c1afd48de5a43e302abc1",
    "features_train.tsv": "ea4f6dd95223af86fb59200dff8ea5157e8777ca786c3a7a88239e9d853718aa",
    "features_valid.tsv": "4ff33d2c2fa5640401a40c829ac8e863a603659b8369ead5b1fd65516c360fb2",
    "features_test.tsv": "92257c4f2570821501749ea6d13ec187e797643c895033e3bbc87d8e65a82c2b",
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
    for stage in ("synth", "triggers", "featurize"):
        assert run_stage(cfg, stage)
    digests = {
        name: hashlib.sha256((workdir / name).read_bytes()).hexdigest() for name in GOLDEN_SHA256
    }
    assert digests == GOLDEN_SHA256
