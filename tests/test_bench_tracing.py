"""The benchmark's tracer wraps renalrisk functions by module and attribute name.

``bench/run.py --trace 1`` looks every one of them up, so a function renamed or
moved in ``src/`` breaks the traced run with a KeyError. This keeps that
breakage in the unit tests.
"""

import importlib.util
import json
import sys
from datetime import date
from pathlib import Path

import pytest

from renalrisk import pipeline, triggers
from renalrisk.claims import default_codeset_library

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists_and_none_is_left_wrapped(tracing):
    assert tracing.wrapped_attributes() == []
    with tracing.installed(tracing.Tracer("probe")):
        assert len(tracing.wrapped_attributes()) == len(tracing._instruments(tracing.Tracer("n")))
    assert tracing.wrapped_attributes() == []


def test_trigger_counters_read_blocks_as_triggers(tracing, eligible_timeline):
    """The tracer counts eligible candidates by iterating a block's Triggers (``.eligible``),
    and read passes by calls of ``iter_trigger_rows``."""
    trigger_range = (date(2013, 1, 1), date(2013, 12, 1))
    tracer = tracing.Tracer("probe")
    with tracing.installed(tracer):
        block = triggers.enumerate_triggers(
            eligible_timeline, trigger_range, default_codeset_library(), date(2016, 12, 31)
        )
        (read,) = triggers.iter_trigger_rows(block.lines())
    eligible = [trig.trigger_date for trig in read if trig.eligible]
    assert 0 < len(eligible) < len(block) == 12
    assert tracer.counters["triggers.candidates"] == 12
    assert tracer.counters["triggers.eligible"] == len(eligible)
    assert tracer.counters["triggers.iter_trigger_rows.passes"] == 1


def test_a_traced_stage_reports_its_lineage_checks_and_writes(tracing, tmp_path, capsys):
    """Stage bodies write through ``pipeline``, so the wrappers installed there see them;
    the runner works out each stage's lineage once."""
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "workdir": str(tmp_path / "work"),
                "seed": 2209,
                "synth": {"n_beneficiaries": 150, "target_365d_prevalence": 0.05},
                "trigger_range": ["2012-01-01", "2015-12-01"],
            }
        )
    )
    cfg = pipeline.load_pipeline_config(config)
    assert pipeline.run_stage(cfg, "synth") and pipeline.run_stage(cfg, "triggers")
    paths = pipeline.artifact_paths(cfg)
    outputs = [paths[name] for name in pipeline.STAGES["triggers"].outputs(cfg)]
    before = [path.read_bytes() for path in outputs]
    for path in outputs:
        path.unlink()
    tracer = tracing.Tracer("probe")
    with tracing.installed(tracer):
        assert pipeline.run_stage(cfg, "triggers")
    assert [path.read_bytes() for path in outputs] == before
    assert tracer.span_count("pipeline.write_text_artifact") == len(outputs) == 2
    # synth's lineage for the upstream check, then the stage's own
    assert tracer.span_count("pipeline.expected_lineage") == 2
    assert tracer.span_count("pipeline.stage_is_fresh") == 2


def test_a_traced_noop_reproduce_checks_each_stage_once(tracing, tmp_path, capsys):
    """reproduce makes one walk over the stages: one lineage and one freshness check each."""
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "workdir": str(tmp_path / "work"),
                "seed": 2209,
                "synth": {"n_beneficiaries": 150, "target_365d_prevalence": 0.05},
                "trigger_range": ["2012-01-01", "2015-12-01"],
                "features": {"min_count": 1},
                "train": {"tasks": ["rrt"], "hyperparams": {"max_epochs": 2, "batch_size": 256}},
            }
        )
    )
    cfg = pipeline.load_pipeline_config(config)
    pipeline.run_reproduce(cfg)
    capsys.readouterr()
    tracer = tracing.Tracer("probe")
    with tracing.installed(tracer):
        pipeline.run_reproduce(cfg)
    assert capsys.readouterr().out.count("up to date") == len(pipeline.STAGE_ORDER)
    assert tracer.span_count("pipeline.expected_lineage") == len(pipeline.STAGE_ORDER)
    assert tracer.span_count("pipeline.stage_is_fresh") == len(pipeline.STAGE_ORDER)
    assert tracer.span_count("pipeline.write_text_artifact") == 0
