"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line. The full synthetic experiment (50,000
beneficiaries) runs once as a session fixture and takes several minutes; run
with ``pytest tests/test_acceptance.py -v -s`` to watch the lines appear.
"""

import io
import json
import time
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from renalrisk.claims import CodeSystem, default_codeset_library, iter_timelines
from renalrisk.evaluation import gmean_operating_point, roc_auc
from renalrisk.features import (
    N_BUCKETS,
    CompiledTimeline,
    column_map,
    vocabulary_from_counts,
)
from renalrisk.model import ModelParams, loss_and_grad, predict_matrix
from renalrisk.pipeline import (
    STAGE_ORDER,
    artifact_paths,
    load_pipeline_config,
    run_stage,
)
from renalrisk.synth import SynthConfig, generate
from renalrisk.triggers import enumerate_triggers

from conftest import (
    feature_indices,
    make_beneficiary,
    make_claim,
    monthly_claims,
    pair_buckets,
    timeline_lines,
    timeline_with,
    timelines_by_id,
)
from test_evaluation import brute_force_roc_auc
from reference import brute_force_label, task_codeset
from test_model import C, make_matrix, numeric_gradient, rand_problem

LIB = default_codeset_library()
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def record(num: int, ok: bool, detail: str):
    print(f"[ACCEPTANCE {num:>2}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- 1: monotone cumulative probabilities -----------------------------------------


def test_criterion_1_monotone_probability_property():
    rng = np.random.default_rng(1001)
    violations = 0
    for _ in range(10_000):
        n_features = int(rng.integers(1, 40))
        scale = float(rng.uniform(0.05, 30.0))
        w = rng.normal(scale=scale, size=(C, n_features))
        b = rng.normal(scale=4.0, size=C)
        k = int(rng.integers(0, min(10, n_features) + 1))
        idx = sorted(rng.choice(n_features, size=k, replace=False).tolist())
        s, p = predict_matrix(ModelParams(w, b), make_matrix([idx], [0], n_features))
        s, p = s[0], p[0]
        ok = (
            abs(float(s.sum()) - 1.0) <= 1e-9
            and np.all(np.diff(p) >= 0.0)
            and p[-1] <= 1.0
        )
        violations += not ok
    record(1, violations == 0, f"monotone horizons and unit score mass: {violations} violations in 10000 trials")


# -- 2: gradient correctness --------------------------------------------------------


def test_criterion_2_gradient_matches_finite_differences():
    rng = np.random.default_rng(2002)
    worst = 0.0
    for _ in range(100):
        n_features = int(rng.integers(2, 51))
        n_rows = int(rng.integers(1, 21))
        matrix = rand_problem(rng, n_rows, n_features)
        w = rng.normal(scale=0.6, size=(C, n_features))
        b = rng.normal(scale=0.6, size=C)
        rows = np.arange(n_rows, dtype=np.int64)
        _, gw, gb = loss_and_grad(w, b, matrix, matrix.y["rrt"], rows)
        nw, nb = numeric_gradient(w, b, matrix, matrix.y["rrt"], rows)
        for a, n in ((gw, nw), (gb, nb)):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
            worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    record(2, worst < 1e-4, f"max relative gradient error {worst:.3g} over 100 instances")


# -- 3: metric oracle equivalence ------------------------------------------------------


def _brute_force_gmean_vectorized(scores, labels):
    """Exhaustive threshold scan with full recounting per threshold."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    thresholds = np.unique(s)
    predicted = s[None, :] >= thresholds[:, None]
    pos = y == 1
    tp = (predicted & pos[None, :]).sum(axis=1)
    tn = (~predicted & ~pos[None, :]).sum(axis=1)
    sens = tp / pos.sum()
    spec = tn / (~pos).sum()
    product = sens * spec
    best = int(np.argmax(product))  # argmax takes the first (lowest) threshold
    return float(thresholds[best]), float(sens[best]), float(spec[best])


def test_criterion_3_metric_oracle_equivalence():
    rng = np.random.default_rng(3003)
    mismatches = 0
    for trial in range(1000):
        n = int(rng.integers(2, 501))
        if trial % 3 == 0:  # heavy ties
            scores = rng.integers(0, 4, size=n) / 3.0
        else:
            scores = np.round(rng.random(n), 3)
        labels = (rng.random(n) < rng.uniform(0.02, 0.98)).astype(int)
        if labels.sum() == 0:
            labels[int(rng.integers(0, n))] = 1
        if labels.sum() == n:
            labels[int(rng.integers(0, n))] = 0
        if roc_auc(scores, labels) != brute_force_roc_auc(scores, labels):
            mismatches += 1
        op = gmean_operating_point(scores, labels)
        if (op.threshold, op.sensitivity, op.specificity) != _brute_force_gmean_vectorized(
            scores, labels
        ):
            mismatches += 1
    record(3, mismatches == 0, f"roc_auc + g-mean exact vs brute force: {mismatches} mismatches in 1000 sets")


# -- 4: label oracle equivalence ---------------------------------------------------------


def test_criterion_4_label_oracle_equivalence():
    rng = np.random.default_rng(4004)
    t = date(2014, 1, 1)
    codes = ["90951", "90960", "50360", "36821", "11111", "N183"]
    rrt = task_codeset(LIB, "rrt")
    boundary_offsets = [1, 29, 30, 31, 60, 61, 90, 91, 180, 181, 365, 366]
    # a CKD code 400 days back and a claim 10 days back make t an eligible trigger
    scaffold = [
        make_claim("b1", t - timedelta(days=400), [("ICD10_DX", "N183")]),
        make_claim("b1", t - timedelta(days=10)),
    ]
    disagreements = 0
    ineligible = 0
    for trial in range(10_000):
        n_claims = int(rng.integers(0, 7))
        claims = list(scaffold)
        for _ in range(n_claims):
            code = codes[rng.integers(0, len(codes))]
            system = "ICD10_DX" if code.startswith("N") else "CPT"
            if trial % 4 == 0:
                offset = int(boundary_offsets[rng.integers(0, len(boundary_offsets))])
            elif (CodeSystem(system), code) in rrt.codes:
                offset = int(rng.integers(1, 430))  # an rrt event at or before t makes t ineligible
            else:
                offset = int(rng.integers(-60, 430))
            claims.append(make_claim("b1", t + timedelta(days=offset), [(system, code)]))
        tl = timeline_with(make_beneficiary("b1"), *claims)
        (trig,) = enumerate_triggers(tl, (t, t), LIB, t + timedelta(days=365))
        if not trig.eligible:
            ineligible += 1
            continue
        task = ("rrt", "dialysis", "transplant")[trial % 3]
        if trig.labels[task] != brute_force_label(tl, t, task_codeset(LIB, task)):
            disagreements += 1
    record(
        4,
        disagreements == 0 and ineligible == 0,
        f"enumerate_triggers labels vs day-scan oracle: {disagreements} disagreements and "
        f"{ineligible} ineligible triggers in 10000 timelines",
    )


# -- 5: leakage property -----------------------------------------------------------------


def test_criterion_5_no_future_leakage():
    rng = np.random.default_rng(5005)
    t = date(2014, 6, 1)
    violations = 0
    for _ in range(10_000):
        history = [
            (t - timedelta(days=int(rng.integers(1, 3800))), [("CPT", str(rng.integers(0, 40)))])
            for _ in range(int(rng.integers(0, 6)))
        ]
        injected = [
            (t + timedelta(days=int(rng.integers(0, 400))), [("CPT", str(rng.integers(0, 40)))])
            for _ in range(int(rng.integers(1, 4)))
        ]
        # one read: b1 holds the history, b2 the history plus the injected future claims
        timelines = timelines_by_id(
            timeline_lines(make_beneficiary("b1"), *(make_claim("b1", *c) for c in history))
            + timeline_lines(
                make_beneficiary("b2"), *(make_claim("b2", *c) for c in history + injected)
            )
        )
        pairs = timelines["b1"].pairs
        compiled = CompiledTimeline(timelines["b1"])
        counts = np.zeros(len(pairs) * N_BUCKETS, dtype=np.int64)
        (active,) = pair_buckets(compiled, [t])
        counts[active] = 1
        vocab = vocabulary_from_counts(counts, pairs)
        colmap = column_map(vocab, pairs)
        (base,) = feature_indices(compiled, [t], vocab, colmap)
        (plus,) = feature_indices(CompiledTimeline(timelines["b2"]), [t], vocab, colmap)
        if not np.array_equal(plus, base):
            violations += 1
    record(5, violations == 0, f"future-claim injection: {violations} violations in 10000 trials")


# -- 6: eligibility scenario fixtures ------------------------------------------------------


def test_criterion_6_eligibility_scenarios():
    bid = "b1"
    # continuous monthly claims except a silent stretch before 2013-08-01;
    # dialysis starts 2014-09-20
    claims = monthly_claims(bid, date(2012, 1, 1), 18)  # through 2013-06
    claims += monthly_claims(bid, date(2013, 8, 20), 14, day=20)  # resumes late Aug 2013
    claims.append(make_claim(bid, date(2012, 1, 5), [("ICD10_DX", "N183")]))
    claims.append(make_claim(bid, date(2014, 9, 20), [("CPT", "90955")]))
    tl = timeline_with(make_beneficiary(bid), *claims)
    triggers = enumerate_triggers(tl, (date(2012, 1, 1), date(2015, 12, 1)), LIB, date(2016, 12, 31))
    by_date = {trig.trigger_date: trig for trig in triggers}

    checks = []
    # first-of-month cadence, 48 candidates
    checks.append(len(triggers) == 48)
    checks.append(all(trig.trigger_date.day == 1 for trig in triggers))
    # no-recent-claim stretch: claims pause after 2013-06-15 until 2013-08-20
    stale = by_date[date(2013, 8, 1)]
    checks.append(not stale.eligible and "no_recent_claim" in {r.value for r in stale.reasons})
    # the month after claims resume is eligible again
    checks.append(by_date[date(2013, 9, 1)].eligible)
    # eligible before onset, ineligible at every trigger after it
    checks.append(by_date[date(2014, 9, 1)].eligible)
    post = [trig for trig in triggers if trig.trigger_date > date(2014, 9, 20)]
    checks.append(
        all(
            (not trig.eligible)
            and "rrt_already_initiated" in {r.value for r in trig.reasons}
            for trig in post
        )
    )
    # first year is ineligible for lack of history
    checks.append(
        all(
            not by_date[date(2012, m, 1)].eligible
            and "insufficient_history" in {r.value for r in by_date[date(2012, m, 1)].reasons}
            for m in range(1, 13)
        )
    )
    # the day-50 labeling example: trigger 2014-08-01, onset +50 days
    label = by_date[date(2014, 8, 1)].labels["dialysis"]
    checks.append(label == (0, 1, 0, 0, 0, 0))
    record(6, all(checks), f"trigger scenario fixture: {sum(checks)}/{len(checks)} checks hold")


# -- 7/8/9: the full synthetic experiment ---------------------------------------------------


@pytest.fixture(scope="session")
def full_experiment(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance_run")
    raw = json.loads((CONFIG_DIR / "default.json").read_text())
    raw["workdir"] = str(base / "run")
    cfg_path = base / "config.json"
    cfg_path.write_text(json.dumps(raw))
    cfg = load_pipeline_config(cfg_path)
    durations = {}
    for stage in STAGE_ORDER:
        started = time.monotonic()
        run_stage(cfg, stage)
        durations[stage] = time.monotonic() - started
    report = json.loads(artifact_paths(cfg)["report_json"].read_text())
    return {"config": cfg, "report": report, "durations": durations}


def test_criterion_7_end_to_end_discrimination(full_experiment):
    report = full_experiment["report"]
    train_minutes = full_experiment["durations"]["train"] / 60.0
    cells = report["performance"]["rrt"]
    aucs = [cell["roc_auc"] for cell in cells]
    ok = (
        train_minutes < 10.0
        and aucs[0] >= 0.85
        and aucs[-1] >= 0.80
        and all(a >= b for a, b in zip(aucs, aucs[1:]))
    )
    record(
        7,
        ok,
        f"50k experiment: train {train_minutes:.1f} min, "
        f"RRT AUC by horizon {[round(a, 4) for a in aucs]}",
    )


def test_criterion_8_prevalence_monotone_and_constant_hazard_ratio(full_experiment, tmp_path):
    report = full_experiment["report"]
    monotone = all(
        report["prevalence"][task] == sorted(report["prevalence"][task])
        for task in ("rrt", "dialysis", "transplant")
    )
    # the generator's calibration must land near its target at full scale
    target = full_experiment["config"].synth.target_365d_prevalence
    realized = report["prevalence"]["rrt"][-1]
    calibrated = abs(realized - target) <= 0.3 * target
    # constant-hazard variant: severity weight zero
    cfg = SynthConfig(
        n_beneficiaries=20_000,
        seed=808,
        hazard_severity_weight=0.0,
        target_365d_prevalence=0.01,
    )
    claims_buf, truth_buf = io.StringIO(), io.StringIO()
    generate(cfg, claims_buf, truth_buf)
    claims_buf.seek(0)
    n_elig = 0
    n_pos = np.zeros(5, dtype=np.int64)
    for tl in iter_timelines(claims_buf):
        for trig in enumerate_triggers(
            tl, (date(2012, 1, 1), date(2015, 12, 1)), LIB, cfg.date_range[1]
        ):
            if not trig.eligible:
                continue
            n_elig += 1
            cls = trig.labels["rrt"].index(1)
            for i in range(cls, 5):
                n_pos[i] += 1
    p30 = n_pos[0] / n_elig
    p365 = n_pos[4] / n_elig
    ratio = p365 / p30 if p30 else float("inf")
    ok = monotone and calibrated and 6.0 <= ratio <= 24.0
    record(
        8,
        ok,
        f"prevalence monotone={monotone}, 365d RRT {100 * realized:.2f}% vs target "
        f"{100 * target:.0f}%; constant-hazard 365d:30d ratio "
        f"{ratio:.1f} (365d={100 * p365:.2f}%, 30d={100 * p30:.3f}%)",
    )


def test_criterion_9_impact_analysis_matches_ground_truth_fraction(full_experiment):
    report = full_experiment["report"]
    rows = report["impact"] or []
    row = next((r for r in rows if abs(r["target_sensitivity"] - 0.8) < 1e-9), None)
    ok = row is not None and abs(row["pct_without_prior_access"] - 35.0) <= 5.0
    detail = (
        f"impact at 80% sensitivity: {row['pct_without_prior_access']:.2f}% "
        f"without prior access (n={row['n_identified']}, "
        f"specificity {row['specificity']:.3f}; non-binding reference 91.62%)"
        if row
        else "no impact row produced"
    )
    record(9, ok, detail)


# -- 10: determinism ---------------------------------------------------------------------------


def test_criterion_10_reproduce_is_deterministic(tmp_path):
    raw = {
        "seed": 1212,
        "synth": {"n_beneficiaries": 800, "target_365d_prevalence": 0.01},
        "trigger_range": ["2012-01-01", "2015-12-01"],
        "features": {"min_count": 1},
        "train": {"tasks": ["rrt", "dialysis"], "hyperparams": {"max_epochs": 3}},
    }
    digests = []
    for label, workers in (("a", 1), ("b", 2)):
        cfg_raw = dict(raw, workdir=str(tmp_path / label))
        cfg_path = tmp_path / f"cfg_{label}.json"
        cfg_path.write_text(json.dumps(cfg_raw))
        cfg = load_pipeline_config(cfg_path, workers=workers)
        for stage in STAGE_ORDER:
            run_stage(cfg, stage)
        paths = artifact_paths(cfg)
        digests.append(
            {
                name: path.read_bytes()
                for name, path in sorted(paths.items())
                if path.exists()
            }
        )
    same = set(digests[0]) == set(digests[1]) and all(
        digests[0][k] == digests[1][k] for k in digests[0]
    )
    record(10, same, f"reproduce twice (workers 1 vs 2): {len(digests[0])} artifacts byte-identical={same}")
