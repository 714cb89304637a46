import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    reference_gmean_operating_point,
    reference_pr_auc,
    reference_prevalence_table,
    reference_roc_auc,
    reference_threshold_at_sensitivity,
)

from renalrisk.errors import DataError
from renalrisk.evaluation import (
    gmean_operating_point,
    impact_analysis,
    pr_auc,
    prevalence_table,
    roc_auc,
    threshold_at_sensitivity,
)
from renalrisk.triggers import N_CLASSES, TASKS

# -- oracles -------------------------------------------------------------------


def brute_force_roc_auc(scores, labels):
    """All positive-negative pairs: wins plus half-credit ties."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    pos = s[y == 1]
    neg = s[y == 0]
    wins = int((pos[:, None] > neg[None, :]).sum())
    ties = int((pos[:, None] == neg[None, :]).sum())
    return float(2 * wins + ties) / float(2 * pos.size * neg.size)


def brute_force_gmean(scores, labels):
    """Exhaustive scan of every distinct threshold with full recounting."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    n_pos = int((y == 1).sum())
    n_neg = y.size - n_pos
    best = None
    for threshold in sorted(set(s.tolist())):
        predicted = s >= threshold
        tp = int((predicted & (y == 1)).sum())
        tn = int((~predicted & (y == 0)).sum())
        sens = tp / n_pos
        spec = tn / n_neg
        product = sens * spec
        if best is None or product > best[0]:
            best = (product, threshold, sens, spec)
    return best[1], best[2], best[3]


# -- roc_auc --------------------------------------------------------------------


def test_roc_auc_worked_example():
    assert roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)


def test_roc_auc_perfect_separation():
    assert roc_auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0


def test_roc_auc_all_ties_is_half():
    assert roc_auc([0.3] * 10, [1, 0] * 5) == 0.5


def test_roc_auc_single_class_undefined():
    with pytest.raises(DataError, match="undefined"):
        roc_auc([0.1, 0.2], [1, 1])
    with pytest.raises(DataError, match="undefined"):
        roc_auc([0.1, 0.2], [0, 0])


def _random_scored_set(rng, n_max=500, tie_heavy=False):
    n = int(rng.integers(2, n_max + 1))
    if tie_heavy:
        scores = rng.integers(0, 5, size=n) / 4.0
    else:
        scores = np.round(rng.random(n), 3)
    labels = (rng.random(n) < rng.uniform(0.05, 0.95)).astype(int)
    if labels.sum() == 0:
        labels[int(rng.integers(0, n))] = 1
    if labels.sum() == n:
        labels[int(rng.integers(0, n))] = 0
    return scores, labels


def test_roc_auc_matches_brute_force_on_random_sets():
    rng = np.random.default_rng(123)
    for trial in range(200):
        scores, labels = _random_scored_set(rng, tie_heavy=(trial % 3 == 0))
        assert roc_auc(scores, labels) == brute_force_roc_auc(scores, labels)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_roc_auc_invariant_under_monotone_transform(seed):
    rng = np.random.default_rng(seed)
    scores, labels = _random_scored_set(rng, n_max=60)
    transformed = np.exp(3.0 * scores) + 5.0
    assert roc_auc(scores, labels) == pytest.approx(roc_auc(transformed, labels), abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_roc_auc_label_flip_complements(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 80))
    scores = rng.permutation(n) / n  # distinct scores: no ties
    labels = (rng.random(n) < 0.5).astype(int)
    if labels.sum() in (0, n):
        labels[0] = 1 - labels[0]
    assert roc_auc(scores, 1 - labels) == pytest.approx(1.0 - roc_auc(scores, labels), abs=1e-12)


# -- pr_auc ---------------------------------------------------------------------


def test_pr_auc_perfect_separation():
    assert pr_auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0


def test_pr_auc_single_positive_ranked_first():
    scores = [0.99] + [0.1 * k for k in range(1, 10)]
    labels = [1] + [0] * 9
    assert pr_auc(scores, labels) == 1.0


def test_pr_auc_zero_positives_undefined():
    with pytest.raises(DataError):
        pr_auc([0.1, 0.2], [0, 0])


def test_pr_auc_random_scores_approach_prevalence():
    rng = np.random.default_rng(7)
    n = 100_000
    prevalence = 0.2
    scores = rng.random(n)
    labels = (rng.random(n) < prevalence).astype(int)
    assert pr_auc(scores, labels) == pytest.approx(prevalence, abs=0.02)


def test_pr_auc_tie_groups_counted_together():
    # one threshold group holding a positive and a negative
    value = pr_auc([0.5, 0.5], [1, 0])
    assert value == pytest.approx(0.5)


# -- operating points --------------------------------------------------------------


def test_gmean_perfect_separation():
    op = gmean_operating_point([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0])
    assert op.sensitivity == 1.0 and op.specificity == 1.0
    assert op.threshold == pytest.approx(0.8)


def test_gmean_matches_exhaustive_scan():
    rng = np.random.default_rng(99)
    for trial in range(60):
        scores, labels = _random_scored_set(rng, n_max=200, tie_heavy=(trial % 2 == 0))
        op = gmean_operating_point(scores, labels)
        t, sens, spec = brute_force_gmean(scores, labels)
        assert (op.threshold, op.sensitivity, op.specificity) == (t, sens, spec)


def test_gmean_single_class_undefined():
    with pytest.raises(DataError):
        gmean_operating_point([0.5, 0.6], [1, 1])


def test_threshold_at_full_sensitivity_is_min_positive_score():
    scores = [0.9, 0.05, 0.5, 0.7, 0.3]
    labels = [1, 0, 1, 0, 1]
    op = threshold_at_sensitivity(scores, labels, 1.0)
    assert op.threshold == pytest.approx(0.3)
    assert op.sensitivity == 1.0


def test_threshold_at_sensitivity_perfect_separation_keeps_specificity():
    op = threshold_at_sensitivity([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0], 0.6)
    assert op.specificity == 1.0
    assert op.sensitivity >= 0.6


def test_threshold_is_highest_reaching_target():
    scores = [0.9, 0.8, 0.7, 0.6, 0.5]
    labels = [1, 0, 1, 0, 1]
    op = threshold_at_sensitivity(scores, labels, 0.5)
    # threshold 0.7 reaches 2/3 sensitivity; 0.8 only 1/3
    assert op.threshold == pytest.approx(0.7)
    assert op.sensitivity == pytest.approx(2 / 3)


def test_operating_point_reproducible_from_threshold():
    rng = np.random.default_rng(5)
    scores, labels = _random_scored_set(rng, n_max=300)
    op = gmean_operating_point(scores, labels)
    predicted = scores >= op.threshold
    sens = (predicted & (labels == 1)).sum() / labels.sum()
    spec = (~predicted & (labels == 0)).sum() / (labels == 0).sum()
    assert op.sensitivity == pytest.approx(sens)
    assert op.specificity == pytest.approx(spec)


# -- array forms against the loop oracles -----------------------------------------------

_SCORE_MODES = ("distinct", "heavy ties", "all tied", "near 1e-300")
_LABEL_MODES = ("random", "one positive", "one negative", "one class")


@st.composite
def _scored_sets(draw):
    n = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    score_mode = draw(st.sampled_from(_SCORE_MODES))
    if score_mode == "distinct":
        scores = rng.random(n)
    elif score_mode == "heavy ties":
        scores = rng.integers(0, 4, size=n) / 3.0
    elif score_mode == "all tied":
        scores = np.full(n, 0.25)
    else:
        scores = rng.integers(1, 6, size=n) * 1e-300 + rng.random(n) * 1e-301
    label_mode = draw(st.sampled_from(_LABEL_MODES))
    if label_mode == "random":
        labels = (rng.random(n) < rng.uniform(0.05, 0.95)).astype(np.int64)
    elif label_mode == "one class":
        labels = np.full(n, int(rng.integers(0, 2)), dtype=np.int64)
    else:
        majority = 0 if label_mode == "one positive" else 1
        labels = np.full(n, majority, dtype=np.int64)
        labels[int(rng.integers(0, n))] = 1 - majority
    return scores, labels


def _outcome(fn, *args) -> str:
    """The repr of fn's result, or the name of the DataError it raises."""
    try:
        return repr(fn(*args))
    except DataError as exc:
        return type(exc).__name__


_ORACLES = (
    (roc_auc, reference_roc_auc),
    (pr_auc, reference_pr_auc),
    (gmean_operating_point, reference_gmean_operating_point),
)


@given(_scored_sets(), st.floats(0.01, 1.0))
@settings(max_examples=300, deadline=None)
def test_curve_metrics_equal_the_loop_oracles(scored, target):
    scores, labels = scored
    for metric, oracle in _ORACLES:
        assert _outcome(metric, scores, labels) == _outcome(oracle, scores, labels)
    for t in (target, 0.1, 0.6, 0.8, 1.0):
        assert _outcome(threshold_at_sensitivity, scores, labels, t) == _outcome(
            reference_threshold_at_sensitivity, scores, labels, t
        )


def test_pr_auc_equals_the_oracle_past_the_pairwise_sum_block():
    rng = np.random.default_rng(11)
    for n, decimals in ((1_000, 2), (5_000, 6), (60_000, 4), (60_000, 12)):
        scores = np.round(rng.random(n), decimals)
        labels = (rng.random(n) < 0.1).astype(np.int64)
        assert repr(pr_auc(scores, labels)) == repr(reference_pr_auc(scores, labels))


# -- prevalence ---------------------------------------------------------------------


def _class_counts(classes):
    return np.bincount(np.asarray(classes, dtype=np.int64), minlength=N_CLASSES)


def test_prevalence_monotone_and_values():
    counts = _class_counts([5, 5, 5, 5, 0, 1, 4, 5, 5, 5])
    table = prevalence_table({"rrt": counts})
    assert table["rrt"] == [0.1, 0.2, 0.2, 0.2, 0.3]
    assert all(a <= b for a, b in zip(table["rrt"], table["rrt"][1:]))


def test_prevalence_zero_hazard_cohort_all_zero():
    counts = _class_counts(np.full(100, 5))
    table = prevalence_table({"rrt": counts, "dialysis": counts, "transplant": counts})
    for task in table:
        assert table[task] == [0.0] * 5


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.lists(st.integers(0, N_CLASSES - 1), max_size=300),
            # a few long runs of one class, so shares land on awkward fractions
            st.lists(
                st.tuples(st.integers(0, N_CLASSES - 1), st.integers(1, 5000)), max_size=6
            ).map(lambda runs: [c for c, k in runs for _ in range(k)]),
        ),
        min_size=len(TASKS),
        max_size=len(TASKS),
    )
)
def test_prevalence_from_counts_equals_the_label_mean_oracle(classes_per_task):
    """Dividing cumulative class counts gives the mean of the 0/1 horizon labels, bit for bit."""
    labels = dict(zip(TASKS, classes_per_task))
    counts = {task: _class_counts(classes) for task, classes in labels.items()}
    assert repr(prevalence_table(counts)) == repr(reference_prevalence_table(labels))


# -- impact -------------------------------------------------------------------------


def _impact_fixture(had_access_flags):
    """Per beneficiary two truly positive triggers at 0.9 and 0.95, then 20 negatives."""
    ids, scores, positives = [], [], []
    had_access = {}
    for i, flag in enumerate(had_access_flags):
        bid = f"p{i}"
        had_access[bid] = flag
        ids += [bid, bid]
        scores += [0.9, 0.95]
        positives += [True, True]
    # negatives give the threshold scan something to cut
    for i in range(20):
        ids.append(f"n{i}")
        scores.append(i / 40.0)
        positives.append(False)
    return ids, np.asarray(scores), np.asarray(positives), had_access


def test_impact_all_have_prior_access_gives_zero_pct():
    results = impact_analysis(*_impact_fixture([True] * 8), [0.8])
    assert results[0].pct_without_prior_access == 0.0
    assert results[0].n_identified == 8


def test_impact_none_have_prior_access_gives_hundred_pct():
    results = impact_analysis(*_impact_fixture([False] * 8), [0.8])
    assert results[0].pct_without_prior_access == 100.0


def test_impact_counts_each_beneficiary_once():
    fixture = _impact_fixture([True, False, False, True])
    results = impact_analysis(*fixture, [0.6, 0.8])
    for res in results:
        assert res.n_identified == 4
        assert res.pct_without_prior_access == pytest.approx(50.0)
    # one more beneficiary: its first positive trigger scores under every
    # threshold, its later one over it, so it counts once through the later one
    ids, scores, positives, had_access = fixture
    ids = ids + ["late", "late"]
    scores = np.append(scores, [0.1, 0.99])
    positives = np.append(positives, [True, True])
    had_access = had_access | {"late": False}
    results = impact_analysis(ids, scores, positives, had_access, [0.6, 0.8])
    for res in results:
        assert res.operating_point.threshold == 0.9
        assert res.n_identified == 5
        assert res.pct_without_prior_access == pytest.approx(60.0)


def test_impact_empty_true_positive_set_errors():
    with pytest.raises(DataError):
        impact_analysis(["n1"], np.asarray([0.2]), np.asarray([False]), {}, [0.8])
