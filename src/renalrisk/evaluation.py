"""Ranking metrics, operating points, prevalence tables, and impact analysis.

All metrics are computed per trigger. The classification rule everywhere is
``score >= threshold`` counts as positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .claims import NEVER, ClaimTimeline, first_occurrences
from .config import HORIZON_DAYS, TASKS, CodeSet
from .errors import DataError


@dataclass(frozen=True)
class OperatingPoint:
    threshold: float
    sensitivity: float
    specificity: float


def _as_arrays(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if s.ndim != 1 or s.shape != y.shape:
        raise DataError("scores and labels must be 1-d and the same length")
    if s.size == 0:
        raise DataError("empty scored set")
    return s, y


def _confusion_curve(s: np.ndarray, y: np.ndarray):
    """Per distinct threshold (ascending): tp, fp counts under score >= t."""
    order = np.argsort(s, kind="stable")
    s_sorted = s[order]
    y_sorted = y[order]
    starts = np.concatenate([[0], np.flatnonzero(np.diff(s_sorted)) + 1])
    thresholds = s_sorted[starts]
    pos_cum = np.concatenate([[0], np.cumsum(y_sorted)])
    n_pos = int(pos_cum[-1])
    n = s.size
    tp = n_pos - pos_cum[starts]
    predicted_pos = n - starts
    fp = predicted_pos - tp
    return thresholds, tp.astype(np.int64), fp.astype(np.int64), n_pos, n - n_pos


def roc_auc(scores, labels) -> float:
    """Probability a random positive outscores a random negative, ties at 1/2.

    Read off the tie groups of the confusion curve in O(n log n); exact
    integer pair counts feed one final float division.
    """
    _, tp, fp, n_pos, n_neg = _confusion_curve(*_as_arrays(scores, labels))
    if n_pos == 0 or n_neg == 0:
        raise DataError("undefined metric: roc_auc needs both classes present")
    # per group: positives strictly above it, and its own negatives; the int64
    # dot products are exact, as each is at most n_pos * n_neg
    above = np.append(tp[1:], 0)
    group_neg = fp - np.append(fp[1:], 0)
    wins = int(group_neg @ above)
    ties = int(group_neg @ (tp - above))
    return float(2 * wins + ties) / float(2 * n_pos * n_neg)


def pr_auc(scores, labels) -> float:
    """Average precision: step-wise area, no interpolation, tie groups merged."""
    _, tp, fp, n_pos, _ = _confusion_curve(*_as_arrays(scores, labels))
    if n_pos == 0:
        raise DataError("undefined metric: pr_auc needs at least one positive")
    tp, predicted = tp[::-1], (tp + fp)[::-1]  # descending thresholds
    return float(np.sum(tp / predicted * (np.diff(tp, prepend=0) / n_pos)))


def gmean_operating_point(scores, labels) -> OperatingPoint:
    """Threshold among the observed scores maximizing sqrt(sens * spec).

    Ties resolve to the lowest threshold.
    """
    thresholds, tp, fp, n_pos, n_neg = _confusion_curve(*_as_arrays(scores, labels))
    if n_pos == 0 or n_neg == 0:
        raise DataError("undefined operating point: both classes required")
    sens = tp / n_pos
    spec = (n_neg - fp) / n_neg
    i = int(np.argmax(sens * spec))  # first maximum: the lowest threshold
    return OperatingPoint(float(thresholds[i]), float(sens[i]), float(spec[i]))


def threshold_at_sensitivity(scores, labels, target: float) -> OperatingPoint:
    """Highest observed threshold whose sensitivity reaches the target."""
    thresholds, tp, fp, n_pos, n_neg = _confusion_curve(*_as_arrays(scores, labels))
    if n_pos == 0:
        raise DataError("undefined operating point: no positives present")
    sens = tp / n_pos
    reached = np.flatnonzero(sens >= target)
    if reached.size == 0:  # a target above 1: the lowest threshold has sensitivity 1
        raise AssertionError("sensitivity target unreachable")
    i = reached[-1]
    spec = (n_neg - fp[i]) / n_neg if n_neg else float("nan")
    return OperatingPoint(float(thresholds[i]), float(sens[i]), float(spec))


def prevalence_table(class_counts: Mapping[str, Sequence[int]]) -> dict[str, list[float]]:
    """Per task, the fraction of triggers positive at each overlapping horizon.

    ``class_counts[task][j]`` triggers fall in disjoint class j; horizon i is
    positive when the class falls in windows 0..i. Each share is an integer
    count over an integer total, one correctly rounded division, so it equals
    the float64 mean of the 0/1 horizon labels bit for bit.
    """
    out = {}
    n_windows = len(HORIZON_DAYS)
    for task, counts in class_counts.items():
        n = int(np.sum(counts))
        positive = np.cumsum(counts)[:n_windows].tolist()
        out[task] = [k / n if n else 0.0 for k in positive]
    return out


@dataclass(frozen=True)
class ImpactResult:
    target_sensitivity: float
    operating_point: OperatingPoint
    n_identified: int
    pct_without_prior_access: float


def access_before_onset(
    timeline: ClaimTimeline, dialysis: CodeSet, access: CodeSet
) -> bool | None:
    """Whether an access-creation code precedes the first dialysis code.

    None when the timeline has no dialysis onset.
    """
    onset, first_access = first_occurrences(timeline, (dialysis, access))
    if onset == NEVER:
        return None
    return first_access < onset


def impact_analysis(
    beneficiary_ids: Sequence[str],
    scores,
    positives,
    had_access: Mapping[str, bool],
    targets: Iterable[float],
) -> list[ImpactResult]:
    """Share of flagged dialysis-onset beneficiaries with no prior access work.

    One entry per scored test trigger in the three arrays. For each target
    sensitivity, a threshold is chosen on the per-trigger scored set; a
    beneficiary counts once if any of its truly positive triggers is flagged,
    and contributes by whether any access-creation code predates the
    dialysis onset.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    results = []
    for target in targets:
        op = threshold_at_sensitivity(scores, positives, target)
        flagged = np.flatnonzero(positives & (scores >= op.threshold))
        identified = dict.fromkeys(beneficiary_ids[i] for i in flagged)
        if not identified:
            raise DataError("impact analysis: no flagged true positives")
        missing = [bid for bid in identified if bid not in had_access]
        if missing:
            raise DataError(
                f"impact analysis: no access status for beneficiaries {missing[:3]}..."
            )
        n_without = sum(1 for bid in identified if not had_access[bid])
        results.append(
            ImpactResult(
                target_sensitivity=target,
                operating_point=op,
                n_identified=len(identified),
                pct_without_prior_access=100.0 * n_without / len(identified),
            )
        )
    return results


# ---------------------------------------------------------------------------
# Report assembly


def horizon_metrics(scores_by_horizon: np.ndarray, classes: np.ndarray) -> list[dict]:
    """ROC-AUC, PR-AUC, and the g-mean operating point per overlapping horizon.

    scores_by_horizon has one column per horizon (cumulative probabilities).
    Cells whose metric is undefined (single-class horizon) are reported null.
    """
    out = []
    for i, horizon in enumerate(HORIZON_DAYS):
        y = (classes <= i).astype(np.int64)
        s = scores_by_horizon[:, i]
        cell: dict = {"horizon_days": horizon, "n": int(y.size), "n_pos": int(y.sum())}
        try:
            cell["roc_auc"] = roc_auc(s, y)
            cell["pr_auc"] = pr_auc(s, y)
            op = gmean_operating_point(s, y)
            cell["threshold"] = op.threshold
            cell["sensitivity"] = op.sensitivity
            cell["specificity"] = op.specificity
        except DataError:
            cell.setdefault("roc_auc", None)
            cell.setdefault("pr_auc", None)
            cell["threshold"] = cell["sensitivity"] = cell["specificity"] = None
        out.append(cell)
    return out


def render_report_text(report: dict) -> str:
    """Human-readable tables mirroring the machine-readable report dict."""
    lines = []
    horizons = report["horizon_days"]
    lines.append("Label prevalence (eligible triggers)")
    header = f"{'horizon':>9}" + "".join(f"{t:>14}" for t in TASKS)
    lines.append(header)
    for i, h in enumerate(horizons):
        row = f"{h:>8}d"
        for task in TASKS:
            row += f"{100 * report['prevalence'][task][i]:>13.3f}%"
        lines.append(row)
    lines.append("")
    lines.append("Test-set ranking and g-mean operating points")
    for task in TASKS:
        cells = report["performance"].get(task)
        if not cells:
            continue
        lines.append(f"  task: {task}")
        lines.append(
            f"{'horizon':>9}{'ROC-AUC':>10}{'PR-AUC':>10}{'sens':>8}{'spec':>8}{'pos':>8}"
        )
        for cell in cells:
            def fmt(v, width=10, nd=3):
                return f"{v:>{width}.{nd}f}" if v is not None else f"{'n/a':>{width}}"

            lines.append(
                f"{cell['horizon_days']:>8}d"
                + fmt(cell["roc_auc"])
                + fmt(cell["pr_auc"])
                + fmt(cell["sensitivity"], 8)
                + fmt(cell["specificity"], 8)
                + f"{cell['n_pos']:>8}"
            )
    lines.append("")
    if report.get("impact"):
        lines.append("Dialysis-access impact (dialysis task, longest horizon)")
        lines.append(f"{'sens target':>12}{'sens':>8}{'spec':>8}{'% no access':>13}{'n':>7}")
        for row in report["impact"]:
            lines.append(
                f"{100 * row['target_sensitivity']:>11.0f}%"
                f"{row['sensitivity']:>8.3f}"
                f"{row['specificity']:>8.3f}"
                f"{row['pct_without_prior_access']:>12.2f}%"
                f"{row['n_identified']:>7}"
            )
    lines.append("")
    return "\n".join(lines)
