"""Monthly candidate triggers: eligibility screening and event labeling.

A candidate trigger is a (beneficiary, first-of-month) pair. It is eligible
when, at the trigger date ``t``, the beneficiary

  1. is 65 or older (by birth year),
  2. has a chronic-kidney-disease code on some claim strictly before ``t``,
  3. has no renal-replacement code dated at or before ``t``,
  4. has claims history reaching back at least 365 days, and
  5. filed at least one claim in the 30 days before ``t``.

Eligible triggers get, per task, a one-hot label over five disjoint
day-offset windows (0,30], (30,60], (60,90], (90,180], (180,365] plus an
explicit no-event class; an event at offset 50 labels the second window. The
task's event is its first claim coded from the task's code set (rrt: dialysis
or transplant).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass
from datetime import date, timedelta
from enum import Enum
from typing import Iterable, Iterator, Sequence

from .claims import ClaimTimeline, CodeSetLibrary, _iter_lines, first_occurrences
from .errors import ConfigError, ParseError, is_number

TASKS = ("rrt", "dialysis", "transplant")

# The overlapping prediction horizons in days. The disjoint label windows end
# at them, (0,30], (30,60], ..., (180,365], and one more class means no event
# within the last horizon.
HORIZON_DAYS = (30, 60, 90, 180, 365)
N_CLASSES = len(HORIZON_DAYS) + 1
# The one-hot label of each class, shared by every trigger that has it.
_ONE_HOT = tuple(tuple(int(i == cls) for i in range(N_CLASSES)) for cls in range(N_CLASSES))


class IneligibilityReason(str, Enum):
    UNDER_65 = "under_65"
    NO_CKD_DX = "no_ckd_dx"
    RRT_ALREADY_INITIATED = "rrt_already_initiated"
    INSUFFICIENT_HISTORY = "insufficient_history"
    NO_RECENT_CLAIM = "no_recent_claim"


@dataclass(frozen=True)
class Trigger:
    beneficiary_id: str
    trigger_date: date
    eligible: bool
    reasons: frozenset[IneligibilityReason]
    # task name -> one-hot disjoint label; None for ineligible triggers
    labels: dict[str, tuple[int, ...]] | None = None


def month_firsts(start: date, end: date) -> list[date]:
    """All first-of-month dates d with start <= d <= end."""
    if start > end:
        return []
    first = date(start.year, start.month, 1)
    if first < start:
        month = start.year * 12 + start.month  # next month
        first = date(month // 12, month % 12 + 1, 1)
    out = []
    y, m = first.year, first.month
    while date(y, m, 1) <= end:
        out.append(date(y, m, 1))
        m += 1
        if m == 13:
            y, m = y + 1, 1
    return out


@dataclass(frozen=True)
class _TimelineFacts:
    birth_year: int
    claim_ordinals: tuple[int, ...]  # sorted
    first_ckd: int | None
    first_rrt: int | None
    first_by_task: dict[str, int | None]


def _ordinal(day: date | None) -> int | None:
    return None if day is None else day.toordinal()


def _facts(timeline: ClaimTimeline, library: CodeSetLibrary) -> _TimelineFacts:
    ckd, dialysis, transplant = first_occurrences(
        timeline, (library.ckd, library.dialysis, library.transplant)
    )
    # the rrt code set is the union of the dialysis and transplant sets
    rrt = min((d for d in (dialysis, transplant) if d is not None), default=None)
    firsts = {"rrt": rrt, "dialysis": dialysis, "transplant": transplant}
    return _TimelineFacts(
        birth_year=timeline.beneficiary.birth_year,
        claim_ordinals=tuple(c.service_date.toordinal() for c in timeline.claims),
        first_ckd=_ordinal(ckd),
        first_rrt=_ordinal(rrt),
        first_by_task={task: _ordinal(firsts[task]) for task in TASKS},
    )


def _eligibility(facts: _TimelineFacts, t: date) -> frozenset[IneligibilityReason]:
    t_ord = t.toordinal()
    reasons = set()
    if t.year - facts.birth_year < 65:
        reasons.add(IneligibilityReason.UNDER_65)
    if facts.first_ckd is None or facts.first_ckd >= t_ord:
        reasons.add(IneligibilityReason.NO_CKD_DX)
    if facts.first_rrt is not None and facts.first_rrt <= t_ord:
        reasons.add(IneligibilityReason.RRT_ALREADY_INITIATED)
    days = facts.claim_ordinals
    if not days or days[0] > t_ord - 365:
        reasons.add(IneligibilityReason.INSUFFICIENT_HISTORY)
    if bisect_left(days, t_ord - 30) >= bisect_left(days, t_ord):
        reasons.add(IneligibilityReason.NO_RECENT_CLAIM)
    return frozenset(reasons)


def _label_from_offset(offset: int | None) -> tuple[int, ...]:
    cls = N_CLASSES - 1
    if offset is not None and 1 <= offset <= HORIZON_DAYS[-1]:
        cls = bisect_left(HORIZON_DAYS, offset)
    return _ONE_HOT[cls]


def enumerate_triggers(
    timeline: ClaimTimeline,
    trigger_range: tuple[date, date],
    library: CodeSetLibrary,
    dataset_end: date,
) -> list[Trigger]:
    """One candidate trigger per first-of-month in trigger_range, labeled.

    The last trigger must leave a full censoring buffer before dataset_end so
    every label is fully observed.
    """
    start, end = trigger_range
    max_horizon = HORIZON_DAYS[-1]
    if end + timedelta(days=max_horizon) > dataset_end:
        raise ConfigError(
            f"trigger range end {end} needs {max_horizon} days of buffer before "
            f"dataset end {dataset_end}"
        )
    facts = _facts(timeline, library)
    out = []
    for t in month_firsts(start, end):
        reasons = _eligibility(facts, t)
        if reasons:
            out.append(Trigger(timeline.beneficiary.id, t, False, reasons))
            continue
        t_ord = t.toordinal()
        labels = {}
        for task in TASKS:
            first = facts.first_by_task[task]
            offset = None if first is None else first - t_ord
            labels[task] = _label_from_offset(offset)
        out.append(Trigger(timeline.beneficiary.id, t, True, frozenset(), labels))
    return out


def check_split_ratios(ratios) -> None:
    """Refuse anything but three non-negative numbers that sum to 1 (train, valid, test)."""
    numbers = isinstance(ratios, (list, tuple)) and all(map(is_number, ratios))
    if not numbers or len(ratios) != 3:
        raise ConfigError(f"split.ratios must be a list of three numbers, got {ratios!r}")
    if any(r < 0 for r in ratios):
        raise ConfigError(f"need 3 non-negative split ratios, got {ratios!r}")
    if not abs(sum(ratios) - 1.0) <= 1e-9:  # also refuses NaN
        raise ConfigError(f"split ratios must sum to 1, got {ratios!r}")


def split_beneficiaries(
    ids: Iterable[str],
    ratios: Sequence[float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> tuple[set[str], set[str], set[str]]:
    """Deterministic beneficiary-level train/valid/test partition.

    Each id is ranked by a salted hash so the assignment is independent of
    input order; cut points are the half-up-rounded cumulative ratios.
    """
    check_split_ratios(ratios)
    ranked = sorted(
        set(ids),
        key=lambda i: (hashlib.sha256(f"{seed}|{i}".encode("utf-8")).hexdigest(), i),
    )
    n = len(ranked)
    cut1 = int(ratios[0] * n + 0.5)
    cut2 = int((ratios[0] + ratios[1]) * n + 0.5)
    return set(ranked[:cut1]), set(ranked[cut1:cut2]), set(ranked[cut2:])


# ---------------------------------------------------------------------------
# Trigger table IO
#
# One row per candidate trigger:
#   beneficiary_id TAB trigger_date TAB eligible(0|1) TAB reasons TAB
#   rrt_label TAB dialysis_label TAB transplant_label
# Reasons are comma-joined and sorted; labels are bit strings like 010000,
# or "-" for ineligible triggers.


def trigger_row(trigger: Trigger) -> str:
    reasons = ",".join(sorted(r.value for r in trigger.reasons))
    if trigger.eligible:
        labels = [
            "".join(str(v) for v in trigger.labels[task])  # type: ignore[index]
            for task in TASKS
        ]
    else:
        labels = ["-"] * len(TASKS)
    return "\t".join(
        [trigger.beneficiary_id, trigger.trigger_date.isoformat(), str(int(trigger.eligible)), reasons]
        + labels
    )


# Each valid label bit string and its one-hot tuple, shared by every row that has it.
_ONE_HOT_LABELS = {"".join(map(str, label)): label for label in _ONE_HOT}


def _parse_reasons(raw: str, line_no: int) -> frozenset[IneligibilityReason]:
    try:
        return frozenset(IneligibilityReason(name) for name in raw.split(",") if name)
    except ValueError:
        raise ParseError(line_no, f"unknown ineligibility reason in {raw!r}")


def _parse_trigger(
    line: str,
    line_no: int,
    dates: dict[str, date],
    reason_sets: dict[str, frozenset[IneligibilityReason]],
) -> Trigger:
    """Parse one trigger row, interning dates and reason sets in the read's tables."""
    fields = line.rstrip("\n").split("\t")
    if len(fields) != 4 + len(TASKS):
        raise ParseError(line_no, f"bad trigger row: {line!r}")
    bid, date_raw, eligible_raw, reasons_raw = fields[:4]
    if not bid:
        raise ParseError(line_no, "trigger row with empty beneficiary_id")
    if date_raw not in dates:
        try:
            dates[date_raw] = date.fromisoformat(date_raw)
        except ValueError:
            raise ParseError(line_no, f"bad trigger_date {date_raw!r} (expected YYYY-MM-DD)")
    if eligible_raw not in ("0", "1"):
        raise ParseError(line_no, f"bad eligible flag {eligible_raw!r} (expected 0 or 1)")
    if reasons_raw not in reason_sets:
        reason_sets[reasons_raw] = _parse_reasons(reasons_raw, line_no)
    eligible = eligible_raw == "1"
    labels = None
    if eligible:
        labels = {}
        for task, bits in zip(TASKS, fields[4:]):
            label = _ONE_HOT_LABELS.get(bits)
            if label is None:
                raise ParseError(
                    line_no, f"bad {task} label {bits!r} (expected a one-hot bit string)"
                )
            labels[task] = label
    return Trigger(bid, dates[date_raw], eligible, reason_sets[reasons_raw], labels)


def iter_trigger_rows(source) -> Iterator[Trigger]:
    """Parse a trigger table; malformed rows raise ParseError with their line number."""
    dates: dict[str, date] = {}
    reason_sets: dict[str, frozenset[IneligibilityReason]] = {}
    for line_no, line in enumerate(_iter_lines(source), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        yield _parse_trigger(line, line_no, dates, reason_sets)
