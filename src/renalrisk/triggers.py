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
from dataclasses import dataclass
from datetime import date
from enum import Enum
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .artifacts import data_rows
from .claims import NEVER, ClaimTimeline, _parse_date, first_occurrences
from .config import (  # noqa: F401  (re-exports)
    HORIZON_DAYS,
    N_CLASSES,
    TASKS,
    CodeSetLibrary,
    check_split_ratios,
    check_trigger_buffer,
)
from .errors import DataError, ParseError, in_file

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
    first = start.year * 12 + start.month - 1 + (start.day > 1)  # months since year 0
    months = range(first, end.year * 12 + end.month)
    return [date(m // 12, m % 12 + 1, 1) for m in months]


# Bit k of a reason mask is set when the k-th IneligibilityReason holds; 0 is eligible.
_REASONS = tuple(IneligibilityReason)
N_REASON_MASKS = 1 << len(_REASONS)
_REASON_SETS = tuple(
    frozenset(r for k, r in enumerate(_REASONS) if mask >> k & 1) for mask in range(N_REASON_MASKS)
)
# What follows the date in the row of an ineligible trigger, per reason mask.
# (Entry 0 goes unused: an eligible row carries its label bit strings instead.)
_ROW_TAILS = tuple(
    "\t0\t" + ",".join(sorted(r.value for r in reasons)) + "\t-" * len(TASKS)
    for reasons in _REASON_SETS
)
_LABEL_BITS = tuple("".join(map(str, label)) for label in _ONE_HOT)
_HORIZONS = np.asarray(HORIZON_DAYS, dtype=np.int64)


class _DateGrid:
    """Trigger dates as day ordinals, years and ISO strings."""

    def __init__(self, dates: Iterable[date]):
        dates = tuple(dates)
        self.ordinals = np.asarray([t.toordinal() for t in dates], dtype=np.int64)
        self.years = np.asarray([t.year for t in dates], dtype=np.int64)
        self.ordinals.flags.writeable = self.years.flags.writeable = False  # shared by blocks
        self.iso = tuple(t.isoformat() for t in dates)


@lru_cache(maxsize=8)
def _month_grid(start: date, end: date) -> _DateGrid:
    return _DateGrid(month_firsts(start, end))


class TriggerBlock:
    """The candidate triggers of one beneficiary, one per date of its grid.

    ``grid.ordinals[i]`` is trigger i's day ordinal, ``reason_masks[i]`` its
    ineligibility reasons as bits (0 means eligible), and ``classes[j, i]`` task
    j's class index there (read only where eligible). Iterating yields the
    per-month view, one Trigger per date, which no stage builds: the triggers
    stage writes ``lines()``, and ``iter_trigger_rows`` reads them back into blocks.
    """

    __slots__ = ("beneficiary_id", "grid", "reason_masks", "classes")

    def __init__(self, beneficiary_id: str, grid: _DateGrid, reason_masks, classes):
        self.beneficiary_id = beneficiary_id
        self.grid = grid
        self.reason_masks = reason_masks
        self.classes = classes

    def __len__(self) -> int:
        return len(self.grid.iso)

    def __iter__(self) -> Iterator[Trigger]:
        bid = self.beneficiary_id
        for day, mask, classes in zip(
            self.grid.ordinals.tolist(), self.reason_masks.tolist(), self.classes.T.tolist()
        ):
            t = date.fromordinal(day)
            if mask:
                yield Trigger(bid, t, False, _REASON_SETS[mask])
            else:
                labels = {task: _ONE_HOT[c] for task, c in zip(TASKS, classes)}
                yield Trigger(bid, t, True, frozenset(), labels)

    def lines(self) -> list[str]:
        """One trigger-table row per month, without its newline."""
        prefix = self.beneficiary_id + "\t"
        out = []
        for iso, mask, classes in zip(
            self.grid.iso, self.reason_masks.tolist(), self.classes.T.tolist()
        ):
            if mask:
                out.append(prefix + iso + _ROW_TAILS[mask])
            else:
                labels = "\t".join([_LABEL_BITS[c] for c in classes])
                out.append(f"{prefix}{iso}\t1\t\t{labels}")
        return out


def enumerate_triggers(
    timeline: ClaimTimeline,
    trigger_range: tuple[date, date],
    library: CodeSetLibrary,
    dataset_end: date,
) -> TriggerBlock:
    """One candidate trigger per first-of-month in trigger_range, labeled.

    The last trigger must leave a full censoring buffer before dataset_end so
    every label is fully observed. All months are screened at once.
    """
    check_trigger_buffer(trigger_range, dataset_end)
    start, end = trigger_range
    grid = _month_grid(start, end)
    ckd, dialysis, transplant = first_occurrences(
        timeline, (library.ckd, library.dialysis, library.transplant)
    )
    # each task's first event day, in TASKS order: rrt is dialysis or transplant
    firsts = np.asarray([min(dialysis, transplant), dialysis, transplant], dtype=np.int64)
    t = grid.ordinals
    days = timeline.days
    first_day = days[0] if days.size else NEVER
    # a claim dated in [t - 30, t) is a recent one
    recent = np.searchsorted(days, t - 30) < np.searchsorted(days, t)
    reasons = (  # in the order of _REASONS
        grid.years - timeline.beneficiary.birth_year < 65,
        ckd >= t,
        firsts[0] <= t,
        first_day > t - 365,
        ~recent,
    )
    masks = np.zeros(t.size, dtype=np.int64)
    for k, holds in enumerate(reasons):
        masks |= holds.astype(np.int64) << k
    offsets = firsts[:, None] - t
    classes = np.where(offsets >= 1, np.searchsorted(_HORIZONS, offsets), N_CLASSES - 1)
    return TriggerBlock(timeline.beneficiary.id, grid, masks, classes)


def reason_counts(mask_counts: np.ndarray) -> dict[IneligibilityReason, int]:
    """Candidates per ineligibility reason, from their count per reason mask."""
    masks = np.arange(N_REASON_MASKS)
    return {r: int(mask_counts[(masks >> k & 1) == 1].sum()) for k, r in enumerate(_REASONS)}


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


def _tail_codes(tail: str, line_no: int) -> list[int]:
    """The reason mask and then each task's class of a row, from its fields after the date."""
    eligible_raw, reasons_raw, *labels = tail.split("\t")
    if eligible_raw not in ("0", "1"):
        raise ParseError(line_no, f"bad eligible flag {eligible_raw!r} (expected 0 or 1)")
    mask = 0
    for name in filter(None, reasons_raw.split(",")):
        try:
            mask |= 1 << _REASONS.index(IneligibilityReason(name))
        except ValueError:
            raise ParseError(line_no, f"unknown ineligibility reason in {reasons_raw!r}")
    if eligible_raw == "0":
        if not mask:
            raise ParseError(line_no, "ineligible trigger row with no ineligibility reason")
        for task, bits in zip(TASKS, labels):
            if bits != "-":
                raise ParseError(
                    line_no, f"bad {task} label {bits!r} (expected - for an ineligible trigger)"
                )
        return [mask] + [N_CLASSES - 1] * len(TASKS)
    for task, bits in zip(TASKS, labels):
        if bits not in _LABEL_BITS:
            raise ParseError(line_no, f"bad {task} label {bits!r} (expected a one-hot bit string)")
    if mask:
        raise ParseError(line_no, f"eligible trigger row with reasons {reasons_raw!r}")
    return [0] + [_LABEL_BITS.index(bits) for bits in labels]


def iter_trigger_rows(source) -> Iterator[TriggerBlock]:
    """Read a trigger table back into TriggerBlocks, one per run of a beneficiary's rows.

    The inverse of ``TriggerBlock.lines()``: each line is split once, at its
    second tab, and each distinct date and tail (the fields after the date) is
    checked once per read. Malformed rows raise ParseError with their line number.
    """
    dates: dict[str, date] = {}
    tail_ids: dict[str, int] = {}
    codes = np.empty((0, 1 + len(TASKS)), dtype=np.int64)  # row i: _tail_codes of tail id i
    grids: dict[tuple[str, ...], _DateGrid] = {}
    bid, run = None, []  # the date and tail id of each row of bid's run so far

    def block() -> TriggerBlock:
        run_dates, tails = zip(*run)
        if run_dates not in grids:
            grids[run_dates] = _DateGrid(dates[d] for d in run_dates)
        rows = codes[list(tails)]
        return TriggerBlock(bid, grids[run_dates], rows[:, 0], rows[:, 1:].T)

    with data_rows(source) as rows:
        for line_no, line in rows:
            fields = line.split("\t", 2)
            tail_id = tail_ids.get(fields[-1]) if len(fields) == 3 else None
            if tail_id is None and len(line.split("\t")) != 4 + len(TASKS):
                raise ParseError(line_no, f"bad trigger row: {line!r}")
            row_bid, date_raw, tail = fields
            if not row_bid:
                raise ParseError(line_no, "trigger row with empty beneficiary_id")
            if date_raw not in dates:
                dates[date_raw] = _parse_date(date_raw, line_no, "trigger_date")
            if tail_id is None:
                codes = np.vstack([codes, _tail_codes(tail, line_no)])
                tail_id = tail_ids[tail] = len(codes) - 1
            if row_bid != bid:
                if run:
                    yield block()
                bid, run = row_bid, []
            run.append((date_raw, tail_id))
        if run:
            yield block()


# ---------------------------------------------------------------------------
# Trigger summary IO
#
# What evaluate needs of the trigger table and the claims, written beside the
# table by the triggers stage:
#   access TAB beneficiary_id TAB had_access(0|1)
#   masks TAB n_0,...,n_31
#   eligible TAB task TAB n_0,...,n_5
# One access row per beneficiary with an eligible trigger whose dialysis event
# falls within the last horizon (1: an access-creation code precedes its first
# dialysis code); then the candidates per reason mask (mask 0 is eligible);
# then, per task, the eligible triggers per class. The count rows come last,
# so a file cut short at a line end lacks one.


@dataclass
class TriggerSummary:
    """The trigger summary: the counts and access flags of the rows above."""

    class_counts: np.ndarray  # (len(TASKS), N_CLASSES) int64: eligible triggers per task and class
    mask_counts: np.ndarray  # (N_REASON_MASKS,) int64: candidates per reason mask
    had_access: dict[str, bool]

    def lines(self) -> list[str]:
        """The summary's rows, without their newlines."""
        out = [f"access\t{bid}\t{int(flag)}" for bid, flag in self.had_access.items()]
        out.append("masks\t" + ",".join(map(str, self.mask_counts.tolist())))
        for task, counts in zip(TASKS, self.class_counts.tolist()):
            out.append(f"eligible\t{task}\t" + ",".join(map(str, counts)))
        return out


def _summary_counts(raw: str, n: int, what: str, line_no: int) -> np.ndarray:
    try:
        counts = np.asarray([int(v) for v in raw.split(",")], dtype=np.int64)
    except (ValueError, OverflowError):
        raise ParseError(line_no, f"bad {what} counts {raw!r} (expected integers)")
    if counts.size != n:
        raise ParseError(line_no, f"{counts.size} {what} counts, expected {n}")
    if (counts < 0).any():
        raise ParseError(line_no, f"negative {what} count in {raw!r}")
    return counts


def read_trigger_summary(path) -> TriggerSummary:
    """Read a trigger summary back; a malformed, cut-short or inconsistent file is a DataError."""
    class_counts: dict[str, np.ndarray] = {}
    mask_counts = None
    had_access: dict[str, bool] = {}
    with data_rows(path) as rows:
        for line_no, line in rows:
            kind, *fields = line.split("\t")
            if kind == "access" and len(fields) == 2:
                bid, flag = fields
                if not bid:
                    raise ParseError(line_no, "access row with empty beneficiary_id")
                if flag not in ("0", "1"):
                    raise ParseError(line_no, f"bad access flag {flag!r} (expected 0 or 1)")
                if bid in had_access:
                    raise ParseError(line_no, f"second access row for beneficiary {bid!r}")
                had_access[bid] = flag == "1"
            elif kind == "masks" and len(fields) == 1:
                if mask_counts is not None:
                    raise ParseError(line_no, "second masks row")
                mask_counts = _summary_counts(fields[0], N_REASON_MASKS, "reason mask", line_no)
            elif kind == "eligible" and len(fields) == 2 and fields[0] in TASKS:
                task, raw = fields
                if task in class_counts:
                    raise ParseError(line_no, f"second eligible row for task {task!r}")
                class_counts[task] = _summary_counts(raw, N_CLASSES, "class", line_no)
            else:
                raise ParseError(line_no, f"bad trigger summary row: {line[:80]!r}")
    missing = [task for task in TASKS if task not in class_counts]
    if mask_counts is None or missing:
        what = "masks row" if mask_counts is None else f"eligible row for task {missing[0]!r}"
        raise DataError(in_file(path, f"no {what} (file cut short?)"))
    for task, counts in class_counts.items():
        if counts.sum() != mask_counts[0]:
            raise DataError(
                in_file(
                    path,
                    f"the {task} class counts sum to {counts.sum()}, but {mask_counts[0]} "
                    "candidates are eligible",
                )
            )
    stacked = np.stack([class_counts[task] for task in TASKS])
    return TriggerSummary(stacked, mask_counts, had_access)
