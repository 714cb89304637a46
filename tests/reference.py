"""Slow reference versions of production code, kept only as test oracles.

Each oracle does the work of a production path the plain way, and the
equivalence tests compare the two:

- ``reference_parse_claims`` / ``reference_parse_claim`` validate every token
  of every line and build one ``Claim`` per line (the per-claim form: a
  service date and its ``(system, code)`` items), where ``iter_timelines``
  validates each distinct token once per read and yields columns;
  ``decode`` turns a columnar ``ClaimTimeline`` back into the per-claim form,
  which the oracles below read.
- ``reference_trigger_rows`` parses and checks each trigger row on its own
  into one ``Trigger`` (the per-row form), where ``iter_trigger_rows`` checks
  each distinct date and tail once per read and yields ``TriggerBlock``s.
- ``first_occurrence`` scans a timeline's claims for one code set, against
  the membership gathers of ``first_occurrences``; ``day_or_never`` turns its
  date into the day ordinal (or ``NEVER``) that ``first_occurrences`` gives;
  ``task_codeset`` spells out each task's code set, rrt as the union of the
  dialysis and transplant sets.
- ``brute_force_label`` scans every day offset after a trigger, against the
  labels of ``enumerate_triggers``.
- ``reference_enumerate_triggers`` screens and labels one month at a time,
  from the ``first_occurrence`` dates of the code sets, and ``trigger_row``
  formats one Trigger, against the per-beneficiary masks and ``lines()`` of
  ``enumerate_triggers``.
- ``collect_active_keys``, ``featurize`` and ``build_vocabulary`` scan every
  claim of a timeline, one trigger at a time, against ``CompiledTimeline`` and
  ``vocabulary_from_counts``.
- ``reference_active_pair_buckets`` and ``reference_active_indices`` featurize
  one trigger of a compiled timeline with eight ``searchsorted`` calls and
  ``np.unique``, against the per-beneficiary set masks of ``CompiledTimeline``.
- ``claim_type_for``, ``claim_items`` and ``pick`` code one synthetic
  background claim from its uniforms and picks (the per-claim form), against
  the batched slots of ``synth._claim_columns``; ``Pools`` reads the code
  pools they pick from off a ``synth._Tokens`` table.
- ``reference_batch_logits`` and ``reference_loss_and_grad`` are the sparse
  kernel with a fresh array per step (fancy-indexed slab, cumulative sum,
  zero column) and a per-nonzero row-id gather for the gradient, against the
  in-place ``model._batch_logits`` and ``model.loss_and_grad``; the two must
  agree bit for bit.
- ``reference_roc_auc``, ``reference_pr_auc``, ``reference_gmean_operating_point``
  and ``reference_threshold_at_sensitivity`` sort and walk the tie groups or
  thresholds one at a time, against the array forms in ``evaluation`` that
  read the whole confusion curve at once; the two must agree by ``repr``.
- ``reference_prevalence_table`` averages the 0/1 horizon labels of every
  eligible trigger, against ``evaluation.prevalence_table``, which divides
  the cumulative class counts of the trigger summary; the two must agree by
  ``repr``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from datetime import date, timedelta
from typing import Iterable, NamedTuple

import numpy as np

from renalrisk.claims import (
    NEVER,
    Beneficiary,
    ClaimTimeline,
    ClaimType,
    CodeSet,
    CodeSetLibrary,
    CodeSystem,
    _parse_beneficiary,
    _parse_date,
)
from renalrisk.errors import DataError, ParseError
from renalrisk.evaluation import OperatingPoint, _as_arrays, _confusion_curve
from renalrisk.features import (
    BUCKET_EDGES,
    N_BUCKETS,
    CompiledTimeline,
    Vocabulary,
    _all_demographic_keys,
    age_bucket,
    age_key,
    coded_key,
    race_key,
    sex_key,
)
from renalrisk.model import _gather, _log_softmax_true, _softmax_columns
from renalrisk.synth import _CLAIM_TYPE_NAMES, _stage, _Tokens
from renalrisk.triggers import (
    _ONE_HOT,
    HORIZON_DAYS,
    N_CLASSES,
    TASKS,
    IneligibilityReason,
    Trigger,
    month_firsts,
)

# -- claims and trigger rows --------------------------------------------------------


class Claim(NamedTuple):
    """One claim in the per-claim form; its claim type is validated, not kept."""

    service_date: date
    items: tuple[tuple[CodeSystem, str], ...]


def decode(timeline: ClaimTimeline) -> list[Claim]:
    """The claims of a columnar timeline, in its order."""
    pairs = timeline.pairs.pairs
    ptr = timeline.claim_ptr.tolist()
    ids = timeline.pair_ids.tolist()
    return [
        Claim(date.fromordinal(day), tuple(pairs[i] for i in ids[ptr[k] : ptr[k + 1]]))
        for k, day in enumerate(timeline.days.tolist())
    ]


def decoded(timelines: Iterable[ClaimTimeline]) -> dict[str, tuple[Beneficiary, list[Claim]]]:
    """Each timeline's beneficiary and decoded claims, by beneficiary id."""
    return {tl.beneficiary.id: (tl.beneficiary, decode(tl)) for tl in timelines}


def reference_parse_claim(fields: list[str], line_no: int) -> tuple[str, Claim]:
    """The beneficiary id and the claim of one C record."""
    if len(fields) < 4:
        raise ParseError(line_no, f"claim record needs at least 4 fields, got {len(fields)}")
    _, bid, date_raw, type_raw = fields[:4]
    if not bid:
        raise ParseError(line_no, "claim with empty beneficiary_id")
    service_date = _parse_date(date_raw, line_no, "service_date")
    try:
        ClaimType(type_raw)
    except ValueError:
        raise ParseError(line_no, f"bad claim_type {type_raw!r}")
    items = []
    for token in fields[4:]:
        system_raw, sep, code = token.partition(":")
        if not sep or not code:
            raise ParseError(line_no, f"bad item {token!r} (expected SYSTEM:code)")
        try:
            system = CodeSystem(system_raw)
        except ValueError:
            raise ParseError(line_no, f"unknown code system {system_raw!r}")
        items.append((system, code))
    return bid, Claim(service_date, tuple(items))


def reference_parse_claims(lines: list[str]) -> dict[str, tuple[Beneficiary, list[Claim]]]:
    """Each beneficiary and its claims sorted stably by date, by beneficiary id.

    Claims may come in any order after their B record.
    """
    timelines: dict[str, tuple[Beneficiary, list[Claim]]] = {}
    for line_no, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if fields[0] == "B":
            bene = _parse_beneficiary(fields, line_no)
            if bene.id in timelines:
                raise ParseError(line_no, f"duplicate beneficiary record {bene.id!r}")
            timelines[bene.id] = (bene, [])
        elif fields[0] == "C":
            bid, claim = reference_parse_claim(fields, line_no)
            if bid not in timelines:
                raise ParseError(line_no, f"claim references unknown beneficiary {bid!r}")
            timelines[bid][1].append(claim)
        else:
            raise ParseError(line_no, f"unknown record tag {fields[0]!r}")
    for _, claims in timelines.values():
        claims.sort(key=lambda claim: claim.service_date)
    return timelines


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
    reasons = reason_sets[reasons_raw]
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
        if reasons:
            raise ParseError(line_no, f"eligible trigger row with reasons {reasons_raw!r}")
    else:
        if not reasons:
            raise ParseError(line_no, "ineligible trigger row with no ineligibility reason")
        for task, bits in zip(TASKS, fields[4:]):
            if bits != "-":
                raise ParseError(
                    line_no, f"bad {task} label {bits!r} (expected - for an ineligible trigger)"
                )
    return Trigger(bid, dates[date_raw], eligible, reasons, labels)


def reference_trigger_rows(lines: Iterable[str]) -> list[Trigger]:
    """One Trigger per row of a trigger table, each row parsed and checked on its own."""
    dates: dict[str, date] = {}
    reason_sets: dict[str, frozenset[IneligibilityReason]] = {}
    return [
        _parse_trigger(line, line_no, dates, reason_sets)
        for line_no, line in enumerate(lines, start=1)
        if line.strip() and not line.startswith("#")
    ]


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


# -- code sets and labels -------------------------------------------------------------


def task_codeset(library: CodeSetLibrary, task: str) -> CodeSet:
    """The code set whose first claim is the task's event."""
    if task == "rrt":
        return CodeSet("rrt", library.dialysis.codes | library.transplant.codes)
    return {"dialysis": library.dialysis, "transplant": library.transplant}[task]


def first_occurrence(timeline: ClaimTimeline, codeset: CodeSet) -> date | None:
    """Earliest service date of any claim carrying a code from ``codeset``."""
    for claim in decode(timeline):
        if any(pair in codeset.codes for pair in claim.items):
            return claim.service_date
    return None


def day_or_never(day: date | None) -> int:
    """A ``first_occurrence`` date as ``first_occurrences`` gives it: a day ordinal, or NEVER."""
    return NEVER if day is None else day.toordinal()


def brute_force_label(timeline: ClaimTimeline, t: date, codeset: CodeSet) -> tuple[int, ...]:
    """One-hot window of the first codeset event after t, by scanning every day offset."""
    claims = decode(timeline)
    for offset in range(1, HORIZON_DAYS[-1] + 2):
        day = t + timedelta(days=offset)
        hit = any(
            claim.service_date == day and any(pair in codeset.codes for pair in claim.items)
            for claim in claims
        )
        if hit:
            if offset > HORIZON_DAYS[-1]:
                break
            for k, hi in enumerate(HORIZON_DAYS):
                if offset <= hi:
                    return tuple(1 if i == k else 0 for i in range(N_CLASSES))
    return tuple(1 if i == N_CLASSES - 1 else 0 for i in range(N_CLASSES))


def _eligibility(
    birth_year: int, first_ckd: date | None, first_rrt: date | None, days: list[int], t: date
) -> frozenset[IneligibilityReason]:
    """The reasons t is ineligible, given the sorted day ordinals of the claims."""
    t_ord = t.toordinal()
    reasons = set()
    if t.year - birth_year < 65:
        reasons.add(IneligibilityReason.UNDER_65)
    if first_ckd is None or first_ckd >= t:
        reasons.add(IneligibilityReason.NO_CKD_DX)
    if first_rrt is not None and first_rrt <= t:
        reasons.add(IneligibilityReason.RRT_ALREADY_INITIATED)
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


def reference_enumerate_triggers(
    timeline: ClaimTimeline,
    trigger_range: tuple[date, date],
    library: CodeSetLibrary,
) -> list[Trigger]:
    """One Trigger per first-of-month in trigger_range, each screened and labeled on its own.

    Each first event comes from a ``first_occurrence`` scan of its code set.
    """
    first_ckd = first_occurrence(timeline, library.ckd)
    firsts = {task: first_occurrence(timeline, task_codeset(library, task)) for task in TASKS}
    birth_year = timeline.beneficiary.birth_year
    days = timeline.days.tolist()
    out = []
    for t in month_firsts(*trigger_range):
        reasons = _eligibility(birth_year, first_ckd, firsts["rrt"], days, t)
        if reasons:
            out.append(Trigger(timeline.beneficiary.id, t, False, reasons))
            continue
        labels = {}
        for task in TASKS:
            first = firsts[task]
            labels[task] = _label_from_offset(None if first is None else (first - t).days)
        out.append(Trigger(timeline.beneficiary.id, t, True, frozenset(), labels))
    return out


# -- features -------------------------------------------------------------------------


def day_bucket(offset: int) -> int | None:
    """Bucket index for a day offset >= 1, or None when out of range."""
    if offset < 1 or offset >= BUCKET_EDGES[-1]:
        return None
    return bisect_right(BUCKET_EDGES, offset)


def demographic_keys(timeline: ClaimTimeline, t: date) -> tuple[str, str, str]:
    bene = timeline.beneficiary
    return (
        sex_key(bene.sex),
        race_key(bene.race),
        age_key(age_bucket(t.year - bene.birth_year)),
    )


def collect_active_keys(timeline: ClaimTimeline, t: date) -> set[str]:
    """All feature keys active at trigger date t, before any vocabulary filter."""
    keys = set(demographic_keys(timeline, t))
    t_ord = t.toordinal()
    for claim in decode(timeline):
        bucket = day_bucket(t_ord - claim.service_date.toordinal())
        if bucket is None:
            continue
        for system, code in claim.items:
            keys.add(coded_key(system, code, bucket))
    return keys


def build_vocabulary(
    training: Iterable[tuple[ClaimTimeline, Iterable[date]]],
    min_count: int = 1,
) -> Vocabulary:
    """Collect coded keys over training triggers; seed all demographic values.

    min_count is the minimum number of training triggers a coded key must
    appear in to earn a column.
    """
    counts: dict[str, int] = {}
    n_triggers = 0
    for timeline, dates in training:
        for t in dates:
            n_triggers += 1
            for key in collect_active_keys(timeline, t):
                if key.startswith("code/"):
                    counts[key] = counts.get(key, 0) + 1
    if n_triggers == 0:
        raise DataError("cannot build a vocabulary from an empty training set")
    keys = _all_demographic_keys()
    keys.extend(k for k, c in counts.items() if c >= min_count)
    return Vocabulary(keys)


def featurize(timeline: ClaimTimeline, t: date, vocab: Vocabulary) -> tuple[int, ...]:
    """Sorted in-vocabulary column indices of the keys active at trigger date t."""
    return tuple(
        sorted(vocab.index[key] for key in collect_active_keys(timeline, t) if key in vocab)
    )


def reference_active_pair_buckets(compiled: CompiledTimeline, t: date) -> np.ndarray:
    """Unique pair_id * N_BUCKETS + bucket values active at trigger t."""
    t_ord = t.toordinal()
    chunks = []
    lo_edge = 1  # claims strictly before t only
    for b, hi_edge in enumerate(BUCKET_EDGES):
        # offsets in [lo_edge, hi_edge) => service days in [t-hi_edge+1, t-lo_edge]
        lo = np.searchsorted(compiled.days, t_ord - hi_edge + 1, side="left")
        hi = np.searchsorted(compiled.days, t_ord - lo_edge, side="right")
        if hi > lo:
            ids = compiled.pair_ids[compiled.claim_ptr[lo] : compiled.claim_ptr[hi]]
            if ids.size:
                chunks.append(ids * N_BUCKETS + b)
        lo_edge = hi_edge
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(chunks))


def reference_active_indices(
    compiled: CompiledTimeline, t: date, vocab: Vocabulary, colmap: np.ndarray
) -> np.ndarray:
    """Sorted vocabulary columns of trigger t: its in-vocabulary keys plus demographics."""
    cols = colmap[reference_active_pair_buckets(compiled, t)]
    cols = cols[cols >= 0]
    dem = np.asarray(compiled.demographic_columns(t.year, vocab), dtype=np.int32)
    return np.sort(np.concatenate([cols, dem]))


# -- synthetic background claims ----------------------------------------------------


class Pools:
    """The code pools of a token table, under the names ``claim_items`` reads."""

    def __init__(self, tokens: _Tokens):
        def codes(name: str) -> list[str]:
            first = tokens.start[name]
            return [t.partition(":")[2] for t in tokens.table[first : first + tokens.size[name]]]

        self.icd9_dx, self.icd10_dx = codes("ICD9_DX"), codes("ICD10_DX")
        self.ccs_dx, self.hcc = codes("CCS_DX"), codes("HCC")
        self.icd9_px, self.icd10_px, self.ccs_px = codes("ICD9_PX"), codes("ICD10_PX"), codes("CCS_PX")
        self.cpt, self.hcpcs, self.hcpcs_alpha = codes("CPT"), codes("HCPCS"), codes("HCPCS_ALPHA")
        self.roles = codes("PERFORMER_ROLE")
        self.admit_source, self.discharge = codes("ADMIT_SOURCE"), codes("DISCHARGE_DISPOSITION")
        self.revenue = codes("REVENUE_CODE")
        self.encounter_ccs, self.encounter_hcc = codes("ENCOUNTER_CCS"), codes("ENCOUNTER_HCC")
        self.med_hcpcs, self.rxnorm = codes("MED_HCPCS"), codes("RXNORM")


def pick(pool: list[str], u: float) -> str:
    # u**2 skews mass toward the head of the pool, giving a heavy-tailed
    # code frequency profile without an alias table
    return pool[int(u * u * len(pool))]


def claim_items(
    pools: Pools,
    u: np.ndarray,
    picks: np.ndarray,
    sev: float,
    is_ckd: bool,
    era9: bool,
    claim_type: str,
    post_onset: bool,
) -> list[str]:
    """Item tokens (``SYSTEM:code``) for one claim."""
    items: list[str] = []
    dx_pool = pools.icd9_dx if era9 else pools.icd10_dx
    dx_sys = "ICD9_DX" if era9 else "ICD10_DX"
    first_dx = pick(dx_pool, u[0])
    items.append(f"{dx_sys}:{first_dx}")
    if u[1] < 0.40:
        items.append(f"{dx_sys}:{pick(dx_pool, (u[1] / 0.40))}")
    # crosswalk-style derived grouping for the first diagnosis
    if u[2] < 0.70:
        items.append(f"CCS_DX:{pools.ccs_dx[picks[0] % len(pools.ccs_dx)]}")
    if u[2] > 0.80:
        items.append(f"HCC:{pools.hcc[picks[1] % len(pools.hcc)]}")
    if is_ckd and sev > 0:
        stage = _stage(sev)
        if post_onset:
            stage = 6 if u[3] < 0.7 else 5  # ESRD coding after initiation
        if u[4] < min(0.9, 0.32 + 0.055 * sev) or post_onset:
            code = f"585{stage}" if era9 else f"N18{stage}"
            items.append(f"{dx_sys}:{code}")
            if u[5] < 0.5:
                items.append("CCS_DX:158")
            if u[5] > 1.0 - min(0.5, 0.02 + 0.034 * sev):
                items.append("HCC:136")
    # procedures
    if u[6] < 0.5:
        items.append(f"CPT:{pick(pools.cpt, u[6] / 0.5)}")
    elif u[6] < 0.62:
        px_pool = pools.icd9_px if era9 else pools.icd10_px
        px_sys = "ICD9_PX" if era9 else "ICD10_PX"
        items.append(f"{px_sys}:{pick(px_pool, (u[6] - 0.5) / 0.12)}")
        items.append(f"CCS_PX:{pools.ccs_px[picks[2] % len(pools.ccs_px)]}")
    elif u[6] < 0.75:
        items.append(f"HCPCS:{pick(pools.hcpcs, (u[6] - 0.62) / 0.13)}")
    elif u[6] < 0.82:
        items.append(f"HCPCS_ALPHA:{pick(pools.hcpcs_alpha, (u[6] - 0.75) / 0.07)}")
    # performer role: nephrology involvement scales with severity
    if u[7] < 0.8:
        p_neph = min(0.9, 0.04 + 0.06 * sev) if is_ckd else 0.03
        if post_onset:
            p_neph = 0.95
        if u[8] < p_neph:
            items.append("PERFORMER_ROLE:nephrology")
        else:
            items.append(f"PERFORMER_ROLE:{pools.roles[picks[3] % len(pools.roles)]}")
    # encounter stream
    if claim_type == "inpatient":
        items.append("ENCOUNTER_CLASS:inpatient")
        items.append(f"ADMIT_SOURCE:{pools.admit_source[picks[4] % len(pools.admit_source)]}")
        items.append(f"DISCHARGE_DISPOSITION:{pools.discharge[picks[5] % len(pools.discharge)]}")
        principal_sys = "PRINCIPAL_DX_ICD9" if era9 else "PRINCIPAL_DX_ICD10"
        items.append(f"{principal_sys}:{first_dx}")
        items.append(f"REVENUE_CODE:{pools.revenue[picks[6] % len(pools.revenue)]}")
    else:
        _classes = {
            "outpatient": "ambulatory" if u[9] > 0.15 else "emergency",
            "carrier": "office",
            "home_health": "home_health",
            "skilled_nursing": "snf",
        }
        items.append(f"ENCOUNTER_CLASS:{_classes[claim_type]}")
        if u[9] < 0.2:
            items.append(
                f"ENCOUNTER_CCS:{pools.encounter_ccs[picks[4] % len(pools.encounter_ccs)]}"
            )
        if u[9] > 0.9:
            items.append(
                f"ENCOUNTER_HCC:{pools.encounter_hcc[picks[5] % len(pools.encounter_hcc)]}"
            )
    # medications
    esa_p = min(0.5, 0.045 * max(0.0, sev - 3.0)) if is_ckd else 0.0
    if u[3] < esa_p:
        items.append("MED_HCPCS:J0885")
    elif u[3] > 0.82:
        items.append(f"MED_HCPCS:{pick(pools.med_hcpcs, (u[3] - 0.82) / 0.18)}")
    if u[5] < 0.25:
        items.append(f"RXNORM:{pick(pools.rxnorm, u[5] / 0.25)}")
    return items


def claim_type_for(u: float, sev: float) -> str:
    p_inpatient = 0.04 + 0.016 * min(sev, 14.0)
    edges = (0.55, 0.84, 0.84 + p_inpatient, 0.92 + p_inpatient)
    return _CLAIM_TYPE_NAMES[int(np.searchsorted(edges, u, side="right"))]


# -- sparse kernel ------------------------------------------------------------------


def reference_batch_logits(
    weights: np.ndarray, bias: np.ndarray, flat: np.ndarray, bounds: np.ndarray
) -> np.ndarray:
    """Logits of a gathered batch, shape (n_classes, n_rows), from a zero-padded prefix sum."""
    if flat.size == 0:
        return np.broadcast_to(bias[:, None], (bias.size, bounds.size - 1)).copy()
    csum = np.concatenate(
        [np.zeros((weights.shape[0], 1)), np.cumsum(weights[:, flat], axis=1)], axis=1
    )
    return csum[:, bounds[1:]] - csum[:, bounds[:-1]] + bias[:, None]


def reference_loss_and_grad(
    weights: np.ndarray, bias: np.ndarray, matrix, y: np.ndarray, rows: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Batch cross-entropy and gradient, each nonzero reading its row's error by row id."""
    flat, bounds = _gather(matrix.indices, matrix.indptr, rows)
    logits = reference_batch_logits(weights, bias, flat, bounds)
    yb = y[rows]
    ce = -float(np.mean(_log_softmax_true(logits, yb)))
    g = _softmax_columns(logits)
    g[yb, np.arange(rows.size)] -= 1.0
    g /= rows.size
    grad_b = g.sum(axis=1)
    grad_w = np.zeros_like(weights)
    if flat.size:
        expand = np.repeat(np.arange(rows.size), np.diff(bounds))
        for c in range(weights.shape[0]):
            grad_w[c] = np.bincount(flat, weights=g[c, expand], minlength=weights.shape[1])
    return ce, grad_w, grad_b


# -- ranking metrics and operating points -------------------------------------------


def reference_roc_auc(scores, labels) -> float:
    """Pair counts summed one sorted tie group at a time."""
    s, y = _as_arrays(scores, labels)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("undefined metric: roc_auc needs both classes present")
    order = np.argsort(s, kind="stable")
    s_sorted = s[order]
    y_sorted = y[order]
    boundaries = np.flatnonzero(np.diff(s_sorted)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [s.size]])
    pos_cum = np.concatenate([[0], np.cumsum(y_sorted)])
    wins = 0
    ties = 0
    for a, b in zip(starts, ends):
        group_pos = int(pos_cum[b] - pos_cum[a])
        group_neg = int(b - a) - group_pos
        pos_below = int(pos_cum[a])
        pos_above = n_pos - pos_below - group_pos
        wins += group_neg * pos_above
        ties += group_neg * group_pos
    return float(2 * wins + ties) / float(2 * n_pos * n_neg)


def reference_pr_auc(scores, labels) -> float:
    """Average precision from its own descending sort and tie groups."""
    s, y = _as_arrays(scores, labels)
    n_pos = int(y.sum())
    if n_pos == 0:
        raise DataError("undefined metric: pr_auc needs at least one positive")
    order = np.argsort(-s, kind="stable")
    s_desc = s[order]
    y_desc = y[order]
    group_ends = np.concatenate([np.flatnonzero(np.diff(s_desc)) + 1, [s.size]])
    tp = np.cumsum(y_desc)[group_ends - 1]
    predicted = group_ends
    precision = tp / predicted
    recall_step = np.diff(np.concatenate([[0], tp])) / n_pos
    return float(np.sum(precision * recall_step))


def reference_gmean_operating_point(scores, labels) -> OperatingPoint:
    """Walk the confusion curve upward, keeping the first strict maximum of sens * spec."""
    s, y = _as_arrays(scores, labels)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("undefined operating point: both classes required")
    thresholds, tp, fp, n_pos, n_neg = _confusion_curve(s, y)
    best = None
    for i in range(thresholds.size):  # ascending => keeps lowest on ties
        sens = tp[i] / n_pos
        spec = (n_neg - fp[i]) / n_neg
        product = sens * spec
        if best is None or product > best[0]:
            best = (product, float(thresholds[i]), float(sens), float(spec))
    assert best is not None
    return OperatingPoint(best[1], best[2], best[3])


def reference_threshold_at_sensitivity(scores, labels, target: float) -> OperatingPoint:
    """Walk the confusion curve downward to the first threshold reaching the target."""
    s, y = _as_arrays(scores, labels)
    if int(y.sum()) == 0:
        raise DataError("undefined operating point: no positives present")
    thresholds, tp, fp, n_pos, n_neg = _confusion_curve(s, y)
    for i in range(thresholds.size - 1, -1, -1):  # descending thresholds
        sens = tp[i] / n_pos
        if sens >= target:
            spec = (n_neg - fp[i]) / n_neg if n_neg else float("nan")
            return OperatingPoint(float(thresholds[i]), float(sens), float(spec))
    # unreachable: the minimum score classifies everything positive
    raise AssertionError("sensitivity target unreachable")


def reference_prevalence_table(labels_by_task) -> dict[str, list[float]]:
    """Per task, the mean over its triggers' class indices of ``class <= i`` per horizon i."""
    out = {}
    for task, classes in labels_by_task.items():
        c = np.asarray(classes, dtype=np.int64)
        if c.size == 0:
            out[task] = [0.0] * len(HORIZON_DAYS)
            continue
        out[task] = [float(np.mean(c <= i)) for i in range(len(HORIZON_DAYS))]
    return out
