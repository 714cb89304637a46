"""Synthetic Medicare-style claims cohort with a planted progression signal.

Each beneficiary carries a latent kidney-disease severity that never
decreases. Severity drives claim frequency, staged diagnosis codes,
nephrology visits, anemia-drug use, and the monthly probability of starting
dialysis or receiving a transplant, so downstream models have learnable
structure with known ground truth. A configurable fraction of dialysis
patients receive an access-creation procedure 1-12 months before onset;
some severe non-dialysis patients receive one too (work-up without
initiation), which keeps the access codes from trivially identifying
future dialysis.

The per-month event hazard is ``min(cap, c * exp(w * (severity - 5)))`` where
``cap`` is ``monthly_hazard_scale``, ``w`` is ``hazard_severity_weight``
(zero gives a severity-independent, constant hazard), and ``c`` is calibrated
by bisection so the 365-day event prevalence over approximately-eligible
trigger months matches ``target_365d_prevalence``.

Every generated date is a day ordinal (``date.toordinal``) read off one
``_Calendar`` of the date range, and no claim dated after a beneficiary's
death day is written. Background claims are assembled for a batch of
beneficiaries at once: each beneficiary makes its draws in bulk, and one
vectorized pass over the batch turns them into days, claim types and token
ids, from which each claim line is joined.

Beneficiary ``k`` draws everything from a PCG64 stream seeded with
``(seed, k)``, so output is byte-identical for a given config no matter how
generation is chunked across workers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from datetime import date
from typing import IO, Mapping, NamedTuple

import numpy as np

from .claims import NEVER
from .config import (  # noqa: F401  (re-exports)
    DEFAULT_CODESETS,
    DEFAULT_VOCAB_SIZES,
    SynthConfig,
    config_from_dict,
)
from .errors import ConfigError

SEV_MAX = 18.0  # ceiling of the latent scale; coding saturates near 14
SEV_REF = 5.0
ICD10_CUTOVER = date(2015, 10, 1).toordinal()  # claims from this day on are ICD-10 coded

DIALYSIS_CODES = tuple(DEFAULT_CODESETS["dialysis"]["CPT"])
TRANSPLANT_CODES = tuple(DEFAULT_CODESETS["transplant"]["CPT"])
ACCESS_CODES = tuple(DEFAULT_CODESETS["access_creation"]["CPT"])


_BASE_ROLES = (
    "internal_medicine",
    "family_practice",
    "cardiology",
    "urology",
    "general_surgery",
    "endocrinology",
    "gastroenterology",
    "pulmonology",
    "orthopedics",
    "ophthalmology",
    "dermatology",
    "podiatry",
)


@dataclass
class GenerationSummary:
    n_beneficiaries: int
    n_claims: int
    n_dialysis: int
    n_transplant: int
    n_access: int
    hazard_multiplier: float
    predicted_prevalence: float


# ---------------------------------------------------------------------------
# Calendar helpers


class _Calendar:
    """The months of a date range, from the month of its first day to that of its last.

    Month ``m`` starts on day ordinal ``starts[m]`` and has ``days[m]`` days;
    ``iso[d - starts[0]]`` is the ISO string of day ordinal ``d``.
    """

    def __init__(self, date_range: tuple[date, date]):
        start, end = date_range
        self.n_months = (end.year - start.year) * 12 + (end.month - start.month) + 1
        months = range(start.month - 1, start.month + self.n_months)  # months since Jan of start
        bounds = [date(start.year + m // 12, m % 12 + 1, 1).toordinal() for m in months]
        self.starts = bounds[:-1]
        self.days = [b - a for a, b in zip(bounds, bounds[1:])]
        self.iso = [date.fromordinal(d).isoformat() for d in range(bounds[0], bounds[-1])]

    def day(self, m: int, u: float) -> int:
        """The day of month ``m`` that a uniform ``u`` in [0, 1) picks."""
        return self.starts[m] + int(u * self.days[m])

    def isoformat(self, day: int) -> str:
        return self.iso[day - self.starts[0]]


# ---------------------------------------------------------------------------
# Per-beneficiary profile


@dataclass
class _Profile:
    bid: str
    sex: str
    race: str
    birth_year: int
    enroll_month: int
    last_month: int  # the death month, or the last month of the range
    death: int  # day ordinal, or NEVER
    is_ckd: bool
    dx_month: int  # may precede enrollment for prevalent disease
    sev0: float
    prog_rate: float
    rate_base: float
    crash_month: int | None = None
    crash_rate: float = 0.0


def _draw_profile(cfg: SynthConfig, k: int, cal: _Calendar):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, k))))
    n_months = cal.n_months
    start_year = cfg.date_range[0].year
    u = rng.random(8)
    sex = "female" if u[0] < 0.55 else ("male" if u[0] < 0.99 else "unknown")
    race_edges = (0.80, 0.91, 0.93, 0.95, 0.955, 0.97)
    race_names = ("white", "black", "hispanic", "asian", "native_american", "other", "unknown")
    race = race_names[int(np.searchsorted(race_edges, u[1], side="right"))]
    if u[2] < cfg.under_65_fraction:
        age0 = 55 + int(u[3] * 9)  # 55..63 at dataset start
    else:
        age0 = 66 + int(u[3] * 27)  # 66..92
    birth_year = start_year - age0
    enroll_month = 0
    if u[4] < cfg.late_enrollment_fraction:
        enroll_month = 1 + int(u[5] * min(24, n_months - 2))
    is_ckd = u[6] < cfg.ckd_fraction
    # disease course: most CKD patients hold in early stages for the whole
    # window; a small progressor share climbs steadily into the high-hazard
    # zone; a crash share collapses from a quiet baseline within months
    u2 = rng.random(8)
    dx_month = int(-36 + u2[0] * 72)  # prevalent (dx<=0) or incident
    sev0 = 1.0 + 3.0 * u2[1]
    if u2[2] < cfg.progressor_fraction:
        lo, hi = 0.08, 0.40
    else:
        lo, hi = 0.002, 0.05
    prog_rate = float(np.exp(np.log(lo) + u2[3] * (np.log(hi) - np.log(lo))))
    rate_base = cfg.claims_rate * (0.7 + 0.6 * u2[4])
    crash_month = None
    crash_rate = 0.0
    if is_ckd and u2[5] < cfg.crash_fraction:
        crash_month = int(6 + u2[6] * (max(n_months - 6, 7) - 6))
        crash_rate = 1.0 + 7.0 * u2[7]
    # death, independent of the disease course
    death_hazard = cfg.monthly_death_hazard * (1.0 + 0.05 * max(0, age0 - 70))
    du = rng.random(n_months)
    death_hits = np.flatnonzero(du < death_hazard)
    if death_hits.size and death_hits[0] >= enroll_month:
        last_month = int(death_hits[0])
        death = cal.day(last_month, rng.random())
    else:
        last_month, death = n_months - 1, NEVER
        rng.random()  # keep the stream aligned whether or not death lands
    profile = _Profile(
        bid=f"B{k:06d}",
        sex=sex,
        race=race,
        birth_year=birth_year,
        enroll_month=enroll_month,
        last_month=last_month,
        death=death,
        is_ckd=is_ckd,
        dx_month=dx_month,
        sev0=sev0,
        prog_rate=prog_rate,
        rate_base=rate_base,
        crash_month=crash_month,
        crash_rate=crash_rate,
    )
    return profile, rng


def _severity_vector(p: _Profile, n_months: int) -> np.ndarray:
    if not p.is_ckd:
        return np.zeros(n_months)
    months = np.arange(n_months)
    sev = p.sev0 + p.prog_rate * (months - p.dx_month)
    sev[months < p.dx_month] = 0.0
    if p.crash_month is not None and p.crash_month >= p.dx_month:
        base = sev[min(p.crash_month, n_months - 1)] if p.crash_month < n_months else 0.0
        ramp = base + p.crash_rate * (months - p.crash_month)
        after = months >= p.crash_month
        sev[after] = np.maximum(sev[after], ramp[after])
    return np.minimum(sev, SEV_MAX)


def _claims_rate_vector(cfg: SynthConfig, p: _Profile, sev: np.ndarray) -> np.ndarray:
    return p.rate_base * (1.0 + cfg.severity_claims_slope * np.minimum(sev, 14.0))


def _hazard_weight_vector(cfg: SynthConfig, p: _Profile, sev: np.ndarray) -> np.ndarray:
    """exp(w * (sev - ref)) over months where the event hazard is active."""
    n_months = sev.size
    w = np.zeros(n_months)
    if not p.is_ckd:
        return w
    start = max(p.dx_month, p.enroll_month, 0)
    w[start:] = np.exp(cfg.hazard_severity_weight * (sev[start:] - SEV_REF))
    return w


# ---------------------------------------------------------------------------
# Hazard calibration


def calibrate_hazard_multiplier(cfg: SynthConfig) -> tuple[float, float]:
    """Bisect the hazard multiplier to hit the target 365d trigger prevalence.

    The predictor replays the generator's own event process on a sample of
    beneficiary profiles (same trajectories, fixed event uniforms), weighting
    candidate trigger months by the probability of a claim in the previous
    month so eligibility skew is respected. Returns (multiplier, predicted
    prevalence); raises ConfigError when the target is unreachable under the
    monthly hazard cap.
    """
    if cfg.target_365d_prevalence == 0.0:
        return 0.0, 0.0
    cal = _Calendar(cfg.date_range)
    n_months = cal.n_months
    if n_months < 25:
        raise ConfigError("date_range too short: need >= 25 months for triggers plus buffer")
    n_cal = min(cfg.n_beneficiaries, 6000)
    months = np.arange(n_months)
    weights = np.zeros((n_cal, n_months))
    recency = np.zeros((n_cal, n_months))
    base_elig = np.zeros((n_cal, n_months), dtype=bool)
    u_event = np.zeros((n_cal, n_months))
    start_year = cfg.date_range[0].year
    # trigger months: a year of history behind, a year of buffer ahead
    t_lo, t_hi = 12, n_months - 12
    for k in range(n_cal):
        p, _ = _draw_profile(cfg, k, cal)
        if not p.is_ckd:
            continue
        sev = _severity_vector(p, n_months)
        weights[k] = _hazard_weight_vector(cfg, p, sev)
        rate = _claims_rate_vector(cfg, p, sev)
        recency[k, 1:] = 1.0 - np.exp(-rate[:-1])
        age = (start_year + months // 12) - p.birth_year
        base_elig[k] = (
            (months >= max(t_lo, p.enroll_month + 12))
            & (months < t_hi)
            & (months >= p.dx_month + 1)
            & (age >= 65)
            & (months <= p.last_month)
        )
        rng_events = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((cfg.seed, k, 0xCA1)))
        )
        u_event[k] = rng_events.random(n_months)
        u_event[k, p.last_month + 1 :] = 2.0  # the generator draws no event after death
    if not base_elig.any() or not weights.any():
        raise ConfigError(
            "infeasible prevalence target: the sampled cohort yields no "
            "hazard-bearing trigger months (is ckd_fraction zero?)"
        )

    no_event = n_months + 1000

    def predicted(c: float) -> float:
        h = np.minimum(cfg.monthly_hazard_scale, c * weights)
        hit = u_event < h
        first = np.where(hit.any(axis=1), hit.argmax(axis=1), no_event)
        event_col = first[:, None]
        eligible = base_elig & (months[None, :] <= event_col)
        positive = (event_col >= months[None, :]) & (event_col <= months[None, :] + 11)
        tw = recency * eligible
        denom = tw.sum()
        if denom <= 0:
            return 0.0
        return float((tw * positive).sum() / denom)

    cap_equivalent = cfg.monthly_hazard_scale * float(np.exp(cfg.hazard_severity_weight * SEV_REF))
    hi = max(cap_equivalent, 1e-9)
    max_prev = predicted(hi)
    if max_prev < cfg.target_365d_prevalence:
        raise ConfigError(
            f"infeasible prevalence target {cfg.target_365d_prevalence:g}: with "
            f"monthly_hazard_scale={cfg.monthly_hazard_scale:g} the maximum reachable "
            f"365d prevalence is about {max_prev:.4f}"
        )
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if predicted(mid) < cfg.target_365d_prevalence:
            lo = mid
        else:
            hi = mid
    return hi, predicted(hi)


# ---------------------------------------------------------------------------
# Claim assembly

_CLAIM_TYPE_NAMES = ("outpatient", "carrier", "inpatient", "home_health", "skilled_nursing")

# Beneficiaries whose background claims one vectorized pass builds: enough
# claims (about 1,300) to amortize numpy's per-call cost, few enough that the
# pass adds little to synth's peak memory.
_BATCH = 32


class _Tokens:
    """The noise codes of each code system, as the item tokens claim lines are joined from.

    Each token of ``table`` is ``\\tSYSTEM:code``. Segment ``name`` (a code
    system, or ``SYSTEM.part`` for a fixed part of one) holds ``size[name]``
    tokens from ``start[name]`` on. The pools are disjoint from the signal
    codes. The last token is empty, so an empty slot (-1) adds nothing to a
    line.
    """

    def __init__(self, sizes: Mapping[str, int]):
        def size(name: str) -> int:
            return sizes.get(name, DEFAULT_VOCAB_SIZES[name])

        def numbered(name: str, fmt: str, first: int = 0, step: int = 1) -> list[str]:
            return [fmt.format(first + step * i) for i in range(size(name))]

        n_roles = size("PERFORMER_ROLE") - 1  # nephrology is the signal role
        roles = [*_BASE_ROLES, *(f"specialty_{i}" for i in range(len(_BASE_ROLES), n_roles))]
        icd9_dx = numbered("ICD9_DX", "{}", 4000)
        icd10_dx = numbered("ICD10_DX", "E{:03d}")
        segments = {
            "ICD9_DX": icd9_dx,
            "ICD10_DX": icd10_dx,
            "ICD9_DX.stage": [f"585{stage}" for stage in range(1, 7)],
            "ICD10_DX.stage": [f"N18{stage}" for stage in range(1, 7)],
            "PRINCIPAL_DX_ICD9": icd9_dx,
            "PRINCIPAL_DX_ICD10": icd10_dx,
            "CCS_DX": numbered("CCS_DX", "{}", 200),
            "CCS_DX.ckd": ["158"],
            "HCC": numbered("HCC", "{}", 300),
            "HCC.ckd": ["136"],
            "CPT": numbered("CPT", "{}", 20000),
            "ICD9_PX": numbered("ICD9_PX", "{}", 7000),
            "ICD10_PX": numbered("ICD10_PX", "0PX{:03d}"),
            "CCS_PX": numbered("CCS_PX", "{}", 150),
            "HCPCS": numbered("HCPCS", "G{:04d}"),
            "HCPCS_ALPHA": numbered("HCPCS_ALPHA", "A{:03d}"),
            "PERFORMER_ROLE": roles[:n_roles],
            "PERFORMER_ROLE.nephrology": ["nephrology"],
            # indexed by claim type, then emergency (an outpatient class)
            "ENCOUNTER_CLASS": [
                "ambulatory", "office", "inpatient", "home_health", "snf", "emergency"
            ],
            "ADMIT_SOURCE": numbered("ADMIT_SOURCE", "{}", 1),
            "DISCHARGE_DISPOSITION": numbered("DISCHARGE_DISPOSITION", "{:02d}", 1),
            "REVENUE_CODE": numbered("REVENUE_CODE", "{:04d}", 250, 10),
            "ENCOUNTER_CCS": numbered("ENCOUNTER_CCS", "{}", 200),
            "ENCOUNTER_HCC": numbered("ENCOUNTER_HCC", "{}", 300),
            "MED_HCPCS": numbered("MED_HCPCS", "J{}", 1000),
            "MED_HCPCS.esa": ["J0885"],
            "RXNORM": numbered("RXNORM", "{}", 100000),
        }
        self.table: list[str] = []
        self.start: dict[str, int] = {}
        self.size: dict[str, int] = {}
        for name, codes in segments.items():
            system = name.partition(".")[0]
            self.start[name], self.size[name] = len(self.table), len(codes)
            self.table.extend(f"\t{system}:{code}" for code in codes)
        self.table.append("")


class _Background(NamedTuple):
    """One beneficiary's background-claim draws and what their items depend on."""

    bid: str
    months: np.ndarray  # the month of each claim
    day_u: np.ndarray  # (claims,) picks the day in the month
    type_u: np.ndarray  # (claims,) picks the claim type
    u: np.ndarray  # (claims, 10) uniforms of the item slots
    picks: np.ndarray  # (claims, 7) integers that pick codes by modulus
    sev: np.ndarray  # severity by month
    is_ckd: bool
    onset: int  # day ordinal of RRT onset, or NEVER
    death: int  # day ordinal, or NEVER


def _claim_columns(
    batch: list[_Background], cal: _Calendar, tokens: _Tokens
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The background claims of a batch of beneficiaries, one row per claim in draw order.

    Returns each claim's day ordinal, its claim type (an index into
    ``_CLAIM_TYPE_NAMES``), its token ids (one column per item slot, -1 for an
    empty slot) and whether it is kept (not dated after death). Each slot is
    one branch of the per-claim coding rules, computed with the same float
    operations for every claim at once.
    """
    owner = np.repeat(np.arange(len(batch)), [b.months.size for b in batch])
    month = np.concatenate([b.months for b in batch])
    day_u = np.concatenate([b.day_u for b in batch])
    type_u = np.concatenate([b.type_u for b in batch])
    u = np.concatenate([b.u for b in batch]).T
    picks = np.concatenate([b.picks for b in batch]).T
    sev = np.stack([b.sev for b in batch])[owner, month]
    is_ckd = np.array([b.is_ckd for b in batch])[owner]
    onset = np.array([b.onset for b in batch])[owner]
    death = np.array([b.death for b in batch])[owner]

    days = np.array(cal.starts)[month] + (day_u * np.array(cal.days)[month]).astype(np.int64)
    p_inpatient = 0.04 + 0.016 * np.minimum(sev, 14.0)
    claim_type = (
        (type_u >= 0.55).astype(np.int64)
        + (type_u >= 0.84)
        + (type_u >= 0.84 + p_inpatient)
        + (type_u >= 0.92 + p_inpatient)
    )
    era9 = days < ICD10_CUTOVER
    post_onset = days > onset
    inpatient = claim_type == 2
    start, size = tokens.start, tokens.size

    def pick(name: str, x: np.ndarray) -> np.ndarray:
        # x**2 skews mass toward the head of the pool, giving a heavy-tailed
        # code frequency profile without an alias table
        return start[name] + (x * x * size[name]).astype(np.int64)

    def by_era(icd9: np.ndarray, icd10: np.ndarray) -> np.ndarray:
        return np.where(era9, icd9, icd10)

    def modulo(name: str, column: int) -> np.ndarray:
        return start[name] + picks[column] % size[name]

    first_dx = by_era(pick("ICD9_DX", u[0]), pick("ICD10_DX", u[0]))
    u_dx2 = u[1] / 0.40
    coded = is_ckd & (sev > 0) & ((u[4] < np.minimum(0.9, 0.32 + 0.055 * sev)) | post_onset)
    stage = np.where(
        post_onset,
        np.where(u[3] < 0.7, 6, 5),  # ESRD coding after initiation
        np.minimum(5, 1 + np.floor_divide(sev, 2).astype(np.int64)),
    )
    encounter = claim_type + 5 * ((claim_type == 0) & (u[9] <= 0.15))  # outpatient: emergency
    p_neph = np.where(post_onset, 0.95, np.where(is_ckd, np.minimum(0.9, 0.04 + 0.06 * sev), 0.03))
    esa_p = np.where(is_ckd, np.minimum(0.5, 0.045 * np.maximum(0.0, sev - 3.0)), 0.0)
    slots = [
        # diagnoses, and a crosswalk-style grouping of the first
        first_dx,
        np.where(u[1] < 0.40, by_era(pick("ICD9_DX", u_dx2), pick("ICD10_DX", u_dx2)), -1),
        np.select([u[2] < 0.70, u[2] > 0.80], [modulo("CCS_DX", 0), modulo("HCC", 1)], -1),
        # CKD stage coding
        np.where(coded, by_era(start["ICD9_DX.stage"], start["ICD10_DX.stage"]) + stage - 1, -1),
        np.where(coded & (u[5] < 0.5), start["CCS_DX.ckd"], -1),
        np.where(coded & (u[5] > 1.0 - np.minimum(0.5, 0.02 + 0.034 * sev)), start["HCC.ckd"], -1),
        # a procedure
        np.select(
            [u[6] < 0.5, u[6] < 0.62, u[6] < 0.75, u[6] < 0.82],
            [
                pick("CPT", u[6] / 0.5),
                by_era(pick("ICD9_PX", (u[6] - 0.5) / 0.12), pick("ICD10_PX", (u[6] - 0.5) / 0.12)),
                pick("HCPCS", (u[6] - 0.62) / 0.13),
                pick("HCPCS_ALPHA", (u[6] - 0.75) / 0.07),
            ],
            -1,
        ),
        np.where((u[6] >= 0.5) & (u[6] < 0.62), modulo("CCS_PX", 2), -1),
        # performer role: nephrology involvement scales with severity
        np.where(
            u[7] < 0.8,
            np.where(
                u[8] < p_neph, start["PERFORMER_ROLE.nephrology"], modulo("PERFORMER_ROLE", 3)
            ),
            -1,
        ),
        # encounter stream
        start["ENCOUNTER_CLASS"] + encounter,
        np.where(
            inpatient,
            modulo("ADMIT_SOURCE", 4),
            np.where(u[9] < 0.2, modulo("ENCOUNTER_CCS", 4), -1),
        ),
        np.where(
            inpatient,
            modulo("DISCHARGE_DISPOSITION", 5),
            np.where(u[9] > 0.9, modulo("ENCOUNTER_HCC", 5), -1),
        ),
        np.where(  # the principal diagnosis repeats the first
            inpatient,
            first_dx + by_era(
                start["PRINCIPAL_DX_ICD9"] - start["ICD9_DX"],
                start["PRINCIPAL_DX_ICD10"] - start["ICD10_DX"],
            ),
            -1,
        ),
        np.where(inpatient, modulo("REVENUE_CODE", 6), -1),
        # medications
        np.select(
            [u[3] < esa_p, u[3] > 0.82],
            [start["MED_HCPCS.esa"], pick("MED_HCPCS", (u[3] - 0.82) / 0.18)],
            -1,
        ),
        np.where(u[5] < 0.25, pick("RXNORM", u[5] / 0.25), -1),
    ]
    return days, claim_type, np.stack(slots, axis=1), days <= death


def _background_claims(
    batch: list[_Background], cal: _Calendar, tokens: _Tokens
) -> list[list[tuple[int, str]]]:
    """Each beneficiary's kept background claims as (day, claim line), in draw order."""
    days, claim_type, slots, keep = _claim_columns(batch, cal, tokens)
    day_list, type_list, rows = days.tolist(), claim_type.tolist(), slots.tolist()
    iso, first_day, token = cal.iso, cal.starts[0], tokens.table.__getitem__
    out = []
    lo = 0
    for b in batch:
        hi = lo + b.months.size
        claims = []
        for i in (lo + np.flatnonzero(keep[lo:hi])).tolist():
            day = day_list[i]
            head = f"C\t{b.bid}\t{iso[day - first_day]}\t{_CLAIM_TYPE_NAMES[type_list[i]]}"
            claims.append((day, head + "".join(map(token, rows[i]))))
        out.append(claims)
        lo = hi
    return out


def _stage(sev: float) -> int:
    return min(5, 1 + int(sev // 2))


def _ckd_stage_item(day: int, stage: int) -> str:
    """The diagnosis item of CKD stage ``stage`` (6: end-stage) in the coding era of ``day``."""
    return f"ICD9_DX:585{stage}" if day < ICD10_CUTOVER else f"ICD10_DX:N18{stage}"


def _generate_beneficiary(
    cfg: SynthConfig, hazard_multiplier: float, k: int, cal: _Calendar
) -> tuple[str, _Background, list[tuple[int, str]], list[str]]:
    """One beneficiary's B line, background-claim draws, other claims and ground-truth lines.

    The other claims are (day, line) pairs: the onset, maintenance, prodrome
    and access claims and the forced diagnosis, none dated after death.
    """
    n_months = cal.n_months
    p, rng = _draw_profile(cfg, k, cal)
    sev = _severity_vector(p, n_months)
    hazard = np.minimum(
        cfg.monthly_hazard_scale, hazard_multiplier * _hazard_weight_vector(cfg, p, sev)
    )

    # event month: the first month the hazard fires, unless that is after death;
    # the hazard is zero before enrollment
    u_event = rng.random(n_months)
    fired = np.flatnonzero(u_event < hazard)
    event_month = int(fired[0]) if fired.size and fired[0] <= p.last_month else None

    u_evt_details = rng.random(4)
    event_type = "dialysis" if u_evt_details[0] >= cfg.transplant_share else "transplant"
    onset: int | None = None
    if event_month is not None:
        onset = cal.day(event_month, u_evt_details[1])
        if onset > p.death:
            onset = None

    # background claims
    rate = _claims_rate_vector(cfg, p, sev)
    active = np.zeros(n_months, dtype=bool)
    active[p.enroll_month : p.last_month + 1] = True
    counts = rng.poisson(rate * active)
    total = int(counts.sum())
    month_of_claim = np.repeat(np.arange(n_months), counts)
    day_u = rng.random(total)
    type_u = rng.random(total)
    u_mat = rng.random((total, 10))
    picks = rng.integers(0, 1 << 30, size=(total, 7))

    bid = p.bid
    background = _Background(
        bid,
        month_of_claim,
        day_u,
        type_u,
        u_mat,
        picks,
        sev,
        p.is_ckd,
        NEVER if onset is None else onset,
        p.death,
    )
    claims: list[tuple[int, str]] = []  # (day, line) of the claims after the background

    def add_claim(day: int, claim_type: str, items: list[str]) -> None:
        if day <= p.death:
            claims.append((day, "\t".join(["C", bid, cal.isoformat(day), claim_type] + items)))

    truth: list[str] = []
    if onset is not None:
        stage_item = _ckd_stage_item(onset, 6)
        if event_type == "dialysis":
            onset_code = DIALYSIS_CODES[int(u_evt_details[2] * len(DIALYSIS_CODES))]
            ct = "inpatient" if u_evt_details[3] < 0.3 else "outpatient"
            add_claim(onset, ct, [f"CPT:{onset_code}", stage_item, "PERFORMER_ROLE:nephrology"])
            # maintenance dialysis claims until death or dataset end
            u_round = rng.random(n_months)
            maint_day_u = rng.random(n_months)
            maint_code_u = rng.random(n_months)
            for m in range(event_month + 1, p.last_month + 1):
                n_maint = 1 + (u_round[m] < 0.5)
                for j in range(n_maint):
                    code = DIALYSIS_CODES[int(maint_code_u[m] * len(DIALYSIS_CODES))]
                    add_claim(
                        cal.day(m, (maint_day_u[m] * (j + 1)) % 1.0),
                        "outpatient",
                        [f"CPT:{code}", "ENCOUNTER_CLASS:ambulatory", "REVENUE_CODE:0821"],
                    )
        else:
            onset_code = TRANSPLANT_CODES[0 if u_evt_details[2] < 0.9 else 1]
            add_claim(
                onset,
                "inpatient",
                [
                    f"CPT:{onset_code}",
                    stage_item,
                    "PERFORMER_ROLE:nephrology",
                    "ENCOUNTER_CLASS:inpatient",
                ],
            )
        truth.append(f"{bid}\t{event_type}\t{cal.isoformat(onset)}")
        # acute prodrome: hospitalizations cluster in the last two months
        # before initiation, so imminent onsets are easier to spot
        u_burst = rng.random(4)
        for back, p_adm in ((1, 0.6), (2, 0.35)):
            m = event_month - back
            if m < p.enroll_month or u_burst[back - 1] >= p_adm:
                continue
            day = cal.day(m, u_burst[back + 1])
            dx_item = _ckd_stage_item(day, 5)
            add_claim(
                day,
                "inpatient",
                [
                    dx_item,
                    "PRINCIPAL_DX_" + dx_item.replace("_DX", ""),  # e.g. PRINCIPAL_DX_ICD9:5855
                    "ENCOUNTER_CLASS:inpatient",
                    "ADMIT_SOURCE:1",
                    "PERFORMER_ROLE:nephrology",
                    "REVENUE_CODE:0170",
                ],
            )
        # access creation ahead of dialysis starts: planned placements spread
        # over the prior year, urgent ones (crash courses) land 1-3 months out
        u_acc = rng.random(3)
        if event_type == "dialysis" and u_acc[0] < cfg.access_creation_fraction:
            crashed = p.crash_month is not None and event_month >= p.crash_month
            offset = 30 + int(u_acc[1] * (61 if crashed else 336))
            access = max(onset - offset, cal.starts[p.enroll_month])
            if access < onset:
                code = ACCESS_CODES[int(u_acc[2] * len(ACCESS_CODES))]
                add_claim(access, "outpatient", [f"CPT:{code}", "PERFORMER_ROLE:general_surgery"])
                truth.append(f"{bid}\taccess_creation\t{cal.isoformat(access)}")
    else:
        rng.random(3)  # stream alignment with the event branch
        # access work-up without initiation in the severe, event-free population
        if p.is_ckd:
            u_decoy = rng.random(n_months)
            hits = np.flatnonzero(
                (u_decoy < cfg.decoy_access_monthly_rate) & (sev >= 6.0) & active
            )
            if hits.size:
                m = int(hits[0])
                day = cal.day(m, u_decoy[(m + 1) % n_months])
                if day <= p.death:  # the ground-truth row must match the claim
                    code = ACCESS_CODES[int(u_decoy[(m + 2) % n_months] * len(ACCESS_CODES))]
                    add_claim(day, "outpatient", [f"CPT:{code}", "PERFORMER_ROLE:general_surgery"])
                    truth.append(f"{bid}\taccess_creation\t{cal.isoformat(day)}")

    # force a diagnosis claim when the disease is first codable, so criterion
    # "CKD code on a prior claim" has a concrete anchor date
    if p.is_ckd:
        dxm = max(p.dx_month, p.enroll_month)
        if dxm <= p.last_month:
            u_dx = rng.random(2)
            day = min(cal.day(dxm, u_dx[0]), p.death)
            if onset is None or day <= onset:
                add_claim(
                    day,
                    "outpatient",
                    [
                        _ckd_stage_item(day, _stage(float(sev[dxm]))),
                        "CCS_DX:158",
                        "PERFORMER_ROLE:nephrology" if u_dx[1] < 0.5 else "PERFORMER_ROLE:internal_medicine",
                    ],
                )

    bene_line = "\t".join(
        [
            "B",
            bid,
            p.sex,
            p.race,
            str(p.birth_year),
            cal.isoformat(cal.starts[p.enroll_month]),
            "" if p.death == NEVER else cal.isoformat(p.death),
        ]
    )
    return bene_line, background, claims, truth


def _generate_chunk(args) -> tuple[str, str, int]:
    """The claims text, the ground-truth text and the claim count of beneficiaries lo..hi-1.

    A beneficiary's background claims come first, its other claims after
    them, and a stable sort by day orders the two.
    """
    cfg, hazard_multiplier, lo, hi = args
    cal = _Calendar(cfg.date_range)
    tokens = _Tokens(cfg.vocab_sizes)
    claim_parts: list[str] = []
    truth_parts: list[str] = []
    for first in range(lo, hi, _BATCH):
        drawn = [
            _generate_beneficiary(cfg, hazard_multiplier, k, cal)
            for k in range(first, min(first + _BATCH, hi))
        ]
        background = _background_claims([d[1] for d in drawn], cal, tokens)
        for (bene_line, _, others, truth), claims in zip(drawn, background):
            claims.extend(others)
            claims.sort(key=lambda pair: pair[0])
            claim_parts.append(bene_line)
            claim_parts.extend(line for _, line in claims)
            truth_parts.extend(truth)
    claims_text = "\n".join(claim_parts) + ("\n" if claim_parts else "")
    truth_text = "\n".join(truth_parts) + ("\n" if truth_parts else "")
    return claims_text, truth_text, len(claim_parts) - (hi - lo)  # one B line each


def generate(
    cfg: SynthConfig,
    claims_sink: IO[str],
    truth_sink: IO[str],
    workers: int = 1,
) -> GenerationSummary:
    """Write the synthetic claims file and ground-truth event table.

    Identical (config, seed) produce byte-identical output for any worker
    count: per-beneficiary streams are keyed by (seed, index) and chunks are
    written back in index order.
    """
    cfg.validate()
    multiplier, predicted = calibrate_hazard_multiplier(cfg)
    chunk = 2000
    spans = [
        (cfg, multiplier, lo, min(lo + chunk, cfg.n_beneficiaries))
        for lo in range(0, cfg.n_beneficiaries, chunk)
    ]
    totals: Counter[str] = Counter()  # claims, and ground-truth rows by event type

    def consume(result):
        claims_text, truth_text, n_claims = result
        claims_sink.write(claims_text)
        truth_sink.write(truth_text)
        totals["claims"] += n_claims
        totals.update(row.split("\t")[1] for row in truth_text.splitlines())

    if workers > 1 and len(spans) > 1:
        from concurrent.futures import ProcessPoolExecutor  # not loaded at CLI start-up
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for result in pool.map(_generate_chunk, spans):
                consume(result)
    else:
        for span in spans:
            consume(_generate_chunk(span))
    return GenerationSummary(
        n_beneficiaries=cfg.n_beneficiaries,
        n_claims=totals["claims"],
        n_dialysis=totals["dialysis"],
        n_transplant=totals["transplant"],
        n_access=totals["access_creation"],
        hazard_multiplier=multiplier,
        predicted_prevalence=predicted,
    )
