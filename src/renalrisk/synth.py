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
death day is written.

Beneficiary ``k`` draws everything from a PCG64 stream seeded with
``(seed, k)``, so output is byte-identical for a given config no matter how
generation is chunked across workers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from datetime import date
from typing import IO, Mapping

import numpy as np

from .errors import ConfigError, check_number_fields
from .claims import DEFAULT_CODESETS

SEV_MAX = 18.0  # ceiling of the latent scale; coding saturates near 14
SEV_REF = 5.0
ICD10_CUTOVER = date(2015, 10, 1).toordinal()  # claims from this day on are ICD-10 coded
_NEVER = date.max.toordinal() + 1  # the death day of a beneficiary who does not die

DIALYSIS_CODES = tuple(DEFAULT_CODESETS["dialysis"]["CPT"])
TRANSPLANT_CODES = tuple(DEFAULT_CODESETS["transplant"]["CPT"])
ACCESS_CODES = tuple(DEFAULT_CODESETS["access_creation"]["CPT"])

DEFAULT_VOCAB_SIZES: dict[str, int] = {
    "ICD9_DX": 240,
    "ICD10_DX": 280,
    "CCS_DX": 90,
    "HCC": 60,
    "ICD9_PX": 90,
    "ICD10_PX": 90,
    "CCS_PX": 60,
    "CPT": 240,
    "HCPCS": 120,
    "HCPCS_ALPHA": 60,
    "PERFORMER_ROLE": 24,
    "ENCOUNTER_CLASS": 6,
    "ADMIT_SOURCE": 6,
    "DISCHARGE_DISPOSITION": 8,
    "REVENUE_CODE": 40,
    "MED_HCPCS": 100,
    "RXNORM": 160,
    "ENCOUNTER_CCS": 60,
    "ENCOUNTER_HCC": 40,
}

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

@dataclass(frozen=True)
class SynthConfig:
    n_beneficiaries: int
    date_range: tuple[date, date] = (date(2011, 1, 1), date(2016, 12, 31))
    seed: int = 7
    ckd_fraction: float = 0.3
    monthly_hazard_scale: float = 0.5
    target_365d_prevalence: float = 0.01
    access_creation_fraction: float = 0.65
    vocab_sizes: Mapping[str, int] = field(default_factory=lambda: dict(DEFAULT_VOCAB_SIZES))
    claims_rate: float = 0.55
    hazard_severity_weight: float = 0.9
    # cohort-shape knobs
    transplant_share: float = 0.07
    under_65_fraction: float = 0.03
    late_enrollment_fraction: float = 0.08
    decoy_access_monthly_rate: float = 0.010
    monthly_death_hazard: float = 0.0012
    severity_claims_slope: float = 0.13  # relative claims-rate increase per severity unit
    progressor_fraction: float = 0.06  # share of CKD patients on a fast gradual course
    crash_fraction: float = 0.04  # share of CKD patients whose course collapses abruptly

    def validate(self) -> None:
        check_number_fields(self)
        if self.n_beneficiaries < 1:
            raise ConfigError("n_beneficiaries must be >= 1")
        start, end = self.date_range
        if start >= end:
            raise ConfigError("date_range start must precede end")
        for name in (
            "ckd_fraction",
            "target_365d_prevalence",
            "access_creation_fraction",
            "transplant_share",
            "under_65_fraction",
            "late_enrollment_fraction",
            "progressor_fraction",
            "crash_fraction",
        ):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ConfigError(f"{name} must be a probability, got {v}")
        if not (0.0 <= self.monthly_hazard_scale <= 1.0):
            raise ConfigError("monthly_hazard_scale must be in [0, 1]")
        if self.claims_rate < 0:
            raise ConfigError("claims_rate must be non-negative")
        if self.hazard_severity_weight < 0:
            raise ConfigError("hazard_severity_weight must be non-negative")


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
# Code pools


class _Pools:
    """Deterministic noise-code pools per system, disjoint from signal codes."""

    def __init__(self, sizes: Mapping[str, int]):
        def size(name: str) -> int:
            return max(1, int(sizes.get(name, DEFAULT_VOCAB_SIZES[name])))

        self.icd9_dx = [f"{4000 + i}" for i in range(size("ICD9_DX"))]
        self.icd10_dx = [f"E{i:03d}" for i in range(size("ICD10_DX"))]
        self.ccs_dx = [f"{200 + i}" for i in range(size("CCS_DX"))]
        self.hcc = [f"{300 + i}" for i in range(size("HCC"))]
        self.icd9_px = [f"{7000 + i}" for i in range(size("ICD9_PX"))]
        self.icd10_px = [f"0PX{i:03d}" for i in range(size("ICD10_PX"))]
        self.ccs_px = [f"{150 + i}" for i in range(size("CCS_PX"))]
        self.cpt = [f"{20000 + i}" for i in range(size("CPT"))]
        self.hcpcs = [f"G{i:04d}" for i in range(size("HCPCS"))]
        self.hcpcs_alpha = [f"A{i:03d}" for i in range(size("HCPCS_ALPHA"))]
        n_roles = size("PERFORMER_ROLE")
        roles = list(_BASE_ROLES[: max(0, n_roles - 1)])
        while len(roles) < n_roles - 1:
            roles.append(f"specialty_{len(roles)}")
        self.roles = roles  # nephrology handled as the signal role
        self.admit_source = [f"{i + 1}" for i in range(size("ADMIT_SOURCE"))]
        self.discharge = [f"{i + 1:02d}" for i in range(size("DISCHARGE_DISPOSITION"))]
        self.revenue = [f"{250 + 10 * i:04d}" for i in range(size("REVENUE_CODE"))]
        self.med_hcpcs = [f"J{1000 + i}" for i in range(size("MED_HCPCS"))]
        self.rxnorm = [f"{100000 + i}" for i in range(size("RXNORM"))]
        self.encounter_ccs = [f"{200 + i}" for i in range(size("ENCOUNTER_CCS"))]
        self.encounter_hcc = [f"{300 + i}" for i in range(size("ENCOUNTER_HCC"))]


def _pick(pool: list[str], u: float) -> str:
    # u**2 skews mass toward the head of the pool, giving a heavy-tailed
    # code frequency profile without an alias table
    return pool[int(u * u * len(pool))]


def _stage(sev: float) -> int:
    return min(5, 1 + int(sev // 2))


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
    death: int  # day ordinal, or _NEVER
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
        last_month, death = n_months - 1, _NEVER
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


def _claim_items(
    pools: _Pools,
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
    first_dx = _pick(dx_pool, u[0])
    items.append(f"{dx_sys}:{first_dx}")
    if u[1] < 0.40:
        items.append(f"{dx_sys}:{_pick(dx_pool, (u[1] / 0.40))}")
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
        items.append(f"CPT:{_pick(pools.cpt, u[6] / 0.5)}")
    elif u[6] < 0.62:
        px_pool = pools.icd9_px if era9 else pools.icd10_px
        px_sys = "ICD9_PX" if era9 else "ICD10_PX"
        items.append(f"{px_sys}:{_pick(px_pool, (u[6] - 0.5) / 0.12)}")
        items.append(f"CCS_PX:{pools.ccs_px[picks[2] % len(pools.ccs_px)]}")
    elif u[6] < 0.75:
        items.append(f"HCPCS:{_pick(pools.hcpcs, (u[6] - 0.62) / 0.13)}")
    elif u[6] < 0.82:
        items.append(f"HCPCS_ALPHA:{_pick(pools.hcpcs_alpha, (u[6] - 0.75) / 0.07)}")
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
        items.append(f"MED_HCPCS:{_pick(pools.med_hcpcs, (u[3] - 0.82) / 0.18)}")
    if u[5] < 0.25:
        items.append(f"RXNORM:{_pick(pools.rxnorm, u[5] / 0.25)}")
    return items


_CLAIM_TYPE_NAMES = ("outpatient", "carrier", "inpatient", "home_health", "skilled_nursing")


def _claim_type_for(u: float, sev: float) -> str:
    p_inpatient = 0.04 + 0.016 * min(sev, 14.0)
    edges = (0.55, 0.84, 0.84 + p_inpatient, 0.92 + p_inpatient)
    return _CLAIM_TYPE_NAMES[int(np.searchsorted(edges, u, side="right"))]


def _ckd_stage_item(day: int, stage: int) -> str:
    """The diagnosis item of CKD stage ``stage`` (6: end-stage) in the coding era of ``day``."""
    return f"ICD9_DX:585{stage}" if day < ICD10_CUTOVER else f"ICD10_DX:N18{stage}"


def _generate_beneficiary(
    cfg: SynthConfig,
    pools: _Pools,
    hazard_multiplier: float,
    k: int,
    cal: _Calendar,
) -> tuple[list[str], list[str]]:
    """Claim lines and ground-truth lines for one beneficiary."""
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

    claims: list[tuple[int, str]] = []  # (day, line) for stable date ordering
    bid = p.bid

    def add_claim(day: int, claim_type: str, items: list[str]) -> None:
        if day <= p.death:
            claims.append((day, "\t".join(["C", bid, cal.isoformat(day), claim_type] + items)))

    for i in range(total):
        m = int(month_of_claim[i])
        day = cal.day(m, day_u[i])
        s = float(sev[m])
        claim_type = _claim_type_for(float(type_u[i]), s)
        items = _claim_items(
            pools,
            u_mat[i],
            picks[i],
            s,
            p.is_ckd,
            day < ICD10_CUTOVER,
            claim_type,
            onset is not None and day > onset,
        )
        add_claim(day, claim_type, items)

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

    claims.sort(key=lambda pair: pair[0])
    bene_line = "\t".join(
        [
            "B",
            bid,
            p.sex,
            p.race,
            str(p.birth_year),
            cal.isoformat(cal.starts[p.enroll_month]),
            "" if p.death == _NEVER else cal.isoformat(p.death),
        ]
    )
    return [bene_line] + [line for _, line in claims], truth


def _generate_chunk(args) -> tuple[str, str, int]:
    """The claims text, the ground-truth text and the claim count of beneficiaries lo..hi-1."""
    cfg, hazard_multiplier, lo, hi = args
    cal = _Calendar(cfg.date_range)
    pools = _Pools(cfg.vocab_sizes)
    claim_parts: list[str] = []
    truth_parts: list[str] = []
    for k in range(lo, hi):
        lines, truth = _generate_beneficiary(cfg, pools, hazard_multiplier, k, cal)
        claim_parts.extend(lines)
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


def config_from_dict(raw: Mapping) -> SynthConfig:
    """Build a SynthConfig from parsed JSON, validating field names."""
    data = dict(raw)
    if "date_range" in data:
        try:
            lo, hi = data["date_range"]
            data["date_range"] = (date.fromisoformat(lo), date.fromisoformat(hi))
        except (TypeError, ValueError):
            raise ConfigError(
                "synth.date_range must be a [start, end] pair of ISO dates, "
                f"got {raw['date_range']!r}"
            )
    known = set(SynthConfig.__dataclass_fields__)
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown synth config fields: {sorted(unknown)}")
    if "n_beneficiaries" not in data:
        raise ConfigError("synth config requires n_beneficiaries")
    cfg = SynthConfig(**data)
    cfg.validate()
    return cfg
