from datetime import date

import numpy as np
import pytest

from renalrisk.claims import (
    Beneficiary,
    ClaimType,
    Race,
    Sex,
    default_codeset_library,
    iter_timelines,
)


@pytest.fixture(scope="session")
def library():
    return default_codeset_library()


def make_beneficiary(bid="b1", birth_year=1940, enrollment=date(2011, 1, 1), death=None):
    return Beneficiary(bid, Sex.FEMALE, Race.WHITE, birth_year, enrollment, death)


def beneficiary_line(bene):
    death = bene.death_date.isoformat() if bene.death_date else ""
    return "\t".join(
        ["B", bene.id, bene.sex.value, bene.race.value, str(bene.birth_year),
         bene.enrollment_date.isoformat(), death]
    )


def make_claim(bid, day, items=(), claim_type=ClaimType.OUTPATIENT):
    """One claim line of the claims file format."""
    tokens = [f"{system}:{code}" for system, code in items]
    return "\t".join(["C", bid, day.isoformat(), claim_type.value, *tokens])


def timeline_lines(bene, *claims):
    """The claims file lines of one beneficiary: its B record, then the claim lines."""
    return [beneficiary_line(bene), *claims]


def timeline_with(bene, *claims):
    """The timeline that iter_timelines reads from bene's record and these claim lines."""
    (tl,) = iter_timelines(timeline_lines(bene, *claims))
    return tl


def timelines_by_id(lines):
    """Every timeline of a claims stream, by beneficiary id."""
    return {tl.beneficiary.id: tl for tl in iter_timelines(lines)}


def monthly_claims(bid, start, n_months, items=(("ICD10_DX", "E001"),), day=15):
    """One claim per month, on a fixed day, for eligibility scaffolding."""
    claims = []
    y, m = start.year, start.month
    for _ in range(n_months):
        claims.append(make_claim(bid, date(y, m, day), items))
        m += 1
        if m == 13:
            y, m = y + 1, 1
    return claims


def _ordinals(dates):
    return np.asarray([t.toordinal() for t in dates], dtype=np.int64)


def pair_buckets(compiled, dates):
    """CompiledTimeline.active_pair_buckets at these trigger dates."""
    return compiled.active_pair_buckets(_ordinals(dates))


def feature_indices(compiled, dates, vocab, colmap):
    """CompiledTimeline.active_indices at these trigger dates."""
    years = np.asarray([t.year for t in dates], dtype=np.int64)
    return compiled.active_indices(_ordinals(dates), years, vocab, colmap)


@pytest.fixture
def eligible_timeline():
    """A beneficiary eligible at 2013-06-01: old enough, CKD-coded, a year of
    history, a recent claim, and no renal-replacement codes."""
    bid = "b1"
    bene = make_beneficiary(bid)
    claims = monthly_claims(bid, date(2012, 1, 1), 18)
    claims.append(make_claim(bid, date(2012, 3, 10), [("ICD10_DX", "N183")]))
    return timeline_with(bene, *claims)


__all__ = [
    "make_beneficiary",
    "beneficiary_line",
    "make_claim",
    "timeline_lines",
    "timeline_with",
    "timelines_by_id",
    "monthly_claims",
    "pair_buckets",
    "feature_indices",
]
