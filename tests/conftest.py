from datetime import date

import pytest

from renalrisk.claims import (
    Beneficiary,
    Claim,
    ClaimTimeline,
    ClaimType,
    CodeSystem,
    CodedItem,
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


def make_claim(bid, day, items=(), claim_type=ClaimType.OUTPATIENT):
    coded = [CodedItem(CodeSystem(s), c) for s, c in items]
    return Claim(bid, day, claim_type, coded)


def timeline_with(bene, *claims):
    tl = ClaimTimeline(bene, list(claims))
    tl.sort()
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
    "make_claim",
    "timeline_with",
    "timelines_by_id",
    "monthly_claims",
]
