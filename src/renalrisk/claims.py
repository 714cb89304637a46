"""Domain model for beneficiaries, coded claims, and per-beneficiary timelines.

The on-disk claims format is line-delimited UTF-8 text with tab-separated
fields. Two record kinds are distinguished by a leading tag:

    B <TAB> id <TAB> sex <TAB> race <TAB> birth_year <TAB> enrollment_date <TAB> death_date
    C <TAB> beneficiary_id <TAB> service_date <TAB> claim_type <TAB> SYSTEM:code ...

Dates are ISO-8601 (``YYYY-MM-DD``); ``death_date`` may be empty. A claim may
carry zero or more ``SYSTEM:code`` items. Each beneficiary's claims directly
follow its beneficiary record. Blank lines and lines starting with ``#`` are
ignored. The reader (``iter_timelines``) rejects unknown tags.

Each read interns its tokens: the first time a ``SYSTEM:code`` token, a
service-date string or a claim type appears in a read, it is validated and
turned into its ``CodedItem``, ``date`` or ``ClaimType`` value; later
occurrences in the same read reuse that immutable value. A claims file holds
few distinct tokens and many repeats, so most of the per-token validation and
object construction drops out. The intern tables live only as long as the
read, and every claim still gets its own ``items`` list.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from functools import lru_cache
from operator import attrgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence, Union

from .errors import ConfigError, DataError, ParseError, naming_file


class Sex(str, Enum):
    FEMALE = "female"
    MALE = "male"
    UNKNOWN = "unknown"


class Race(str, Enum):
    ASIAN = "asian"
    BLACK = "black"
    HISPANIC = "hispanic"
    NATIVE_AMERICAN = "native_american"
    WHITE = "white"
    OTHER = "other"
    UNKNOWN = "unknown"


class ClaimType(str, Enum):
    INPATIENT = "inpatient"
    OUTPATIENT = "outpatient"
    HOME_HEALTH = "home_health"
    SKILLED_NURSING = "skilled_nursing"
    CARRIER = "carrier"


class CodeSystem(str, Enum):
    """Coded feature streams carried by claim items.

    Condition, procedure, encounter, and medication streams are kept separate
    even when the underlying code space overlaps (e.g. a principal diagnosis
    is a distinct stream from an ordinary diagnosis).
    """

    ICD9_DX = "ICD9_DX"
    ICD10_DX = "ICD10_DX"
    CCS_DX = "CCS_DX"
    HCC = "HCC"
    ICD9_PX = "ICD9_PX"
    ICD10_PX = "ICD10_PX"
    CCS_PX = "CCS_PX"
    CPT = "CPT"
    HCPCS = "HCPCS"
    HCPCS_ALPHA = "HCPCS_ALPHA"
    PERFORMER_ROLE = "PERFORMER_ROLE"
    ENCOUNTER_CLASS = "ENCOUNTER_CLASS"
    ADMIT_SOURCE = "ADMIT_SOURCE"
    DISCHARGE_DISPOSITION = "DISCHARGE_DISPOSITION"
    PRINCIPAL_DX_ICD9 = "PRINCIPAL_DX_ICD9"
    PRINCIPAL_DX_ICD10 = "PRINCIPAL_DX_ICD10"
    ENCOUNTER_CCS = "ENCOUNTER_CCS"
    ENCOUNTER_HCC = "ENCOUNTER_HCC"
    REVENUE_CODE = "REVENUE_CODE"
    MED_HCPCS = "MED_HCPCS"
    RXNORM = "RXNORM"


@dataclass(frozen=True, slots=True)
class Beneficiary:
    id: str
    sex: Sex
    race: Race
    birth_year: int
    enrollment_date: date
    death_date: date | None = None

    def validate(self) -> None:
        if self.birth_year >= self.enrollment_date.year:
            raise DataError(
                f"beneficiary {self.id}: birth_year {self.birth_year} not before "
                f"enrollment year {self.enrollment_date.year}"
            )
        if self.death_date is not None and self.death_date < self.enrollment_date:
            raise DataError(f"beneficiary {self.id}: death_date precedes enrollment_date")


@dataclass(frozen=True, slots=True)
class CodedItem:
    system: CodeSystem
    code: str


@dataclass(slots=True)
class Claim:
    beneficiary_id: str
    service_date: date
    claim_type: ClaimType
    items: list[CodedItem] = field(default_factory=list)


_service_date = attrgetter("service_date")


@dataclass(slots=True)
class ClaimTimeline:
    """A beneficiary's claims in ascending service-date order.

    Equal-date claims keep their input order (stable sort), so a timeline is
    reproducible from any permutation of the input lines up to such ties.
    """

    beneficiary: Beneficiary
    claims: list[Claim] = field(default_factory=list)

    def sort(self) -> None:
        self.claims.sort(key=_service_date)


@dataclass(frozen=True)
class CodeSet:
    """Named set of (system, code) pairs, e.g. the dialysis procedure codes."""

    name: str
    codes: frozenset[tuple[CodeSystem, str]]

    def __contains__(self, item: CodedItem) -> bool:
        return (item.system, item.code) in self.codes


# Shipped defaults. Clinical definitions are configuration, not code: any of
# these can be overridden by a codesets JSON file (see load_codeset_library).
DEFAULT_CODESETS: dict[str, dict[str, list[str]]] = {
    "ckd": {
        "ICD9_DX": ["5851", "5852", "5853", "5854", "5855", "5856", "5859"],
        "ICD10_DX": ["N181", "N182", "N183", "N184", "N185", "N186", "N189"],
    },
    "dialysis": {
        "CPT": [str(c) for c in range(90951, 90971)],
    },
    "transplant": {
        "CPT": ["50360", "50365"],
    },
    "access_creation": {
        "CPT": ["36818", "36819", "36820", "36821", "36825", "36830", "49324", "49421"],
    },
}


@dataclass(frozen=True)
class CodeSetLibrary:
    """The four configured code sets; renal replacement (rrt) is dialysis or transplant."""

    ckd: CodeSet
    dialysis: CodeSet
    transplant: CodeSet
    access_creation: CodeSet


def _codeset_from_mapping(name: str, mapping: dict[str, list[str]]) -> CodeSet:
    pairs = set()
    for system_name, codes in mapping.items():
        try:
            system = CodeSystem(system_name)
        except ValueError:
            raise ConfigError(f"codeset {name!r}: unknown code system {system_name!r}")
        for code in codes:
            if not code:
                raise ConfigError(f"codeset {name!r}: empty code under {system_name}")
            pairs.add((system, str(code)))
    return CodeSet(name, frozenset(pairs))


def default_codeset_library() -> CodeSetLibrary:
    return _library_from_dict(DEFAULT_CODESETS)


def _library_from_dict(raw: dict) -> CodeSetLibrary:
    required = ("ckd", "dialysis", "transplant", "access_creation")
    missing = [k for k in required if k not in raw]
    if missing:
        raise ConfigError(f"codesets file missing sections: {', '.join(missing)}")
    return CodeSetLibrary(*(_codeset_from_mapping(k, raw[k]) for k in required))


def load_codeset_library(path: Union[str, Path, None]) -> CodeSetLibrary:
    """Load code sets from a JSON file, or the shipped defaults when None."""
    if path is None:
        return default_codeset_library()
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"codesets file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"codesets file {path}: invalid JSON ({exc})")
    return _library_from_dict(raw)


@lru_cache(maxsize=16)
def _code_index(codesets: tuple[CodeSet, ...]) -> dict[str, tuple[tuple[CodeSystem, int], ...]]:
    """code -> (system, position in codesets) for every pair of every set; read-only."""
    index: dict[str, list[tuple[CodeSystem, int]]] = {}
    for k, codeset in enumerate(codesets):
        for system, code in codeset.codes:
            index.setdefault(code, []).append((system, k))
    return {code: tuple(hits) for code, hits in index.items()}


def first_occurrences(
    timeline: ClaimTimeline, codesets: Sequence[CodeSet]
) -> list[date | None]:
    """Per code set, the earliest service date of a claim carrying one of its codes.

    One scan of the timeline serves every set; None where no claim matches.
    """
    index = _code_index(tuple(codesets))
    firsts: list[date | None] = [None] * len(codesets)
    pending = len(codesets)
    for claim in timeline.claims:
        for item in claim.items:
            hits = index.get(item.code)
            if hits is None:
                continue
            for system, k in hits:
                if firsts[k] is None and system == item.system:
                    firsts[k] = claim.service_date
                    pending -= 1
        if not pending:
            break
    return firsts


# ---------------------------------------------------------------------------
# Line-delimited IO


LineSource = Union[str, Path, IO[str], Iterable[str]]


def _iter_lines(source: LineSource) -> Iterator[str]:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            yield from handle
    else:
        yield from source


def _parse_date(raw: str, line_no: int, what: str) -> date:
    try:
        return date.fromisoformat(raw)
    except ValueError:
        raise ParseError(line_no, f"bad {what} {raw!r} (expected YYYY-MM-DD)")


def _parse_beneficiary(fields: list[str], line_no: int) -> Beneficiary:
    if len(fields) != 7:
        raise ParseError(line_no, f"beneficiary record needs 7 fields, got {len(fields)}")
    _, bid, sex_raw, race_raw, birth_raw, enroll_raw, death_raw = fields
    if not bid:
        raise ParseError(line_no, "empty beneficiary id")
    try:
        sex = Sex(sex_raw)
    except ValueError:
        raise ParseError(line_no, f"bad sex {sex_raw!r}")
    try:
        race = Race(race_raw)
    except ValueError:
        raise ParseError(line_no, f"bad race {race_raw!r}")
    try:
        birth_year = int(birth_raw)
    except ValueError:
        raise ParseError(line_no, f"bad birth_year {birth_raw!r}")
    enrollment = _parse_date(enroll_raw, line_no, "enrollment_date")
    death = _parse_date(death_raw, line_no, "death_date") if death_raw else None
    bene = Beneficiary(bid, sex, race, birth_year, enrollment, death)
    try:
        bene.validate()
    except DataError as exc:
        raise ParseError(line_no, str(exc))
    return bene


def _parse_item(token: str, line_no: int) -> CodedItem:
    system_raw, sep, code = token.partition(":")
    if not sep or not code:
        raise ParseError(line_no, f"bad item {token!r} (expected SYSTEM:code)")
    try:
        system = CodeSystem(system_raw)
    except ValueError:
        raise ParseError(line_no, f"unknown code system {system_raw!r}")
    return CodedItem(system, code)


def _parse_claim(
    fields: list[str],
    line_no: int,
    dates: dict[str, date],
    types: dict[str, ClaimType],
    items: dict[str, CodedItem],
) -> Claim:
    """Parse one claim record, interning its values in the read's tables.

    A raw value is validated on the first line it appears on and looked up
    after that, so errors carry the line number and message a per-token parse
    would give them.
    """
    if len(fields) < 4:
        raise ParseError(line_no, f"claim record needs at least 4 fields, got {len(fields)}")
    _, bid, date_raw, type_raw = fields[:4]
    if not bid:
        raise ParseError(line_no, "claim with empty beneficiary_id")
    if date_raw not in dates:
        dates[date_raw] = _parse_date(date_raw, line_no, "service_date")
    if type_raw not in types:
        try:
            types[type_raw] = ClaimType(type_raw)
        except ValueError:
            raise ParseError(line_no, f"bad claim_type {type_raw!r}")
    tokens = fields[4:]
    for token in tokens:
        if token not in items:
            items[token] = _parse_item(token, line_no)
    return Claim(bid, dates[date_raw], types[type_raw], [items[token] for token in tokens])


def iter_timelines(source: LineSource) -> Iterator[ClaimTimeline]:
    """Stream one timeline per beneficiary from a claims file, in file order.

    Each beneficiary's claims must directly follow its B record; a claim of an
    earlier beneficiary is a ParseError, as are duplicate beneficiary records
    and claims for an id with no beneficiary record. Beneficiaries without
    claims get empty timelines.
    """
    # intern tables for this read: raw string -> validated immutable value
    dates: dict[str, date] = {}
    types: dict[str, ClaimType] = {}
    items: dict[str, CodedItem] = {}
    seen: set[str] = set()
    current: ClaimTimeline | None = None
    with naming_file(source):
        for line_no, line in enumerate(_iter_lines(source), start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            tag = fields[0]
            if tag == "B":
                bene = _parse_beneficiary(fields, line_no)
                if bene.id in seen:
                    raise ParseError(line_no, f"duplicate beneficiary record {bene.id!r}")
                seen.add(bene.id)
                if current is not None:
                    current.sort()
                    yield current
                current = ClaimTimeline(bene)
            elif tag == "C":
                claim = _parse_claim(fields, line_no, dates, types, items)
                bid = claim.beneficiary_id
                if current is None or bid != current.beneficiary.id:
                    if bid in seen:
                        raise ParseError(
                            line_no,
                            f"claim of beneficiary {bid!r} does not follow its beneficiary "
                            "record (claims must be grouped by beneficiary)",
                        )
                    raise ParseError(line_no, f"claim references unknown beneficiary {bid!r}")
                current.claims.append(claim)
            else:
                raise ParseError(line_no, f"unknown record tag {tag!r}")
        if current is not None:
            current.sort()
            yield current
