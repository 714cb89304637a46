"""Beneficiaries, code sets, and the columnar claims timeline of each beneficiary.

The on-disk claims format is line-delimited UTF-8 text with tab-separated
fields. Two record kinds are distinguished by a leading tag:

    B <TAB> id <TAB> sex <TAB> race <TAB> birth_year <TAB> enrollment_date <TAB> death_date
    C <TAB> beneficiary_id <TAB> service_date <TAB> claim_type <TAB> SYSTEM:code ...

Dates are ISO-8601 (``YYYY-MM-DD``); ``death_date`` may be empty. A claim may
carry zero or more ``SYSTEM:code`` items. Each beneficiary's claims directly
follow its beneficiary record. The lines are framed as in every artifact (see
``artifacts``). The reader (``iter_timelines``) rejects unknown tags.

The reader parses each beneficiary straight into columns: the claims' day
ordinals in date order, and a CSR of item pair ids (``claim_ptr`` bounds each
claim's slice of ``pair_ids``). A pair id numbers a ``(CodeSystem, code)``
pair in the ``PairTable`` of the read, in first-seen order, so ids mean
something only inside one read. Each distinct service date, claim type and
``SYSTEM:code`` token is validated on the first line it appears on and looked
up after that. Claim types are validated but not kept: nothing downstream
reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .artifacts import data_rows
from .config import (  # noqa: F401  (re-exports)
    DEFAULT_CODESETS,
    CodeSet,
    CodeSetLibrary,
    CodeSystem,
    default_codeset_library,
    load_codeset_library,
)
from .errors import DataError, ParseError


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


_NO_FLAGS = np.zeros(0, dtype=bool)


class PairTable:
    """The (CodeSystem, code) pairs of one claims read, numbered in first-seen order.

    Every timeline of a read shares its table. ``members`` answers code-set
    membership with one boolean array per set over the pair ids, computed once
    per read and extended when the read interns new pairs.
    """

    __slots__ = ("pairs", "by_token", "_members")

    def __init__(self):
        self.pairs: list[tuple[CodeSystem, str]] = []
        self.by_token: dict[str, int] = {}  # SYSTEM:code token -> pair id
        self._members: dict[CodeSet, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.pairs)

    def intern(self, token: str, line_no: int) -> int:
        """The pair id of a SYSTEM:code token; a token new to the read is validated first."""
        pid = self.by_token.get(token)
        if pid is not None:
            return pid
        system_raw, sep, code = token.partition(":")
        if not sep or not code:
            raise ParseError(line_no, f"bad item {token!r} (expected SYSTEM:code)")
        try:
            system = CodeSystem(system_raw)
        except ValueError:
            raise ParseError(line_no, f"unknown code system {system_raw!r}")
        pid = self.by_token[token] = len(self.pairs)
        self.pairs.append((system, code))
        return pid

    def members(self, codeset: CodeSet) -> np.ndarray:
        """Per pair id of this read, whether the pair is in codeset."""
        flags = self._members.get(codeset, _NO_FLAGS)
        if flags.size < len(self.pairs):
            new = [pair in codeset.codes for pair in self.pairs[flags.size :]]
            flags = self._members[codeset] = np.concatenate([flags, np.asarray(new, dtype=bool)])
        return flags


@dataclass(eq=False, slots=True)
class ClaimTimeline:
    """A beneficiary's claims as columns, in ascending service-date order.

    Claim k is dated ``days[k]`` (a day ordinal) and carries the items
    ``pair_ids[claim_ptr[k] : claim_ptr[k + 1]]``, numbered in ``pairs``.
    Equal-date claims keep their input order (stable sort), so a timeline is
    reproducible from any permutation of the input lines up to such ties.
    """

    beneficiary: Beneficiary
    days: np.ndarray  # int64, ascending
    claim_ptr: np.ndarray  # int64, len(days) + 1 entries
    pair_ids: np.ndarray  # int64
    pairs: PairTable


# The day ordinal of a date that never comes: after every date, so an absent
# event compares as later than any trigger, claim or horizon.
NEVER = date.max.toordinal() + 1


def first_occurrences(timeline: ClaimTimeline, codesets: Sequence[CodeSet]) -> list[int]:
    """Per code set, the day ordinal of the earliest claim carrying one of its codes.

    NEVER where no claim matches.
    """
    firsts = []
    for codeset in codesets:
        hits = np.flatnonzero(timeline.pairs.members(codeset)[timeline.pair_ids])
        if hits.size:
            claim = np.searchsorted(timeline.claim_ptr, hits[0], side="right") - 1
            firsts.append(int(timeline.days[claim]))
        else:
            firsts.append(NEVER)
    return firsts


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


def _timeline(
    bene: Beneficiary, days: list[int], ptr: list[int], ids: list[int], pairs: PairTable
) -> ClaimTimeline:
    """Columns of one beneficiary's claims, in input order, sorted stably by date."""
    day_arr = np.array(days, dtype=np.int64)
    ptr_arr = np.array(ptr, dtype=np.int64)
    id_arr = np.array(ids, dtype=np.int64)
    if (day_arr[1:] < day_arr[:-1]).any():
        order = np.argsort(day_arr, kind="stable")
        sizes = np.diff(ptr_arr)[order]
        starts = ptr_arr[:-1][order]
        day_arr = day_arr[order]
        np.cumsum(sizes, out=ptr_arr[1:])
        id_arr = id_arr[np.repeat(starts - ptr_arr[:-1], sizes) + np.arange(id_arr.size)]
    return ClaimTimeline(bene, day_arr, ptr_arr, id_arr, pairs)


def iter_timelines(source) -> Iterator[ClaimTimeline]:
    """Stream one timeline per beneficiary from a claims file, in file order.

    Each beneficiary's claims must directly follow its B record; a claim of an
    earlier beneficiary is a ParseError, as are duplicate beneficiary records
    and claims for an id with no beneficiary record. A claim's date, type and
    items are checked before its beneficiary id. Beneficiaries without claims
    get empty timelines. Every timeline of the read shares one PairTable.
    """
    pairs = PairTable()
    by_token = pairs.by_token
    # validated values of this read: service-date string -> ordinal, claim types
    day_of: dict[str, int] = {}
    types: set[str] = set()
    seen: set[str] = set()
    bene: Beneficiary | None = None
    days: list[int] = []
    ptr = [0]
    ids: list[int] = []
    with data_rows(source) as rows:
        for line_no, line in rows:
            fields = line.split("\t")
            tag = fields[0]
            if tag == "C":
                if len(fields) < 4:
                    raise ParseError(
                        line_no, f"claim record needs at least 4 fields, got {len(fields)}"
                    )
                bid, date_raw, type_raw = fields[1], fields[2], fields[3]
                if not bid:
                    raise ParseError(line_no, "claim with empty beneficiary_id")
                day = day_of.get(date_raw)
                if day is None:
                    day = _parse_date(date_raw, line_no, "service_date").toordinal()
                    day_of[date_raw] = day
                if type_raw not in types:
                    try:
                        ClaimType(type_raw)
                    except ValueError:
                        raise ParseError(line_no, f"bad claim_type {type_raw!r}")
                    types.add(type_raw)
                tokens = fields[4:]
                try:
                    claim_ids = [by_token[token] for token in tokens]
                except KeyError:  # a token new to this read
                    claim_ids = [pairs.intern(token, line_no) for token in tokens]
                if bene is None or bid != bene.id:
                    if bid in seen:
                        raise ParseError(
                            line_no,
                            f"claim of beneficiary {bid!r} does not follow its beneficiary "
                            "record (claims must be grouped by beneficiary)",
                        )
                    raise ParseError(line_no, f"claim references unknown beneficiary {bid!r}")
                days.append(day)
                ids += claim_ids
                ptr.append(len(ids))
            elif tag == "B":
                new = _parse_beneficiary(fields, line_no)
                if new.id in seen:
                    raise ParseError(line_no, f"duplicate beneficiary record {new.id!r}")
                seen.add(new.id)
                if bene is not None:
                    yield _timeline(bene, days, ptr, ids, pairs)
                    days, ptr, ids = [], [0], []
                bene = new
            else:
                raise ParseError(line_no, f"unknown record tag {tag!r}")
        if bene is not None:
            yield _timeline(bene, days, ptr, ids, pairs)
