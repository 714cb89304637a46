"""Sparse binary featurization of (timeline, trigger date) pairs.

Coded claim items are keyed by (system, code, time bucket), where the bucket
comes from the day offset between the claim and the trigger date: [0,30),
[30,90), [90,365), [365,3650) days back. Claims dated on or after the trigger
date never contribute, and offsets of ten years or more are dropped. Presence
is binary; repeats within a bucket collapse to one active column.

Demographics contribute exactly three active columns: sex, race, and a
10-year age bucket anchored at 65. The vocabulary pre-seeds every demographic
value so those columns exist regardless of what the training split happened
to contain; coded keys are collected from training triggers only and keys
unseen at training time are silently dropped at inference.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, Union

import numpy as np

from .claims import ClaimTimeline, PairTable, Race, Sex, _iter_lines, _parse_date
from .config import N_CLASSES, TASKS, CodeSystem
from .errors import DataError, ParseError, in_file, naming_file

BUCKET_EDGES = (30, 90, 365, 3650)
N_BUCKETS = len(BUCKET_EDGES)
# Bucket b holds the claims dated in [t - E[b+1] + 1, t - E[b]] for E = (1,) + BUCKET_EDGES,
# so sorted claim days split at t minus these, oldest bucket first.
_WINDOW_STARTS = np.asarray([e - 1 for e in reversed((1,) + BUCKET_EDGES)], dtype=np.int64)

AGE_BUCKET_LABELS = ("65-74", "75-84", "85-94", "95plus")
_AGE_EDGES = (75, 85, 95)


def age_bucket(age: int) -> str:
    if age < 65:
        raise DataError(f"age {age} below the eligible population (>= 65)")
    return AGE_BUCKET_LABELS[bisect_right(_AGE_EDGES, age)]


def sex_key(sex: Sex) -> str:
    return f"dem/sex={sex.value}"


def race_key(race: Race) -> str:
    return f"dem/race={race.value}"


def age_key(label: str) -> str:
    return f"dem/age={label}"


def coded_key(system: CodeSystem, code: str, bucket: int) -> str:
    return f"code/{system.value}/{code}/b{bucket}"


def _all_demographic_keys() -> list[str]:
    keys = [sex_key(s) for s in Sex]
    keys += [race_key(r) for r in Race]
    keys += [age_key(label) for label in AGE_BUCKET_LABELS]
    return keys


class Vocabulary:
    """Immutable feature-key -> dense column index map, built on training data."""

    def __init__(self, keys: Iterable[str]):
        ordered = sorted(set(keys))
        self.index: dict[str, int] = {k: i for i, k in enumerate(ordered)}
        self._keys = ordered

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: str) -> bool:
        return key in self.index

    def keys(self) -> list[str]:
        return list(self._keys)

    def lines(self) -> Iterator[str]:
        """The canonical `key TAB index` lines, in index order: the body of vocab.tsv."""
        for key, idx in self.index.items():
            yield f"{key}\t{idx}\n"

    def content_hash(self) -> str:
        """Hash of the canonical key/index lines; binds models to this vocabulary."""
        digest = hashlib.sha256()
        for line in self.lines():
            digest.update(line.encode("utf-8"))
        return digest.hexdigest()

    @classmethod
    def from_file(cls, source: Union[str, Path, IO[str]]) -> "Vocabulary":
        pairs = []
        with naming_file(source):
            for line_no, line in enumerate(_iter_lines(source), start=1):
                if not line.strip() or line.startswith("#"):
                    continue
                key, _, idx = line.rstrip("\n").rpartition("\t")
                if not key or not idx.isdecimal():
                    raise ParseError(
                        line_no, f"bad vocabulary line {line[:80]!r} (expected key TAB index)"
                    )
                pairs.append((key, int(idx)))
        vocab = cls(key for key, _ in pairs)
        if list(vocab.index.items()) != pairs:
            raise DataError(
                in_file(source, "vocabulary file is not its sorted keys with dense indices 0..n-1")
            )
        return vocab


class CompiledTimeline:
    """One timeline's columns, for featurizing all of its triggers at once.

    Yields exactly the same active keys as the reference featurizers in
    tests/reference.py. One searchsorted finds every trigger's bucket windows;
    each trigger then marks the items of its windows in a boolean mask that is
    read back sorted and unique with flatnonzero and cleared for the next one.
    """

    __slots__ = ("sex", "race", "birth_year", "days", "pair_ids", "claim_ptr")

    def __init__(self, timeline: ClaimTimeline):
        bene = timeline.beneficiary
        self.sex = bene.sex
        self.race = bene.race
        self.birth_year = bene.birth_year
        self.days = timeline.days
        self.claim_ptr = timeline.claim_ptr
        self.pair_ids = timeline.pair_ids

    def _windows(self, days: np.ndarray) -> list[list[int]]:
        """Per trigger day, the item positions that bound buckets 3, 2, 1 and 0, in claim order."""
        return self.claim_ptr[np.searchsorted(self.days, days[:, None] - _WINDOW_STARTS)].tolist()

    def active_pair_buckets(self, days: np.ndarray) -> list[np.ndarray]:
        """Per trigger day ordinal, the sorted pair_id * N_BUCKETS + bucket values active there."""
        pairs, local = np.unique(self.pair_ids, return_inverse=True)
        keys = (pairs[:, None] * N_BUCKETS + np.arange(N_BUCKETS)).ravel()
        mask = np.zeros((pairs.size, N_BUCKETS), dtype=bool)  # (local pair, bucket)
        flat = mask.ravel()
        out = []
        for bounds in self._windows(days):
            for j in range(N_BUCKETS):
                if bounds[j] < bounds[j + 1]:
                    mask[local[bounds[j] : bounds[j + 1]], N_BUCKETS - 1 - j] = True
            active = np.flatnonzero(flat)
            flat[active] = False
            out.append(keys[active])
        return out

    def demographic_columns(self, year: int, vocab: Vocabulary) -> list[int]:
        keys = (
            sex_key(self.sex),
            race_key(self.race),
            age_key(age_bucket(year - self.birth_year)),
        )
        return [vocab.index[k] for k in keys if k in vocab.index]

    def active_indices(
        self, days: np.ndarray, years: np.ndarray, vocab: Vocabulary, colmap: np.ndarray
    ) -> list[np.ndarray]:
        """Per trigger day ordinal and its year, the sorted vocabulary columns of its row."""
        n = len(vocab)
        # each item's column in each bucket; -1 (absent) lands in the sentinel slot n
        item_cols = colmap[self.pair_ids[:, None] * N_BUCKETS + np.arange(N_BUCKETS - 1, -1, -1)]
        mask = np.zeros(n + 1, dtype=bool)
        dem_by_year: dict[int, list[int]] = {}
        out = []
        for year, bounds in zip(years.tolist(), self._windows(days)):
            for j in range(N_BUCKETS):
                if bounds[j] < bounds[j + 1]:
                    mask[item_cols[bounds[j] : bounds[j + 1], j]] = True
            dem = dem_by_year.get(year)
            if dem is None:
                dem = dem_by_year[year] = self.demographic_columns(year, vocab)
            mask[dem] = True
            mask[n] = False
            active = np.flatnonzero(mask)
            mask[active] = False
            out.append(active)
        return out


def pair_bucket_key(pairs: PairTable, pair_bucket: int) -> str:
    pid, b = divmod(pair_bucket, N_BUCKETS)
    system, code = pairs.pairs[pid]
    return coded_key(system, code, b)


def vocabulary_from_counts(counts: np.ndarray, pairs: PairTable, min_count: int = 1) -> Vocabulary:
    """Vocabulary from the number of training triggers each pair-bucket key is active at.

    ``counts`` is indexed by pair_id * N_BUCKETS + bucket, for the pair ids of
    the claims read that ``pairs`` numbers. Equivalent to the reference
    build_vocabulary() in tests/reference.py over the same training triggers:
    a key earns a column when it is active at min_count of them, and never
    when at none.
    """
    keys = _all_demographic_keys()
    keep = np.flatnonzero(counts >= max(min_count, 1))
    keys.extend(pair_bucket_key(pairs, pb) for pb in keep.tolist())
    return Vocabulary(keys)


def column_map(vocab: Vocabulary, pairs: PairTable) -> np.ndarray:
    """Flat (pair_id * N_BUCKETS + bucket) -> vocab column map; -1 when absent."""
    out = np.full(len(pairs) * N_BUCKETS, -1, dtype=np.int32)
    for pid, (system, code) in enumerate(pairs.pairs):
        for b in range(N_BUCKETS):
            col = vocab.index.get(coded_key(system, code, b))
            if col is not None:
                out[pid * N_BUCKETS + b] = col
    return out


# ---------------------------------------------------------------------------
# Sparse row storage
#
# One row per eligible trigger:
#   beneficiary_id TAB trigger_date TAB rrt TAB dialysis TAB transplant TAB i,j,k
# where the label columns hold the disjoint class index (0..5) and the final
# column holds comma-joined, strictly increasing active feature indices. A
# VOCAB_HEADER comment, written by featurize, names the vocabulary's content hash.

VOCAB_HEADER = "# vocab="


@dataclass(eq=False)
class FeatureMatrix:
    """CSR-style container for featurized triggers and their task labels."""

    n_features: int
    ids: list[tuple[str, str]]
    y: dict[str, np.ndarray]  # task -> class index per row
    indptr: np.ndarray
    indices: np.ndarray
    vocab_hash: str | None = None

    def __len__(self) -> int:
        return len(self.ids)


def feature_row(
    beneficiary_id: str, trigger_date: str, classes: list[int], indices: np.ndarray, columns
) -> str:
    """One feature-table row; ``classes`` are in TASKS order, ``columns[i]`` is ``str(i)``."""
    cols = ",".join([columns[i] for i in indices.tolist()])
    return "\t".join([beneficiary_id, trigger_date, *map(str, classes), cols])


# Each valid class column and its class index.
_CLASSES = {str(c): c for c in range(N_CLASSES)}
_MAX_INDEX = np.iinfo(np.int32).max  # FeatureMatrix keeps indices as int32


def _parse_indices(raw: str, line_no: int) -> np.ndarray:
    try:
        indices = np.fromstring(raw, dtype=np.int64, sep=",") if raw else np.empty(0, np.int64)
    except ValueError:
        raise ParseError(line_no, f"bad feature index list {raw[:80]!r}")
    if indices.size and not (
        0 <= indices[0] and indices[-1] <= _MAX_INDEX and (indices[1:] > indices[:-1]).all()
    ):
        raise ParseError(
            line_no, f"feature indices {raw[:80]!r} are not strictly increasing column indices"
        )
    return indices.astype(np.int32)


def _parse_rows(source, headers: list[str]) -> Iterator[tuple[str, str, list[int], np.ndarray]]:
    """Rows of a feature table, classes in TASKS order; VOCAB_HEADER values go to headers.

    A malformed row raises ParseError; each distinct trigger date is checked once per read.
    """
    dates: set[str] = set()
    with naming_file(source):
        for line_no, line in enumerate(_iter_lines(source), start=1):
            if not line.strip() or line.startswith("#"):
                if line.startswith(VOCAB_HEADER):
                    headers.append(line[len(VOCAB_HEADER) :].strip())
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 3 + len(TASKS):
                raise ParseError(line_no, f"bad feature row: {line[:80]!r}")
            if not fields[0]:
                raise ParseError(line_no, "feature row with empty beneficiary_id")
            if fields[1] not in dates:
                _parse_date(fields[1], line_no, "trigger_date")
                dates.add(fields[1])
            classes = []
            for task, raw in zip(TASKS, fields[2:-1]):
                cls = _CLASSES.get(raw)
                if cls is None:
                    raise ParseError(
                        line_no, f"bad {task} class {raw!r} (expected 0..{len(_CLASSES) - 1})"
                    )
                classes.append(cls)
            yield fields[0], fields[1], classes, _parse_indices(fields[-1], line_no)


def iter_feature_rows(source) -> Iterator[tuple[str, str, dict[str, int], np.ndarray]]:
    """Parse a feature table; malformed rows raise ParseError with their line number."""
    for bid, tdate, classes, indices in _parse_rows(source, []):
        yield bid, tdate, dict(zip(TASKS, classes)), indices


def read_feature_matrix(
    source, n_features: int, vocab_hash: str | None = None
) -> FeatureMatrix:
    """Read a feature table; every index must name one of the n_features columns.

    Given vocab_hash, the table's VOCAB_HEADER must name that vocabulary.
    """
    headers: list[str] = []
    ids, classes, rows = [], [], []
    for bid, tdate, row_classes, row in _parse_rows(source, headers):
        ids.append((bid, tdate))
        classes.append(row_classes)
        rows.append(row)
    if vocab_hash is not None and headers[-1:] != [vocab_hash]:
        fault = "was built against another vocabulary" if headers else "has no vocabulary header"
        want = f"{VOCAB_HEADER}{vocab_hash[:12]}..."
        raise DataError(in_file(source, f"feature table {fault} (expected {want})"))
    indices = np.concatenate(rows) if rows else np.empty(0, dtype=np.int32)
    indptr = np.cumsum([0] + [row.size for row in rows], dtype=np.int64)
    y = dict(zip(TASKS, np.array(classes, dtype=np.int64).reshape(-1, len(TASKS)).T.copy()))
    bad = np.flatnonzero((indices < 0) | (indices >= n_features))
    if bad.size:
        bid, tdate = ids[int(np.searchsorted(indptr, bad[0], side="right")) - 1]
        raise DataError(
            in_file(
                source,
                f"feature index {int(indices[bad[0]])} of the row for {bid} {tdate} "
                f"is outside the {n_features} vocabulary columns",
            )
        )
    return FeatureMatrix(n_features, ids, y, indptr, indices, vocab_hash)
