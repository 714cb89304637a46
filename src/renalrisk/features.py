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
from datetime import date
from pathlib import Path
from typing import IO, Iterable, Iterator, Union

import numpy as np

from .claims import ClaimTimeline, CodedItem, CodeSystem, Race, Sex
from .errors import DataError
from .triggers import TASKS

BUCKET_EDGES = (30, 90, 365, 3650)
N_BUCKETS = len(BUCKET_EDGES)

AGE_BUCKET_LABELS = ("65-74", "75-84", "85-94", "95plus")
_AGE_EDGES = (75, 85, 95)


def age_bucket(age: int) -> str:
    if age < 65:
        raise DataError(f"age {age} below the eligible population (>= 65)")
    return AGE_BUCKET_LABELS[bisect_right(_AGE_EDGES, age)]


def day_bucket(offset: int) -> int | None:
    """Bucket index for a day offset >= 1, or None when out of range."""
    if offset < 1 or offset >= BUCKET_EDGES[-1]:
        return None
    return bisect_right(BUCKET_EDGES, offset)


def sex_key(sex: Sex) -> str:
    return f"dem/sex={sex.value}"


def race_key(race: Race) -> str:
    return f"dem/race={race.value}"


def age_key(label: str) -> str:
    return f"dem/age={label}"


def coded_key(system: CodeSystem, code: str, bucket: int) -> str:
    return f"code/{system.value}/{code}/b{bucket}"


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
    for claim in timeline.claims:
        bucket = day_bucket(t_ord - claim.service_date.toordinal())
        if bucket is None:
            continue
        for item in claim.items:
            keys.add(coded_key(item.system, item.code, bucket))
    return keys


def _all_demographic_keys() -> list[str]:
    keys = [sex_key(s) for s in Sex]
    keys += [race_key(r) for r in Race]
    keys += [age_key(label) for label in AGE_BUCKET_LABELS]
    return keys


@dataclass(frozen=True)
class FeatureVector:
    indices: tuple[int, ...]
    n_features: int


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

    def content_hash(self) -> str:
        """Hash of the canonical key/index lines; binds models to this vocabulary."""
        digest = hashlib.sha256()
        for key, idx in self.index.items():
            digest.update(f"{key}\t{idx}\n".encode("utf-8"))
        return digest.hexdigest()

    @classmethod
    def build(
        cls,
        training: Iterable[tuple[ClaimTimeline, Iterable[date]]],
        min_count: int = 1,
    ) -> "Vocabulary":
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
        return cls(keys)

    def to_file(self, sink: Union[str, Path, IO[str]], header: str | None = None) -> None:
        def _write(handle: IO[str]) -> None:
            if header:
                handle.write(header)
            for key in self._keys:
                handle.write(f"{key}\t{self.index[key]}\n")

        if isinstance(sink, (str, Path)):
            with open(sink, "w", encoding="utf-8") as handle:
                _write(handle)
        else:
            _write(sink)

    @classmethod
    def from_file(cls, source: Union[str, Path, IO[str]]) -> "Vocabulary":
        from .claims import _iter_lines

        pairs = []
        for line in _iter_lines(source):
            if not line.strip() or line.startswith("#"):
                continue
            key, _, idx = line.rstrip("\n").rpartition("\t")
            pairs.append((key, int(idx)))
        pairs.sort(key=lambda p: p[1])
        vocab = cls.__new__(cls)
        vocab._keys = [k for k, _ in pairs]
        vocab.index = {k: i for i, (k, j) in enumerate(pairs)}
        for key, idx in pairs:
            if vocab.index[key] != idx:
                raise DataError(f"vocabulary file has non-dense indices near {key!r}")
        return vocab


def featurize(timeline: ClaimTimeline, t: date, vocab: Vocabulary) -> FeatureVector:
    """Sparse binary vector of in-vocabulary keys active at trigger date t."""
    indices = sorted(
        vocab.index[key] for key in collect_active_keys(timeline, t) if key in vocab
    )
    return FeatureVector(tuple(indices), len(vocab))


class ClaimInterner:
    """Shared (system, code) -> small-integer table across many timelines."""

    def __init__(self):
        self._ids: dict[tuple[str, str], int] = {}
        self.pairs: list[tuple[str, str]] = []
        # id(item) -> (item, pair id). A claims read shares one CodedItem per
        # distinct token, so repeats skip rebuilding and hashing the pair;
        # holding the item keeps its id from passing to another object.
        self._by_item: dict[int, tuple[CodedItem, int]] = {}

    def pair_id(self, system: str, code: str) -> int:
        key = (system, code)
        pid = self._ids.get(key)
        if pid is None:
            pid = len(self.pairs)
            self._ids[key] = pid
            self.pairs.append(key)
        return pid

    def item_pair_ids(self, items: Iterable[CodedItem]) -> list[int]:
        """The pair_id of each item, in order."""
        by_item = self._by_item
        out = []
        for item in items:
            hit = by_item.get(id(item))
            if hit is None:
                hit = by_item[id(item)] = (item, self.pair_id(item.system.value, item.code))
            out.append(hit[1])
        return out

    def __len__(self) -> int:
        return len(self.pairs)


class CompiledTimeline:
    """One timeline flattened to arrays for repeated trigger featurization.

    Yields exactly the same active keys as collect_active_keys(), but each
    trigger costs a few searchsorted calls over precomputed arrays instead of
    a Python scan over all claims.
    """

    __slots__ = ("sex", "race", "birth_year", "days", "item_ids", "claim_ptr")

    def __init__(self, timeline: ClaimTimeline, interner: ClaimInterner):
        bene = timeline.beneficiary
        claims = timeline.claims
        self.sex = bene.sex
        self.race = bene.race
        self.birth_year = bene.birth_year
        self.days = np.fromiter(
            (c.service_date.toordinal() for c in claims), dtype=np.int64, count=len(claims)
        )
        self.claim_ptr = np.zeros(len(claims) + 1, dtype=np.int64)
        np.cumsum([len(c.items) for c in claims], dtype=np.int64, out=self.claim_ptr[1:])
        self.item_ids = np.asarray(
            interner.item_pair_ids([item for c in claims for item in c.items]), dtype=np.int64
        )

    def active_pair_buckets(self, t: date) -> np.ndarray:
        """Unique pair_id * N_BUCKETS + bucket values active at trigger t."""
        t_ord = t.toordinal()
        chunks = []
        lo_edge = 1  # claims strictly before t only
        for b, hi_edge in enumerate(BUCKET_EDGES):
            # offsets in [lo_edge, hi_edge) => service days in [t-hi_edge+1, t-lo_edge]
            lo = np.searchsorted(self.days, t_ord - hi_edge + 1, side="left")
            hi = np.searchsorted(self.days, t_ord - lo_edge, side="right")
            if hi > lo:
                ids = self.item_ids[self.claim_ptr[lo] : self.claim_ptr[hi]]
                if ids.size:
                    chunks.append(ids * N_BUCKETS + b)
            lo_edge = hi_edge
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(chunks))

    def demographic_columns(self, t: date, vocab: Vocabulary) -> list[int]:
        keys = (
            sex_key(self.sex),
            race_key(self.race),
            age_key(age_bucket(t.year - self.birth_year)),
        )
        return [vocab.index[k] for k in keys if k in vocab.index]

    def active_indices(self, t: date, vocab: Vocabulary, colmap: np.ndarray) -> np.ndarray:
        cols = colmap[self.active_pair_buckets(t)]
        cols = cols[cols >= 0]
        dem = np.asarray(self.demographic_columns(t, vocab), dtype=np.int32)
        return np.sort(np.concatenate([cols, dem]))


def pair_bucket_key(interner: ClaimInterner, pair_bucket: int) -> str:
    pid, b = divmod(pair_bucket, N_BUCKETS)
    system, code = interner.pairs[pid]
    return f"code/{system}/{code}/b{b}"


def vocabulary_from_counts(
    counts: dict[int, int], interner: ClaimInterner, min_count: int = 1
) -> Vocabulary:
    """Vocabulary from per-trigger pair-bucket occurrence counts.

    Equivalent to Vocabulary.build over the same training triggers.
    """
    keys = _all_demographic_keys()
    keys.extend(
        pair_bucket_key(interner, pb) for pb, c in counts.items() if c >= min_count
    )
    return Vocabulary(keys)


def column_map(vocab: Vocabulary, interner: ClaimInterner) -> np.ndarray:
    """Flat (pair_id * N_BUCKETS + bucket) -> vocab column map; -1 when absent."""
    out = np.full(len(interner) * N_BUCKETS, -1, dtype=np.int32)
    for pid, (system, code) in enumerate(interner.pairs):
        for b in range(N_BUCKETS):
            col = vocab.index.get(f"code/{system}/{code}/b{b}")
            if col is not None:
                out[pid * N_BUCKETS + b] = col
    return out


# ---------------------------------------------------------------------------
# Sparse row storage
#
# One row per eligible trigger:
#   beneficiary_id TAB trigger_date TAB rrt TAB dialysis TAB transplant TAB i,j,k
# where the label columns hold the disjoint class index (0..5) and the final
# column holds comma-joined, strictly increasing active feature indices.


class FeatureMatrix:
    """CSR-style container for featurized triggers and their task labels."""

    def __init__(self, n_features: int, vocab_hash: str | None = None):
        self.n_features = n_features
        self.vocab_hash = vocab_hash
        self.ids: list[tuple[str, str]] = []
        self.labels: dict[str, list[int]] = {task: [] for task in TASKS}
        self._indices: list[np.ndarray] = []
        self.indptr = [0]

    def add_row(
        self,
        beneficiary_id: str,
        trigger_date: str,
        classes: dict[str, int],
        indices: np.ndarray,
    ) -> None:
        self.ids.append((beneficiary_id, trigger_date))
        for task in TASKS:
            self.labels[task].append(classes[task])
        self._indices.append(np.asarray(indices, dtype=np.int32))
        self.indptr.append(self.indptr[-1] + len(indices))

    def finalize(self) -> None:
        self.indices = (
            np.concatenate(self._indices)
            if self._indices
            else np.empty(0, dtype=np.int32)
        )
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.y = {task: np.asarray(v, dtype=np.int64) for task, v in self.labels.items()}
        self._indices = []

    def __len__(self) -> int:
        return len(self.ids)

    def row(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i] : self.indptr[i + 1]]


def feature_row(
    beneficiary_id: str, trigger_date: str, classes: dict[str, int], indices
) -> str:
    cols = ",".join(str(int(i)) for i in indices)
    return "\t".join(
        [beneficiary_id, trigger_date]
        + [str(classes[task]) for task in TASKS]
        + [cols]
    )


def iter_feature_rows(source) -> Iterator[tuple[str, str, dict[str, int], np.ndarray]]:
    from .claims import _iter_lines

    for line in _iter_lines(source):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.rstrip("\n").split("\t")
        if len(fields) != 3 + len(TASKS):
            raise DataError(f"bad feature row: {line[:80]!r}")
        classes = {task: int(fields[2 + k]) for k, task in enumerate(TASKS)}
        cols = fields[-1]
        indices = (
            np.fromstring(cols, dtype=np.int64, sep=",").astype(np.int32)
            if cols
            else np.empty(0, dtype=np.int32)
        )
        yield fields[0], fields[1], classes, indices


def read_feature_matrix(
    source, n_features: int, vocab_hash: str | None = None
) -> FeatureMatrix:
    matrix = FeatureMatrix(n_features, vocab_hash)
    for bid, tdate, classes, indices in iter_feature_rows(source):
        matrix.add_row(bid, tdate, classes, indices)
    matrix.finalize()
    return matrix
