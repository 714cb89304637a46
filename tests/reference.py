"""Slow single-row featurizer, kept only as the oracle for the compiled path.

The pipeline featurizes through ``CompiledTimeline`` and builds its vocabulary
with ``vocabulary_from_counts``. These functions do the same work by a plain
Python scan over every claim of a timeline, one trigger at a time, and the
equivalence tests compare the two.
"""

from __future__ import annotations

from bisect import bisect_right
from datetime import date
from typing import Iterable

from renalrisk.claims import ClaimTimeline
from renalrisk.errors import DataError
from renalrisk.features import (
    BUCKET_EDGES,
    Vocabulary,
    _all_demographic_keys,
    age_bucket,
    age_key,
    coded_key,
    race_key,
    sex_key,
)


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
    for claim in timeline.claims:
        bucket = day_bucket(t_ord - claim.service_date.toordinal())
        if bucket is None:
            continue
        for item in claim.items:
            keys.add(coded_key(item.system, item.code, bucket))
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
