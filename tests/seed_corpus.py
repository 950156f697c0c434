"""The stratified ``split`` and the raising ``group_sentiment`` that the
one-permutation split and the ``None``-returning lookup replaced, with the
``task_label`` that caught the raise, kept verbatim as oracles.

Without ``stratify_by`` this ``split`` must give the membership and order of
``corpus.split``, and this ``task_label`` the label of ``corpus.task_label``,
for every record and task. ``EmptyStratum`` and ``UnmappedTopic`` left the
package with them and are defined here.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from versebert.corpus import (
    _TASK_BY_LOWER,
    CLASSICAL_METERS,
    SENTIMENT_BY_TOPIC,
    SUB_METERS,
    CorpusStore,
    VerseRecord,
    taxonomy,
)
from versebert.errors import InvalidConfig, VerseBertError


class EmptyStratum(VerseBertError):
    pass


class UnmappedTopic(VerseBertError):
    pass


def group_sentiment(topic: str) -> str:
    """Map a poem-type name to its grouped emotion label."""
    base = topic.strip()
    if base.endswith(" Poems"):
        base = base[: -len(" Poems")]
    try:
        return SENTIMENT_BY_TOPIC[base]
    except KeyError:
        raise UnmappedTopic(topic) from None


def split(
    corpus: CorpusStore,
    ratio: float,
    seed: int,
    stratify_by: Optional[str] = None,
) -> tuple[CorpusStore, CorpusStore]:
    """Deterministic train/val partition; floor(n*ratio) records per stratum go to train.

    Without stratification the whole corpus forms one stratum. Output stores
    preserve corpus order; membership depends only on (corpus, ratio, seed).
    """
    if not 0 < ratio < 1:
        raise InvalidConfig(f"ratio must be in (0, 1), got {ratio}")
    rng = np.random.default_rng(seed)

    strata: dict[object, list[int]] = {}
    for idx, r in enumerate(corpus.records):
        if stratify_by is None:
            key = None
        else:
            key = getattr(r, stratify_by)
            if key is None:
                raise EmptyStratum(
                    f"record {r.verse_id} has no {stratify_by!r} label"
                )
        strata.setdefault(key, []).append(idx)
    for key, members in strata.items():
        if not members:
            raise EmptyStratum(str(key))

    train_idx: set[int] = set()
    for key in strata:  # insertion order = first appearance, stable
        members = strata[key]
        perm = rng.permutation(len(members))
        n_train = math.floor(len(members) * ratio)
        train_idx.update(members[i] for i in perm[:n_train])

    train = tuple(r for i, r in enumerate(corpus.records) if i in train_idx)
    val = tuple(r for i, r in enumerate(corpus.records) if i not in train_idx)
    return (
        CorpusStore(train, f"{corpus.provenance}|train"),
        CorpusStore(val, f"{corpus.provenance}|val"),
    )


def task_label(record: VerseRecord, task_id: str) -> Optional[str]:
    """The record's label for a task, or None when the record is unlabeled for it."""
    task = _TASK_BY_LOWER.get(task_id.lower()) or taxonomy(task_id).task_id  # taxonomy raises UnknownLabel
    if task == "SentimentT":
        if record.topic is None:
            return None
        try:
            return group_sentiment(record.topic)
        except UnmappedTopic:
            return None
    if task == "MeterClassical":
        return record.meter if record.meter in CLASSICAL_METERS else None
    if task == "MeterAll":
        return record.meter
    if task == "SubMeter":
        if record.meter is None or record.variant is None:
            return None
        combined = f"{record.meter} {record.variant}"
        return combined if combined in SUB_METERS else None
    if task == "Gender":
        return record.gender
    return record.rhyme
