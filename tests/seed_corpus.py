"""The stratified ``split``, the raising ``group_sentiment``, the per-task
``task_label`` and ``generate_synthetic`` that ``corpus`` replaced, kept
verbatim as oracles, with the task tables they read.

Without ``stratify_by`` this ``split`` must give the membership and order of
``corpus.split``; this ``task_label`` the label of ``corpus.task_label`` for
every record whose values are in the taxonomies, and every task; and this
``generate_synthetic`` the records of ``corpus.generate_synthetic``.
``EmptyStratum`` and ``UnmappedTopic`` left the package with them and are
defined here.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from versebert.corpus import (
    ALL_METERS,
    CLASSICAL_METERS,
    GENDERS,
    RHYMES,
    SENTIMENT_BY_TOPIC,
    SENTIMENTS,
    SUB_METERS,
    CorpusStore,
    VerseRecord,
    taxonomy,
)
from versebert.errors import InvalidConfig, VerseBertError

TASK_IDS = ("SentimentT", "MeterClassical", "MeterAll", "SubMeter", "Gender", "Rhyme")
_TASK_LABELS = {
    "SentimentT": SENTIMENTS,
    "MeterClassical": CLASSICAL_METERS,
    "MeterAll": ALL_METERS,
    "SubMeter": SUB_METERS,
    "Gender": GENDERS,
    "Rhyme": RHYMES,
}
_TASK_BY_LOWER = {t.lower(): t for t in TASK_IDS}


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


# Synthetic corpus generation. Verses are built from a 10-letter alphabet:
# filler words (2-4 letters, never two equal adjacent letters), one
# class-marker word per verse for marker tasks (doubled-letter pattern,
# disjoint from fillers by construction), and for the rhyme task a final
# single-letter word that IS the label.
_SYNTH_ALPHABET = tuple("ابتثجحخدذر")
_TYPES_BY_SENTIMENT = {
    "Anger": ("Slander",),
    "Love": ("Romantic", "Parting", "Longing", "Spinning"),
    "Spirituality": ("Religious", "Invocation", "Mercy"),
    "Sadness": ("Elegy",),
}
_FILLER_POOL_SIZE = 60


def _filler_pool(rng: np.random.Generator) -> list[str]:
    pool: list[str] = []
    seen = set()
    while len(pool) < _FILLER_POOL_SIZE:
        length = int(rng.integers(2, 5))
        chars = [str(rng.choice(_SYNTH_ALPHABET))]
        while len(chars) < length:
            c = str(rng.choice(_SYNTH_ALPHABET))
            if c != chars[-1]:
                chars.append(c)
        word = "".join(chars)
        if word not in seen:
            seen.add(word)
            pool.append(word)
    return pool


def _marker_word(k: int) -> str:
    a = _SYNTH_ALPHABET[k // len(_SYNTH_ALPHABET)]
    b = _SYNTH_ALPHABET[k % len(_SYNTH_ALPHABET)]
    return a * 2 + b * 2


def generate_synthetic(n: int, seed: int, signal: str) -> CorpusStore:
    """Generate n verses with a perfectly learnable label planted for ``signal``.

    Labels cycle over the task's classes (balanced to within one record). The
    rhyme label equals the verse's final letter; every other task plants a
    class-specific marker word. Pure function of (n, seed, signal).
    """
    if n <= 0:
        raise InvalidConfig(f"n must be positive, got {n}")
    task = taxonomy(signal).task_id
    rng = np.random.default_rng(seed)
    pool = _filler_pool(rng)

    if task == "Rhyme":
        classes: tuple[str, ...] = _SYNTH_ALPHABET
    else:
        classes = _TASK_LABELS[task]

    records = []
    for i in range(n):
        k = i % len(classes)
        n_fillers = int(rng.integers(4, 12))
        words = [pool[int(rng.integers(0, len(pool)))] for _ in range(n_fillers)]

        fields: dict[str, Optional[str]] = {}
        if task == "Rhyme":
            letter = classes[k]
            words.append(letter)
            fields["rhyme"] = letter
            single = False
        else:
            words.insert(int(rng.integers(0, len(words) + 1)), _marker_word(k))
            single = rng.random() < 0.1
            if task == "SentimentT":
                sentiment = classes[k]
                types = _TYPES_BY_SENTIMENT[sentiment]
                fields["topic"] = str(rng.choice(types)) + " Poems"
            elif task == "MeterClassical" or task == "MeterAll":
                fields["meter"] = classes[k]
            elif task == "SubMeter":
                meter, variant = classes[k].rsplit(" ", 1)
                fields["meter"] = meter
                fields["variant"] = variant
            elif task == "Gender":
                fields["gender"] = classes[k]

        if single:
            h1, h2 = " ".join(words), None
        else:
            cut = max(1, len(words) // 2)
            h1, h2 = " ".join(words[:cut]), " ".join(words[cut:])
        records.append(VerseRecord(verse_id=i, hemistich1=h1, hemistich2=h2, **fields))
    return CorpusStore(tuple(records), provenance=f"synthetic({seed})")
