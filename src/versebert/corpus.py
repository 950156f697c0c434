"""Verse corpus handling: loading, validation, sentiment grouping, splits, synthesis.

Corpus files are UTF-8 tab-separated text with a header
row naming a subset of the record fields; an empty cell means the field is
absent. Label taxonomies (meters, variants, rhymes, sentiments, genders) are
fixed module data with stable orderings so integer class ids never drift
between runs. One table, ``_TASKS``, gives each task its labels and the
record field that carries them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import preprocess
from .errors import CorruptFile, InvalidConfig, LabelOutOfRange, MalformedRow, MissingColumn, UnknownLabel

# Meter names, classical (16) then non-classical (12); orderings are by
# decreasing corpus frequency and are frozen.
CLASSICAL_METERS = (
    "Taweel", "Kamel", "Baseet", "Khafif", "Wafer", "Rajaz", "Ramel",
    "Mutaqarib", "Saree", "Munsarih", "Mujtath", "Hazaj", "Madeed",
    "Mutadarak", "Muqtadab", "Mudari",
)
NON_CLASSICAL_METERS = (
    "Muashah", "Free form", "Colloquial", "Doubeet", "Mawalia", "Masehube",
    "Selselah", "Zajal", "Kankan", "Hajini", "Sakhri", "Luaihani",
)
ALL_METERS = CLASSICAL_METERS + NON_CLASSICAL_METERS

# The seven recognized meter variants.
VARIANTS = ("Complete", "Majzuu", "Mashture", "Manhuk", "Maktuu", "Ahuth", "Mukhala")

# The 25 meter-variant combinations kept for the sub-meter task, alphabetical.
SUB_METERS = (
    "Baseet Complete", "Baseet Mukhala", "Hazaj Majzuu", "Kamel Ahuth",
    "Kamel Complete", "Kamel Majzuu", "Khafif Complete", "Khafif Majzuu",
    "Madeed Majzuu", "Mudari Majzuu", "Mujtath Majzuu", "Munsarih Complete",
    "Muqtadab Majzuu", "Mutadarak Complete", "Mutadarak Mashture",
    "Mutaqarib Complete", "Rajaz Complete", "Rajaz Majzuu", "Rajaz Mashture",
    "Ramel Complete", "Ramel Majzuu", "Saree Complete", "Taweel Complete",
    "Wafer Complete", "Wafer Majzuu",
)

# 28 Arabic letters in alphabetical order, then the three letter-variant
# rhymes (Laa, Taa Marbutah, Waw Hamza). Label strings are the characters
# themselves.
ARABIC_LETTERS = tuple("ابتثجحخدذرزسشصضطظعغفقكلمنهوي")
RHYMES = ARABIC_LETTERS + ("لا", "ة", "ؤ")

SENTIMENTS = ("Anger", "Love", "Spirituality", "Sadness")
GENDERS = ("Female", "Male")

# Poem-type -> grouped emotion. Keys are the bare type names; ``group_sentiment``
# also accepts the "<Type> Poems" form.
SENTIMENT_BY_TOPIC = {
    "Slander": "Anger",
    "Romantic": "Love",
    "Parting": "Love",
    "Longing": "Love",
    "Spinning": "Love",
    "Religious": "Spirituality",
    "Invocation": "Spirituality",
    "Mercy": "Spirituality",
    "Elegy": "Sadness",
}

# Task -> (labels in class-id order, the record field that carries them). A
# SentimentT label groups the topic's poem type; SubMeter joins meter and variant.
_TASKS = {
    "SentimentT": (SENTIMENTS, "topic"),
    "MeterClassical": (CLASSICAL_METERS, "meter"),
    "MeterAll": (ALL_METERS, "meter"),
    "SubMeter": (SUB_METERS, "variant"),
    "Gender": (GENDERS, "gender"),
    "Rhyme": (RHYMES, "rhyme"),
}
TASK_IDS = tuple(_TASKS)
_LABEL_SETS = {task: frozenset(labels) for task, (labels, _) in _TASKS.items()}


@dataclass(frozen=True)
class LabelTaxonomy:
    """Ordered label set for one classification task; name <-> id is a bijection."""

    task_id: str
    labels: tuple[str, ...]
    label_index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "label_index", {n: i for i, n in enumerate(self.labels)})

    @property
    def num_labels(self) -> int:
        return len(self.labels)

    def index(self, name: str) -> int:
        try:
            return self.label_index[name]
        except KeyError:
            raise LabelOutOfRange(f"label {name!r} is not in task {self.task_id}") from None

    def name(self, idx: int) -> str:
        if not 0 <= idx < len(self.labels):
            raise LabelOutOfRange(f"label id {idx} out of range for task {self.task_id}")
        return self.labels[idx]


_TASK_BY_LOWER = {t.lower(): t for t in TASK_IDS}


def taxonomy(task_id: str) -> LabelTaxonomy:
    """Look up a task taxonomy; task names are case-insensitive."""
    canonical = _TASK_BY_LOWER.get(task_id.lower())
    if canonical is None:
        raise UnknownLabel(f"unknown task id {task_id!r}; expected one of {TASK_IDS}")
    return LabelTaxonomy(canonical, _TASKS[canonical][0])


FIELDS = (
    "verse_id", "hemistich1", "hemistich2", "meter", "variant", "rhyme",
    "poet_name", "gender", "era", "topic",
)


@dataclass(frozen=True)
class VerseRecord:
    verse_id: int
    hemistich1: str
    hemistich2: Optional[str] = None
    meter: Optional[str] = None
    variant: Optional[str] = None
    rhyme: Optional[str] = None
    poet_name: Optional[str] = None
    gender: Optional[str] = None
    era: Optional[str] = None
    topic: Optional[str] = None


@dataclass(frozen=True)
class CorpusStore:
    """Immutable record collection; safe for concurrent reads."""

    records: tuple[VerseRecord, ...]
    provenance: str


_LABEL_DOMAINS = {
    "meter": ALL_METERS,
    "variant": VARIANTS,
    "rhyme": RHYMES,
    "gender": GENDERS,
}


def load_corpus(path) -> CorpusStore:
    """Parse a corpus file into records; verse_ids are assigned sequentially from 0.

    Raises ``CorruptFile`` if the file is not UTF-8, ``MissingColumn`` when the header lacks hemistich1,
    ``MalformedRow`` on an unknown or repeated column or a wrong field count, and ``UnknownLabel`` when a
    closed-taxonomy column (meter, variant, rhyme, gender) holds an unrecognized value.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            rows = [line.rstrip("\n") for line in fh]
    except UnicodeDecodeError as exc:
        raise CorruptFile(f"corpus file {path}: {exc}") from exc
    if not rows:
        raise MissingColumn("empty file: header with 'hemistich1' required")
    header = rows[0].split("\t")
    for i, col in enumerate(header):
        if col not in FIELDS or col in header[:i]:
            raise MalformedRow(f"line 1: unknown or repeated column {col!r}")
    if "hemistich1" not in header:
        raise MissingColumn("hemistich1")

    records = []
    next_id = 0
    for lineno, row in enumerate(rows[1:], start=2):
        if row == "":
            continue
        cells = row.split("\t")
        if len(cells) != len(header):
            raise MalformedRow(
                f"line {lineno}: expected {len(header)} fields, got {len(cells)}"
            )
        values = {col: cell for col, cell in zip(header, cells) if cell != ""}
        if "hemistich1" not in values:
            raise MalformedRow(f"line {lineno}: empty hemistich1")
        for col, domain in _LABEL_DOMAINS.items():
            val = values.get(col)
            if val is not None and val not in domain:
                raise UnknownLabel(f"line {lineno}: {col}={val!r}")
        values.pop("verse_id", None)
        records.append(VerseRecord(verse_id=next_id, **values))
        next_id += 1
    return CorpusStore(tuple(records), provenance=str(path))


def write_corpus(store: CorpusStore, path) -> None:
    """Write all fields with a full header; absent fields become empty cells.
    A failed write keeps the old file."""
    with preprocess.atomic_text_file(path) as fh:
        fh.write("\t".join(FIELDS) + "\n")
        for r in store.records:
            cells = [str(getattr(r, f)) if getattr(r, f) is not None else "" for f in FIELDS]
            fh.write("\t".join(cells) + "\n")


def group_sentiment(topic: str) -> Optional[str]:
    """The grouped emotion of a poem-type name, or None for a type the table lacks."""
    return SENTIMENT_BY_TOPIC.get(topic.strip().removesuffix(" Poems"))


def split(corpus: CorpusStore, ratio: float, seed: int) -> tuple[CorpusStore, CorpusStore]:
    """Deterministic train/val partition: the first floor(n*ratio) indices of a
    seeded permutation go to train. Output stores preserve corpus order;
    membership depends only on (corpus, ratio, seed).
    """
    if not 0 < ratio < 1:
        raise InvalidConfig(f"ratio must be in (0, 1), got {ratio}")
    if seed < 0:
        raise InvalidConfig(f"split seed must be non-negative, got {seed}")
    n = len(corpus.records)
    in_train = np.zeros(n, dtype=bool)
    in_train[np.random.default_rng(seed).permutation(n)[: math.floor(n * ratio)]] = True
    return (
        CorpusStore(tuple(r for r, t in zip(corpus.records, in_train) if t), f"{corpus.provenance}|train"),
        CorpusStore(tuple(r for r, t in zip(corpus.records, in_train) if not t), f"{corpus.provenance}|val"),
    )


def task_label(record: VerseRecord, task_id: str) -> Optional[str]:
    """The record's label for a task, or None when it holds none of the task's labels."""
    task = _TASK_BY_LOWER.get(task_id.lower()) or taxonomy(task_id).task_id  # taxonomy raises UnknownLabel
    value = getattr(record, _TASKS[task][1])
    if value is None:
        return None
    if task == "SentimentT":
        value = group_sentiment(value)
    elif task == "SubMeter":
        value = f"{record.meter} {value}"
    return value if value in _LABEL_SETS[task] else None


def task_pairs(corpus: CorpusStore, task_id: str) -> list[tuple[VerseRecord, str]]:
    """(record, label) pairs for records that carry the task's label."""
    pairs = []
    for r in corpus.records:
        label = task_label(r, task_id)
        if label is not None:
            pairs.append((r, label))
    return pairs


# Synthetic corpus generation. Verses are built from a 10-letter alphabet:
# filler words (2-4 letters, never two equal adjacent letters), one
# class-marker word per verse for marker tasks (doubled-letter pattern,
# disjoint from fillers by construction), and for the rhyme task a final
# single-letter word that IS the label.
_SYNTH_ALPHABET = tuple("ابتثجحخدذر")
_TYPES_BY_SENTIMENT = {
    s: tuple(t for t, grouped in SENTIMENT_BY_TOPIC.items() if grouped == s) for s in SENTIMENTS
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
    if n <= 0 or seed < 0:
        raise InvalidConfig(f"n must be positive and seed non-negative, got n={n}, seed={seed}")
    task = taxonomy(signal).task_id
    labels, label_field = _TASKS[task]
    rng = np.random.default_rng(seed)
    pool = _filler_pool(rng)
    classes = _SYNTH_ALPHABET if task == "Rhyme" else labels

    records = []
    for i in range(n):
        k = i % len(classes)
        n_fillers = int(rng.integers(4, 12))
        words = [pool[int(rng.integers(0, len(pool)))] for _ in range(n_fillers)]

        fields: dict[str, Optional[str]] = {}
        value = classes[k]
        if task == "Rhyme":
            words.append(value)
            single = False
        else:
            words.insert(int(rng.integers(0, len(words) + 1)), _marker_word(k))
            single = rng.random() < 0.1
        if task == "SentimentT":
            value = str(rng.choice(_TYPES_BY_SENTIMENT[value])) + " Poems"
        elif task == "SubMeter":
            fields["meter"], value = value.rsplit(" ", 1)
        fields[label_field] = value

        if single:
            h1, h2 = " ".join(words), None
        else:
            cut = max(1, len(words) // 2)
            h1, h2 = " ".join(words[:cut]), " ".join(words[cut:])
        records.append(VerseRecord(verse_id=i, hemistich1=h1, hemistich2=h2, **fields))
    return CorpusStore(tuple(records), provenance=f"synthetic({seed})")
