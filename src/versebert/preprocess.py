"""Verse text normalization: diacritic removal, symbol filtering, hemistich markers.

The pipeline turns a raw verse (one or two hemistichs) into a single clean
line of the form ``"H1 [s] H2"``, or ``"H1 [s] [e]"`` when the second
hemistich is absent. Markers are padded with single spaces so downstream
tokenization sees them as standalone tokens.

The normalization functions are pure and stateless; the file helpers at the
end read and write line files.
"""

from __future__ import annotations

import os
import re
from contextlib import contextmanager
from dataclasses import dataclass

from .errors import CorruptFile, EmptyHemistich

HEMISTICH_SEP = "[s]"
EMPTY_SECOND = "[e]"

# Tanween/short vowels/shadda/sukun (U+064B..U+0652), dagger alif (U+0670),
# plus the decorative tatweel elongation (U+0640).
_DIACRITIC_RE = re.compile("[ً-ْٰـ]")

# Anything but a whitelisted letter (the Arabic block's hamza..yeh range plus
# alef wasla) or a space.
_NON_ARABIC_RE = re.compile("[^\u0621-\u064a\u0671 ]")
_SPACE_RUN_RE = re.compile(r" +")


def strip_diacritics(text: str) -> str:
    """Remove Arabic diacritic marks and tatweel; all other characters pass through."""
    return _DIACRITIC_RE.sub("", text)


def strip_symbols(text: str) -> str:
    """Whitelist filter: keep Arabic letters and spaces.

    Every other code point (digits, Latin letters, punctuation, marker
    brackets, ...) becomes a space; space runs collapse to one; the result is
    trimmed.
    """
    return _SPACE_RUN_RE.sub(" ", _NON_ARABIC_RE.sub(" ", text)).strip()


def mark_hemistichs(h1: str, h2: str | None = None) -> str:
    """Join cleaned hemistichs with the separator; absent second half becomes ``[e]``."""
    if not h1:
        raise EmptyHemistich("first hemistich is empty after normalization")
    if h2:
        return f"{h1} {HEMISTICH_SEP} {h2}"
    return f"{h1} {HEMISTICH_SEP} {EMPTY_SECOND}"


@dataclass(frozen=True)
class PreprocessedVerse:
    verse_id: int
    line: str


def clean_hemistich(text: str) -> str:
    """Diacritic strip then symbol strip for one hemistich.

    Marker substrings are not preserved here: a hemistich legitimately never
    contains them, so stray ``[s]``/``[e]`` noise dissolves instead of
    corrupting the one-separator structure of the final line.
    """
    return strip_symbols(strip_diacritics(text))


def preprocess_verse(record) -> PreprocessedVerse:
    """Apply the full normalization pipeline to one corpus record.

    A second hemistich that strips to empty is treated as absent.
    Raises ``EmptyHemistich`` when the first hemistich strips to empty.
    """
    h1 = clean_hemistich(record.hemistich1)
    h2 = clean_hemistich(record.hemistich2) if record.hemistich2 else ""
    return PreprocessedVerse(record.verse_id, mark_hemistichs(h1, h2 or None))


def preprocess_corpus(store) -> list[PreprocessedVerse]:
    return [preprocess_verse(r) for r in store.records]


def write_lines(verses: list[PreprocessedVerse], path) -> None:
    """Write ``verse_id<TAB>line`` rows, UTF-8; a failed write keeps the old file."""
    with atomic_text_file(path) as fh:
        for v in verses:
            fh.write(f"{v.verse_id}\t{v.line}\n")


def read_lines(path) -> list[str]:
    """Verse lines of a file of raw lines or ``verse_id<TAB>line`` rows; one not UTF-8 raises ``CorruptFile``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return verse_lines(fh)
    except UnicodeDecodeError as exc:
        raise CorruptFile(f"line file {path}: {exc}") from exc


def verse_lines(rows) -> list[str]:
    """Verse lines of raw or ``verse_id<TAB>line`` rows (an open file, say); empty rows are skipped."""
    out = []
    for raw in rows:
        raw = raw.rstrip("\n")
        if not raw:
            continue
        out.append(raw.split("\t", 1)[1] if "\t" in raw else raw)
    return out


@contextmanager
def atomic_text_file(path, binary: bool = False):
    """Yield a UTF-8 text file (a binary one with ``binary``) open on
    ``<path>.<pid>.tmp``. On a clean exit it is fsynced and renamed onto
    ``path``; on an error it is removed, so ``path`` never holds a partial file."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
