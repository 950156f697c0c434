"""Seeded input generators for the benchmark.

Only the standard library's ``random.Random`` is used, so a seed gives the
same bytes on every platform and numpy version.
"""

from __future__ import annotations

import bisect
import random

# The 28 letters of the Arabic alphabet, as in ``versebert.corpus.ARABIC_LETTERS``.
LETTERS = "ابتثجحخدذرزسشصضطظعغفقكلمنهوي"


def lexicon(rng: random.Random, n_types: int) -> list[str]:
    """``n_types`` distinct words in rank order; the word of rank r has
    3 + r % 4 letters, so every seed gives words of the same lengths."""
    # Letter frequencies are themselves Zipfian, so words share many pieces
    # and the WordPiece trainer has frequent pairs to merge.
    letter_cum = _cumulative([1.0 / (r + 1) for r in range(len(LETTERS))])
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < n_types:
        length = 3 + len(words) % 4
        word = "".join(LETTERS[_draw(rng, letter_cum)] for _ in range(length))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


ZIPF_EXPONENT = 1.1


def zipf_corpus(seed: int, n_lines: int, n_types: int) -> tuple[list[str], list[str]]:
    """A seeded lexicon in rank order, and preprocessed verse lines
    ``"H1 [s] H2"`` drawn from it.

    Word rank r is drawn with probability proportional to 1 / r**1.1 over
    the lexicon of ``n_types`` words; each line has 6 to 14 words.
    """
    rng = random.Random(seed)
    words = lexicon(rng, n_types)
    cum = _cumulative([1.0 / (r + 1) ** ZIPF_EXPONENT for r in range(n_types)])
    lines = []
    for _ in range(n_lines):
        k = rng.randint(6, 14)
        drawn = [words[_draw(rng, cum)] for _ in range(k)]
        cut = k // 2
        lines.append(" ".join(drawn[:cut]) + " [s] " + " ".join(drawn[cut:]))
    return words, lines


def _cumulative(weights: list[float]) -> list[float]:
    total = sum(weights)
    out, acc = [], 0.0
    for w in weights:
        acc += w / total
        out.append(acc)
    out[-1] = 1.0
    return out


def _draw(rng: random.Random, cum: list[float]) -> int:
    return bisect.bisect_left(cum, rng.random())
