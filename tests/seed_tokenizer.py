"""The WordPiece trainer and encoder that the current ones replaced, kept as
oracles for the differential tests.

The trainer recounts every unit and every adjacent pair over every word type
on each merge, then rescans every segmentation to apply the winner. Scores are
exact fractions and ties break on the smallest merged token. The encoder runs
the greedy longest-match loop for every word occurrence, with no memo.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from versebert.errors import EmptyCorpus
from versebert.tokenizer import (
    CLS_ID,
    CONTINUATION,
    FRAME_TOKENS,
    MAX_WORD_CHARS,
    PAD_ID,
    RESERVED,
    SEP_ID,
    UNK_ID,
    TokenSequence,
    Vocab,
    _word_counts,
)


def train_wordpiece(lines: list[str], target_size: int, min_frequency: int = 2) -> Vocab:
    """Train a WordPiece vocabulary on whitespace-tokenized lines.

    Reserved tokens occupy ids 0-6 and marker words are never trainable. The
    seed alphabet (both unit forms) is always retained, even if that alone
    exceeds ``target_size``.
    """
    word_freq = _word_counts(lines)
    if not word_freq:
        raise EmptyCorpus("no trainable words in corpus")

    alphabet = sorted({ch for word in word_freq for ch in word})
    tokens = list(RESERVED) + alphabet + [CONTINUATION + ch for ch in alphabet]
    segments = {w: [w[0]] + [CONTINUATION + ch for ch in w[1:]] for w in word_freq}

    while len(tokens) < target_size:
        unit_counts: Counter = Counter()
        pair_counts: Counter = Counter()
        for word, freq in word_freq.items():
            units = segments[word]
            for u in units:
                unit_counts[u] += freq
            for a, b in zip(units, units[1:]):
                pair_counts[(a, b)] += freq

        best_pair = None
        best_score = None
        best_merged = None
        for (a, b), count in pair_counts.items():
            if count < min_frequency:
                continue
            merged = a + b[len(CONTINUATION):]
            score = Fraction(count, unit_counts[a] * unit_counts[b])
            if (
                best_score is None
                or score > best_score
                or (score == best_score and merged < best_merged)
            ):
                best_pair, best_score, best_merged = (a, b), score, merged
        if best_pair is None:
            break

        tokens.append(best_merged)
        a, b = best_pair
        for word, units in segments.items():
            i = 0
            while i < len(units) - 1:
                if units[i] == a and units[i + 1] == b:
                    units[i : i + 2] = [best_merged]
                else:
                    i += 1
    return Vocab(tuple(tokens), target_size)


def wordpiece_word(word: str, vocab: Vocab) -> list[int]:
    """Greedy longest-match-first segmentation of one word into piece ids."""
    if len(word) > MAX_WORD_CHARS:
        return [UNK_ID]
    pieces = []
    start = 0
    while start < len(word):
        end = len(word)
        piece_id = None
        while start < end:
            piece = word[start:end]
            if start > 0:
                piece = CONTINUATION + piece
            piece_id = vocab.token_index.get(piece)
            if piece_id is not None:
                break
            end -= 1
        if piece_id is None:
            return [UNK_ID]
        pieces.append(piece_id)
        start = end
    return pieces


def encode(line: str, vocab: Vocab, max_len: int) -> TokenSequence:
    """Encode a preprocessed line as [CLS] pieces [SEP] with padding to max_len.

    A reserved word in the line keeps its id, except [PAD]/[CLS]/[SEP]: only
    the frame places those, so in the text they encode as [UNK].
    """
    piece_ids: list[int] = []
    for word in line.split():
        if word in RESERVED:
            piece_ids.append(UNK_ID if word in FRAME_TOKENS else vocab.token_index[word])
        else:
            piece_ids.extend(wordpiece_word(word, vocab))
    piece_ids = piece_ids[: max_len - 2]
    ids = [CLS_ID] + piece_ids + [SEP_ID]
    n_real = len(ids)
    ids.extend([PAD_ID] * (max_len - n_real))
    mask = [1] * n_real + [0] * (max_len - n_real)
    return TokenSequence(tuple(ids), tuple(mask), max_len)
