"""WordPiece vocabulary training plus fixed-length encoding.

Training follows the standard likelihood-score merge rule: seed the vocabulary
with every observed character (word-initial and ``##``-continuation form),
then repeatedly merge the adjacent unit pair maximizing
``count(pair) / (count(first) * count(second))`` until the size budget is
exhausted or no pair reaches ``min_frequency``. Scores are compared as exact
integer keys (``_score_key``) that order and tie exactly as the fractions do,
and ties break on the lexicographically smallest merged token, so training is
fully deterministic.

The trainer is incremental, as in the BPE trainer of Sennrich et al. (2016).
It counts units and pairs once and keeps a pair -> word-type index and a
unit -> pairs index. The best pair comes off a lazy max-heap keyed on
``(-score, merged token, pair)``; an entry whose count or score no longer
matches the current counts is skipped when popped. A merge of ``(a, b)`` into
``m`` re-segments only the word types that hold the pair, so its cost is
proportional to their total length, plus one heap push for every pair that
contains ``a``, ``b`` or ``m``. Those are the pairs whose count changed and
the pairs rescored because ``count(a)`` and ``count(b)`` fell, which include
pairs in words the merge did not touch.

Encoding is greedy longest-match-first per word. Verse text is Zipfian, so
``encode`` memoises each word's piece ids on its ``Vocab`` and segments each
distinct word once; the memo is bounded by ``SEGMENT_CACHE_WORDS``.
"""

from __future__ import annotations

import hashlib
import heapq
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .errors import CorruptFile, EmptyCorpus, ShapeMismatch
from .preprocess import atomic_text_file

RESERVED = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]", "[s]", "[e]")
N_RESERVED = len(RESERVED)  # ids below it are special: never masked or drawn as replacements
PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID, S_ID, E_ID = range(N_RESERVED)
FRAME_TOKENS = ("[PAD]", "[CLS]", "[SEP]")  # placed only by ``encode``
CONTINUATION = "##"
MAX_WORD_CHARS = 100  # longer words fall back to [UNK]
# Words memoised per vocabulary. Past this, new words are still segmented but
# not stored, so a long stream of distinct words cannot grow memory unbounded.
SEGMENT_CACHE_WORDS = 65_536


@dataclass(frozen=True)
class Vocab:
    tokens: tuple[str, ...]
    target_size: int
    token_index: dict[str, int] = field(init=False, repr=False, compare=False)
    segment_cache: dict[str, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if tuple(self.tokens[:N_RESERVED]) != RESERVED:
            raise ValueError(f"ids 0-6 must be the reserved tokens {RESERVED}")
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("duplicate token in vocabulary")
        object.__setattr__(self, "token_index", {t: i for i, t in enumerate(self.tokens)})
        object.__setattr__(self, "segment_cache", {})  # word -> piece ids, filled by encode

    def __len__(self) -> int:
        return len(self.tokens)

    def digest(self) -> str:
        """Content hash of the canonical one-token-per-line serialization."""
        payload = ("\n".join(self.tokens) + "\n").encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def save(self, path) -> None:
        """Write one token per line to a temp file beside ``path``, then
        rename it into place, so ``path`` never holds a partial vocabulary."""
        with atomic_text_file(path) as fh:
            for t in self.tokens:
                fh.write(t + "\n")

    @classmethod
    def load(cls, path) -> "Vocab":
        """Read a saved vocabulary; a file that is not UTF-8 or breaks the
        reserved-prefix or uniqueness rule raises ``CorruptFile``."""
        try:
            with open(path, encoding="utf-8") as fh:
                tokens = tuple(line.rstrip("\n") for line in fh if line != "\n")
            return cls(tokens, len(tokens))
        except ValueError as exc:  # UTF-8 decode errors are ValueErrors too
            raise CorruptFile(f"vocab file {path}: {exc}") from exc


@dataclass(frozen=True)
class TokenSequence:
    ids: tuple[int, ...]
    attention_mask: tuple[int, ...]
    max_len: int

    @property
    def length(self) -> int:
        """Number of real (unpadded) positions."""
        return sum(self.attention_mask)


def _word_counts(lines: list[str]) -> Counter:
    counts: Counter = Counter()
    for line in lines:
        for word in line.split():
            if word in RESERVED:
                continue
            counts[word] += 1
    return counts


def _merge_units(units: list[str], a: str, b: str, merged: str) -> list[str]:
    """Replace every adjacent (a, b) in ``units``, scanning left to right, so
    an overlapping run such as a, a, a with a == b merges only its first two."""
    out = []
    i, n = 0, len(units)
    while i < n:
        if i + 1 < n and units[i] == a and units[i + 1] == b:
            out.append(merged)
            i += 2
        else:
            out.append(units[i])
            i += 1
    return out


def _score_shift(total_units: int) -> int:
    """The scale of ``_score_key`` for unit counts bounded by ``total_units``.

    Call the bound ``U0``. Each denominator ``first * second`` is at most
    ``U0**2``, and the difference of two distinct scores has a nonzero integer
    numerator over the product of their denominators, so it is at least
    ``1 / U0**4``. Scaled by ``2**shift > U0**4`` the scores differ by more
    than 1, so their floors keep the order, and equal scores give equal
    floors.
    """
    return 4 * total_units.bit_length()


def _score_key(count: int, first: int, second: int, shift: int) -> int:
    """The heap key of a pair: ``-count / (first * second)`` scaled by
    ``2**shift`` and floored, an integer that compares and ties exactly as the
    fraction does when ``shift`` comes from ``_score_shift``."""
    return -((count << shift) // (first * second))


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
    freqs = list(word_freq.values())
    segments = [[w[0]] + [CONTINUATION + ch for ch in w[1:]] for w in word_freq]

    unit_counts: Counter = Counter()
    pair_counts: Counter = Counter()
    words_with: dict[tuple[str, str], set[int]] = defaultdict(set)  # pair -> word ids
    pairs_with: dict[str, set[tuple[str, str]]] = defaultdict(set)  # unit -> pairs
    for i, (units, freq) in enumerate(zip(segments, freqs)):
        for u in units:
            unit_counts[u] += freq
        for pair in zip(units, units[1:]):
            pair_counts[pair] += freq
            words_with[pair].add(i)
    for pair in pair_counts:
        pairs_with[pair[0]].add(pair)
        pairs_with[pair[1]].add(pair)

    floor = max(min_frequency, 1)  # a pair whose count fell to 0 never merges
    # Merges only lower the unit total, so it bounds every unit and pair count.
    shift = _score_shift(sum(unit_counts.values()))

    def entry(pair):
        count = pair_counts[pair]
        if count < floor:
            return None
        a, b = pair
        return (_score_key(count, unit_counts[a], unit_counts[b], shift), a + b[len(CONTINUATION):], pair)

    heap = [e for e in map(entry, pair_counts) if e is not None]
    heapq.heapify(heap)
    live = {e[2]: e for e in heap}  # pair -> its current entry; other heap entries are stale
    while len(tokens) < target_size:
        while heap:
            best = heapq.heappop(heap)
            if live.get(best[2]) is best and best[1] not in RESERVED:  # no merge rebuilds a reserved token
                break
        else:
            break

        _, merged, (a, b) = best
        tokens.append(merged)
        delta: Counter = Counter()
        for i in words_with.pop((a, b)):
            units = segments[i]
            new = _merge_units(units, a, b, merged)
            if len(new) == len(units):  # the index keeps words that lost the pair
                continue
            freq = freqs[i]
            n = (len(units) - len(new)) * freq
            unit_counts[a] -= n
            unit_counts[b] -= n
            unit_counts[merged] += n
            for pair in zip(units, units[1:]):
                delta[pair] -= freq
            for pair in zip(new, new[1:]):
                delta[pair] += freq
                words_with[pair].add(i)
            segments[i] = new

        for pair, d in delta.items():
            pair_counts[pair] += d
            pairs_with[pair[0]].add(pair)
            pairs_with[pair[1]].add(pair)
        # Every pair whose count or score changed holds a, b or merged.
        for pair in pairs_with[a] | pairs_with[b] | pairs_with[merged]:
            e = entry(pair)
            if e is None:
                live.pop(pair, None)
            else:
                live[pair] = e
                heapq.heappush(heap, e)
        # Compact when stale entries outnumber live ones three to one: the heap
        # stays within a few times the live pairs without a rebuild every merge.
        if len(heap) > 4 * len(live):
            heap = list(live.values())
            heapq.heapify(heap)
    return Vocab(tuple(tokens), target_size)


def wordpiece_word(word: str, vocab: Vocab) -> list[int]:
    """Greedy longest-match-first segmentation of one word into piece ids, none reserved."""
    if len(word) > MAX_WORD_CHARS:
        return [UNK_ID]
    lookup = vocab.token_index.get
    pieces = []
    start = 0
    while start < len(word):
        end = len(word)
        while start < end:
            piece = word[start:end]
            if start > 0:
                piece = CONTINUATION + piece
            piece_id = lookup(piece)
            if piece_id is not None and piece_id > E_ID:  # ids 0-6 are whole words only
                break
            end -= 1
        if end == start:
            return [UNK_ID]
        pieces.append(piece_id)
        start = end
    return pieces


def _word_pieces(word: str, vocab: Vocab) -> tuple[int, ...]:
    """Piece ids of one word of a line, as ``encode`` describes."""
    if word in RESERVED:
        return (UNK_ID if word in FRAME_TOKENS else vocab.token_index[word],)
    return tuple(wordpiece_word(word, vocab))


def encode(line: str, vocab: Vocab, max_len: int) -> TokenSequence:
    """Encode a preprocessed line as [CLS] pieces [SEP] with padding to max_len.

    A reserved word in the line keeps its id, except [PAD]/[CLS]/[SEP]: only
    the frame places those, so in the text they encode as [UNK]. Each word's
    pieces come from ``vocab.segment_cache`` when it holds the word; otherwise
    the word is segmented, and stored while the cache holds fewer than
    ``SEGMENT_CACHE_WORDS`` words. ``max_len`` below 2 raises ``ShapeMismatch``.
    """
    if max_len < 2:
        raise ShapeMismatch(f"max_len must be at least 2 to hold [CLS] and [SEP], got {max_len}")
    cache = vocab.segment_cache
    ids = [CLS_ID]
    for word in line.split():
        pieces = cache.get(word)
        if pieces is None:
            pieces = _word_pieces(word, vocab)
            if len(cache) < SEGMENT_CACHE_WORDS:
                cache[word] = pieces
        ids += pieces
    del ids[max_len - 1:]
    ids.append(SEP_ID)
    n_real = len(ids)
    ids.extend([PAD_ID] * (max_len - n_real))
    mask = [1] * n_real + [0] * (max_len - n_real)
    return TokenSequence(tuple(ids), tuple(mask), max_len)
