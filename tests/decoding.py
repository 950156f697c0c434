"""Piece ids back to text, for the tokenizer round-trip tests."""

from __future__ import annotations

from versebert.errors import VerseBertError
from versebert.tokenizer import CLS_ID, CONTINUATION, PAD_ID, SEP_ID, Vocab


class IdOutOfRange(VerseBertError):
    pass


def decode(ids, vocab: Vocab) -> str:
    """Reassemble text from piece ids, fusing ``##`` continuations.

    [CLS]/[SEP]/[PAD] are dropped; other reserved tokens render literally.
    """
    words: list[str] = []
    for i in ids:
        i = int(i)
        if not 0 <= i < len(vocab):
            raise IdOutOfRange(f"id {i} out of range for vocab of {len(vocab)}")
        if i in (CLS_ID, SEP_ID, PAD_ID):
            continue
        token = vocab.tokens[i]
        if token.startswith(CONTINUATION) and words:
            words[-1] += token[len(CONTINUATION):]
        else:
            words.append(token)
    return " ".join(words)
