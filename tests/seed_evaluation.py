"""The corpus scorer, symbol filter and confusion counter that the current
ones replaced, kept as oracles for the equivalence tests.

``predict_corpus`` scores the corpus in file-order chunks of ``EVAL_CHUNK``,
so each chunk is padded to its longest verse wherever that verse falls.
``_keep_arabic`` tests one character at a time in Python, and
``confusion_matrix`` counts one pair at a time.
"""

from __future__ import annotations

import re

import numpy as np

from versebert import model as mdl
from versebert import preprocess
from versebert.corpus import CorpusStore, LabelTaxonomy, task_label
from versebert.errors import DigestMismatch, LabelOutOfRange, LengthMismatch
from versebert.evaluation import EVAL_CHUNK
from versebert.preprocess import _SPACE_RUN_RE, strip_diacritics
from versebert.tokenizer import Vocab, encode

_MARKER_RE = re.compile(r"\[s\]|\[e\]")

# Whitelisted letters: the Arabic block's hamza..yeh range plus alef wasla.
_ARABIC_LO = 0x0621
_ARABIC_HI = 0x064A
_ALEF_WASLA = 0x0671


def _is_arabic_letter(ch: str) -> bool:
    code = ord(ch)
    return _ARABIC_LO <= code <= _ARABIC_HI or code == _ALEF_WASLA


def _keep_arabic(segment: str) -> str:
    return "".join(ch if _is_arabic_letter(ch) or ch == " " else " " for ch in segment)


def strip_symbols(text: str, keep_markers: bool = True) -> str:
    parts = []
    pos = 0
    if keep_markers:
        for m in _MARKER_RE.finditer(text):
            parts.append(_keep_arabic(text[pos : m.start()]))
            parts.append(" " + m.group() + " ")
            pos = m.end()
    parts.append(_keep_arabic(text[pos:]))
    return _SPACE_RUN_RE.sub(" ", "".join(parts)).strip()


def clean_hemistich(text: str) -> str:
    return strip_symbols(strip_diacritics(text), keep_markers=False)


def confusion_matrix(preds, truths, num_classes: int) -> np.ndarray:
    """Count matrix with entry (t, p) = samples of true class t predicted as p."""
    preds = np.asarray(preds, dtype=np.int64)
    truths = np.asarray(truths, dtype=np.int64)
    if preds.shape != truths.shape:
        raise LengthMismatch(f"{preds.shape} predictions vs {truths.shape} truths")
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    for t, p in zip(truths, preds):
        if not (0 <= t < num_classes and 0 <= p < num_classes):
            raise LabelOutOfRange(f"label pair ({t}, {p}) outside [0, {num_classes})")
        matrix[t, p] += 1
    return matrix


def predict_corpus(ckpt, corpus: CorpusStore, taxonomy: LabelTaxonomy, vocab: Vocab):
    """(pred_id, truth_id) pairs over the records that carry the task label,
    scored ``EVAL_CHUNK`` sequences per forward pass."""
    if ckpt.vocab_digest != vocab.digest():
        raise DigestMismatch("vocab content does not match the checkpoint's digest")
    if taxonomy.task_id not in ckpt.head_tasks():
        raise LabelOutOfRange(f"checkpoint has no head for task {taxonomy.task_id}")
    config = ckpt.model_config
    params = ckpt.to_params()
    head = params.heads[taxonomy.task_id]

    seqs, truths = [], []
    for record in corpus.records:
        label = task_label(record, taxonomy.task_id)
        if label is None:
            continue
        seqs.append(encode(preprocess.preprocess_verse(record).line, vocab, config.max_len))
        truths.append(taxonomy.index(label))
    preds = []
    for i in range(0, len(seqs), EVAL_CHUNK):
        preds += np.argmax(mdl.predict_logits(seqs[i : i + EVAL_CHUNK], config, params, head), axis=1).tolist()
    return preds, truths
