"""The classifier set-up that ``evaluate`` and ``predict`` share, and classification
metrics: confusion matrices, per-class P/R/F1, macro and support-weighted averages,
and report serialization (JSON, aligned text table, confusion CSV).

Conventions: rows of the confusion matrix are true labels, columns are
predictions; any 0/0 ratio is defined as 0; the weighted F1 is the
support-weighted mean of per-class F1 values (not derived from weighted P/R).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import autograd as ag
from . import model as mdl
from . import preprocess
from .corpus import CorpusStore, LabelTaxonomy, task_pairs
from .errors import EmptyCorpus, LabelOutOfRange, LengthMismatch
from .tokenizer import Vocab, encode

# Sequences per forward pass in predict_corpus: scoring a whole corpus in one
# batch would hold every layer's activations for all of it at once. Chunks of
# the length-sorted corpus pad only to their own longest verse.
EVAL_CHUNK = 32


@dataclass(frozen=True)
class ClassMetrics:
    label: str
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class EvalReport:
    task_id: str
    per_class: tuple[ClassMetrics, ...]
    accuracy: float
    macro_avg: tuple[float, float, float]
    weighted_avg: tuple[float, float, float]
    confusion: np.ndarray
    total_samples: int

    def to_dict(self) -> dict:
        metrics = ("precision", "recall", "f1")
        return {
            "task_id": self.task_id,
            "per_class": [asdict(c) for c in self.per_class],
            "accuracy": self.accuracy,
            "macro_avg": dict(zip(metrics, self.macro_avg)),
            "weighted_avg": dict(zip(metrics, self.weighted_avg)),
            "confusion": self.confusion.tolist(),
            "total_samples": self.total_samples,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), ensure_ascii=False, indent=2, sort_keys=True)

    def format_table(self) -> str:
        """Aligned text table: Class, Precision, Recall, F1-Score, Number of Samples."""
        rows = [("Class", "Precision", "Recall", "F1-Score", "Number of Samples")]
        for c in self.per_class:
            rows.append((c.label, f"{c.precision:.4f}", f"{c.recall:.4f}", f"{c.f1:.4f}", str(c.support)))
        rows.append(("", "", "", "", ""))
        rows.append(("Accuracy", "", "", f"{self.accuracy:.4f}", str(self.total_samples)))
        rows.append(
            ("Macro Avg", f"{self.macro_avg[0]:.4f}", f"{self.macro_avg[1]:.4f}", f"{self.macro_avg[2]:.4f}", str(self.total_samples))
        )
        rows.append(
            ("Weighted Avg", f"{self.weighted_avg[0]:.4f}", f"{self.weighted_avg[1]:.4f}", f"{self.weighted_avg[2]:.4f}", str(self.total_samples))
        )
        widths = [max(len(r[i]) for r in rows) for i in range(5)]
        return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows)

    def confusion_csv(self) -> str:
        labels = [c.label for c in self.per_class]
        lines = ["true\\pred," + ",".join(labels)]
        for i, label in enumerate(labels):
            lines.append(label + "," + ",".join(str(int(v)) for v in self.confusion[i]))
        return "\n".join(lines) + "\n"


def confusion_matrix(preds, truths, num_classes: int) -> np.ndarray:
    """Count matrix with entry (t, p) = samples of true class t predicted as p."""
    preds = np.asarray(preds, dtype=np.int64)
    truths = np.asarray(truths, dtype=np.int64)
    if preds.shape != truths.shape:
        raise LengthMismatch(f"{preds.shape} predictions vs {truths.shape} truths")
    bad = np.flatnonzero((truths < 0) | (truths >= num_classes) | (preds < 0) | (preds >= num_classes))
    if bad.size:
        t, p = truths[bad[0]], preds[bad[0]]
        raise LabelOutOfRange(f"label pair ({t}, {p}) outside [0, {num_classes})")
    counts = np.bincount(truths * num_classes + preds, minlength=num_classes * num_classes)
    return counts.reshape(num_classes, num_classes)


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def prf_report(confusion: np.ndarray, taxonomy: LabelTaxonomy) -> EvalReport:
    """Per-class precision/recall/F1 with macro and support-weighted averages."""
    confusion = np.asarray(confusion)
    if confusion.ndim != 2 or confusion.shape[0] != confusion.shape[1]:
        raise LengthMismatch(f"confusion matrix must be square, got {confusion.shape}")
    k = confusion.shape[0]
    if k != taxonomy.num_labels:
        raise LengthMismatch(f"{k}x{k} matrix vs {taxonomy.num_labels} labels")

    total = int(confusion.sum())
    per_class = []
    for c in range(k):
        tp = float(confusion[c, c])
        col = float(confusion[:, c].sum())
        row = float(confusion[c, :].sum())
        precision = _safe_div(tp, col)
        recall = _safe_div(tp, row)
        f1 = _safe_div(2 * precision * recall, precision + recall)
        per_class.append(ClassMetrics(taxonomy.name(c), precision, recall, f1, int(row)))

    accuracy = _safe_div(float(np.trace(confusion)), total)
    macro = tuple(
        sum(getattr(c, m) for c in per_class) / k for m in ("precision", "recall", "f1")
    )
    weighted = tuple(
        _safe_div(sum(getattr(c, m) * c.support for c in per_class), total)
        for m in ("precision", "recall", "f1")
    )
    return EvalReport(
        task_id=taxonomy.task_id,
        per_class=tuple(per_class),
        accuracy=accuracy,
        macro_avg=macro,
        weighted_avg=weighted,
        confusion=confusion.astype(np.int64),
        total_samples=total,
    )


def classifier(ckpt, taxonomy: LabelTaxonomy, vocab: Vocab):
    """(model config, ``seqs -> logits``) of ``ckpt``'s head for ``taxonomy``, served with ``vocab``,
    the one set-up of ``evaluate`` and ``predict``, which copies no array and keeps the freed heap for the
    next forward pass (``ag.keep_freed_heap``, as training does). Another vocab raises ``DigestMismatch``;
    a missing head, or one whose outputs are not the task's labels, raises ``LabelOutOfRange``."""
    ckpt.check_vocab(vocab)
    if taxonomy.task_id not in ckpt.head_tasks():
        raise LabelOutOfRange(f"checkpoint has no head for task {taxonomy.task_id}")
    config, params = ckpt.model_config, ckpt.to_params()
    head = params.heads[taxonomy.task_id]
    if (outputs := head[1].shape[0]) != taxonomy.num_labels:
        raise LabelOutOfRange(f"checkpoint head for {taxonomy.task_id} has {outputs} outputs, "
                              f"the task has {taxonomy.num_labels} labels")
    ag.keep_freed_heap()
    return config, lambda seqs: mdl.predict_logits(seqs, config, params, head)


def predict_corpus(ckpt, corpus: CorpusStore, taxonomy: LabelTaxonomy, vocab: Vocab):
    """(preds, truths) id lists in corpus order over the records that carry the task
    label, scored ``EVAL_CHUNK`` per forward pass in a stable sort by real length.
    A corpus with no such record raises ``EmptyCorpus``."""
    config, logits_of = classifier(ckpt, taxonomy, vocab)
    seqs, truths = [], []
    for record, label in task_pairs(corpus, taxonomy.task_id):
        seqs.append(encode(preprocess.preprocess_verse(record).line, vocab, config.max_len))
        truths.append(taxonomy.index(label))
    if not seqs:
        raise EmptyCorpus(f"{corpus.provenance}: no record has a {taxonomy.task_id} label")
    order = np.argsort([s.length for s in seqs], kind="stable")
    preds = np.zeros(len(seqs), dtype=np.int64)
    for i in range(0, len(order), EVAL_CHUNK):
        rows = order[i : i + EVAL_CHUNK]
        preds[rows] = np.argmax(logits_of([seqs[r] for r in rows]), axis=1)
    return preds.tolist(), truths


def evaluate(ckpt, corpus: CorpusStore, taxonomy: LabelTaxonomy, vocab: Vocab) -> EvalReport:
    """Classify every labeled record and assemble the full report."""
    preds, truths = predict_corpus(ckpt, corpus, taxonomy, vocab)
    matrix = confusion_matrix(preds, truths, taxonomy.num_labels)
    return prf_report(matrix, taxonomy)
