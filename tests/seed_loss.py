"""The cross-entropy with an ``ignore_index`` mask that the live-rows-only
``autograd.cross_entropy`` replaced, kept verbatim as an oracle.

On live targets both must give the same loss and logit-gradient bits. The
per-sequence MLM oracle in ``seed_model`` scores every position through this
one, with IGNORE_INDEX at the positions it does not score.
"""

from __future__ import annotations

import numpy as np

from versebert.autograd import Tensor, _accumulate, _record
from versebert.errors import EmptyReduction, LabelOutOfRange, ShapeMismatch
from versebert.model import IGNORE_INDEX


def cross_entropy(logits: Tensor, target_ids, ignore_index: int = IGNORE_INDEX) -> Tensor:
    """Mean negative log-likelihood over rows whose target is not ignored."""
    if logits.data.ndim != 2:
        raise ShapeMismatch(f"cross_entropy expects 2-D logits, got {logits.shape}")
    targets = np.asarray(target_ids, dtype=np.int64)
    if targets.shape != (logits.shape[0],):
        raise ShapeMismatch(f"targets {targets.shape} vs logits rows {logits.shape[0]}")
    selected = targets != ignore_index
    m = int(selected.sum())
    if m == 0:
        raise EmptyReduction("all targets ignored")
    n_classes = logits.shape[1]
    live = targets[selected]
    if live.min() < 0 or live.max() >= n_classes:
        raise LabelOutOfRange(f"target outside [0, {n_classes})")

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True)) + logits.data.max(axis=1, keepdims=True)
    log_probs = logits.data - logsumexp
    nll = -log_probs[selected, live]
    out = Tensor(np.float64(nll.mean()), logits.requires_grad)

    def fn(g):
        grad = np.exp(log_probs, out=log_probs)  # the probabilities, used once
        grad[~selected] = 0.0
        grad[selected, live] -= 1.0
        grad *= float(g) / m
        _accumulate(logits, grad, owned=True)

    _record(out, fn)
    return out
