"""The gradient bookkeeping that kept-buffer gradients (since removed) and
row-sparse table gradients replaced, and the ops whose backward copied every
gradient they passed on, kept as oracles for the equivalence tests.

Here ``zero_grad`` drops a gradient for good, and each backward allocates
every first gradient afresh: a weight's in ``matmul``, the embedding table's
in ``_scatter_add`` and any other in ``_accumulate``. The program's backward,
which gives a table a row-sparse gradient that AdamW adds at its rows alone,
must give the same bits. Patch these over the ``versebert.autograd`` names (and
``Tensor.zero_grad``; the table's gradient goes to ``_scatter_add`` in place
of ``_lookup_grad``) to run the old path.

The ops below ``install`` copy or freshly allocate each gradient they hand
down, and ``gelu`` is the tanh form. Handing a gradient down in place must
give the same bits; only the one-``exp`` GELU may differ, within rounding.
"""

from __future__ import annotations

import math

import numpy as np

from versebert.autograd import Tensor, _record, _unbroadcast
from versebert.errors import EmptyReduction, LabelOutOfRange, ShapeMismatch
from versebert.model import IGNORE_INDEX

import tape_ops


def zero_grad(self) -> None:
    self.grad = None


def _accumulate(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g if owned else np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _scatter_add(t: Tensor, idx, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    if isinstance(idx, int):
        t.grad[idx] += g
    elif idx.size:
        order = np.argsort(idx, kind="stable")
        rows = idx[order]
        starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        t.grad[rows[starts]] += np.add.reduceat(g[order], starts, axis=0)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2] or (
        b.data.ndim > 2 and a.shape[:-2] != b.shape[:-2]
    ):
        raise ShapeMismatch(f"matmul: {a.shape} @ {b.shape}")
    a_data, b_data = a.data, b.data
    if b_data.ndim == 2:
        rows = a_data.reshape(-1, a.shape[-1])
        out = Tensor((rows @ b_data).reshape(a.shape[:-1] + b.shape[-1:]),
                     a.requires_grad or b.requires_grad)

        def fn(g):
            g_rows = g.reshape(-1, b.shape[-1])
            _accumulate(a, (g_rows @ b_data.T).reshape(a.shape), owned=True)
            _accumulate(b, rows.T @ g_rows, owned=True)
    else:
        out = Tensor(a_data @ b_data, a.requires_grad or b.requires_grad)

        def fn(g):
            _accumulate(a, g @ b_data.swapaxes(-1, -2), owned=True)
            _accumulate(b, a_data.swapaxes(-1, -2) @ g, owned=True)

    _record(out, fn)
    return out


def install(monkeypatch) -> None:
    """Swap the old bookkeeping in for the rest of a test."""
    from versebert import autograd

    monkeypatch.setattr(autograd.Tensor, "zero_grad", zero_grad)
    for fn in (_accumulate, _scatter_add, matmul):
        monkeypatch.setattr(autograd, fn.__name__, fn)
    monkeypatch.setattr(autograd, "_lookup_grad", _scatter_add)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape), a.requires_grad)
    _record(out, lambda g: _accumulate(a, g.reshape(a.shape)))
    return out


def permute(a: Tensor, axes) -> Tensor:
    """Reorder the axes of ``a`` (``numpy.transpose`` with explicit axes)."""
    axes = tuple(ax % a.data.ndim for ax in axes)
    out = Tensor(a.data.transpose(axes), a.requires_grad)
    inverse = tuple(np.argsort(axes))
    _record(out, lambda g: _accumulate(a, g.transpose(inverse)))
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeMismatch(f"add: {a.shape} + {b.shape}") from None
    out = Tensor(data, a.requires_grad or b.requires_grad)

    def fn(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    _record(out, fn)
    return out


def scale(a: Tensor, s: float) -> Tensor:
    out = Tensor(a.data * s, a.requires_grad)
    _record(out, lambda g: _accumulate(a, g * s, owned=True))
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize the last axis to zero mean/unit variance, then apply the affine pair."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeMismatch(f"layer_norm affine shapes {gain.shape}/{bias.shape} vs d={d}")
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    y = np.square(xhat)
    inv_std = 1.0 / np.sqrt(y.mean(axis=-1, keepdims=True) + eps)
    xhat *= inv_std
    np.multiply(xhat, gain.data, out=y)
    y += bias.data
    out = Tensor(y, x.requires_grad or gain.requires_grad or bias.requires_grad)
    gain_data = gain.data

    def fn(g):
        lead = tuple(range(g.ndim - 1))
        _accumulate(gain, (g * xhat).sum(axis=lead), owned=True)
        _accumulate(bias, g.sum(axis=lead), owned=True)
        if x.requires_grad:
            gx = g * gain_data
            term = xhat * (gx * xhat).mean(axis=-1, keepdims=True)
            gx -= gx.mean(axis=-1, keepdims=True)
            gx -= term
            gx *= inv_std
            _accumulate(x, gx, owned=True)

    _record(out, fn)
    return out


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh approximation."""
    # in place where possible: each fresh array costs page faults, not just arithmetic
    x_data = x.data
    x2 = x_data * x_data
    t = x2 * x_data
    t *= 0.044715
    t += x_data
    t *= _GELU_C
    np.tanh(t, out=t)
    y = t + 1.0
    y *= x_data
    y *= 0.5
    out = Tensor(y, x.requires_grad)

    def fn(g):
        du = x2 * (3 * 0.044715)
        du += 1.0
        du *= _GELU_C
        grad = t * t
        np.subtract(1.0, grad, out=grad)
        grad *= x_data
        grad *= 0.5
        grad *= du
        du = t + 1.0
        du *= 0.5
        grad += du
        grad *= g
        _accumulate(x, grad, owned=True)

    _record(out, fn)
    return out


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None = None, cut=None) -> Tensor:
    """Inverted dropout; identity when rate is 0. ``cut`` draws the mask as ``autograd.dropout`` does,
    which the encoder's row cut calls it with; only the gradient hand-off is the old one."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    drawn = rng.random(x.shape if cut is None else (cut[0], *x.shape[1:]))
    keep = ((drawn if cut is None else drawn[cut[1]]) >= rate) / (1.0 - rate)
    out = Tensor(x.data * keep, x.requires_grad)
    _record(out, lambda g: _accumulate(x, g * keep, owned=True))
    return out


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
        probs = np.exp(log_probs)
        grad = np.zeros_like(logits.data)
        grad[selected] = probs[selected]
        grad[selected, live] -= 1.0
        grad *= float(g) / m
        _accumulate(logits, grad, owned=True)

    _record(out, fn)
    return out


OPS = (reshape, permute, add, scale, layer_norm, gelu, dropout, cross_entropy)


def install_ops(monkeypatch) -> None:
    """Swap the old ops in for the rest of a test; ``reshape`` and ``permute`` over the ``tape_ops`` names,
    the others over the ``versebert.autograd`` names."""
    from versebert import autograd

    for fn in OPS:
        monkeypatch.setattr(tape_ops if fn in (reshape, permute) else autograd, fn.__name__, fn)
