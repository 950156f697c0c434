"""The forward ops as they were before forward-only passes drew their large
arrays from the autograd scratch, and the positional table as it was before
it was cached, kept as the oracle for the scratch tests.

Each op here allocates every output and temporary afresh; otherwise the code
is unchanged, backward included. ``oracle_ops()`` swaps them over the
``versebert.autograd`` names (and ``model._positions`` for a table built on
every call) until it exits. It sets the attributes itself rather than through
``monkeypatch`` so that Hypothesis tests can enter it once per example.
"""

from __future__ import annotations

import contextlib

import numpy as np

from versebert import autograd as ag, model as mdl
from versebert.autograd import (_GELU_C, _GELU_CLIP, _GELU_TINY, Tensor, _accumulate, _record, _scatter_add,
                                _unbroadcast)
from versebert.errors import ShapeMismatch


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` over the last two axes. ``b`` is either one matrix shared by
    every leading index of ``a`` (a weight) or has ``a``'s leading axes."""
    if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2] or (
        b.data.ndim > 2 and a.shape[:-2] != b.shape[:-2]
    ):
        raise ShapeMismatch(f"matmul: {a.shape} @ {b.shape}")
    a_data, b_data = a.data, b.data
    if b_data.ndim == 2:
        # one GEMM over all leading rows instead of one per leading index
        rows = a_data.reshape(-1, a.shape[-1])
        out = Tensor((rows @ b_data).reshape(a.shape[:-1] + b.shape[-1:]),
                     a.requires_grad or b.requires_grad)

        def fn(g):
            g_rows = g.reshape(-1, b.shape[-1])
            _accumulate(a, (g_rows @ b_data.T).reshape(a.shape), owned=True)
            if b.grad is None and b._grad_buf is not None:  # the step's first weight gradient
                b.grad = np.matmul(rows.T, g_rows, out=b._grad_buf)
            else:
                _accumulate(b, rows.T @ g_rows, owned=True)
    else:
        out = Tensor(a_data @ b_data, a.requires_grad or b.requires_grad)

        def fn(g):
            _accumulate(a, g @ b_data.swapaxes(-1, -2), owned=True)
            _accumulate(b, a_data.swapaxes(-1, -2) @ g, owned=True)

    _record(out, fn)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeMismatch(f"add: {a.shape} + {b.shape}") from None
    out = Tensor(data, a.requires_grad or b.requires_grad)

    def fn(g):
        # g goes to one input of its full shape, after the other took a copy;
        # an input broadcast up to g's shape gets a fresh sum
        a_takes = a.requires_grad and a.shape == g.shape
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape), owned=not a_takes or b.shape != g.shape)
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape), owned=True)

    _record(out, fn)
    return out


def scale(a: Tensor, s: float) -> Tensor:
    out = Tensor(a.data * s, a.requires_grad)

    def fn(g):
        g *= s
        _accumulate(a, g, owned=True)

    _record(out, fn)
    return out


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    y = a.data - a.data.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    out = Tensor(y, a.requires_grad)

    def fn(g):
        grad = g * y
        np.subtract(g, grad.sum(axis=-1, keepdims=True), out=grad)
        grad *= y
        _accumulate(a, grad, owned=True)

    _record(out, fn)
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
        prod = g * xhat
        _accumulate(gain, prod.sum(axis=lead), owned=True)
        _accumulate(bias, g.sum(axis=lead), owned=True)
        if x.requires_grad:
            g *= gain_data  # g becomes x's gradient
            np.multiply(g, xhat, out=prod)
            np.multiply(xhat, prod.mean(axis=-1, keepdims=True), out=prod)
            g -= g.mean(axis=-1, keepdims=True)
            g -= prod
            g *= inv_std
            _accumulate(x, g, owned=True)

    _record(out, fn)
    return out


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh approximation, as the identity
    0.5 x (1 + tanh u) = x s, s = 1 / (1 + exp(-2u)), u = C (x + 0.044715 x^3).

    One ``exp``, and no overflow or underflow at 0 or any finite x with
    |x| >= 1e-300. When a backward will run, the array of the clipped input
    becomes the derivative s (1 + w (1 - s)), w = 2 x du/dx, and is kept, so
    the backward only scales its own gradient by it.
    """
    x_data = x.data
    needs_grad = x.requires_grad and ag._grad_enabled
    d = np.clip(x_data, -_GELU_CLIP, _GELU_CLIP)
    v = d + _GELU_TINY
    np.square(v, out=v)
    v *= 0.044715
    v += 1.0
    v *= d  # u / C
    if needs_grad:  # w = 2 C x (1 + 3 * 0.044715 x^2) = 6 C (u / C - 2x / 3)
        d *= -2.0 / 3.0
        d += v
        d *= 6.0 * _GELU_C
    v *= -2.0 * _GELU_C
    np.exp(v, out=v)  # e = exp(-2u)
    if needs_grad:  # with D = 1 + e: s (1 + w (1 - s)) = (1 + w e / D) / D
        d *= v
        v += 1.0
        d /= v
        d += 1.0
        d /= v
    else:
        v += 1.0
    y = np.divide(x_data, v, out=v)
    out = Tensor(y, x.requires_grad)

    def fn(g):
        g *= d
        _accumulate(x, g, owned=True)

    _record(out, fn)
    return out


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of ``table`` for an id array of any shape; the backward pass
    scatter-adds every row's gradient into the table at once."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeMismatch(f"embedding id out of range [0, {table.shape[0]})")
    out = Tensor(table.data[idx], table.requires_grad)

    def fn(g):
        _scatter_add(table, idx.reshape(-1), g.reshape(-1, table.shape[-1]))

    _record(out, fn)
    return out


OPS = ("matmul", "add", "scale", "softmax_rows", "layer_norm", "gelu", "embedding_lookup")


@contextlib.contextmanager
def oracle_ops():
    """Run the fresh-allocating ops, and a positional table built per call."""
    saved = {name: getattr(ag, name) for name in OPS}
    positions = mdl._positions
    try:
        for name in OPS:
            setattr(ag, name, globals()[name])
        mdl._positions = mdl.sinusoidal_table
        yield
    finally:
        for name, fn in saved.items():
            setattr(ag, name, fn)
        mdl._positions = positions


def predict_logits(seqs, config, params, head) -> np.ndarray:
    """Forward-only class logits through the fresh-allocating ops, on the
    same [CLS]-only last layer as ``model.predict_logits``."""
    with oracle_ops(), ag.no_grad():
        return mdl.classify(mdl.encoder_forward(*mdl.stack_batch(seqs), config, params, cls_only=True), *head).data
