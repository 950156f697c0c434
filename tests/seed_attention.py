"""The composed attention chain that the one ``ag.attention`` op replaced,
kept as the oracle for the equivalence tests.

``scaled_dot_attention`` records permute, matmul, scale, add, softmax_rows
and matmul; ``split_attend_merge`` adds the head split (reshape, permute,
``unstack``) before it and the merge (permute, reshape) after it, 22 tape
records per encoder layer with the two projections. ``attend_real_rows``
takes the encoder's packed real rows as the op does: on a batch with
padding, it puts the (N, 3d) projection into the (B, T) layout and takes the
merged rows back out with two more records, ``scatter_rows`` and
``take_rows``. The op must give the same output and the same input gradient,
bit for bit. ``unstack`` is the op the split used; its backward adds each
part's gradient into a zero-filled buffer, so a -0.0 arrives as +0.0. The two
batched products (QK^T and the weighting of V) go through
``seed_autograd.matmul``, which keeps the batched-operand form that
``ag.matmul`` dropped when attention became one op. ``multi_head_attention``
takes the arguments of ``model.multi_head_attention``, so a test can swap it
in.
"""

from __future__ import annotations

import math

import numpy as np

from versebert import autograd as ag
from versebert.autograd import Tensor
from versebert.errors import AllMasked, ShapeMismatch
from versebert.model import MASK_BIAS

from seed_autograd import _scatter_add, matmul
import tape_ops


def unstack(a: Tensor) -> list[Tensor]:
    """Split ``a`` along its first axis into ``a.shape[0]`` tensors."""
    outs = []
    for i in range(a.shape[0]):
        out = Tensor(a.data[i], a.requires_grad)
        ag._record(out, lambda g, i=i: _scatter_add(a, i, g))
        outs.append(out)
    return outs


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor, mask, return_weights: bool = False):
    if q.shape[-1] != k.shape[-1]:
        raise ShapeMismatch(f"query dim {q.shape} vs key dim {k.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeMismatch(f"key count {k.shape} vs value count {v.shape}")
    mask, keys = np.asarray(mask), k.shape[:-1]
    lead_ok = mask.ndim <= len(keys) and all(m in (1, n) for m, n in zip(mask.shape[-2::-1], keys[-2::-1]))
    if mask.shape[-1:] != keys[-1:] or not lead_ok:
        raise ShapeMismatch(f"mask shape {mask.shape} vs keys {keys}")
    if not mask.any(axis=-1).all():
        raise AllMasked("every key is masked; at least one must be attendable")
    k_t = tape_ops.permute(k, (*range(k.data.ndim - 2), -1, -2))
    scores = ag.scale(matmul(q, k_t), 1.0 / math.sqrt(q.shape[-1]))
    bias = Tensor(np.where(mask == 0, MASK_BIAS, 0.0)[..., None, :])
    weights = ag.softmax_rows(ag.add(scores, bias))
    out = matmul(weights, v)
    if return_weights:
        return out, weights
    return out


def split_attend_merge(qkv: Tensor, mask, num_heads: int) -> Tensor:
    """The chain between the QKV and output projections of ``multi_head_attention``:
    a (..., T, 3d) projection in, the merged (..., T, d) heads out."""
    *lead, t, width = qkv.shape
    n, d = len(lead), width // 3
    split = tape_ops.reshape(qkv, (*lead, t, 3, num_heads, d // num_heads))
    q, k, v = unstack(tape_ops.permute(split, (n + 1, *range(n), n + 2, n, n + 3)))
    heads = scaled_dot_attention(q, k, v, np.expand_dims(mask, -2))
    return tape_ops.reshape(tape_ops.permute(heads, (*range(n), n + 1, n, n + 2)), (*lead, t, d))


def scatter_rows(a: Tensor, rows, n: int) -> Tensor:
    """An n-row tensor holding ``a``'s rows at the row indices ``rows`` and zeros elsewhere."""
    data = np.zeros((n, *a.shape[1:]))
    data[rows] = a.data
    out = Tensor(data, a.requires_grad)
    ag._record(out, lambda g: ag._accumulate(a, g[rows]))
    return out


def attend_real_rows(qkv: Tensor, mask, num_heads: int, real) -> Tensor:
    """The chain on the (N, 3d) projection of the real positions ``real`` of a (B, T) ``mask``: with
    padding, the rows go into a zero-padded (B*T, 3d) array first, and the merged heads' real rows come
    back out. Without, both are skipped, as the op skips them, so that the output keeps its layout."""
    b, t = np.shape(mask)
    pad = real.size < b * t
    merged = split_attend_merge(tape_ops.reshape(scatter_rows(qkv, real, b * t) if pad else qkv, (b, t, -1)),
                                mask, num_heads)
    merged = tape_ops.reshape(merged, (-1, merged.shape[-1]))
    return ag.take_rows(merged, real) if pad else merged


def multi_head_attention(x: Tensor, layer, num_heads: int, bias, real) -> Tensor:
    """The chain between the QKV and output projections, on the (N, d) rows ``x``; the (B, T) mask is
    read back from its (B, 1, 1, T) key ``bias``, which is 0 exactly at the real keys."""
    qkv = ag.matmul(x, layer.w_qkv)
    return ag.matmul(attend_real_rows(qkv, (bias[:, 0, 0] == 0).astype(np.int64), num_heads, real), layer.w_o)
