"""The composed attention chain that the one ``ag.attention`` op replaced,
kept as the oracle for the equivalence tests.

``scaled_dot_attention`` records permute, matmul, scale, add, softmax_rows
and matmul; ``multi_head_attention`` adds the head split (reshape, permute,
``unstack``) before it and the merge (permute, reshape) after it, 22 tape
records per encoder layer in all. The op must give the same output and the
same input gradients, bit for bit. ``unstack`` is the op the split used; its
backward adds each part's gradient into a zero-filled buffer, so a -0.0
arrives as +0.0. The two batched products (QK^T and the weighting of V) go
through ``seed_autograd.matmul``, which keeps the batched-operand form that
``ag.matmul`` dropped when attention became one op.
"""

from __future__ import annotations

import math

import numpy as np

from versebert import autograd as ag
from versebert.autograd import Tensor
from versebert.errors import AllMasked, ShapeMismatch
from versebert.model import MASK_BIAS

from seed_autograd import _scatter_add, matmul


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
    k_t = ag.permute(k, (*range(k.data.ndim - 2), -1, -2))
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
    split = ag.reshape(qkv, (*lead, t, 3, num_heads, d // num_heads))
    q, k, v = unstack(ag.permute(split, (n + 1, *range(n), n + 2, n, n + 3)))
    heads = scaled_dot_attention(q, k, v, np.expand_dims(mask, -2))
    return ag.reshape(ag.permute(heads, (*range(n), n + 1, n, n + 2)), (*lead, t, d))


def multi_head_attention(x: Tensor, layer, mask, num_heads: int) -> Tensor:
    return ag.matmul(split_attend_merge(ag.matmul(x, layer.w_qkv), mask, num_heads), layer.w_o)
