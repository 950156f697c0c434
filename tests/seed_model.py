"""The per-sequence, per-head encoder that the batched one replaced, kept as an
oracle for the equivalence tests.

It runs on the tape with per-head Q/K/V leaf tensors cut from each layer's
fused ``w_qkv``; every other weight is the model's own tensor. After a
backward pass, ``fused_qkv_grads`` joins the per-head gradients back in the
fused column order so they compare with the batched path's ``w_qkv.grad``.
The two tape ops the batched path no longer needs (``transpose`` and
``concat``) live here too, and so does the initializer loop that rechecked
every entry after each redraw (``truncated_normal``), and the initializer that
spelled out every array before ``ModelParams.from_named`` held the one table of
names and shapes (``init_params``).
"""

from __future__ import annotations

import math

import numpy as np

from versebert import autograd as ag
from versebert import model as mdl
from versebert.autograd import Tensor

import seed_loss


def truncated_normal(rng: np.random.Generator, shape) -> np.ndarray:
    out = rng.normal(0.0, mdl.INIT_STD, size=shape)
    bad = np.abs(out) > 2 * mdl.INIT_STD
    while bad.any():
        out[bad] = rng.normal(0.0, mdl.INIT_STD, size=int(bad.sum()))
        bad = np.abs(out) > 2 * mdl.INIT_STD
    return out


def init_params(config: mdl.ModelConfig, rng: np.random.Generator) -> mdl.ModelParams:
    """Truncated-normal(0.02) weights, zero biases, unit layer-norm gains."""
    d, dk = config.hidden, config.d_k

    def w(shape):
        return Tensor(mdl.truncated_normal(rng, shape), requires_grad=True)

    def const(value, shape):
        return Tensor(np.full(shape, value, dtype=np.float64), requires_grad=True)

    layers = []
    token_embedding = w((config.vocab_size, d))
    positional = w((config.max_len, d)) if config.positional_mode == "learned" else None
    for _ in range(config.num_layers):
        # drawn head by head (all Q, then all K, then all V) so a seed gives the
        # same weights as the per-head layout it replaced
        w_qkv = np.concatenate([mdl.truncated_normal(rng, (d, dk)) for _ in range(3 * config.num_heads)], axis=1)
        layers.append(
            mdl.LayerParams(
                w_qkv=Tensor(w_qkv, requires_grad=True),
                w_o=w((d, d)),
                ffn_w1=w((d, config.ffn_dim)),
                ffn_w2=w((config.ffn_dim, d)),
                ln1_gain=const(1.0, (d,)),
                ln1_bias=const(0.0, (d,)),
                ln2_gain=const(1.0, (d,)),
                ln2_bias=const(0.0, (d,)),
            )
        )
    return mdl.ModelParams(
        token_embedding=token_embedding,
        positional=positional,
        layers=layers,
        mlm_w=w((d, config.vocab_size)),
        mlm_b=const(0.0, (config.vocab_size,)),
    )


def transpose(a: Tensor) -> Tensor:
    out = Tensor(a.data.T, a.requires_grad)
    ag._record(out, lambda g: ag._accumulate(a, g.T))
    return out


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    out = Tensor(
        np.concatenate([t.data for t in tensors], axis=axis),
        any(t.requires_grad for t in tensors),
    )
    sizes = [t.shape[axis] for t in tensors]

    def fn(g):
        offset = 0
        for t, size in zip(tensors, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offset, offset + size)
            ag._accumulate(t, g[tuple(sl)])
            offset += size

    ag._record(out, fn)
    return out


def split_heads(params: mdl.ModelParams, num_heads: int) -> list[dict[str, list[Tensor]]]:
    """Per layer, leaf tensors {"w_q": [...], "w_k": [...], "w_v": [...]} cut
    from the fused weight, one (d, d_k) matrix per head."""
    out = []
    for layer in params.layers:
        cols = np.split(layer.w_qkv.data, 3 * num_heads, axis=1)
        out.append({
            name: [Tensor(c.copy(), requires_grad=True) for c in cols[i * num_heads : (i + 1) * num_heads]]
            for i, name in enumerate(("w_q", "w_k", "w_v"))
        })
    return out


def fused_qkv_grads(heads: list[dict[str, list[Tensor]]]) -> list[np.ndarray]:
    return [
        np.concatenate([t.grad for name in ("w_q", "w_k", "w_v") for t in layer[name]], axis=1)
        for layer in heads
    ]


def attention(q: Tensor, k: Tensor, v: Tensor, mask) -> Tensor:
    scores = ag.scale(ag.matmul(q, transpose(k)), 1.0 / math.sqrt(q.shape[1]))
    bias = Tensor(np.where(np.asarray(mask) == 0, mdl.MASK_BIAS, 0.0))
    return ag.matmul(ag.softmax_rows(ag.add(scores, bias)), v)


def encoder_forward(seq, config, params, heads, train=False, dropout_rng=None, dropout_rate=None) -> Tensor:
    """Hidden states (max_len x hidden) of one token sequence."""
    rate = config.dropout if dropout_rate is None else dropout_rate
    ids = np.asarray(seq.ids, dtype=np.int64)
    mask = np.asarray(seq.attention_mask)
    x = ag.embedding_lookup(params.token_embedding, ids)
    if config.positional_mode == "learned":
        x = ag.add(x, ag.take_rows(params.positional, np.arange(len(ids))))
    else:
        x = ag.add(x, Tensor(mdl.sinusoidal_table(len(ids), config.hidden)))
    for layer, head in zip(params.layers, heads):
        per_head = [
            attention(ag.matmul(x, w_q), ag.matmul(x, w_k), ag.matmul(x, w_v), mask)
            for w_q, w_k, w_v in zip(head["w_q"], head["w_k"], head["w_v"])
        ]
        attn = ag.dropout(ag.matmul(concat(per_head, axis=1), layer.w_o), rate if train else 0.0, dropout_rng)
        x = ag.layer_norm(ag.add(x, attn), layer.ln1_gain, layer.ln1_bias)
        ffn = ag.matmul(ag.gelu(ag.matmul(x, layer.ffn_w1)), layer.ffn_w2)
        ffn = ag.dropout(ffn, rate if train else 0.0, dropout_rng)
        x = ag.layer_norm(ag.add(x, ffn), layer.ln2_gain, layer.ln2_bias)
    return x


def mlm_loss(seqs, targets, config, params, heads) -> Tensor:
    """Cross-entropy over every position of every sequence, ignored targets skipped."""
    logits = [mdl.mlm_logits(encoder_forward(s, config, params, heads), params) for s in seqs]
    return seed_loss.cross_entropy(concat(logits, axis=0), np.concatenate(targets))


def cls_logits(seqs, config, params, heads, head_w, head_b) -> Tensor:
    rows = [ag.take_rows(encoder_forward(s, config, params, heads), [0]) for s in seqs]
    return ag.add(ag.matmul(concat(rows, axis=0), head_w), head_b)
