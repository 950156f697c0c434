"""The padded encoder that packing the real rows replaced, kept as the oracle
for the equivalence tests.

Here every op ran on all B*T positions, padding included, and only attention's
key bias kept the padded rows out of the real ones. ``encoder_forward`` gave
(B x T x hidden) states, or with ``rows`` the (len(rows) x hidden) states of
those flat indices into B*T, cut after the last layer's attention and first
residual add. Each dropout site drew its mask for the whole (B, T, hidden)
array. It is the replaced code verbatim, except that ``mdl.`` qualifies the
model's names, ``tape_ops.reshape`` stands for the removed ``ag.reshape``, and
attention goes through ``multi_head_attention`` here, since the model's takes
packed rows only.
The packed encoder must give these states at the real positions, and the same
loss and parameter gradients: bit for bit at the ``pretrain-mid`` shape.
"""

from __future__ import annotations

import numpy as np

from versebert import autograd as ag
from versebert import model as mdl
from versebert.autograd import Tensor

import tape_ops


def multi_head_attention(x: Tensor, layer: mdl.LayerParams, num_heads: int, bias: np.ndarray) -> Tensor:
    """The (B x T x hidden) attention output of (B x T x hidden) states ``x``, through the model's packed
    one with every position real: its operands keep their layouts, so its bits hold, and a reshape
    on either side adds two tape records."""
    b, t, d = x.shape
    out = mdl.multi_head_attention(tape_ops.reshape(x, (b * t, d)), layer, num_heads, bias, np.arange(b * t))
    return tape_ops.reshape(out, (b, t, d))


def encoder_forward(
    ids, mask, config: mdl.ModelConfig, params: mdl.ModelParams,
    dropout_rng: np.random.Generator | None = None, dropout_rate: float = 0.0, rows=None,
) -> Tensor:
    ids = np.asarray(ids, dtype=np.int64)
    mask = np.asarray(mask)
    if ids.ndim != 2 or mask.shape != ids.shape or ids.shape[1] > config.max_len:
        raise mdl.ShapeMismatch(f"ids {ids.shape} / mask {mask.shape} vs max_len {config.max_len}")
    t = ids.shape[1]
    x = ag.embedding_lookup(params.token_embedding, ids)
    if config.positional_mode == "learned":
        x = ag.add(x, ag.take_rows(params.positional, np.arange(t)))
    else:
        x = ag.add(x, Tensor(mdl._positions(config.max_len, config.hidden)[:t]))
    bias = mdl.key_bias(mask)  # once, for every layer
    for layer in params.layers:
        attn = multi_head_attention(x, layer, config.num_heads, bias)
        x = ag.add(x, ag.dropout(attn, dropout_rate, dropout_rng))
        if cut := rows is not None and layer is params.layers[-1]:
            x = ag.take_rows(tape_ops.reshape(x, (-1, config.hidden)), rows)
        x = ag.layer_norm(x, layer.ln1_gain, layer.ln1_bias)
        ffn = ag.matmul(ag.gelu(ag.matmul(x, layer.ffn_w1)), layer.ffn_w2)
        ffn = ag.dropout(ffn, dropout_rate, dropout_rng, (ids.size, rows) if cut else None)
        x = ag.layer_norm(ag.add(x, ffn), layer.ln2_gain, layer.ln2_bias)
    return x
