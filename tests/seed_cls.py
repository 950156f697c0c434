"""The [CLS] path that one cut per path replaced, kept as the oracle for the
equivalence tests.

Here the classifier cut the [CLS] rows itself: ``classify`` took (B x T x d)
states, or a (T x d) sequence, and gathered row 0 of each sequence. The
``cls_only`` forward therefore handed it (B x 1 x d) states, reshaped after
its own cut of the last layer, and ``classify`` gathered every one of those
rows a second time. ``encoder_forward``, ``classify`` and ``predict_logits``
are the replaced code verbatim, except that ``mdl.`` qualifies the model's
names. ``model.predict_logits`` must give these logits bit for bit, and
``training.finetune`` this ``classify``'s gradients.
"""

from __future__ import annotations

import numpy as np

from versebert import autograd as ag
from versebert import model as mdl
from versebert.autograd import Tensor


def encoder_forward(
    ids, mask, config: mdl.ModelConfig, params: mdl.ModelParams,
    dropout_rng: np.random.Generator | None = None, dropout_rate: float = 0.0, cls_only: bool = False,
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
    bias = mdl.key_bias(mask[:, None, :], (ids.shape[0], config.num_heads, t))  # once, for every layer
    for layer in params.layers:
        attn = mdl.multi_head_attention(x, layer, mask, config.num_heads, bias)
        x = ag.add(x, ag.dropout(attn, dropout_rate, dropout_rng))
        if cls_only and layer is params.layers[-1]:
            x = ag.reshape(_cls_rows(x), (-1, 1, config.hidden))
        x = ag.layer_norm(x, layer.ln1_gain, layer.ln1_bias)
        ffn = ag.matmul(ag.gelu(ag.matmul(x, layer.ffn_w1)), layer.ffn_w2)
        ffn = ag.dropout(ffn, dropout_rate, dropout_rng)
        x = ag.layer_norm(ag.add(x, ffn), layer.ln2_gain, layer.ln2_bias)
    return x


def _cls_rows(hidden: Tensor) -> Tensor:
    """The (B x d) [CLS] rows (position 0) of (B x T x d) or (T x d) states."""
    t, d = hidden.shape[-2:]
    flat = ag.reshape(hidden, (-1, d))
    return ag.take_rows(flat, np.arange(0, flat.shape[0], t))


def classify(hidden: Tensor, head_w: Tensor, head_b: Tensor) -> Tensor:
    """Class logits (B x num_labels) from each sequence's [CLS] position
    (row 0); a single (T x d) sequence gives one row."""
    return ag.add(ag.matmul(_cls_rows(hidden), head_w), head_b)


def predict_logits(seqs, config: mdl.ModelConfig, params: mdl.ModelParams, head) -> np.ndarray:
    """Forward-only class logits (B x num_labels) of ``seqs`` as one trimmed batch."""
    with ag.no_grad(), ag._scratch():  # copy the logits out of the scratch, reused by the next call
        return classify(encoder_forward(*mdl.stack_batch(seqs), config, params, cls_only=True), *head).data.copy()
