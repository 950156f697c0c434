"""BERT-style encoder built on the autograd tape: embeddings, sinusoidal or
learned positions, stacked multi-head self-attention blocks (post-layer-norm),
an MLM projection head, and per-task classification heads.

Assumptions where the architecture is under-specified: the feed-forward inner
dimension defaults to 4x hidden, and positions default to the sinusoidal
formulation (a learned table is available via ``positional_mode="learned"``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import AllMasked, EmptyReduction, ShapeMismatch
from .tokenizer import TokenSequence

MASK_BIAS = -1e9


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int = 10
    num_heads: int = 12
    hidden: int = 768
    ffn_dim: int | None = None
    vocab_size: int = 50_000
    max_len: int = 32
    dropout: float = 0.1
    positional_mode: str = "sinusoidal"  # or "learned"

    def __post_init__(self):
        if min(self.num_layers, self.num_heads, self.hidden, self.vocab_size) < 1:
            raise ValueError("layer, head, hidden and vocab sizes must be positive")
        if self.hidden % self.num_heads != 0:
            raise ValueError(f"hidden {self.hidden} not divisible by heads {self.num_heads}")
        if self.max_len < 2:
            raise ValueError("max_len must be at least 2")
        if self.positional_mode not in ("sinusoidal", "learned"):
            raise ValueError(f"unknown positional_mode {self.positional_mode!r}")
        if self.ffn_dim is None:
            object.__setattr__(self, "ffn_dim", 4 * self.hidden)

    @property
    def d_k(self) -> int:
        return self.hidden // self.num_heads

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


def tiny_config(vocab_size: int = 512, max_len: int = 32) -> ModelConfig:
    """Desk-scale preset: 2 layers, 32 hidden, 2 heads, no dropout."""
    return ModelConfig(num_layers=2, num_heads=2, hidden=32, vocab_size=vocab_size, max_len=max_len, dropout=0.0)


def paper_config(vocab_size: int = 50_000) -> ModelConfig:
    """Full-scale preset: 10 layers, 768 hidden, 12 heads, 32-token sequences."""
    return ModelConfig(vocab_size=vocab_size)


def positional_encoding(p: int, i: int, d: int) -> float:
    """Sinusoidal position value for position ``p`` and embedding dimension ``i``."""
    if i % 2 == 0:
        return math.sin(p / 10000.0 ** (i / d))
    return math.cos(p / 10000.0 ** ((i - 1) / d))


def sinusoidal_table(max_len: int, d: int) -> np.ndarray:
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    idx = np.arange(d, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (idx - (idx % 2)) / d)
    return np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))


def truncated_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """Normal(0, std) samples redrawn until within two standard deviations."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2 * std
    return out


@dataclass
class LayerParams:
    w_qkv: Tensor  # (d, 3d), columns [Q head 0..H-1 | K heads | V heads]
    w_o: Tensor
    ffn_w1: Tensor
    ffn_w2: Tensor
    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor


LAYER_FIELDS = tuple(f.name for f in fields(LayerParams))


@dataclass
class ModelParams:
    """All learnable arrays; heads are keyed by task id."""

    token_embedding: Tensor
    positional: Tensor | None
    layers: list[LayerParams]
    mlm_w: Tensor
    mlm_b: Tensor
    heads: dict[str, tuple[Tensor, Tensor]] = field(default_factory=dict)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        """(name, tensor) pairs in a fixed, documented order."""
        out = [("token_embedding", self.token_embedding)]
        if self.positional is not None:
            out.append(("positional", self.positional))
        for li, layer in enumerate(self.layers):
            out.extend((f"layers.{li}.{name}", getattr(layer, name)) for name in LAYER_FIELDS)
        out.append(("mlm_w", self.mlm_w))
        out.append(("mlm_b", self.mlm_b))
        for task in sorted(self.heads):
            w, b = self.heads[task]
            out.append((f"heads.{task}.w", w))
            out.append((f"heads.{task}.b", b))
        return out

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]


def init_params(config: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Truncated-normal(0.02) weights, zero biases, unit layer-norm gains."""
    d, dk = config.hidden, config.d_k

    def w(shape):
        return Tensor(truncated_normal(rng, shape), requires_grad=True)

    def const(value, shape):
        return Tensor(np.full(shape, value, dtype=np.float64), requires_grad=True)

    layers = []
    token_embedding = w((config.vocab_size, d))
    positional = w((config.max_len, d)) if config.positional_mode == "learned" else None
    for _ in range(config.num_layers):
        # drawn head by head (all Q, then all K, then all V) so a seed gives the
        # same weights as the per-head layout it replaced
        w_qkv = np.concatenate([truncated_normal(rng, (d, dk)) for _ in range(3 * config.num_heads)], axis=1)
        layers.append(
            LayerParams(
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
    return ModelParams(
        token_embedding=token_embedding,
        positional=positional,
        layers=layers,
        mlm_w=w((d, config.vocab_size)),
        mlm_b=const(0.0, (config.vocab_size,)),
    )


def init_head(config: ModelConfig, num_labels: int, rng: np.random.Generator) -> tuple[Tensor, Tensor]:
    return (
        Tensor(truncated_normal(rng, (config.hidden, num_labels)), requires_grad=True),
        Tensor(np.zeros((num_labels,)), requires_grad=True),
    )


def scaled_dot_attention(
    q: Tensor, k: Tensor, v: Tensor, mask, return_weights: bool = False
):
    """softmax(QK^T / sqrt(d_k) + mask_bias) V with -1e9 bias at masked keys.

    Any leading batch axes are allowed. ``mask`` holds one entry per key and
    broadcasts against ``k.shape[:-1]``; every query needs an attendable key.
    """
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
    scores = ag.scale(ag.matmul(q, k_t), 1.0 / math.sqrt(q.shape[-1]))
    bias = Tensor(np.where(mask == 0, MASK_BIAS, 0.0)[..., None, :])
    weights = ag.softmax_rows(ag.add(scores, bias))
    out = ag.matmul(weights, v)
    if return_weights:
        return out, weights
    return out


def multi_head_attention(x: Tensor, layer: LayerParams, mask, num_heads: int) -> Tensor:
    """All heads at once: one fused QKV projection, attention over a
    (..., H, T, d_k) layout, heads merged back in column order and projected
    by W_O. ``x`` is (..., T, d) and ``mask`` is (..., T)."""
    *lead, t, d = x.shape
    n = len(lead)
    qkv = ag.reshape(ag.matmul(x, layer.w_qkv), (*lead, t, 3, num_heads, d // num_heads))
    q, k, v = ag.unstack(ag.permute(qkv, (n + 1, *range(n), n + 2, n, n + 3)))
    heads = scaled_dot_attention(q, k, v, np.expand_dims(mask, -2))
    merged = ag.reshape(ag.permute(heads, (*range(n), n + 1, n, n + 2)), (*lead, t, d))
    return ag.matmul(merged, layer.w_o)


def stack_batch(seqs: list[TokenSequence]) -> tuple[np.ndarray, np.ndarray]:
    """(B, T) id and mask matrices of ``seqs``, cut after the last attended position."""
    ids = np.array([s.ids for s in seqs], dtype=np.int64)
    mask = np.array([s.attention_mask for s in seqs], dtype=np.int64)
    t = int(mask.any(axis=0).nonzero()[0].max(initial=0)) + 1
    return ids[:, :t], mask[:, :t]


def encoder_forward(
    ids, mask, config: ModelConfig, params: ModelParams, train: bool = False,
    dropout_rng: np.random.Generator | None = None, dropout_rate: float | None = None,
) -> Tensor:
    """Hidden states (B x T x hidden) for a (B, T) id matrix and its mask.

    Padded positions never change real ones: their keys get zero attention
    weight. Deterministic when ``train`` is false (dropout becomes identity).
    """
    rate = config.dropout if dropout_rate is None else dropout_rate
    ids = np.asarray(ids, dtype=np.int64)
    mask = np.asarray(mask)
    if ids.ndim != 2 or mask.shape != ids.shape or ids.shape[1] > config.max_len:
        raise ShapeMismatch(f"ids {ids.shape} / mask {mask.shape} vs max_len {config.max_len}")
    t = ids.shape[1]
    x = ag.embedding_lookup(params.token_embedding, ids)
    if config.positional_mode == "learned":
        x = ag.add(x, ag.take_rows(params.positional, np.arange(t)))
    else:
        x = ag.add(x, Tensor(sinusoidal_table(t, config.hidden)))
    for layer in params.layers:
        attn = multi_head_attention(x, layer, mask, config.num_heads)
        attn = ag.dropout(attn, rate, train, dropout_rng)
        x = ag.layer_norm(ag.add(x, attn), layer.ln1_gain, layer.ln1_bias)
        ffn = ag.matmul(ag.gelu(ag.matmul(x, layer.ffn_w1)), layer.ffn_w2)
        ffn = ag.dropout(ffn, rate, train, dropout_rng)
        x = ag.layer_norm(ag.add(x, ffn), layer.ln2_gain, layer.ln2_bias)
    return x


def mlm_logits(hidden: Tensor, params: ModelParams) -> Tensor:
    """Vocabulary logits at every given position."""
    return ag.add(ag.matmul(hidden, params.mlm_w), params.mlm_b)


def mlm_loss(hidden: Tensor, targets, params: ModelParams) -> Tensor:
    """Mean MLM cross-entropy over the positions whose target (one per
    position) is not ignored; only those rows reach the vocabulary projection."""
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    rows = np.flatnonzero(targets != ag.IGNORE_INDEX)
    if rows.size == 0:
        raise EmptyReduction("no masked position to score")
    picked = ag.take_rows(ag.reshape(hidden, (-1, hidden.shape[-1])), rows)
    return ag.cross_entropy(mlm_logits(picked, params), targets[rows])


def classify(hidden: Tensor, head_w: Tensor, head_b: Tensor) -> Tensor:
    """Class logits (B x num_labels) from each sequence's [CLS] position
    (row 0); a single (T x d) sequence gives one row."""
    t, d = hidden.shape[-2:]
    flat = ag.reshape(hidden, (-1, d))
    cls_rows = ag.take_rows(flat, np.arange(0, flat.shape[0], t))
    return ag.add(ag.matmul(cls_rows, head_w), head_b)


def predict_logits(seqs: list[TokenSequence], config: ModelConfig, params: ModelParams, head) -> np.ndarray:
    """Forward-only class logits (B x num_labels) of ``seqs`` as one trimmed batch."""
    with ag.no_grad():
        return classify(encoder_forward(*stack_batch(seqs), config, params), *head).data


def predicted_label(logits: Tensor) -> int:
    """Argmax class id; ties resolve to the lowest index."""
    return int(np.argmax(logits.data.reshape(-1)))
