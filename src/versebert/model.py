"""BERT-style encoder built on the autograd tape: embeddings, sinusoidal or
learned positions, stacked multi-head self-attention blocks (post-layer-norm),
an MLM projection head, and per-task classification heads. A layer records 10 tape
ops, 22 before ``ag.attention`` fused head split, scaled QK^T, key bias, softmax, weighting
of V and head merge; it keeps its score-sized forward arrays for its backward, as the old
ops did, since a training step's time hangs on when glibc trims and refaults the heap.

Assumptions where the architecture is under-specified: the feed-forward inner
dimension defaults to 4x hidden, and positions default to the sinusoidal
formulation (a learned table is available via ``positional_mode="learned"``).
"""

from __future__ import annotations

import functools
import numbers
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import AllMasked, EmptyReduction, InvalidConfig, ShapeMismatch
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
        check_numeric_fields(self)
        if self.ffn_dim is None:
            object.__setattr__(self, "ffn_dim", 4 * self.hidden)
        if min(self.num_layers, self.num_heads, self.hidden, self.ffn_dim, self.vocab_size) < 1:
            raise InvalidConfig("layer, head, hidden, ffn and vocab sizes must be positive")
        if self.hidden % self.num_heads != 0:
            raise InvalidConfig(f"hidden {self.hidden} not divisible by heads {self.num_heads}")
        if self.max_len < 2:
            raise InvalidConfig("max_len must be at least 2")
        if self.positional_mode not in ("sinusoidal", "learned"):
            raise InvalidConfig(f"unknown positional_mode {self.positional_mode!r}")

    @property
    def d_k(self) -> int:
        return self.hidden // self.num_heads

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


def check_numeric_fields(config) -> None:
    """Raise InvalidConfig unless each int or float field of ``config`` holds such a number (not a bool)."""
    kinds = {"int": numbers.Integral, "float": numbers.Real, "int | None": (numbers.Integral, type(None))}
    for f in fields(config):
        value, kind = getattr(config, f.name), kinds.get(f.type)
        if kind is not None and (isinstance(value, bool) or not isinstance(value, kind)):
            raise InvalidConfig(f"{f.name} must be {f.type}, got {value!r}")


def tiny_config(vocab_size: int = 512, max_len: int = 32) -> ModelConfig:
    """Desk-scale preset: 2 layers, 32 hidden, 2 heads, no dropout."""
    return ModelConfig(num_layers=2, num_heads=2, hidden=32, vocab_size=vocab_size, max_len=max_len, dropout=0.0)


def paper_config(vocab_size: int = 50_000) -> ModelConfig:
    """Full-scale preset: 10 layers, 768 hidden, 12 heads, 32-token sequences."""
    return ModelConfig(vocab_size=vocab_size)


def sinusoidal_table(max_len: int, d: int) -> np.ndarray:
    """(max_len x d) positions: row p holds sin(p / 10000^(i/d)) at even i and cos(p / 10000^((i-1)/d)) at odd i."""
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    idx = np.arange(d, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (idx - (idx % 2)) / d)
    return np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))


@functools.lru_cache(maxsize=None)
def _positions(max_len: int, d: int) -> np.ndarray:
    """The read-only sinusoidal table of one model shape, built once; its
    first t rows equal ``sinusoidal_table(t, d)``."""
    table = sinusoidal_table(max_len, d)
    table.flags.writeable = False
    return table


INIT_STD = 0.02


def truncated_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal(0, INIT_STD) samples redrawn until within two standard deviations."""
    out = rng.normal(0.0, INIT_STD, size=shape)
    bad = np.flatnonzero(np.abs(out) > 2 * INIT_STD)
    while bad.size:
        out.reshape(-1)[bad] = redrawn = rng.normal(0.0, INIT_STD, size=bad.size)  # in ascending flat order
        bad = bad[np.abs(redrawn) > 2 * INIT_STD]
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

    @classmethod
    def from_named(cls, config: ModelConfig, tensor: Callable[[str, tuple[int, ...]], Tensor]) -> "ModelParams":
        """The inverse of ``named_parameters``, without heads: the one table of encoder and MLM-head
        array names and shapes. ``tensor(name, shape)`` gives each array, called in ``named_parameters`` order."""
        d, v = config.hidden, config.vocab_size
        token_embedding = tensor("token_embedding", (v, d))
        positional = tensor("positional", (config.max_len, d)) if config.positional_mode == "learned" else None
        shapes = {"w_qkv": (d, 3 * d), "w_o": (d, d), "ffn_w1": (d, config.ffn_dim), "ffn_w2": (config.ffn_dim, d)}
        layers = [LayerParams(**{f: tensor(f"layers.{li}.{f}", shapes.get(f, (d,))) for f in LAYER_FIELDS})
                  for li in range(config.num_layers)]  # fields absent from ``shapes`` are layer-norm vectors
        return cls(token_embedding, positional, layers, tensor("mlm_w", (d, v)), tensor("mlm_b", (v,)))


def init_params(config: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Truncated-normal(0.02) weights, zero biases, unit layer-norm gains."""

    def tensor(name, shape):
        if len(shape) == 1:
            data = np.full(shape, 1.0 if name.endswith("_gain") else 0.0)
        elif name.endswith("w_qkv"):
            # drawn head by head (all Q, then all K, then all V) so a seed gives the
            # same weights as the per-head layout it replaced
            data = np.concatenate([truncated_normal(rng, (shape[0], config.d_k))
                                   for _ in range(3 * config.num_heads)], axis=1)
        else:
            data = truncated_normal(rng, shape)
        return Tensor(data, requires_grad=True)

    return ModelParams.from_named(config, tensor)


def init_head(config: ModelConfig, num_labels: int, rng: np.random.Generator) -> tuple[Tensor, Tensor]:
    return (
        Tensor(truncated_normal(rng, (config.hidden, num_labels)), requires_grad=True),
        Tensor(np.zeros((num_labels,)), requires_grad=True),
    )


def key_bias(mask, keys: tuple[int, ...]) -> np.ndarray:
    """-1e9 at masked keys of ``mask`` and 0 elsewhere, a query axis inserted before the key axis.
    ``mask`` broadcasts against ``keys``, the keys' shape less its last axis; no row may mask every key."""
    mask = np.asarray(mask)
    lead_ok = mask.ndim <= len(keys) and all(m in (1, n) for m, n in zip(mask.shape[-2::-1], keys[-2::-1]))
    if mask.shape[-1:] != keys[-1:] or not lead_ok:
        raise ShapeMismatch(f"mask shape {mask.shape} vs keys {keys}")
    if not mask.any(axis=-1).all():
        raise AllMasked("every key is masked; at least one must be attendable")
    return np.where(mask == 0, MASK_BIAS, 0.0)[..., None, :]


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor, mask, return_weights: bool = False):
    """softmax(QK^T / sqrt(d_k) + key_bias(mask)) V as one ``ag.attention`` op; weights come off the tape.
    q, k and v share any leading batch axes."""
    if q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2] or not q.shape[:-2] == k.shape[:-2] == v.shape[:-2]:
        raise ShapeMismatch(f"attention shapes q {q.shape}, k {k.shape}, v {v.shape}")
    out, weights = ag.attention((q, k, v), key_bias(mask, k.shape[:-1]))
    return (out, Tensor(weights)) if return_weights else out


def multi_head_attention(x: Tensor, layer: LayerParams, mask, num_heads: int, bias=None) -> Tensor:
    """All heads at once: one fused QKV projection, attention over its (..., H, T, d_k) split with the
    heads merged back in column order, and W_O. ``x`` is (..., T, d), ``mask`` (..., T), ``bias`` None or key_bias."""
    if bias is None:  # one mask for every head's keys
        bias = key_bias(np.expand_dims(mask, -2), (*x.shape[:-2], num_heads, x.shape[-2]))
    merged, _ = ag.attention(ag.matmul(x, layer.w_qkv), bias, num_heads)
    return ag.matmul(merged, layer.w_o)


def stack_batch(seqs: list[TokenSequence]) -> tuple[np.ndarray, np.ndarray]:
    """(B, T) id and mask matrices of ``seqs``, cut after the last attended position."""
    return trim_batch(np.array([s.ids for s in seqs], dtype=np.int64),
                      np.array([s.attention_mask for s in seqs], dtype=np.int64))


def trim_batch(ids: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``ids`` and ``mask`` cut after the last position any row attends to."""
    t = int(mask.any(axis=0).nonzero()[0].max(initial=0)) + 1
    return ids[:, :t], mask[:, :t]


def encoder_forward(
    ids, mask, config: ModelConfig, params: ModelParams,
    dropout_rng: np.random.Generator | None = None, dropout_rate: float = 0.0, cls_only: bool = False,
) -> Tensor:
    """Hidden states (B x T x hidden) for a (B, T) id matrix and its mask.

    Padded positions never change real ones: their keys get zero attention
    weight. Dropout runs only at a rate and rng the caller passes. With
    ``cls_only`` the result is ``cls_rows`` of it, (B x hidden): the last layer's
    attention and residual add still run over every position, and the rest of
    that layer (no step of which mixes positions) on each [CLS] row alone.
    """
    ids = np.asarray(ids, dtype=np.int64)
    mask = np.asarray(mask)
    if ids.ndim != 2 or mask.shape != ids.shape or ids.shape[1] > config.max_len:
        raise ShapeMismatch(f"ids {ids.shape} / mask {mask.shape} vs max_len {config.max_len}")
    t = ids.shape[1]
    x = ag.embedding_lookup(params.token_embedding, ids)
    if config.positional_mode == "learned":
        x = ag.add(x, ag.take_rows(params.positional, np.arange(t)))
    else:
        x = ag.add(x, Tensor(_positions(config.max_len, config.hidden)[:t]))
    bias = key_bias(mask[:, None, :], (ids.shape[0], config.num_heads, t))  # once, for every layer
    for layer in params.layers:
        attn = multi_head_attention(x, layer, mask, config.num_heads, bias)
        x = ag.add(x, ag.dropout(attn, dropout_rate, dropout_rng))
        if cls_only and layer is params.layers[-1]:
            x = cls_rows(x)
        x = ag.layer_norm(x, layer.ln1_gain, layer.ln1_bias)
        ffn = ag.matmul(ag.gelu(ag.matmul(x, layer.ffn_w1)), layer.ffn_w2)
        ffn = ag.dropout(ffn, dropout_rate, dropout_rng)
        x = ag.layer_norm(ag.add(x, ffn), layer.ln2_gain, layer.ln2_bias)
    return x


def mlm_logits(hidden: Tensor, params: ModelParams) -> Tensor:
    """Vocabulary logits at every given position."""
    return ag.add(ag.matmul(hidden, params.mlm_w), params.mlm_b)


IGNORE_INDEX = -100  # the MLM target of a position that is not scored


def mlm_loss(hidden: Tensor, targets, params: ModelParams) -> Tensor:
    """Mean MLM cross-entropy over the positions whose target (one per
    position) is not IGNORE_INDEX; only those rows reach the vocabulary projection."""
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    rows = np.flatnonzero(targets != IGNORE_INDEX)
    if rows.size == 0:
        raise EmptyReduction("no masked position to score")
    picked = ag.take_rows(ag.reshape(hidden, (-1, hidden.shape[-1])), rows)
    return ag.cross_entropy(mlm_logits(picked, params), targets[rows])


def cls_rows(hidden: Tensor) -> Tensor:
    """The (B x d) [CLS] rows (position 0) of (B x T x d) states, cut once per path: by
    ``encoder_forward`` with ``cls_only``, or by ``finetune`` from the full forward."""
    t, d = hidden.shape[-2:]
    flat = ag.reshape(hidden, (-1, d))
    return ag.take_rows(flat, np.arange(0, flat.shape[0], t))


def classify(cls: Tensor, head_w: Tensor, head_b: Tensor) -> Tensor:
    """Class logits (B x num_labels) from the (B x d) [CLS] states that ``cls_rows`` gives."""
    return ag.add(ag.matmul(cls, head_w), head_b)


def predict_logits(seqs: list[TokenSequence], config: ModelConfig, params: ModelParams, head) -> np.ndarray:
    """Forward-only class logits (B x num_labels) of ``seqs`` as one trimmed batch."""
    with ag.no_grad(), ag._scratch():  # copy the logits out of the scratch, reused by the next call
        return classify(encoder_forward(*stack_batch(seqs), config, params, cls_only=True), *head).data.copy()
