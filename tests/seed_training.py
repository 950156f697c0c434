"""Per-sequence MLM masking, the one-buffer checkpoint writer, and the
separate pretrain and finetune set-ups with their ``_run_steps`` loop, which
the batched masking, the streaming atomic writer and the one shared training
loop replaced, kept as oracles for the equivalence tests; and the version 1
checkpoint writer, whose files the reader refuses.

Masking a (B, T) batch must give the ids, targets and random stream of
masking its rows one at a time here, a save must give these bytes, and a
pretrain or finetune run must give the checkpoint bytes and ``on_step``
calls of ``pretrain`` and ``finetune`` here. Those two and ``_run_steps``
are the replaced code verbatim, except that ``training.`` qualifies the
masking, whose name this module's own oracle takes, and that they return the
checkpoint without writing it, as the commands now write it, and that
``finetune`` copies the arrays ``to_params`` now gives as views. They
call the encoder through ``mdl``, which is ``versebert.model`` with the
replaced ``encoder_forward`` (its ``train`` flag and its fallback to
``ModelConfig.dropout``, and no row cut; its attention now goes through
``seed_padded.multi_head_attention``), the replaced ``mlm_loss`` (which
gathers the masked rows of the full states itself) and the replaced
``classify`` (``seed_cls``, which cuts the [CLS] rows itself) swapped in;
every other name is looked up on the real module at call time. The per-sequence masking reads its split from
``training.MASK_PROB`` and ``RANDOM_PROB``, the constants that replaced its
config fields, so a test that patches them patches both.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import logging
import math
import struct
from typing import Callable, Optional

import numpy as np

from versebert import autograd as ag, model, training
from versebert.autograd import AdamW, Tensor
from versebert.corpus import LabelTaxonomy
from versebert.errors import DigestMismatch, EmptyReduction, NonFiniteLoss
from versebert.tokenizer import MASK_ID, TokenSequence, Vocab, encode
from versebert.training import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    IGNORE_INDEX,
    N_RESERVED,
    Checkpoint,
    TrainConfig,
    _epoch_batches,
    checkpoint_from_params,
    make_rngs,
)

import seed_cls
import seed_padded
import tape_ops

log = logging.getLogger(__name__)


def apply_mlm_masking(seq: TokenSequence, cfg, rng: np.random.Generator, vocab_size: int):
    ids = np.array(seq.ids, dtype=np.int64)
    mask = np.array(seq.attention_mask, dtype=bool)
    candidates = np.flatnonzero(mask & (ids >= N_RESERVED))
    targets = np.full(len(ids), IGNORE_INDEX, dtype=np.int64)
    if candidates.size == 0 or cfg.mask_ratio == 0.0:
        return seq, targets

    selected = candidates[rng.random(candidates.size) < cfg.mask_ratio]
    if selected.size == 0:
        return seq, targets
    targets[selected] = ids[selected]

    fate = rng.random(selected.size)
    to_mask = selected[fate < training.MASK_PROB]
    to_random = selected[(fate >= training.MASK_PROB) & (fate < training.MASK_PROB + training.RANDOM_PROB)]
    ids[to_mask] = MASK_ID
    if to_random.size:
        ids[to_random] = rng.integers(N_RESERVED, vocab_size, size=to_random.size)
    masked = TokenSequence(tuple(int(i) for i in ids), seq.attention_mask, seq.max_len)
    return masked, targets


def save_checkpoint(ckpt, path, optimizer=None) -> None:
    """The old writer. ``optimizer``, a ``{"step": int, "arrays": {name: array}}``,
    adds AdamW state as the format once allowed; ``load_checkpoint`` now refuses it."""
    entries = []
    payload = bytearray()

    def put(name, arr):
        arr = np.ascontiguousarray(arr, dtype="<f8")
        entries.append({"name": name, "shape": list(arr.shape), "offset": len(payload)})
        payload.extend(arr.tobytes())

    for name in sorted(ckpt.arrays):
        put(f"param:{name}", ckpt.arrays[name])
    opt_meta = None
    if optimizer is not None:
        opt_meta = {"step": optimizer["step"]}
        for name in sorted(optimizer["arrays"]):
            put(f"opt:{name}", optimizer["arrays"][name])

    header = {
        "model_config": dataclasses.asdict(ckpt.model_config),
        "vocab_digest": ckpt.vocab_digest,
        "global_step": ckpt.global_step,
        "optimizer": opt_meta,
        "arrays": entries,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<IQ", CHECKPOINT_VERSION, len(header_bytes)))
        fh.write(header_bytes + payload)


def save_v1(ckpt, path, optimizer=None):
    """The version 1 writer: per-head Q/K/V arrays and no payload digest; ``optimizer`` goes into the header.
    ``load_checkpoint`` refuses its files."""
    cfg = ckpt.model_config
    arrays = dict(ckpt.arrays)
    for li in range(cfg.num_layers):
        cols = np.split(arrays.pop(f"layers.{li}.w_qkv"), 3 * cfg.num_heads, axis=1)
        for i, w in enumerate(("w_q", "w_k", "w_v")):
            for hi in range(cfg.num_heads):
                arrays[f"layers.{li}.heads.{hi}.{w}"] = cols[i * cfg.num_heads + hi]
    entries, payload = [], bytearray()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype="<f8")
        entries.append({"name": f"param:{name}", "shape": list(arr.shape), "offset": len(payload)})
        payload.extend(arr.tobytes())
    header = json.dumps({
        "model_config": dataclasses.asdict(cfg), "vocab_digest": ckpt.vocab_digest,
        "global_step": ckpt.global_step, "optimizer": optimizer, "arrays": entries,
    }).encode()
    path.write_bytes(b"VBC1" + struct.pack("<I", 1) + struct.pack("<Q", len(header)) + header + bytes(payload))


def encoder_forward(
    ids, mask, config: model.ModelConfig, params: model.ModelParams, train: bool = False,
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
        raise model.ShapeMismatch(f"ids {ids.shape} / mask {mask.shape} vs max_len {config.max_len}")
    t = ids.shape[1]
    x = ag.embedding_lookup(params.token_embedding, ids)
    if config.positional_mode == "learned":
        x = ag.add(x, ag.take_rows(params.positional, np.arange(t)))
    else:
        x = ag.add(x, Tensor(model._positions(config.max_len, config.hidden)[:t]))
    for layer in params.layers:
        attn = seed_padded.multi_head_attention(x, layer, config.num_heads, model.key_bias(mask))
        attn = ag.dropout(attn, rate if train else 0.0, dropout_rng)
        x = ag.layer_norm(ag.add(x, attn), layer.ln1_gain, layer.ln1_bias)
        ffn = ag.matmul(ag.gelu(ag.matmul(x, layer.ffn_w1)), layer.ffn_w2)
        ffn = ag.dropout(ffn, rate if train else 0.0, dropout_rng)
        x = ag.layer_norm(ag.add(x, ffn), layer.ln2_gain, layer.ln2_bias)
    return x


def mlm_loss(hidden: Tensor, targets, params: model.ModelParams) -> Tensor:
    """Mean MLM cross-entropy over the positions whose target (one per
    position) is not IGNORE_INDEX; only those rows reach the vocabulary projection."""
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    rows = np.flatnonzero(targets != IGNORE_INDEX)
    if rows.size == 0:
        raise EmptyReduction("no masked position to score")
    picked = ag.take_rows(tape_ops.reshape(hidden, (-1, hidden.shape[-1])), rows)
    return ag.cross_entropy(model.mlm_logits(picked, params), targets[rows])


class _ReplacedModel:
    """``versebert.model`` with the replaced ``encoder_forward``, ``mlm_loss`` and ``classify``."""

    encoder_forward = staticmethod(encoder_forward)
    mlm_loss = staticmethod(mlm_loss)
    classify = staticmethod(seed_cls.classify)

    def __getattr__(self, name):
        return getattr(model, name)


mdl = _ReplacedModel()


def _run_steps(cfg: TrainConfig, opt: AdamW, batch_loss, on_step, name: str) -> None:
    """Take ``cfg.max_steps`` AdamW steps on ``batch_loss()``. A non-finite loss raises
    ``NonFiniteLoss``; a batch raising ``EmptyReduction`` is skipped but counted."""
    for step in range(1, cfg.max_steps + 1):
        opt.zero_grad()
        try:
            loss = batch_loss()
        except EmptyReduction:
            ag.reset_tape()
            continue
        value = float(loss.data)
        if not math.isfinite(value):
            ag.reset_tape()
            raise NonFiniteLoss(f"step {step}: loss={value}")
        ag.backward(loss)
        opt.step()
        if on_step is not None:
            on_step(step, value)
        if step % cfg.eval_every == 0 or step == cfg.max_steps:
            log.info("%s step %d/%d loss %.4f", name, step, cfg.max_steps, value)


def pretrain(
    lines: list[str],
    vocab: Vocab,
    config: mdl.ModelConfig,
    cfg: TrainConfig,
    on_step: Optional[Callable[[int, float], None]] = None,
) -> Checkpoint:
    """Run the masked-language-model objective for ``cfg.max_steps`` steps;
    deterministic for a fixed seed. A batch without masked positions is skipped."""
    rngs = make_rngs(cfg.seed)
    params = mdl.init_params(config, rngs.init)
    if not lines:
        raise ValueError("no input lines to pretrain on")
    all_ids, all_mask = mdl.stack_batch([encode(line, vocab, config.max_len) for line in lines])
    opt = AdamW(params.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    batches = _epoch_batches(len(lines), cfg.batch_size, rngs.data)

    def batch_loss():
        idx = next(batches)
        ids, mask = mdl.trim_batch(all_ids[idx], all_mask[idx])
        ids, targets = training.apply_mlm_masking((ids, mask), cfg, rngs.masking, len(vocab))
        hidden = mdl.encoder_forward(ids, mask, config, params, True, rngs.dropout, cfg.dropout)
        return mdl.mlm_loss(hidden, targets, params)

    _run_steps(cfg, opt, batch_loss, on_step, "pretrain")
    return checkpoint_from_params(params, config, vocab.digest(), cfg.max_steps)


def finetune(
    ckpt: Checkpoint,
    pairs: list[tuple[str, str]],
    taxonomy: LabelTaxonomy,
    vocab: Vocab,
    cfg: TrainConfig,
    head_only: bool = False,
    on_step: Optional[Callable[[int, float], None]] = None,
) -> Checkpoint:
    """Attach a fresh classification head and train on (line, label) pairs.

    ``pairs`` hold preprocessed verse lines. With ``head_only`` the encoder is
    frozen and only the head receives updates.
    """
    if ckpt.vocab_digest != vocab.digest():
        raise DigestMismatch(
            f"checkpoint was built with vocab {ckpt.vocab_digest[:12]}..., "
            f"got {vocab.digest()[:12]}..."
        )
    config = ckpt.model_config
    rngs = make_rngs(cfg.seed)
    params = ckpt.to_params()
    for p in params.parameters():  # to_params copied then; it now gives read-only views
        p.data = p.data.copy()
    head_w, head_b = mdl.init_head(config, taxonomy.num_labels, rngs.init)
    params.heads[taxonomy.task_id] = (head_w, head_b)

    labels = np.array([taxonomy.index(label) for _, label in pairs], dtype=np.int64)
    if not pairs:
        raise ValueError("no labeled pairs to finetune on")
    all_ids, all_mask = mdl.stack_batch([encode(line, vocab, config.max_len) for line, _ in pairs])

    trainable = [head_w, head_b] if head_only else params.parameters()
    opt = AdamW(trainable, lr=cfg.lr, weight_decay=cfg.weight_decay)
    batches = _epoch_batches(len(pairs), cfg.batch_size, rngs.data)

    def batch_loss():
        idx = next(batches)
        ids, mask = mdl.trim_batch(all_ids[idx], all_mask[idx])
        with ag.no_grad() if head_only else contextlib.nullcontext():  # a frozen encoder needs no tape
            hidden = mdl.encoder_forward(ids, mask, config, params, True, rngs.dropout, cfg.dropout)
        return ag.cross_entropy(mdl.classify(hidden, head_w, head_b), labels[idx])

    _run_steps(cfg, opt, batch_loss, on_step, f"finetune[{taxonomy.task_id}]")
    return checkpoint_from_params(params, config, ckpt.vocab_digest, ckpt.global_step + cfg.max_steps)
