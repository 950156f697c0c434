"""MLM pretraining, task fine-tuning, the masking policy, and checkpointing.

Randomness comes from one master seed split into named streams (stream order:
init, masking, dropout, data), so runs are bit-reproducible in a single
execution context. Checkpoints are a small self-describing binary: magic +
version, a JSON header (config, vocab digest, payload sha256, array manifest
with shapes and offsets), then raw little-endian float64 array payloads.
Version 1 files, which stored per-head Q/K/V arrays, still load.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import math
import os
import struct
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from . import autograd as ag
from . import model as mdl
from .autograd import AdamW, Tensor
from .corpus import LabelTaxonomy
from .errors import (
    CorruptFile,
    DigestMismatch,
    EmptyCorpus,
    EmptyReduction,
    InvalidConfig,
    NonFiniteLoss,
    VersionMismatch,
)
from .preprocess import atomic_text_file
from .tokenizer import MASK_ID, Vocab, encode

log = logging.getLogger(__name__)

IGNORE_INDEX = mdl.IGNORE_INDEX
N_RESERVED = 7  # ids 0-6 are special and never masked or drawn as replacements

CHECKPOINT_MAGIC = b"VBC1"
CHECKPOINT_VERSION = 2
READABLE_VERSIONS = (1, 2)


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 256
    lr: float = 5e-5
    weight_decay: float = 0.0
    dropout: float = 0.1
    mask_ratio: float = 0.15
    mask_prob: float = 0.8
    random_prob: float = 0.1
    keep_prob: float = 0.1
    max_steps: int = 800_000
    seed: int = 0
    eval_every: int = 1000
    checkpoint_path: Optional[str] = None

    def __post_init__(self):
        mdl.check_numeric_fields(self)
        for name in ("mask_ratio", "mask_prob", "random_prob", "keep_prob"):  # NaN fails here too
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise InvalidConfig(f"{name} must be in [0, 1]")
        if abs(self.mask_prob + self.random_prob + self.keep_prob - 1.0) > 1e-12:
            raise InvalidConfig("mask/random/keep probabilities must sum to 1")
        for name, least in (("batch_size", 1), ("eval_every", 1), ("max_steps", 0), ("seed", 0)):
            if getattr(self, name) < least:
                raise InvalidConfig(f"{name} must be at least {least}")
        if not 0.0 <= self.dropout < 1.0:
            raise InvalidConfig("dropout must be in [0, 1)")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise InvalidConfig("lr must be finite and positive")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0.0):
            raise InvalidConfig("weight_decay must be finite and non-negative")

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k != "checkpoint_path"}

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**d)


def tiny_train_config(**overrides) -> TrainConfig:
    """Desk-scale defaults: small batches, hotter learning rate, no dropout."""
    base = dict(batch_size=32, lr=5e-3, dropout=0.0, max_steps=500, eval_every=50)
    base.update(overrides)
    return TrainConfig(**base)


@dataclass(frozen=True)
class RunRngs:
    """Named random streams split from one seed (spawn order: init, masking, dropout, data)."""

    init: np.random.Generator
    masking: np.random.Generator
    dropout: np.random.Generator
    data: np.random.Generator


def make_rngs(seed: int) -> RunRngs:
    children = np.random.SeedSequence(seed).spawn(4)
    return RunRngs(*(np.random.default_rng(c) for c in children))


def apply_mlm_masking(batch, cfg: TrainConfig, rng: np.random.Generator, vocab_size: int):
    """(masked ids, targets) of an ``(ids, mask)`` pair of (B, T) matrices.
    Unpadded non-special positions are selected independently with probability
    ``mask_ratio``; each becomes [MASK] / a random non-special id / its original
    id per the configured split, and its target is its original id (elsewhere
    IGNORE_INDEX). The draws go row by row, exactly as if each row were masked
    alone, so one sequence is masked as a one-row batch."""
    ids = np.array(batch[0], dtype=np.int64)
    candidates = np.asarray(batch[1], dtype=bool) & (ids >= N_RESERVED)
    targets = np.full(ids.shape, IGNORE_INDEX, dtype=np.int64)
    if cfg.mask_ratio == 0.0:
        return ids, targets
    lo, hi = cfg.mask_prob, cfg.mask_prob + cfg.random_prob
    picks, fates, replacements = [], [np.empty(0)], [np.empty(0, np.int64)]  # rows may skip the last two
    for n in candidates.sum(axis=1).tolist():  # an empty draw leaves the stream as it was, so it is skipped
        picks.append(rng.random(n) < cfg.mask_ratio)
        if n_picked := np.count_nonzero(picks[-1]):
            fates.append(rng.random(n_picked))
            if n_random := np.count_nonzero((fates[-1] >= lo) & (fates[-1] < hi)):
                replacements.append(rng.integers(N_RESERVED, vocab_size, size=n_random))
    rows, cols = (axis[np.concatenate(picks)] for axis in np.nonzero(candidates))  # row-major, as drawn
    targets[rows, cols] = ids[rows, cols]
    fate = np.concatenate(fates)
    to_mask, to_random = fate < lo, (fate >= lo) & (fate < hi)
    ids[rows[to_mask], cols[to_mask]] = MASK_ID
    ids[rows[to_random], cols[to_random]] = np.concatenate(replacements)
    return ids, targets


@dataclass
class Checkpoint:
    model_config: mdl.ModelConfig
    arrays: dict[str, np.ndarray]
    vocab_digest: str
    global_step: int
    optimizer: Optional[dict] = None  # {"step": int, "arrays": {name: array}}

    def to_params(self) -> mdl.ModelParams:
        """Rebuild ModelParams (including any task heads) from the named arrays; an array that is
        missing, not of the shape the config gives it, or not part of the model raises CorruptFile naming it."""

        def tensor(name, shape):
            arr = self.arrays.get(name)
            if arr is None or arr.shape != shape:
                got = "missing" if arr is None else f"of shape {arr.shape}"
                raise CorruptFile(f"checkpoint array {name} is {got}, want shape {shape}")
            return Tensor(arr.copy(), requires_grad=True)

        params = mdl.ModelParams.from_named(self.model_config, tensor)
        for task in self.head_tasks():  # w is (hidden, labels) and b (labels,), labels read off w's last axis
            labels = np.shape(self.arrays.get(f"heads.{task}.w"))[-1:]
            w = tensor(f"heads.{task}.w", (self.model_config.hidden, *labels))
            params.heads[task] = (w, tensor(f"heads.{task}.b", labels))
        if unknown := sorted(set(self.arrays) - {name for name, _ in params.named_parameters()}):
            raise CorruptFile(f"checkpoint arrays {', '.join(unknown)} are not part of the model")
        return params

    def check_vocab(self, vocab: Vocab) -> None:
        """Raise DigestMismatch unless ``vocab`` is the vocabulary this checkpoint was trained with."""
        if self.vocab_digest != vocab.digest():
            raise DigestMismatch(f"checkpoint was built with vocab {self.vocab_digest[:12]}..., "
                                 f"got {vocab.digest()[:12]}...")

    def head_tasks(self) -> list[str]:
        return sorted({n[len("heads."):].rsplit(".", 1)[0] for n in self.arrays if n.startswith("heads.")})


def checkpoint_from_params(params: mdl.ModelParams, config: mdl.ModelConfig, vocab_digest: str,
                           global_step: int, optimizer: Optional[AdamW] = None) -> Checkpoint:
    arrays = {name: t.data.copy() for name, t in params.named_parameters()}
    opt_state = None if optimizer is None else {
        "step": optimizer.step_count, "arrays": {k: v.copy() for k, v in optimizer.state_arrays().items()},
    }
    return Checkpoint(config, arrays, vocab_digest, global_step, opt_state)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Atomically write a JSON manifest header, then each raw float64 payload in turn."""
    named = [(f"param:{name}", ckpt.arrays[name]) for name in sorted(ckpt.arrays)]
    opt_meta = None
    if ckpt.optimizer is not None:
        opt_meta = {"step": ckpt.optimizer["step"]}
        named += [(f"opt:{name}", ckpt.optimizer["arrays"][name]) for name in sorted(ckpt.optimizer["arrays"])]
    payload = [np.ascontiguousarray(arr, dtype="<f8") for _, arr in named]
    entries, digest, offset = [], hashlib.sha256(), 0
    for (name, _), arr in zip(named, payload):
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        digest.update(arr)
        offset += arr.nbytes

    header = {
        "model_config": ckpt.model_config.to_dict(),
        "vocab_digest": ckpt.vocab_digest,
        "global_step": ckpt.global_step,
        "optimizer": opt_meta,
        "arrays": entries,
        "payload_sha256": digest.hexdigest(),
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_text_file(path, binary=True) as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<IQ", CHECKPOINT_VERSION, len(header_bytes)))
        fh.writelines([header_bytes, *payload])


def _read_arrays(entries: list, data: memoryview) -> tuple[dict, dict]:
    """(params, optimizer arrays) from the header's array manifest; every shape
    must be non-negative integers and every span must lie inside ``data``
    without overlapping another."""
    found: dict[str, dict[str, np.ndarray]] = {"param": {}, "opt": {}}
    spans = []
    for entry in entries:
        name, shape, start = entry["name"], entry["shape"], entry["offset"]
        kind, _, key = name.partition(":")
        if kind not in found or key in found[kind]:
            raise CorruptFile(f"unknown or repeated array name {name!r}")
        if not isinstance(shape, list) or any(type(n) is not int or n < 0 for n in [*shape, start]):
            raise CorruptFile(f"bad shape {shape!r} or offset {start!r} for {name}")
        end = start + 8 * math.prod(shape)
        if end > len(data):
            raise CorruptFile(f"payload of {name} runs past the end of the file")
        found[kind][key] = np.frombuffer(data[start:end], dtype="<f8").reshape(shape).astype(np.float64, copy=False)
        spans.append((start, end, name))
    reach = 0
    for start, end, name in sorted(spans):
        if start < reach and end > start:
            raise CorruptFile(f"payload of {name} overlaps another array")
        reach = max(reach, end)
    return found["param"], found["opt"]


def _fuse_v1_heads(arrays: dict, config: mdl.ModelConfig) -> None:
    """Replace version 1's per-head Q/K/V arrays with each layer's fused
    ``w_qkv``, in column order [Q heads | K heads | V heads]."""
    for li in range(config.num_layers):
        names = [f"layers.{li}.heads.{hi}.{w}" for w in ("w_q", "w_k", "w_v")
                 for hi in range(config.num_heads)]
        arrays[f"layers.{li}.w_qkv"] = np.concatenate([arrays.pop(n) for n in names], axis=1)


def load_checkpoint(path) -> Checkpoint:
    """Read a version 1 or 2 checkpoint; any malformed part raises CorruptFile.

    A version 1 file comes back in the version 2 layout. Its AdamW moments are
    indexed by the old parameter order, so they are dropped. On a little-endian
    host every array is a view into one buffer of the file's bytes, which stays
    alive as long as any of them; ``Checkpoint.to_params`` copies.
    """
    with open(path, "rb") as fh:
        blob = bytearray(os.fstat(fh.fileno()).st_size)
        del blob[fh.readinto(blob):]
    if len(blob) < 16 or blob[:4] != CHECKPOINT_MAGIC:
        raise CorruptFile(f"{path}: bad magic")
    version, header_len = struct.unpack("<IQ", blob[4:16])
    if version not in READABLE_VERSIONS:
        raise VersionMismatch(f"{path}: format version {version}, reader supports {READABLE_VERSIONS}")
    if len(blob) < 16 + header_len:
        raise CorruptFile(f"{path}: truncated header")
    data = memoryview(blob)[16 + header_len :]  # slices of it copy nothing
    try:
        header = json.loads(blob[16 : 16 + header_len].decode("utf-8"))
        if version >= 2 and header["payload_sha256"] != hashlib.sha256(data).hexdigest():
            raise CorruptFile(f"{path}: payload does not match its sha256")
        arrays, opt_arrays = _read_arrays(header["arrays"], data)
        config = mdl.ModelConfig.from_dict(header["model_config"])
        step, digest = header["global_step"], header["vocab_digest"]
        if type(step) is not int or step < 0 or not isinstance(digest, str):
            raise CorruptFile(f"{path}: bad global_step or vocab_digest")
        optimizer = None
        if version == 1:
            _fuse_v1_heads(arrays, config)
            if header["optimizer"] is not None:
                log.warning("%s: dropping version 1 optimizer state", path)
        elif header["optimizer"] is not None:
            optimizer = {"step": header["optimizer"]["step"], "arrays": opt_arrays}
            if type(optimizer["step"]) is not int or optimizer["step"] < 0:
                raise CorruptFile(f"{path}: bad optimizer step {optimizer['step']!r}")
    except (KeyError, TypeError, ValueError, AttributeError) as exc:  # JSON and UTF-8 errors are ValueErrors
        raise CorruptFile(f"{path}: malformed header ({type(exc).__name__}: {exc})") from None
    return Checkpoint(config, arrays, digest, step, optimizer)


def _epoch_batches(n: int, batch_size: int, rng: np.random.Generator):
    """Yield batches of indices forever; each epoch is one seeded shuffle pass."""
    while True:
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            yield order[start : start + batch_size]


def _fit(texts: list[str], vocab: Vocab, config: mdl.ModelConfig, cfg: TrainConfig, params: mdl.ModelParams,
         trainable: list[Tensor], batch_loss, on_step, name: str, start_step: int = 0) -> Checkpoint:
    """The step loop of pretrain and finetune: AdamW steps on ``trainable``, each on ``batch_loss(rngs, idx,
    ids, mask)`` of a trimmed batch of ``texts`` (skipped but counted if it raises ``EmptyReduction``)."""
    if not texts:
        raise EmptyCorpus(f"{name} has no lines to train on")
    rngs = make_rngs(cfg.seed)
    all_ids, all_mask = mdl.stack_batch([encode(text, vocab, config.max_len) for text in texts])
    opt = AdamW(trainable, lr=cfg.lr, weight_decay=cfg.weight_decay)
    batches = _epoch_batches(len(texts), cfg.batch_size, rngs.data)
    for step in range(1, cfg.max_steps + 1):
        opt.zero_grad()
        idx = next(batches)
        try:
            loss = batch_loss(rngs, idx, *mdl.trim_batch(all_ids[idx], all_mask[idx]))
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
    ckpt = checkpoint_from_params(params, config, vocab.digest(), start_step + cfg.max_steps)
    if cfg.checkpoint_path:
        save_checkpoint(ckpt, cfg.checkpoint_path)
    return ckpt


def pretrain(
    lines: list[str],
    vocab: Vocab,
    config: mdl.ModelConfig,
    cfg: TrainConfig,
    on_step: Optional[Callable[[int, float], None]] = None,
) -> Checkpoint:
    """Run the masked-language-model objective for ``cfg.max_steps`` steps;
    deterministic for a fixed seed. A batch without masked positions is skipped."""
    params = mdl.init_params(config, make_rngs(cfg.seed).init)

    def batch_loss(rngs, idx, ids, mask):
        ids, targets = apply_mlm_masking((ids, mask), cfg, rngs.masking, len(vocab))
        hidden = mdl.encoder_forward(ids, mask, config, params, rngs.dropout, cfg.dropout)
        return mdl.mlm_loss(hidden, targets, params)

    return _fit(lines, vocab, config, cfg, params, params.parameters(), batch_loss, on_step, "pretrain")


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

    ``pairs`` hold preprocessed verse lines. Only the encoder and the new head
    are trained; with ``head_only`` the encoder is frozen too.
    """
    ckpt.check_vocab(vocab)
    params = ckpt.to_params()
    head_w, head_b = mdl.init_head(ckpt.model_config, taxonomy.num_labels, make_rngs(cfg.seed).init)
    params.heads[taxonomy.task_id] = (head_w, head_b)
    labels = np.array([taxonomy.index(label) for _, label in pairs], dtype=np.int64)

    def batch_loss(rngs, idx, ids, mask):
        with ag.no_grad() if head_only else contextlib.nullcontext():  # a frozen encoder needs no tape
            hidden = mdl.encoder_forward(ids, mask, ckpt.model_config, params, rngs.dropout, cfg.dropout)
        return ag.cross_entropy(mdl.classify(mdl.cls_rows(hidden), head_w, head_b), labels[idx])

    # never the MLM head or another task's head: AdamW would decay them, as a missing gradient is zeros
    encoder = [] if head_only else [p for n, p in params.named_parameters() if not n.startswith(("mlm_", "heads."))]
    trainable = [*encoder, head_w, head_b]
    return _fit([line for line, _ in pairs], vocab, ckpt.model_config, cfg, params, trainable, batch_loss,
                on_step, f"finetune[{taxonomy.task_id}]", ckpt.global_step)
