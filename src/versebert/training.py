"""MLM pretraining, task fine-tuning, the masking policy, and checkpointing.

Randomness comes from one master seed split into named streams (stream order:
init, masking, dropout, data), so runs are bit-reproducible in a single
execution context. Checkpoints are a small self-describing binary: magic +
version, a JSON header (config, vocab digest, payload sha256, array manifest
with shapes and offsets), then raw little-endian float64 array payloads.
Version 1 files, which stored per-head Q/K/V arrays, still load.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
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
    EmptyReduction,
    NonFiniteLoss,
    VersionMismatch,
)
from .tokenizer import MASK_ID, TokenSequence, Vocab, encode

log = logging.getLogger(__name__)

IGNORE_INDEX = ag.IGNORE_INDEX
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
        if abs(self.mask_prob + self.random_prob + self.keep_prob - 1.0) > 1e-12:
            raise ValueError("mask/random/keep probabilities must sum to 1")
        if not 0.0 <= self.mask_ratio <= 1.0:
            raise ValueError("mask_ratio must be in [0, 1]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k != "checkpoint_path"}

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        known = {k: v for k, v in d.items() if k in cls.__dataclass_fields__}
        return cls(**known)


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


def apply_mlm_masking(
    seq: TokenSequence,
    cfg: TrainConfig,
    rng: np.random.Generator,
    vocab_size: int,
) -> tuple[TokenSequence, np.ndarray]:
    """Independently select unpadded non-special positions with probability
    ``mask_ratio``; each selected position becomes [MASK] / a random
    non-special id / its original id per the configured split. Targets hold the
    original id at selected positions and IGNORE_INDEX elsewhere.
    """
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
    to_mask = selected[fate < cfg.mask_prob]
    to_random = selected[(fate >= cfg.mask_prob) & (fate < cfg.mask_prob + cfg.random_prob)]
    ids[to_mask] = MASK_ID
    if to_random.size:
        ids[to_random] = rng.integers(N_RESERVED, vocab_size, size=to_random.size)
    masked = TokenSequence(tuple(int(i) for i in ids), seq.attention_mask, seq.max_len)
    return masked, targets


@dataclass
class Checkpoint:
    format_version: int
    model_config: mdl.ModelConfig
    arrays: dict[str, np.ndarray]
    vocab_digest: str
    global_step: int
    optimizer: Optional[dict] = None  # {"step": int, "arrays": {name: array}}

    def to_params(self) -> mdl.ModelParams:
        """Rebuild ModelParams (including any task heads) from the named arrays."""
        cfg = self.model_config

        def t(name):
            if name not in self.arrays:
                raise CorruptFile(f"checkpoint has no array {name}")
            return Tensor(self.arrays[name].copy(), requires_grad=True)

        layers = [
            mdl.LayerParams(**{f: t(f"layers.{li}.{f}") for f in mdl.LAYER_FIELDS})
            for li in range(cfg.num_layers)
        ]
        return mdl.ModelParams(
            token_embedding=t("token_embedding"),
            positional=t("positional") if "positional" in self.arrays else None,
            layers=layers,
            mlm_w=t("mlm_w"),
            mlm_b=t("mlm_b"),
            heads={task: (t(f"heads.{task}.w"), t(f"heads.{task}.b")) for task in self.head_tasks()},
        )

    def head_tasks(self) -> list[str]:
        return sorted({n[len("heads."):].rsplit(".", 1)[0] for n in self.arrays if n.startswith("heads.")})


def checkpoint_from_params(params: mdl.ModelParams, config: mdl.ModelConfig, vocab_digest: str,
                           global_step: int, optimizer: Optional[AdamW] = None) -> Checkpoint:
    arrays = {name: t.data.copy() for name, t in params.named_parameters()}
    opt_state = None if optimizer is None else {
        "step": optimizer.step_count, "arrays": {k: v.copy() for k, v in optimizer.state_arrays().items()},
    }
    return Checkpoint(CHECKPOINT_VERSION, config, arrays, vocab_digest, global_step, opt_state)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Serialize with a JSON manifest header followed by raw float64 payloads."""
    entries = []
    payload = bytearray()
    def put(name, arr):
        arr = np.ascontiguousarray(arr, dtype="<f8")
        entries.append({"name": name, "shape": list(arr.shape), "offset": len(payload)})
        payload.extend(arr.tobytes())

    for name in sorted(ckpt.arrays):
        put(f"param:{name}", ckpt.arrays[name])
    opt_meta = None
    if ckpt.optimizer is not None:
        opt_meta = {"step": ckpt.optimizer["step"]}
        for name in sorted(ckpt.optimizer["arrays"]):
            put(f"opt:{name}", ckpt.optimizer["arrays"][name])

    header = {
        "model_config": ckpt.model_config.to_dict(),
        "vocab_digest": ckpt.vocab_digest,
        "global_step": ckpt.global_step,
        "optimizer": opt_meta,
        "arrays": entries,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<IQ", ckpt.format_version, len(header_bytes)))
        fh.write(header_bytes + payload)


def _read_arrays(entries: list, data: bytes) -> tuple[dict, dict]:
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
        found[kind][key] = np.frombuffer(data[start:end], dtype="<f8").reshape(shape).astype(np.float64)
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
    indexed by the old parameter order, so they are dropped.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16 or blob[:4] != CHECKPOINT_MAGIC:
        raise CorruptFile(f"{path}: bad magic")
    version, header_len = struct.unpack("<IQ", blob[4:16])
    if version not in READABLE_VERSIONS:
        raise VersionMismatch(f"{path}: format version {version}, reader supports {READABLE_VERSIONS}")
    if len(blob) < 16 + header_len:
        raise CorruptFile(f"{path}: truncated header")
    data = blob[16 + header_len :]
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
    except (KeyError, TypeError, ValueError, AttributeError) as exc:  # JSON and UTF-8 errors are ValueErrors
        raise CorruptFile(f"{path}: malformed header ({type(exc).__name__}: {exc})") from None
    return Checkpoint(CHECKPOINT_VERSION, config, arrays, digest, step, optimizer)


def _epoch_batches(n: int, batch_size: int, rng: np.random.Generator):
    """Yield batches of indices forever; each epoch is one seeded shuffle pass."""
    while True:
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            chunk = order[start : start + batch_size]
            if chunk.size:
                yield [int(i) for i in chunk]


def _train_forward(seqs, config: mdl.ModelConfig, params, cfg: TrainConfig, rngs: RunRngs) -> Tensor:
    """Training-mode hidden states (B x T x d) of ``seqs`` as one trimmed batch."""
    ids, mask = mdl.stack_batch(seqs)
    return mdl.encoder_forward(ids, mask, config, params, True, rngs.dropout, cfg.dropout)


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
    sequences = [encode(line, vocab, config.max_len) for line in lines]
    if not sequences:
        raise ValueError("no input lines to pretrain on")
    opt = AdamW(params.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    batches = _epoch_batches(len(sequences), cfg.batch_size, rngs.data)

    def batch_loss():
        batch = [sequences[i] for i in next(batches)]
        masked, targets = zip(*(apply_mlm_masking(s, cfg, rngs.masking, len(vocab)) for s in batch))
        hidden = _train_forward(masked, config, params, cfg, rngs)
        return mdl.mlm_loss(hidden, np.stack(targets)[:, : hidden.shape[1]], params)

    _run_steps(cfg, opt, batch_loss, on_step, "pretrain")
    ckpt = checkpoint_from_params(params, config, vocab.digest(), cfg.max_steps)
    if cfg.checkpoint_path:
        save_checkpoint(ckpt, cfg.checkpoint_path)
    return ckpt


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
    head_w, head_b = mdl.init_head(config, taxonomy.num_labels, rngs.init)
    params.heads[taxonomy.task_id] = (head_w, head_b)

    sequences = [encode(line, vocab, config.max_len) for line, _ in pairs]
    labels = np.array([taxonomy.index(label) for _, label in pairs], dtype=np.int64)
    if not sequences:
        raise ValueError("no labeled pairs to finetune on")

    trainable = [head_w, head_b] if head_only else params.parameters()
    opt = AdamW(trainable, lr=cfg.lr, weight_decay=cfg.weight_decay)
    batches = _epoch_batches(len(sequences), cfg.batch_size, rngs.data)

    def batch_loss():
        idx = next(batches)
        hidden = _train_forward([sequences[i] for i in idx], config, params, cfg, rngs)
        return ag.cross_entropy(mdl.classify(hidden, head_w, head_b), labels[idx])

    _run_steps(cfg, opt, batch_loss, on_step, f"finetune[{taxonomy.task_id}]")
    out = checkpoint_from_params(params, config, ckpt.vocab_digest, ckpt.global_step + cfg.max_steps)
    if cfg.checkpoint_path:
        save_checkpoint(out, cfg.checkpoint_path)
    return out
