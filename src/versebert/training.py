"""MLM pretraining, task fine-tuning, the masking policy, and checkpointing.

Randomness comes from one master seed split into named streams (stream order:
init, masking, dropout, data), so runs are bit-reproducible in a single
execution context. Checkpoints are a small self-describing binary: magic +
version, a JSON header (config, vocab digest, payload sha256, array manifest
with shapes and offsets), then raw little-endian float64 array payloads.
A checkpoint holds the model's parameters only; pretrain and finetune return
it, and the caller writes it. The reader takes the version the writer writes.
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
from .tokenizer import MASK_ID, N_RESERVED, Vocab, encode

log = logging.getLogger(__name__)

IGNORE_INDEX = mdl.IGNORE_INDEX
MASK_PROB, RANDOM_PROB = 0.8, 0.1  # BERT's split of the selected positions; the rest keep their ids

CHECKPOINT_MAGIC = b"VBC1"
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class TrainConfig:
    """The settings a training run varies; the masking split is fixed at ``MASK_PROB`` and ``RANDOM_PROB``."""

    batch_size: int = 256
    lr: float = 5e-5
    weight_decay: float = 0.0
    dropout: float = 0.1
    mask_ratio: float = 0.15
    max_steps: int = 800_000
    seed: int = 0
    eval_every: int = 1000

    def __post_init__(self):
        mdl.check_numeric_fields(self)
        if not 0.0 <= self.mask_ratio <= 1.0:  # NaN fails here too
            raise InvalidConfig("mask_ratio must be in [0, 1]")
        for name, least in (("batch_size", 1), ("eval_every", 1), ("max_steps", 0), ("seed", 0)):
            if getattr(self, name) < least:
                raise InvalidConfig(f"{name} must be at least {least}")
        if not 0.0 <= self.dropout < 1.0:
            raise InvalidConfig("dropout must be in [0, 1)")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise InvalidConfig("lr must be finite and positive")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0.0):
            raise InvalidConfig("weight_decay must be finite and non-negative")


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
    ``mask_ratio``; each becomes [MASK] with probability ``MASK_PROB``, a random
    non-special id with ``RANDOM_PROB``, or else keeps its id, and its target is
    its original id (elsewhere IGNORE_INDEX). The draws go row by row, exactly
    as if each row were masked alone, so one sequence is masked as a one-row batch."""
    ids = np.array(batch[0], dtype=np.int64)
    candidates = np.asarray(batch[1], dtype=bool) & (ids >= N_RESERVED)
    targets = np.full(ids.shape, IGNORE_INDEX, dtype=np.int64)
    if cfg.mask_ratio == 0.0:
        return ids, targets
    lo, hi = MASK_PROB, MASK_PROB + RANDOM_PROB
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

    def to_params(self) -> mdl.ModelParams:
        """ModelParams (including any task heads) over read-only views of the named arrays; an array that is
        missing, not of the shape the config gives it, or not part of the model raises CorruptFile naming it."""

        def tensor(name, shape):
            arr = self.arrays.get(name)
            if arr is None or arr.shape != shape:
                got = "missing" if arr is None else f"of shape {arr.shape}"
                raise CorruptFile(f"checkpoint array {name} is {got}, want shape {shape}")
            (view := arr.view()).flags.writeable = False  # scoring copies nothing, and training copies what it trains
            return Tensor(view, requires_grad=True)

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
                           global_step: int) -> Checkpoint:
    """The checkpoint of ``params`` over their own arrays: a later write to a parameter writes it too."""
    return Checkpoint(config, {name: t.data for name, t in params.named_parameters()}, vocab_digest, global_step)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Atomically write a JSON manifest header, then each raw float64 payload in turn."""
    named = [(f"param:{name}", ckpt.arrays[name]) for name in sorted(ckpt.arrays)]
    payload = [np.ascontiguousarray(arr, dtype="<f8") for _, arr in named]
    entries, digest, offset = [], hashlib.sha256(), 0
    for (name, _), arr in zip(named, payload):
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        digest.update(arr)
        offset += arr.nbytes

    header = {
        "model_config": asdict(ckpt.model_config),
        "vocab_digest": ckpt.vocab_digest,
        "global_step": ckpt.global_step,
        "optimizer": None,  # kept so the bytes, and older readers, stay as they were
        "arrays": entries,
        "payload_sha256": digest.hexdigest(),
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_text_file(path, binary=True) as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<IQ", CHECKPOINT_VERSION, len(header_bytes)))
        fh.writelines([header_bytes, *payload])


def _read_arrays(entries: list, data: memoryview) -> dict:
    """The parameter arrays of the header's array manifest; every name must be
    ``param:<name>``, every shape non-negative integers and every span must lie
    inside ``data`` without overlapping another."""
    found: dict[str, np.ndarray] = {}
    spans = []
    for entry in entries:
        name, shape, start = entry["name"], entry["shape"], entry["offset"]
        kind, _, key = name.partition(":")
        if kind != "param" or key in found:
            raise CorruptFile(f"unknown or repeated array name {name!r}")
        if not isinstance(shape, list) or any(type(n) is not int or n < 0 for n in [*shape, start]):
            raise CorruptFile(f"bad shape {shape!r} or offset {start!r} for {name}")
        end = start + 8 * math.prod(shape)
        if end > len(data):
            raise CorruptFile(f"payload of {name} runs past the end of the file")
        found[key] = np.frombuffer(data[start:end], dtype="<f8").reshape(shape).astype(np.float64, copy=False)
        spans.append((start, end, name))
    reach = 0
    for start, end, name in sorted(spans):
        if start < reach and end > start:
            raise CorruptFile(f"payload of {name} overlaps another array")
        reach = max(reach, end)
    return found


def load_checkpoint(path) -> Checkpoint:
    """Read a ``CHECKPOINT_VERSION`` checkpoint; another version raises VersionMismatch,
    and any malformed part CorruptFile.

    A file whose header carries optimizer state is refused, as this reader
    holds parameters only. The file is read into one buffer whose payload starts
    on a 64-byte boundary, so every array is aligned; on a little-endian host each
    is a view into it, and the buffer stays alive as long as any of them.
    """
    with open(path, "rb") as fh:
        skip = 16 + int.from_bytes(fh.peek(16)[8:16], "little")  # the payload's offset in the file
        raw = np.empty(os.fstat(fh.fileno()).st_size + 64, np.uint8)
        blob = memoryview(raw)[-(raw.ctypes.data + skip) % 64 :]  # the payload starts 64-byte aligned
        blob = blob[: fh.readinto(blob)]
    if len(blob) < 16 or blob[:4] != CHECKPOINT_MAGIC:
        raise CorruptFile(f"{path}: bad magic")
    version, header_len = struct.unpack("<IQ", blob[4:16])
    if version != CHECKPOINT_VERSION:
        raise VersionMismatch(f"{path}: format version {version}, reader supports {CHECKPOINT_VERSION}")
    if len(blob) < 16 + header_len:
        raise CorruptFile(f"{path}: truncated header")
    data = blob[16 + header_len :]  # slices of it copy nothing
    try:
        header = json.loads(str(blob[16 : 16 + header_len], "utf-8"))
        if header["payload_sha256"] != hashlib.sha256(data).hexdigest():
            raise CorruptFile(f"{path}: payload does not match its sha256")
        if header["optimizer"] is not None:
            raise CorruptFile(f"{path}: holds optimizer state, which checkpoints do not carry")
        arrays = _read_arrays(header["arrays"], data)
        config = mdl.ModelConfig(**header["model_config"])
        step, digest = header["global_step"], header["vocab_digest"]
        if type(step) is not int or step < 0 or not isinstance(digest, str):
            raise CorruptFile(f"{path}: bad global_step or vocab_digest")
    except (KeyError, TypeError, ValueError, AttributeError) as exc:  # JSON and UTF-8 errors are ValueErrors
        raise CorruptFile(f"{path}: malformed header ({type(exc).__name__}: {exc})") from None
    return Checkpoint(config, arrays, digest, step)


def _epoch_batches(n: int, batch_size: int, rng: np.random.Generator):
    """Yield batches of indices forever; each epoch is one seeded shuffle pass."""
    while True:
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            yield order[start : start + batch_size]


def _fit(texts: list[str], vocab: Vocab, config: mdl.ModelConfig, cfg: TrainConfig, params: mdl.ModelParams,
         trainable: list[Tensor], batch_loss, on_step, name: str, start_step: int = 0) -> Checkpoint:
    """The step loop of pretrain and finetune: AdamW steps on ``trainable``, each on ``batch_loss(rngs, idx,
    ids, mask)`` of a trimmed batch of ``texts`` (skipped but counted if it raises ``EmptyReduction``).
    Returns the checkpoint of ``params``, over their own arrays; the caller writes it, if anywhere."""
    if not texts:
        raise EmptyCorpus(f"{name} has no lines to train on")
    rngs = make_rngs(cfg.seed)
    all_ids, all_mask = mdl.stack_batch([encode(text, vocab, config.max_len) for text in texts])
    opt = AdamW(trainable, lr=cfg.lr, weight_decay=cfg.weight_decay)
    batches = _epoch_batches(len(texts), cfg.batch_size, rngs.data)
    ag.keep_freed_heap()
    skipped, reason = 0, ""  # steps that raised EmptyReduction, and the last one's message
    for step in range(1, cfg.max_steps + 1):
        opt.zero_grad()
        idx = next(batches)
        try:
            loss = batch_loss(rngs, idx, *mdl.trim_batch(all_ids[idx], all_mask[idx]))
        except EmptyReduction as exc:
            ag.reset_tape()
            skipped, reason = skipped + 1, str(exc)
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
    if skipped:
        log.warning("%s skipped %d of %d steps: %s", name, skipped, cfg.max_steps, reason)
    return checkpoint_from_params(params, config, vocab.digest(), start_step + cfg.max_steps)


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
        scored = targets != IGNORE_INDEX  # only these rows reach the last FFN and the vocabulary projection
        hidden = mdl.encoder_forward(ids, mask, config, params, rngs.dropout, cfg.dropout, np.flatnonzero(scored))
        return mdl.mlm_loss(hidden, targets[scored], params)

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
    are trained, each copied off ``ckpt``; with ``head_only`` the encoder is
    frozen too, and stays a view of ``ckpt``, as the MLM head always does.
    """
    ckpt.check_vocab(vocab)
    params = ckpt.to_params()
    head_w, head_b = mdl.init_head(ckpt.model_config, taxonomy.num_labels, make_rngs(cfg.seed).init)
    params.heads[taxonomy.task_id] = (head_w, head_b)
    labels = np.array([taxonomy.index(label) for _, label in pairs], dtype=np.int64)

    def batch_loss(rngs, idx, ids, mask):
        with ag.no_grad() if head_only else contextlib.nullcontext():  # a frozen encoder needs no tape
            cls = mdl.encoder_forward(ids, mask, ckpt.model_config, params, rngs.dropout, cfg.dropout,
                                      mdl.cls_rows(ids))
        return ag.cross_entropy(mdl.classify(cls, head_w, head_b), labels[idx])

    # never the MLM head or another task's head: AdamW would decay them, as a missing gradient is zeros
    encoder = [] if head_only else [p for n, p in params.named_parameters() if not n.startswith(("mlm_", "heads."))]
    for p in encoder:  # to_params gives read-only views, and AdamW writes in place
        p.data = p.data.copy()
    trainable = [*encoder, head_w, head_b]
    return _fit([line for line, _ in pairs], vocab, ckpt.model_config, cfg, params, trainable, batch_loss,
                on_step, f"finetune[{taxonomy.task_id}]", ckpt.global_step)
