"""Per-sequence MLM masking and the one-buffer checkpoint writer that the
batched masking and the streaming, atomic writer replaced, kept as oracles
for the equivalence tests.

Masking a (B, T) batch must give the ids, targets and random stream of
masking its rows one at a time here, and a save must give these bytes.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np

from versebert.tokenizer import MASK_ID, TokenSequence
from versebert.training import CHECKPOINT_MAGIC, IGNORE_INDEX, N_RESERVED


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
    to_mask = selected[fate < cfg.mask_prob]
    to_random = selected[(fate >= cfg.mask_prob) & (fate < cfg.mask_prob + cfg.random_prob)]
    ids[to_mask] = MASK_ID
    if to_random.size:
        ids[to_random] = rng.integers(N_RESERVED, vocab_size, size=to_random.size)
    masked = TokenSequence(tuple(int(i) for i in ids), seq.attention_mask, seq.max_len)
    return masked, targets


def save_checkpoint(ckpt, path) -> None:
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
