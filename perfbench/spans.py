"""Outside-in layer tracing for versebert.

``Tracer.install`` replaces each public function named in ``TARGETS`` with a
wrapper that records a span (name, start, end, parent) around the call. The
wrapper is set wherever a caller looks the name up: on the defining module or
class, and on every ``versebert`` module that imported the function by name
(``training.encode`` and ``evaluation.encode`` are such names). Spans stay in
memory, in flat arrays, until ``save`` writes them out.

A few wrappers also count work at the same boundary (tape records, AdamW
elements, MLM rows, masked targets, merges, unknown pieces). A function that
no longer exists is listed in ``Tracer.absent`` and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

import numpy as np

# (metric prefix, module, attribute path on that module)
TARGETS = (
    ("autograd.matmul", "versebert.autograd", "matmul"),
    ("autograd.transpose", "versebert.autograd", "transpose"),
    ("autograd.add", "versebert.autograd", "add"),
    ("autograd.scale", "versebert.autograd", "scale"),
    ("autograd.softmax_rows", "versebert.autograd", "softmax_rows"),
    ("autograd.layer_norm", "versebert.autograd", "layer_norm"),
    ("autograd.gelu", "versebert.autograd", "gelu"),
    ("autograd.embedding_lookup", "versebert.autograd", "embedding_lookup"),
    ("autograd.dropout", "versebert.autograd", "dropout"),
    ("autograd.take_rows", "versebert.autograd", "take_rows"),
    ("autograd.concat", "versebert.autograd", "concat"),
    ("autograd.sum_all", "versebert.autograd", "sum_all"),
    ("autograd.cross_entropy", "versebert.autograd", "cross_entropy"),
    ("autograd.backward", "versebert.autograd", "backward"),
    ("autograd.AdamW.step", "versebert.autograd", "AdamW.step"),
    ("model.encoder_forward", "versebert.model", "encoder_forward"),
    ("model.multi_head_attention", "versebert.model", "multi_head_attention"),
    ("model.mlm_logits", "versebert.model", "mlm_logits"),
    ("model.classify", "versebert.model", "classify"),
    ("training.apply_mlm_masking", "versebert.training", "apply_mlm_masking"),
    ("training.save_checkpoint", "versebert.training", "save_checkpoint"),
    ("training.load_checkpoint", "versebert.training", "load_checkpoint"),
    ("training.Checkpoint.to_params", "versebert.training", "Checkpoint.to_params"),
    ("preprocess.preprocess_verse", "versebert.preprocess", "preprocess_verse"),
    ("tokenizer.encode", "versebert.tokenizer", "encode"),
    ("tokenizer.train_wordpiece", "versebert.tokenizer", "train_wordpiece"),
    ("evaluation.predict_corpus", "versebert.evaluation", "predict_corpus"),
    ("evaluation.confusion_matrix", "versebert.evaluation", "confusion_matrix"),
    ("evaluation.prf_report", "versebert.evaluation", "prf_report"),
    ("corpus.generate_synthetic", "versebert.corpus", "generate_synthetic"),
    ("corpus.load_corpus", "versebert.corpus", "load_corpus"),
    ("cli.main", "versebert.cli", "main"),
    ("cli.cmd_predict", "versebert.cli", "cmd_predict"),
)

# Per-op metrics derived from the counters; see README.md for definitions.
DERIVED = (
    ("autograd.tape_records_per_step", "count"),
    ("autograd.adamw.elements", "count"),
    ("model.encoder_forward.calls_per_step", "count"),
    ("model.mlm_logits.rows_per_step", "count"),
    ("model.mlm_useful_frac", "ratio"),
    ("training.masked_tokens_per_step", "count"),
    ("tokenizer.merges", "count"),
    ("tokenizer.ms_per_merge", "ms"),
    ("tokenizer.unk_frac", "ratio"),
    ("trace.overhead_ms_per_op", "ms"),
    ("trace.overhead_frac", "ratio"),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for prefix, _, _ in TARGETS:
        units[f"{prefix}.calls"] = "count"
        units[f"{prefix}.self_s"] = "s"
    units.update(DERIVED)
    return units


def _counting_hooks(prefix: str):
    """(pre, post) hooks that add to ``counters`` for the targets that count work."""
    if prefix == "autograd.backward":
        tape_size = sys.modules["versebert.autograd"].tape_size
        return (lambda c, args: _add(c, "tape_records", tape_size())), None
    if prefix == "autograd.AdamW.step":
        return (lambda c, args: _add(c, "adamw_elements", sum(p.data.size for p in args[0].params))), None
    if prefix == "model.mlm_logits":
        return None, lambda c, out: _add(c, "mlm_rows", out.data.size // out.data.shape[-1])
    if prefix == "training.apply_mlm_masking":
        ignore = sys.modules["versebert.training"].IGNORE_INDEX
        return None, lambda c, out: _add(c, "masked_tokens", int((np.asarray(out[1]) != ignore).sum()))
    if prefix == "tokenizer.train_wordpiece":
        return None, lambda c, vocab: _add(c, "merges", merges(vocab.tokens))
    if prefix == "tokenizer.encode":
        unk = sys.modules["versebert.tokenizer"].UNK_ID

        def post(c, seq):
            _add(c, "pieces", sum(seq.attention_mask) - 2)
            _add(c, "unk_pieces", seq.ids.count(unk))

        return None, post
    return None, None


def _add(counters: dict, key: str, amount) -> None:
    counters[key] = counters.get(key, 0) + amount


def merges(tokens) -> int:
    """Merged tokens in a trained vocabulary: everything past the 7 reserved
    tokens and the seed alphabet (each letter plus its ``##`` form)."""
    n_letters = sum(1 for t in tokens[7:] if len(t) == 1)
    return len(tokens) - 7 - 2 * n_letters


class Tracer:
    """Spans and counters of one traced run, held in memory.

    While ``active`` is false the installed wrappers call straight through and
    record nothing, so traced and untraced operations can alternate.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.active = True
        self.names = [prefix for prefix, _, _ in TARGETS]
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("i")
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every target that exists; record the missing ones in ``absent``."""
        for nid, (prefix, module_name, path) in enumerate(TARGETS):
            module = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(prefix)
                continue
            wrapper = self._wrap(original, nid, *_counting_hooks(prefix))
            self._set(owner, attr, wrapper)
            if not owner_path:
                for name, mod in list(sys.modules.items()):
                    if name.startswith("versebert.") and mod is not module:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._set(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _set(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, nid, pre, post):
        start, end, parent, name, stack = self.start, self.end, self.parent, self.name, self._stack
        counters = self.counters
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(counters, args)
            i = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(nid)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if post is not None:
                post(counters, result)
            return result

        return wrapper

    def save(self, path) -> None:
        """Write spans, counters and absent targets to ``path`` (a .npz file)."""
        np.savez(
            path,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int32),
            meta=np.array(json.dumps({
                "run_id": self.run_id, "names": self.names,
                "counters": self.counters, "absent": self.absent,
            })),
        )

    def totals(self) -> dict:
        return totals(
            np.frombuffer(self.start, dtype=np.float64), np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.parent, dtype=np.int64), np.frombuffer(self.name, dtype=np.int32),
            self.names, self.counters, self.absent,
        )


def load_totals(path) -> dict:
    """``totals`` of a span file written by ``Tracer.save``."""
    with np.load(path) as data:
        meta = json.loads(str(data["meta"]))
        return totals(data["start"], data["end"], data["parent"], data["name"],
                      meta["names"], meta["counters"], meta["absent"])


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    out = end - start
    children: dict[int, list[int]] = {}
    for i, p in enumerate(np.asarray(parent).tolist()):
        if p >= 0:
            children.setdefault(p, []).append(i)
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered, reach = 0.0, lo
        for k in sorted(kids, key=lambda k: start[k]):
            s, e = max(start[k], reach), min(end[k], hi)
            if e > s:
                covered += e - s
                reach = e
        out[p] -= covered
    return out


def totals(start, end, parent, name, names, counters, absent) -> dict:
    """``{"calls": {prefix: n}, "self_s": {prefix: s}, "counters": ..., "absent": ...}``."""
    own = self_times(start, end, parent)
    name = np.asarray(name, dtype=np.int64)
    calls = np.bincount(name, minlength=len(names))
    self_s = np.bincount(name, weights=own, minlength=len(names))
    return {
        "calls": {n: int(calls[i]) for i, n in enumerate(names)},
        "self_s": {n: float(self_s[i]) for i, n in enumerate(names)},
        "counters": dict(counters),
        "absent": list(absent),
        "spans": int(len(name)),
    }


def merge_totals(parts: list[dict]) -> dict:
    out = {"calls": {}, "self_s": {}, "counters": {}, "absent": set(), "spans": 0}
    for part in parts:
        for key in ("calls", "self_s", "counters"):
            for k, v in part[key].items():
                out[key][k] = out[key].get(k, 0) + v
        out["absent"].update(part["absent"])
        out["spans"] += part["spans"]
    out["absent"] = sorted(out["absent"])
    return out


def layer_metrics(tot: dict, ops: int, steps: int, overhead_ms: float, overhead_frac: float) -> dict:
    """Per-layer metrics per operation of the workload (``ops`` of them, of
    which ``steps`` were training steps)."""
    calls, self_s, c = tot["calls"], tot["self_s"], tot["counters"]

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for prefix, _, _ in TARGETS:
        out[f"{prefix}.calls"] = ratio(calls.get(prefix, 0), ops)
        out[f"{prefix}.self_s"] = ratio(self_s.get(prefix, 0.0), ops)
    merged = c.get("merges", 0)
    out.update({
        "autograd.tape_records_per_step": ratio(c.get("tape_records", 0), calls.get("autograd.backward", 0)),
        "autograd.adamw.elements": ratio(c.get("adamw_elements", 0), calls.get("autograd.AdamW.step", 0)),
        "model.encoder_forward.calls_per_step": ratio(calls.get("model.encoder_forward", 0), steps),
        "model.mlm_logits.rows_per_step": ratio(c.get("mlm_rows", 0), steps),
        "model.mlm_useful_frac": ratio(c.get("masked_tokens", 0), c.get("mlm_rows", 0)),
        "training.masked_tokens_per_step": ratio(c.get("masked_tokens", 0), steps),
        "tokenizer.merges": ratio(merged, calls.get("tokenizer.train_wordpiece", 0)),
        "tokenizer.ms_per_merge": ratio(1000.0 * self_s.get("tokenizer.train_wordpiece", 0.0), merged),
        "tokenizer.unk_frac": ratio(c.get("unk_pieces", 0), c.get("pieces", 0)),
        "trace.overhead_ms_per_op": overhead_ms,
        "trace.overhead_frac": overhead_frac,
    })
    return out
