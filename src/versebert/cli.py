"""Command-line entry point exposing the full pipeline.

Subcommands: synth, preprocess, train-tokenizer, encode, pretrain, finetune,
evaluate, predict. Every file-producing run writes a JSON manifest next to its
main output (command, resolved config, input digests, seed, artifact paths,
wall-clock duration from ``main``'s start, and the Python, numpy, BLAS, OpenBLAS
kernel and OPENBLAS_THREAD_TIMEOUT in effect) so results can be replayed exactly.

Exit codes: 0 success, 1 domain error (memory that runs out is ``OutOfMemory``) or a
file that cannot be read or written (error class name on stderr), 2 usage error.
``predict`` answers a stdin line that fails preprocessing with an
``ERROR<TAB><ErrorName>: <message>`` row, keeps reading, and exits 1 at the end.
Configuration precedence: explicit flags > --config JSON > preset.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import logging
import os
import platform
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import evaluation, preprocess, tokenizer, training
from . import model as mdl
from .errors import CorruptFile, EmptyCorpus, InvalidConfig, LabelOutOfRange, OutOfMemory, VerseBertError

log = logging.getLogger("versebert")

PRESETS = ("tiny", "paper")
TRAIN_FLAGS = {"batch_size": int, "lr": float, "weight_decay": float, "dropout": float,
               "mask_ratio": float, "max_steps": int, "seed": int, "eval_every": int}
MODEL_FLAGS = {"num_layers": int, "num_heads": int, "hidden": int, "max_len": int}
# Config fields each command sets itself or never reads; neither a config file nor a flag may set them.
NOT_FROM_USER = {"pretrain": ("vocab_size",), "finetune": ("mask_ratio",)}


def _digest_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def openblas_core():
    """The kernel set numpy's bundled OpenBLAS picked for this CPU, such as "SkylakeX"; else None."""
    for lib in Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas64_*"):
        if core := getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None):
            core.argtypes, core.restype = [], ctypes.c_char_p
            return core().decode()


def _write_manifest(args, config, inputs, seed=None, extra=()):
    """The manifest of ``args``' command next to ``args.out``, timed from ``main``'s start."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    manifest = {
        "command": args.command,
        "config": config,
        "input_digests": {str(p): _digest_file(p) for p in inputs},
        "seed": seed,
        "artifacts": [str(a) for a in (args.out, *extra)],
        "duration_seconds": round(time.time() - args.started, 3),
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "blas": f"{blas['name']} {blas['version']}", "openblas_core": openblas_core(),
                        "openblas_thread_timeout": os.environ.get("OPENBLAS_THREAD_TIMEOUT")},
    }
    with preprocess.atomic_text_file(str(args.out) + ".manifest.json") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_config_file(path, command, *kinds) -> dict:
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except ValueError as exc:  # JSON and UTF-8 errors
            raise CorruptFile(f"{path}: not JSON ({exc})") from None
    if not isinstance(cfg, dict):
        raise CorruptFile(f"{path}: a config file must hold a JSON object")
    known = set().union(*(kind.__dataclass_fields__ for kind in kinds)).difference(NOT_FROM_USER[command])
    if unknown := sorted(set(cfg) - known):
        raise InvalidConfig(f"{path}: {command} does not take config keys {', '.join(unknown)}")
    return cfg


def _given_flags(args, flags) -> dict:
    """The flags in ``flags`` that were passed explicitly."""
    return {key: getattr(args, key) for key in flags if getattr(args, key, None) is not None}


def _merge(args, preset, file_cfg: dict, flags: dict) -> dict:
    """The fields of config ``preset``, overridden by ``file_cfg``, then by the explicit ``flags``."""
    merged = asdict(preset)
    merged.update({key: file_cfg[key] for key in merged if key in file_cfg})
    merged.update(_given_flags(args, flags))
    return merged


def _resolve_train_config(args, file_cfg: dict) -> training.TrainConfig:
    preset = training.tiny_train_config() if args.preset == "tiny" else training.TrainConfig()
    return training.TrainConfig(**_merge(args, preset, file_cfg, TRAIN_FLAGS))


def _resolve_model_config(args, file_cfg: dict, vocab_size: int) -> mdl.ModelConfig:
    preset = (mdl.tiny_config if args.preset == "tiny" else mdl.paper_config)(vocab_size=vocab_size)
    # ffn_dim is derived from hidden, not copied from the preset, unless the config file sets it
    return mdl.ModelConfig(**_merge(args, preset, {"ffn_dim": None, **file_cfg}, MODEL_FLAGS))


def _add_train_flags(p, flags: dict):
    p.add_argument("--preset", choices=PRESETS, default="tiny")
    p.add_argument("--config", help="JSON file with config overrides")
    for key, kind in flags.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=kind)


def cmd_synth(args) -> int:
    store = corpus_mod.generate_synthetic(args.n, args.seed, args.signal)
    corpus_mod.write_corpus(store, args.out)
    _write_manifest(args, {"n": args.n, "signal": corpus_mod.taxonomy(args.signal).task_id}, [], args.seed)
    return 0


def cmd_preprocess(args) -> int:
    store = corpus_mod.load_corpus(args.infile)
    verses = preprocess.preprocess_corpus(store)
    preprocess.write_lines(verses, args.out)
    _write_manifest(args, {}, [args.infile])
    return 0


def cmd_train_tokenizer(args) -> int:
    lines = preprocess.read_lines(args.infile)
    vocab = tokenizer.train_wordpiece(lines, args.vocab_size, args.min_frequency)
    vocab.save(args.out)
    _write_manifest(args, {"vocab_size": args.vocab_size, "min_frequency": args.min_frequency}, [args.infile])
    return 0


def cmd_encode(args) -> int:
    vocab = tokenizer.Vocab.load(args.vocab)
    lines = preprocess.read_lines(args.infile) if args.infile else preprocess.verse_lines(sys.stdin)
    with preprocess.atomic_text_file(args.out) if args.out else contextlib.nullcontext(sys.stdout) as out:
        for line in lines:
            seq = tokenizer.encode(line, vocab, args.max_len)
            ids = " ".join(str(i) for i in seq.ids)
            mask = " ".join(str(m) for m in seq.attention_mask)
            out.write(f"{ids}\t{mask}\n")
    if args.out:
        _write_manifest(args, {"max_len": args.max_len}, [args.vocab] + ([args.infile] if args.infile else []))
    return 0


def cmd_pretrain(args) -> int:
    vocab = tokenizer.Vocab.load(args.vocab)
    lines = preprocess.read_lines(args.lines)
    file_cfg = _load_config_file(args.config, "pretrain", training.TrainConfig, mdl.ModelConfig)
    train_cfg = _resolve_train_config(args, file_cfg)
    model_cfg = _resolve_model_config(args, {**file_cfg, "dropout": train_cfg.dropout}, len(vocab))
    training.save_checkpoint(training.pretrain(lines, vocab, model_cfg, train_cfg), args.out)
    _write_manifest(args, {"model": asdict(model_cfg), "train": asdict(train_cfg)},
                    [args.lines, args.vocab], train_cfg.seed)
    return 0


def cmd_finetune(args) -> int:
    vocab = tokenizer.Vocab.load(args.vocab)
    ckpt = training.load_checkpoint(args.ckpt)
    tax = corpus_mod.taxonomy(args.task)
    store = corpus_mod.load_corpus(args.corpus)
    file_cfg = _load_config_file(args.config, "finetune", training.TrainConfig)  # the shape is the checkpoint's
    train_cfg = _resolve_train_config(args, file_cfg)

    train_store, val_store = corpus_mod.split(
        store, args.ratio, args.split_seed if args.split_seed is not None else train_cfg.seed
    )
    # every validation verse is read before training, so a missing label or a bad verse leaves no checkpoint
    if not [preprocess.preprocess_verse(r) for r, _ in corpus_mod.task_pairs(val_store, tax.task_id)]:
        raise EmptyCorpus(f"finetune: the validation split has no {tax.task_id} label")
    pairs = [(preprocess.preprocess_verse(r).line, y) for r, y in corpus_mod.task_pairs(train_store, tax.task_id)]
    tuned = training.finetune(ckpt, pairs, tax, vocab, train_cfg, head_only=args.head_only)
    training.save_checkpoint(tuned, args.out)

    report = evaluation.evaluate(tuned, val_store, tax, vocab)
    log.info("validation accuracy: %.4f over %d samples", report.accuracy, report.total_samples)
    _write_manifest(
        args, {"task": tax.task_id, "ratio": args.ratio, "head_only": args.head_only, "train": asdict(train_cfg)},
        [args.ckpt, args.corpus, args.vocab], train_cfg.seed,
    )
    return 0


def cmd_evaluate(args) -> int:
    vocab = tokenizer.Vocab.load(args.vocab)
    ckpt = training.load_checkpoint(args.ckpt)
    tax = corpus_mod.taxonomy(args.task)
    store = corpus_mod.load_corpus(args.corpus)
    report = evaluation.evaluate(ckpt, store, tax, vocab)
    with preprocess.atomic_text_file(args.out) as fh:
        fh.write(report.to_json() + "\n")
    csv_path = str(args.out) + ".confusion.csv"
    with preprocess.atomic_text_file(csv_path) as fh:
        fh.write(report.confusion_csv())
    print(report.format_table())
    _write_manifest(args, {"task": tax.task_id}, [args.ckpt, args.corpus, args.vocab], extra=[csv_path])
    return 0


def _predict_record(line_text: str) -> corpus_mod.VerseRecord:
    """A raw stdin verse: split hemistichs at the first tab if one is present."""
    if "\t" in line_text:
        h1, h2 = line_text.split("\t", 1)
        return corpus_mod.VerseRecord(0, h1, h2 or None)
    return corpus_mod.VerseRecord(0, line_text)


def cmd_predict(args) -> int:
    vocab = tokenizer.Vocab.load(args.vocab)
    ckpt = training.load_checkpoint(args.ckpt)
    tasks = ckpt.head_tasks()
    if not args.task and len(tasks) > 1:
        print(f"checkpoint has heads {tasks}; pass --task", file=sys.stderr)
        return 2
    if not (args.task or tasks):
        raise LabelOutOfRange("checkpoint has no task head; finetune one first")
    tax = corpus_mod.taxonomy(args.task or tasks[0])
    config, logits_of = evaluation.classifier(ckpt, tax, vocab)

    failed = False
    for raw in sys.stdin:
        raw = raw.rstrip("\n")
        if not raw.strip():
            continue
        try:
            line = preprocess.preprocess_verse(_predict_record(raw)).line
        except VerseBertError as exc:
            print(f"ERROR\t{type(exc).__name__}: {exc}")
            failed = True
            continue
        seq = tokenizer.encode(line, vocab, config.max_len)
        logits = logits_of([seq])[0]
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        pred = int(np.argmax(logits))
        print(f"{tax.name(pred)}\t{probs[pred]:.4f}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="versebert",
        description="Arabic-verse language model pipeline: corpus synthesis through evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--signal", required=True, help="task id to plant (e.g. rhyme, gender)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="normalize a corpus into verse lines")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train-tokenizer", help="train a WordPiece vocabulary")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--vocab-size", dest="vocab_size", type=int, required=True)
    p.add_argument("--min-frequency", dest="min_frequency", type=int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_tokenizer)

    p = sub.add_parser("encode", help="encode lines to fixed-length id sequences")
    p.add_argument("--vocab", required=True)
    p.add_argument("--max-len", dest="max_len", type=int, default=32)
    p.add_argument("--in", dest="infile")
    p.add_argument("--out")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("pretrain", help="masked-language-model pretraining")
    p.add_argument("--lines", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    _add_train_flags(p, {**TRAIN_FLAGS, **MODEL_FLAGS})
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="train a task head from a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ratio", type=float, default=0.8, help="train share of the 80/20 split")
    p.add_argument("--split-seed", dest="split_seed", type=int)
    p.add_argument("--head-only", dest="head_only", action="store_true")
    # the model shape comes from the checkpoint, and finetune does not mask
    _add_train_flags(p, {k: v for k, v in TRAIN_FLAGS.items() if k not in NOT_FROM_USER["finetune"]})
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", help="classification report on a labeled corpus")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="classify raw verses from stdin")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--task")
    p.set_defaults(func=cmd_predict)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)  # 0 after --help, 2 after a usage error
    args.started = time.time()
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    try:
        return args.func(args)
    except (VerseBertError, OSError, MemoryError) as exc:
        if isinstance(exc, MemoryError):  # from numpy, a model or batch too large for this host
            exc = OutOfMemory(str(exc) or "an allocation failed")
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
