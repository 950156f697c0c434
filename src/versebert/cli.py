"""Command-line entry point exposing the full pipeline.

Subcommands: synth, preprocess, train-tokenizer, encode, pretrain, finetune,
evaluate, predict. Every file-producing run writes a JSON manifest next to its
main output (command, resolved config, input digests, seed, artifact paths,
wall-clock duration) so results can be replayed exactly.

Exit codes: 0 success, 1 domain error (error class name on stderr), 2 usage
error. Configuration precedence: explicit flags > --config JSON > preset.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
import time

import numpy as np

from . import corpus as corpus_mod
from . import evaluation, preprocess, tokenizer, training
from . import model as mdl
from .errors import DigestMismatch, VerseBertError

log = logging.getLogger("versebert")

PRESETS = ("tiny", "paper")
TRAIN_FLAGS = {"batch_size": int, "lr": float, "weight_decay": float, "dropout": float,
               "mask_ratio": float, "max_steps": int, "seed": int, "eval_every": int}
MODEL_FLAGS = {"num_layers": int, "num_heads": int, "hidden": int, "max_len": int}


def _digest_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_path, command, config, inputs, seed, artifacts, started):
    manifest = {
        "command": command,
        "config": config,
        "input_digests": {str(p): _digest_file(p) for p in inputs},
        "seed": seed,
        "artifacts": [str(a) for a in artifacts],
        "duration_seconds": round(time.time() - started, 3),
    }
    path = str(out_path) + ".manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _given_flags(args, flags) -> dict:
    """The flags in ``flags`` that were passed explicitly."""
    return {key: getattr(args, key) for key in flags if getattr(args, key, None) is not None}


def _resolve_train_config(args, overrides: dict) -> training.TrainConfig:
    """Merge precedence: explicit CLI flags > --config JSON > preset defaults."""
    cfg = training.tiny_train_config() if args.preset == "tiny" else training.TrainConfig()
    merged = cfg.to_dict()
    merged.update(_load_config_file(getattr(args, "config", None)))
    merged.update(_given_flags(args, TRAIN_FLAGS))
    merged.update(overrides)
    return training.TrainConfig.from_dict(merged)


def _resolve_model_config(args, vocab_size: int) -> mdl.ModelConfig:
    merged = (mdl.tiny_config if args.preset == "tiny" else mdl.paper_config)(vocab_size=vocab_size).to_dict()
    file_cfg = _load_config_file(getattr(args, "config", None))
    merged.update({key: file_cfg[key] for key in merged if key in file_cfg})
    merged.update(_given_flags(args, MODEL_FLAGS))
    merged["vocab_size"] = vocab_size
    return mdl.ModelConfig.from_dict(merged)


def _add_train_flags(p):
    p.add_argument("--preset", choices=PRESETS, default="tiny")
    p.add_argument("--config", help="JSON file with config overrides")
    for key, kind in {**TRAIN_FLAGS, **MODEL_FLAGS}.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=kind)


def cmd_synth(args) -> int:
    started = time.time()
    store = corpus_mod.generate_synthetic(args.n, args.seed, args.signal)
    corpus_mod.write_corpus(store, args.out)
    _write_manifest(
        args.out, "synth",
        {"n": args.n, "signal": corpus_mod.taxonomy(args.signal).task_id},
        [], args.seed, [args.out], started,
    )
    return 0


def cmd_preprocess(args) -> int:
    started = time.time()
    store = corpus_mod.load_corpus(args.infile)
    verses = preprocess.preprocess_corpus(store)
    preprocess.write_lines(verses, args.out)
    _write_manifest(args.out, "preprocess", {}, [args.infile], None, [args.out], started)
    return 0


def cmd_train_tokenizer(args) -> int:
    started = time.time()
    lines = preprocess.read_lines(args.infile)
    vocab = tokenizer.train_wordpiece(lines, args.vocab_size, args.min_frequency)
    vocab.save(args.out)
    _write_manifest(
        args.out, "train-tokenizer",
        {"vocab_size": args.vocab_size, "min_frequency": args.min_frequency},
        [args.infile], None, [args.out], started,
    )
    return 0


def cmd_encode(args) -> int:
    vocab = tokenizer.Vocab.load(args.vocab)
    lines = preprocess.read_lines(args.infile) if args.infile else [
        l.rstrip("\n") for l in sys.stdin if l.strip()
    ]
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for line in lines:
            seq = tokenizer.encode(line, vocab, args.max_len)
            ids = " ".join(str(i) for i in seq.ids)
            mask = " ".join(str(m) for m in seq.attention_mask)
            out.write(f"{ids}\t{mask}\n")
    finally:
        if args.out:
            out.close()
    return 0


def cmd_pretrain(args) -> int:
    started = time.time()
    vocab = tokenizer.Vocab.load(args.vocab)
    lines = preprocess.read_lines(args.lines)
    model_cfg = _resolve_model_config(args, len(vocab))
    train_cfg = _resolve_train_config(args, {"checkpoint_path": args.out})
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    training.pretrain(lines, vocab, model_cfg, train_cfg)
    _write_manifest(
        args.out, "pretrain",
        {"model": model_cfg.to_dict(), "train": train_cfg.to_dict()},
        [args.lines, args.vocab], train_cfg.seed, [args.out], started,
    )
    return 0


def _labeled_lines(store, task_id):
    pairs = []
    for record, label in corpus_mod.task_pairs(store, task_id):
        pairs.append((preprocess.preprocess_verse(record).line, label))
    return pairs


def cmd_finetune(args) -> int:
    started = time.time()
    vocab = tokenizer.Vocab.load(args.vocab)
    ckpt = training.load_checkpoint(args.ckpt)
    tax = corpus_mod.taxonomy(args.task)
    store = corpus_mod.load_corpus(args.corpus)
    train_cfg = _resolve_train_config(args, {"checkpoint_path": args.out})

    train_store, val_store = corpus_mod.split(
        store, args.ratio, args.split_seed if args.split_seed is not None else train_cfg.seed
    )
    pairs = _labeled_lines(train_store, tax.task_id)
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    tuned = training.finetune(ckpt, pairs, tax, vocab, train_cfg, head_only=args.head_only)

    report = evaluation.evaluate(tuned, val_store, tax, vocab)
    log.info("validation accuracy: %.4f over %d samples", report.accuracy, report.total_samples)
    _write_manifest(
        args.out, "finetune",
        {
            "task": tax.task_id, "ratio": args.ratio, "head_only": args.head_only,
            "train": train_cfg.to_dict(),
        },
        [args.ckpt, args.corpus, args.vocab], train_cfg.seed, [args.out], started,
    )
    return 0


def cmd_evaluate(args) -> int:
    started = time.time()
    vocab = tokenizer.Vocab.load(args.vocab)
    ckpt = training.load_checkpoint(args.ckpt)
    tax = corpus_mod.taxonomy(args.task)
    store = corpus_mod.load_corpus(args.corpus)
    report = evaluation.evaluate(ckpt, store, tax, vocab)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    csv_path = str(args.out) + ".confusion.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(report.confusion_csv())
    print(report.format_table())
    _write_manifest(
        args.out, "evaluate", {"task": tax.task_id},
        [args.ckpt, args.corpus, args.vocab], None, [args.out, csv_path], started,
    )
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
    if ckpt.vocab_digest != vocab.digest():
        raise DigestMismatch("vocab content does not match the checkpoint's digest")
    tasks = ckpt.head_tasks()
    if args.task:
        task_id = corpus_mod.taxonomy(args.task).task_id
    elif len(tasks) == 1:
        task_id = tasks[0]
    else:
        print(f"checkpoint has heads {tasks}; pass --task", file=sys.stderr)
        return 2
    tax = corpus_mod.taxonomy(task_id)
    params = ckpt.to_params()
    if task_id not in params.heads:
        print(f"checkpoint has no head for task {task_id}", file=sys.stderr)
        return 2
    config = ckpt.model_config

    for raw in sys.stdin:
        raw = raw.rstrip("\n")
        if not raw.strip():
            continue
        seq = tokenizer.encode(preprocess.preprocess_verse(_predict_record(raw)).line, vocab, config.max_len)
        logits = mdl.predict_logits([seq], config, params, params.heads[task_id])[0]
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        pred = int(np.argmax(logits))
        print(f"{tax.name(pred)}\t{probs[pred]:.4f}")
    return 0


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
    _add_train_flags(p)
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
    _add_train_flags(p)
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
        return int(exc.code) if exc.code else 2
    try:
        return args.func(args)
    except VerseBertError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
