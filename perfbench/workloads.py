"""One benchmark workload, run in its own fresh process by ``run.py``.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds T
        --trace 0|1 --t0 LAUNCH_TIME [--setup-only]

``--t0`` is the parent's ``time.perf_counter()`` just before it launched this
process (the clock is system-wide on Linux), so set-up time includes the
interpreter start and imports. The last line of standard output is one JSON
object with the timings, the checks and, when traced, the per-layer totals.

Every workload is a closed loop with one client: the next operation starts
only when the previous one has returned.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

from versebert import corpus, evaluation, preprocess, tokenizer, training  # noqa: E402
from versebert import model as mdl  # noqa: E402
from versebert.errors import VerseBertError  # noqa: E402

import gen  # noqa: E402
import calib  # noqa: E402
import spans  # noqa: E402
from run import source_digest  # noqa: E402

WORKLOADS = ("pretrain-tiny", "pretrain-mid", "classify", "tokenize")

WARMUP_STEPS = 3
LOSS_RTOL = 1e-6  # relative; permits reordered float64 sums, catches wrong maths
ACCURACY_ATOL = 0.005

MID_VOCAB = 8000
TOKENIZE_VOCAB = 300
TOKENIZE_TRAIN_LINES = 1200
TOKENIZE_ENCODE_LINES = 12000
ENCODE_CHUNK = 1000
HELDOUT_VERSES = 1000
HELDOUT_POOL = 20000
CLASSIFY_EVAL_SHARE = 0.35  # of the timed run spent in evaluate; the rest streams through predict
PREDICT_SETUPS = 3

# The fine-tuned rhyme checkpoint that `classify` serves. It is a fixture, not
# an input: its seeds are fixed, and the workload seed picks the verses.
PREP_SEED = 11
PREP_VERSES = 2000
PREP_PRETRAIN_STEPS = 40
PREP_FINETUNE_STEPS = 150


class Run:
    """Timings, operation counts and output checks of one workload process."""

    def __init__(self, args):
        self.args = args
        self.checks: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.result: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
        self.cal = calib.Calibrator()  # timed between operations throughout the run

    def check(self, name: str, ok: bool, detail: str = "", ops_failed: int = 1) -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            self.failed += ops_failed

    def error(self, where: str, exc: BaseException, ops_failed: int = 1) -> None:
        self.check(where, False, f"{type(exc).__name__}: {exc}", ops_failed)


def reference(workload: str, seed: int):
    """The seed-code result recorded for this workload and seed, or None."""
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


# --- pretrain-tiny / pretrain-mid -------------------------------------------

def pretrain_inputs(workload: str, seed: int):
    """(lines, vocab, model config, train config) for a pretrain workload."""
    if workload == "pretrain-tiny":
        store = corpus.generate_synthetic(2048, seed, "rhyme")  # whole batches of 32
        lines = [v.line for v in preprocess.preprocess_corpus(store)]
        vocab = tokenizer.train_wordpiece(lines, 512)
        config = mdl.tiny_config(vocab_size=len(vocab))
        cfg = training.tiny_train_config(batch_size=32, seed=seed)
    else:
        words, lines = gen.zipf_corpus(seed, 2000, 20000)
        seed_tokens = list(tokenizer.RESERVED) + list(gen.LETTERS) + [tokenizer.CONTINUATION + c for c in gen.LETTERS]
        tokens = tuple(seed_tokens + words[: MID_VOCAB - len(seed_tokens)])
        vocab = tokenizer.Vocab(tokens, len(tokens))
        config = mdl.ModelConfig(
            num_layers=4, num_heads=4, hidden=256, vocab_size=len(vocab), max_len=32, dropout=0.0
        )
        cfg = training.tiny_train_config(batch_size=8, lr=1e-3, seed=seed)
    return lines, vocab, config, cfg


def pretrain_losses(lines, vocab, config, cfg, steps: int) -> list[float]:
    losses: list[float] = []
    training.pretrain(lines, vocab, config, dataclasses.replace(cfg, max_steps=steps),
                      on_step=lambda step, loss: losses.append(loss))
    return losses


def run_pretrain(run: Run) -> None:
    args = run.args
    lines, vocab, config, cfg = pretrain_inputs(args.workload, args.seed)
    warm = pretrain_losses(lines, vocab, config, cfg, WARMUP_STEPS)

    # The main run trains until the deadline; a callback then ends it. To save
    # the checkpoint that a finished pretrain() would have saved, the model
    # parameters are caught as init_params returns them.
    tracer = _tracer(args)  # with --trace 1, every other step is traced
    losses: list[float] = []
    dts: list[float] = []  # seconds per timed step, callback work excluded
    traced: list[bool] = []
    last = [0.0]
    deadline = [math.inf]

    def on_step(step, loss):
        now = time.perf_counter()
        losses.append(loss)
        if step == 1:
            run.result["setup_s"] = now - args.t0
            if args.setup_only:
                raise StopRun
            deadline[0] = now + args.seconds
        else:
            dts.append(now - last[0])
            traced.append(tracer is not None and tracer.active)
        if now >= deadline[0]:
            raise StopRun
        if tracer is not None:
            tracer.active = step % 2 == 1
        run.cal.sample()
        last[0] = time.perf_counter()

    caught = []
    init_params = mdl.init_params

    def catch_params(*a, **kw):
        caught.append(init_params(*a, **kw))
        return caught[-1]

    mdl.init_params = catch_params
    try:
        training.pretrain(lines, vocab, config, dataclasses.replace(cfg, max_steps=10**9), on_step=on_step)
    except StopRun:
        pass
    except (VerseBertError, ArithmeticError, ValueError) as exc:
        run.attempted = len(losses) + 1
        run.error("pretrain", exc)
    finally:
        mdl.init_params = init_params
        if tracer is not None:
            tracer.active = True
    if args.setup_only or run.failed:
        if tracer is not None:
            tracer.uninstall()
        return
    ckpt_path = OUT / f"{args.workload}.ckpt"
    try:
        training.save_checkpoint(
            training.checkpoint_from_params(caught[0], config, vocab.digest(), len(losses)), ckpt_path)
    finally:
        if tracer is not None:
            tracer.uninstall()
    run.attempted = len(losses)

    finite = [x for x in losses if math.isfinite(x)]
    run.check("losses are finite", len(finite) == len(losses), ops_failed=len(losses) - len(finite))
    overlap = min(len(warm), len(losses))
    same = sum(a == b for a, b in zip(warm, losses))
    run.check("warm-up losses repeat bit for bit", same == overlap,
              f"{same}/{overlap} equal", ops_failed=overlap - same)
    ref = reference(args.workload, args.seed)
    if ref is None:
        run.check("reference losses", True, f"no reference recorded for seed {args.seed}")
    else:
        compared = min(len(losses), len(ref))
        bad = sum(not math.isclose(a, b, rel_tol=LOSS_RTOL, abs_tol=0.0) for a, b in zip(losses, ref))
        run.check("reference losses", bad == 0, f"{compared - bad}/{compared} within rel {LOSS_RTOL:g}",
                  ops_failed=bad)
    saved = training.load_checkpoint(ckpt_path)
    run.check("checkpoint round trip", saved.global_step == len(losses) and saved.vocab_digest == vocab.digest(),
              f"global_step {saved.global_step}")

    timed = [d for d, t in zip(dts, traced) if not t]
    run.result["ops"] = {"name": "step", "timed": len(timed)}
    run.result["throughput_per_s"] = cfg.batch_size * len(timed) / sum(timed) if timed else 0.0
    run.result["latency_ms"] = [1000.0 * d for d in timed]
    if tracer is not None:
        with_spans = [d for d, t in zip(dts, traced) if t]
        tracer.save(OUT / f"spans-{args.workload}.npz")
        run.result["layer"] = _layer_metrics([tracer.totals()], len(with_spans), len(with_spans), timed, with_spans)


def _tracer(args):
    """An installed but inactive tracer when ``--trace 1``, else None."""
    if not args.trace:
        return None
    tracer = spans.Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
    tracer.active = False
    tracer.install()
    return tracer


class StopRun(Exception):
    """Raised from the pretrain callback at the deadline, or at the first
    timed step of a set-up-only process."""


# --- classify -----------------------------------------------------------------

def prepare_classifier() -> tuple[Path, Path]:
    """A fine-tuned rhyme checkpoint and its vocab, built once per program source."""
    key = hashlib.sha256(
        f"{source_digest()} {PREP_SEED} {PREP_VERSES} {PREP_PRETRAIN_STEPS} {PREP_FINETUNE_STEPS}".encode()
    ).hexdigest()[:16]
    final = OUT / f"classifier-{key}"
    if not final.is_dir():
        tmp = OUT / f"classifier-{key}.tmp{os.getpid()}"
        tmp.mkdir(parents=True)
        store = corpus.generate_synthetic(PREP_VERSES, PREP_SEED, "rhyme")
        lines = [v.line for v in preprocess.preprocess_corpus(store)]
        vocab = tokenizer.train_wordpiece(lines, 512)
        config = mdl.tiny_config(vocab_size=len(vocab))
        base = training.pretrain(lines, vocab, config,
                                 training.tiny_train_config(max_steps=PREP_PRETRAIN_STEPS, seed=PREP_SEED))
        tax = corpus.taxonomy("rhyme")
        pairs = [(preprocess.preprocess_verse(r).line, label) for r, label in corpus.task_pairs(store, "rhyme")]
        tuned = training.finetune(base, pairs, tax, vocab,
                                  training.tiny_train_config(max_steps=PREP_FINETUNE_STEPS, lr=3e-3, seed=2))
        training.save_checkpoint(tuned, tmp / "rhyme.ckpt")
        vocab.save(tmp / "vocab.txt")
        try:
            os.replace(tmp, final)
        except OSError:  # another process finished first
            for p in tmp.iterdir():
                p.unlink()
            tmp.rmdir()
    return final / "rhyme.ckpt", final / "vocab.txt"


def heldout(seed: int):
    """``HELDOUT_VERSES`` verses that ``seed`` picks from a pool the classifier
    never saw, written to and read back from a TSV file.

    The pool continues the fine-tuning corpus's generator, so its verses share
    that corpus's words and are in distribution for the checkpoint.
    """
    pool = corpus.generate_synthetic(PREP_VERSES + HELDOUT_POOL, PREP_SEED, "rhyme").records[PREP_VERSES:]
    picked = random.Random(seed).sample(pool, HELDOUT_VERSES)
    path = OUT / f"heldout-{os.getpid()}.tsv"
    corpus.write_corpus(corpus.CorpusStore(tuple(picked), f"heldout({seed})"), path)
    try:
        return corpus.load_corpus(path)
    finally:
        path.unlink()


def classify_reference(seed: int) -> dict:
    ckpt_path, vocab_path = prepare_classifier()
    store = heldout(seed)
    preds, truths = evaluation.predict_corpus(
        training.load_checkpoint(ckpt_path), store, corpus.taxonomy("rhyme"), tokenizer.Vocab.load(vocab_path))
    return {"correct": sum(p == t for p, t in zip(preds, truths)), "n": len(truths)}


class Predictor:
    """A ``versebert predict`` child process fed one verse at a time over a pipe."""

    def __init__(self, ckpt_path, vocab_path, trace_out=None):
        cmd = [sys.executable, "-u", str(HERE / "predict_launcher.py")]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        cmd += ["predict", "--ckpt", str(ckpt_path), "--vocab", str(vocab_path), "--task", "rhyme"]
        self.stderr = tempfile.TemporaryFile("w+", encoding="utf-8", dir=OUT)
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.stderr,
            text=True, encoding="utf-8",
        )

    def ask(self, verse: str) -> str:
        self.proc.stdin.write(verse + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError("predict ended early: " + self.close(check=False))
        return answer.rstrip("\n")

    def close(self, check: bool = True) -> str:
        """End the child and wait for it; return its stderr."""
        if self.stderr.closed:
            return ""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        self.proc.stdout.read()
        code = self.proc.wait(timeout=60)
        self.stderr.seek(0)
        err = self.stderr.read()
        self.stderr.close()
        if check and code != 0:
            raise RuntimeError(f"predict exited {code}: {err}")
        return err


def stream(children: list[Predictor], verses: list[str], first: int, until: float, cal: calib.Calibrator):
    """Send verses ``first``, ``first + 1``, ... (cyclically) one at a time
    until ``until``, alternating between the children. Return the (index,
    answer) pairs, each child's per-verse seconds and the next verse number."""
    answers: list[tuple[int, str]] = []
    lat: list[list[float]] = [[] for _ in children]
    i = first
    while time.perf_counter() < until:
        c = i % len(children)
        t = time.perf_counter()
        answer = children[c].ask(verses[i % len(verses)])
        lat[c].append(time.perf_counter() - t)
        answers.append((i % len(verses), answer))
        cal.maybe()
        i += 1
    return answers, lat, i


def run_classify(run: Run) -> None:
    args = run.args
    ckpt_path, vocab_path = prepare_classifier()
    store = heldout(args.seed)
    vocab = tokenizer.Vocab.load(vocab_path)
    ckpt = training.load_checkpoint(ckpt_path)
    tax = corpus.taxonomy("rhyme")
    verses = [r.hemistich1 + "\t" + (r.hemistich2 or "") for r in store.records]
    n = len(verses)

    # Warm-up, which also gives the labels that predict must reproduce.
    preds, truths = evaluation.predict_corpus(ckpt, store, tax, vocab)
    accuracy = sum(p == t for p, t in zip(preds, truths)) / n
    ref = reference("classify", args.seed)
    if ref is None:
        run.check("reference accuracy", True, f"no reference recorded for seed {args.seed}")
    else:
        ref_acc = ref["correct"] / ref["n"]
        run.check("reference accuracy", ref["n"] == n and abs(accuracy - ref_acc) <= ACCURACY_ATOL,
                  f"{accuracy:.4f} vs {ref_acc:.4f}")

    tracer = _tracer(args)
    child_spans = OUT / f"spans-classify-predict-{os.getpid()}.npz"
    setups: list[float] = []
    answers: list[tuple[int, str]] = []
    children: list[Predictor] = []
    eval_times: list[float] = []
    traced_eval: list[float] = []
    lat: list[float] = []
    traced_lat: list[float] = []
    wrong = 0
    try:
        # Set-up samples: from launching predict to its first answer.
        for i in range(PREDICT_SETUPS):
            run.cal.sample()
            t = time.perf_counter()
            child = Predictor(ckpt_path, vocab_path)
            answers.append((0, child.ask(verses[0])))
            setups.append(time.perf_counter() - t)
            if i < PREDICT_SETUPS - 1:
                child.close()
        children.append(child)
        if tracer is not None:  # a traced child takes every other verse
            children.append(Predictor(ckpt_path, vocab_path, trace_out=child_spans))
            answers.append((0, children[-1].ask(verses[0])))

        # Each evaluate call over the held-out corpus is followed by a burst of
        # verses through predict, so both phases span the whole run. With
        # --trace 1 every other evaluate call is traced.
        burst = (1.0 - CLASSIFY_EVAL_SHARE) / CLASSIFY_EVAL_SHARE
        start = time.perf_counter()
        k, verse = 0, 1
        while k < 2 or time.perf_counter() < start + args.seconds:
            if tracer is not None:
                tracer.active = k % 2 == 1
            t = time.perf_counter()
            report = evaluation.evaluate(ckpt, store, tax, vocab)
            dt = time.perf_counter() - t
            if tracer is not None:
                tracer.active = False
            (traced_eval if k % 2 and tracer is not None else eval_times).append(dt)
            run.attempted += n
            wrong += report.accuracy != accuracy or report.total_samples != n
            run.cal.sample(3)
            got, per_child, verse = stream(children, verses, verse, time.perf_counter() + burst * dt, run.cal)
            answers += got
            lat += per_child[0]
            traced_lat += per_child[1] if tracer is not None else []
            k += 1
        while children:
            children.pop().close()
    except (RuntimeError, OSError) as exc:
        run.error("predict", exc)
        for child in children:
            child.close(check=False)
    if tracer is not None:
        tracer.uninstall()
    run.check("evaluate reports repeat", wrong == 0, f"{wrong} calls differ", ops_failed=n * wrong)
    run.result["setup_s"] = statistics.median(setups) if setups else 0.0
    run.result["setup_samples"] = setups
    run.attempted += len(answers)
    mismatched = sum(a.split("\t")[0] != tax.name(preds[k]) for k, a in answers)
    run.check("predict labels equal predict_corpus labels", mismatched == 0,
              f"{mismatched} of {len(answers)} differ", ops_failed=mismatched)

    run.result["ops"] = {"name": "verse", "timed": len(lat), "evaluated": n * len(eval_times)}
    run.result["throughput_per_s"] = n * len(eval_times) / sum(eval_times) if eval_times else 0.0
    run.result["latency_ms"] = [1000.0 * d for d in lat]
    if tracer is not None:
        tracer.save(OUT / "spans-classify.npz")
        parts = [tracer.totals()]
        if child_spans.exists():
            parts.append(spans.load_totals(child_spans))
            os.replace(child_spans, OUT / "spans-classify-predict.npz")
        ops = n * len(traced_eval) + len(traced_lat)
        run.result["layer"] = _layer_metrics(parts, ops, 0, lat, traced_lat)


# --- tokenize -------------------------------------------------------------------

def tokenize_inputs(seed: int):
    _, lines = gen.zipf_corpus(seed, TOKENIZE_ENCODE_LINES, 5000)
    return lines[:TOKENIZE_TRAIN_LINES], lines


def tokenize_round(train_lines, encode_lines, cal=None):
    """Train the vocabulary, then encode every line in chunks; return the
    digests and the seconds spent training and encoding. With ``cal``, kernel
    samples are taken around the trainer call and between the chunks."""
    if cal is not None:
        cal.sample(2)
    t = time.perf_counter()
    vocab = tokenizer.train_wordpiece(train_lines, TOKENIZE_VOCAB)
    t_train = time.perf_counter() - t
    if cal is not None:
        cal.sample(2)
    h = hashlib.sha256()
    t_encode = 0.0
    for i in range(0, len(encode_lines), ENCODE_CHUNK):
        t = time.perf_counter()
        ids = [tokenizer.encode(line, vocab, 32).ids for line in encode_lines[i:i + ENCODE_CHUNK]]
        t_encode += time.perf_counter() - t
        for x in ids:
            h.update(repr(x).encode())
        if cal is not None:
            cal.sample()
    return {"vocab": vocab.digest(), "ids": h.hexdigest()}, t_train, t_encode


def run_tokenize(run: Run) -> None:
    args = run.args
    train_lines, encode_lines = tokenize_inputs(args.seed)
    run.result["setup_s"] = time.perf_counter() - args.t0
    if args.setup_only:
        return
    ref = reference("tokenize", args.seed)
    tracer = _tracer(args)  # with --trace 1, every other round is traced
    rounds: list[tuple[float, float]] = []
    traced: list[tuple[float, float]] = []
    first = None
    wrong = 0
    start = time.perf_counter()
    k = 0
    while k < 2 or time.perf_counter() < start + args.seconds:
        if tracer is not None:
            tracer.active = k % 2 == 1
        run.attempted += 1
        try:
            digests, t_train, t_encode = tokenize_round(train_lines, encode_lines, run.cal)
        except VerseBertError as exc:
            run.error("tokenize round", exc)
            break
        (traced if k % 2 and tracer is not None else rounds).append((t_train, t_encode))
        first = first or digests
        wrong += digests != first or (ref is not None and digests != ref)
        k += 1
    if tracer is not None:
        tracer.uninstall()
    run.check("digests repeat and match the reference", wrong == 0,
              f"{wrong} rounds differ" + ("" if ref else f"; no reference recorded for seed {args.seed}"),
              ops_failed=wrong)

    run.result["ops"] = {"name": "trainer call", "timed": len(rounds), "encoded": len(encode_lines) * len(rounds)}
    run.result["throughput_per_s"] = len(encode_lines) * len(rounds) / sum(e for _, e in rounds) if rounds else 0.0
    run.result["latency_ms"] = [1000.0 * t for t, _ in rounds]
    if tracer is not None:
        tracer.save(OUT / "spans-tokenize.npz")
        run.result["layer"] = _layer_metrics(
            [tracer.totals()], len(traced), 0, [t + e for t, e in rounds], [t + e for t, e in traced])


# --- common ---------------------------------------------------------------------

def _layer_metrics(parts, ops, steps, untraced, traced) -> dict:
    """Per-layer metrics per traced op, with the tracing overhead per op as the
    traced median minus the untraced median."""
    base = statistics.median(untraced) if untraced else 0.0
    with_spans = statistics.median(traced) if traced else 0.0
    overhead = with_spans - base
    tot = spans.merge_totals(parts)
    metrics = spans.layer_metrics(tot, ops, steps, 1000.0 * overhead, overhead / base if base else 0.0)
    return {"metrics": metrics, "absent": tot["absent"], "traced_ops": ops, "untraced_ops": len(untraced)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", dest="setup_only", action="store_true")
    args = p.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    run = Run(args)
    {"pretrain-tiny": run_pretrain, "pretrain-mid": run_pretrain,
     "classify": run_classify, "tokenize": run_tokenize}[args.workload](run)
    run.cal.sample(max(0, 5 - len(run.cal.samples)))
    for key, default in (("setup_s", 0.0), ("throughput_per_s", 0.0), ("latency_ms", []),
                         ("ops", {"name": "op", "timed": 0})):
        run.result.setdefault(key, default)  # a failed run still reports
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    run.result.update(
        peak_rss_mb=(own + children) / 1024.0,
        attempted=run.attempted, failed=run.failed, checks=run.checks,
        calib=run.cal.samples,
    )
    print(json.dumps(run.result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
