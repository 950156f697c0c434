"""Time steady-state pretrain steps on the benchmark's pretrain inputs.

    PYTHONPATH=src python3 scripts/step_probe.py [--workload pretrain-mid]
        [--seed 3] [--steps 40] [--losses 4]

For each workload it runs ``training.pretrain`` once, in this process, and
prints the median milliseconds per step (step 1 excluded), the mean
milliseconds per step spent in ``autograd.backward`` and ``AdamW.step``, the
CPU milliseconds per step of the whole process (``ru_utime + ru_stime``, all
threads: a BLAS worker that spins while the step waits reads as CPU above wall
time), the tape records per step (``ag.tape_size()`` as ``backward``
starts), the minor page faults per step (``ru_minflt`` of this process) in
all and split into ``autograd.backward``, ``AdamW.step`` and the rest of the
step (the forward, masking and loss), the peak RSS of the process so far,
the first losses as float hex, and a sha256 over the final checkpoint's
arrays (each name, shape and float64 bytes, in name order), so two trees can
be compared for bit-identical losses and parameters. Inputs come from
``perfbench/workloads.pretrain_inputs``.
``--workload classify`` times ``--steps`` evaluate calls on the benchmark's
held-out verses and prints their minor faults per call, the padded and real
positions of one pass and a sha256 of its labels, so two trees can be
compared for identical labels. It then scores each held-out verse alone, as
``predict`` does, and prints the p50 milliseconds and the minor faults per
B=1 ``predict_logits`` call, and a sha256 over the float64 bytes of every
logits row of that pass, in corpus order, so two trees can be compared bit for
bit on the predict path.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from versebert import autograd as ag, corpus, evaluation, model as mdl, preprocess, tokenizer, training  # noqa: E402
from workloads import heldout, prepare_classifier, pretrain_inputs  # noqa: E402


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


@contextlib.contextmanager
def tally(owner, name: str, totals: dict, on_call=lambda: None):
    """Add the minor faults and the wall seconds taken inside ``owner.name`` to
    ``totals[name]``; call ``on_call`` as each call starts."""
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        on_call()
        faults, start = _minflt(), time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[name][0] += _minflt() - faults
            totals[name][1] += time.perf_counter() - start

    totals[name] = [0, 0.0]
    setattr(owner, name, counted)
    try:
        yield
    finally:
        setattr(owner, name, fn)


def probe(workload: str, seed: int, steps: int, n_losses: int) -> None:
    lines, vocab, config, cfg = pretrain_inputs(workload, seed)
    losses, stamps, totals, records = [], [], {}, []

    def on_step(step, loss):
        losses.append(loss)
        stamps.append((time.perf_counter(), _cpu_s(), _minflt(), *totals["backward"], *totals["step"]))

    with (tally(ag, "backward", totals, lambda: records.append(ag.tape_size())),
          tally(ag.AdamW, "step", totals)):
        ckpt = training.pretrain(lines, vocab, config, dataclasses.replace(cfg, max_steps=steps), on_step=on_step)
    ms = [1000.0 * (b[0] - a[0]) for a, b in zip(stamps, stamps[1:])]
    n = max(1, len(stamps) - 1)
    cpu_s, total, backward, backward_s, adamw, adamw_s = ((stamps[-1][k] - stamps[0][k]) / n for k in range(1, 7))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{workload} seed {seed}: {statistics.median(ms):.2f} ms/step "
          f"({1000.0 * backward_s:.2f} backward, {1000.0 * adamw_s:.2f} AdamW.step), "
          f"{1000.0 * cpu_s:.2f} CPU ms/step, "
          f"{statistics.median(records):.0f} tape records/step, {total:.0f} minor faults/step "
          f"({backward:.0f} backward, {adamw:.0f} AdamW.step, {total - backward - adamw:.0f} rest), "
          f"peak RSS {peak_mb:.0f} MB over {len(losses)} steps")
    print("  first losses:", " ".join(float.hex(x) for x in losses[:n_losses]))
    digest = hashlib.sha256()
    for name in sorted(ckpt.arrays):
        digest.update(f"{name} {ckpt.arrays[name].shape}\n".encode())
        digest.update(np.ascontiguousarray(ckpt.arrays[name], dtype="<f8"))
    print("  parameters sha256:", digest.hexdigest())


def probe_classify(seed: int, calls: int) -> None:
    ckpt_path, vocab_path = prepare_classifier()
    args = (training.load_checkpoint(ckpt_path), heldout(seed), corpus.taxonomy("rhyme"), tokenizer.Vocab.load(vocab_path))
    masks, predict_logits = [], mdl.predict_logits
    mdl.predict_logits = lambda seqs, *rest: masks.append(mdl.stack_batch(seqs)[1]) or predict_logits(seqs, *rest)
    try:
        preds, _ = evaluation.predict_corpus(*args)
    finally:
        mdl.predict_logits = predict_logits
    real, ms, faults = sum(int(m.sum()) for m in masks), [], _minflt()
    for _ in range(calls):
        t = time.perf_counter()
        evaluation.evaluate(*args)
        ms.append(1000.0 * (time.perf_counter() - t))
    faults = (_minflt() - faults) / calls
    print(f"classify seed {seed}: {statistics.median(ms):.1f} ms/evaluate over {calls} calls, "
          f"{faults:.0f} minor faults/evaluate, "
          f"{sum(m.size for m in masks) - real} padded and {real} real positions per pass")
    print("  labels sha256:", hashlib.sha256(" ".join(map(str, preds)).encode()).hexdigest())

    # one verse per call, as the predict command scores stdin
    ckpt, store, tax, vocab = args
    config, logits_of = evaluation.classifier(ckpt, tax, vocab)
    seqs = [tokenizer.encode(preprocess.preprocess_verse(r).line, vocab, config.max_len) for r in store.records]
    ms, logits, faults = [], [], _minflt()
    for seq in seqs:
        t = time.perf_counter()
        logits.append(logits_of([seq]))
        ms.append(1000.0 * (time.perf_counter() - t))
    print(f"  B=1 predict_logits: {statistics.median(ms):.3f} ms p50 over {len(seqs)} verses, "
          f"{(_minflt() - faults) / len(seqs):.2f} minor faults/call")
    print("  logits sha256:", hashlib.sha256(b"".join(row.astype("<f8").tobytes() for row in logits)).hexdigest())


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("pretrain-tiny", "pretrain-mid", "classify"), action="append")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--steps", type=int, default=40)
    ap.add_argument("--losses", type=int, default=4)
    args = ap.parse_args()
    if args.steps < 2:
        ap.error("--steps must be at least 2")
    for workload in args.workload or ("pretrain-tiny", "pretrain-mid"):
        if workload == "classify":
            probe_classify(args.seed, args.steps)
        else:
            probe(workload, args.seed, args.steps, args.losses)


if __name__ == "__main__":
    main()
