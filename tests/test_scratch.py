"""Forward-only scoring: logits bit for bit equal to the fresh-allocating ops
kept in ``seed_scratch``, logits that outlive later calls, unchanged labels
and reports from ``evaluate``, scoring and training processes that reuse
their freed heap rather than faulting pages in again, and the cached
positional table."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from versebert import corpus, evaluation, model as mdl, preprocess, training
from versebert.tokenizer import TokenSequence

import seed_scratch

MAX_LEN = 32
VOCAB = 64


@functools.lru_cache(maxsize=None)
def _model(positional_mode: str, labels: int):
    """A 2-layer, 32-wide model."""
    config = mdl.ModelConfig(num_layers=2, num_heads=2, hidden=32, vocab_size=VOCAB, max_len=MAX_LEN,
                             dropout=0.0, positional_mode=positional_mode)
    rng = np.random.default_rng(17)
    params = mdl.init_params(config, rng)
    return config, params, mdl.init_head(config, labels, rng)


def _seqs(lengths, seed: int = 0) -> list[TokenSequence]:
    rng = np.random.default_rng(seed)
    out = []
    for n in lengths:
        ids = [int(i) for i in rng.integers(7, VOCAB, n)] + [0] * (MAX_LEN - n)
        out.append(TokenSequence(tuple(ids), tuple([1] * n + [0] * (MAX_LEN - n)), MAX_LEN))
    return out


class TestSameLogits:
    @settings(max_examples=60, deadline=None)
    @given(lengths=st.lists(st.integers(2, MAX_LEN), min_size=1, max_size=40),
           mode=st.sampled_from(["sinusoidal", "learned"]), labels=st.sampled_from([5, 300]),
           seed=st.integers(0, 2**16))
    def test_logits_equal_the_oracle_bit_for_bit(self, lengths, mode, labels, seed):
        config, params, head = _model(mode, labels)
        seqs = _seqs(lengths, seed)
        want = seed_scratch.predict_logits(seqs, config, params, head)
        got = mdl.predict_logits(seqs, config, params, head)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestLifetime:
    def test_logits_outlive_later_calls_at_other_shapes(self):
        config, params, head = _model("sinusoidal", 300)
        first = mdl.predict_logits(_seqs([MAX_LEN] * 40), config, params, head)  # 12,000 logits
        kept = first.copy()
        for lengths in ([5] * 40, [MAX_LEN] * 33, [20, 31, 2] * 13, [MAX_LEN] * 40):
            mdl.predict_logits(_seqs(lengths, seed=len(lengths)), config, params, head)
        assert first.tobytes() == kept.tobytes()


@pytest.fixture(scope="module")
def tuned(synth_rhyme):
    store, _, vocab = synth_rhyme
    cfg = mdl.tiny_config(vocab_size=len(vocab))
    base = training.checkpoint_from_params(mdl.init_params(cfg, np.random.default_rng(5)), cfg, vocab.digest(), 0)
    tax = corpus.taxonomy("rhyme")
    pairs = [(preprocess.preprocess_verse(r).line, label) for r, label in corpus.task_pairs(store, tax.task_id)]
    ckpt = training.finetune(base, pairs, tax, vocab, training.tiny_train_config(max_steps=40, lr=3e-3, seed=2))
    return store, tax, vocab, ckpt


class TestEvaluate:
    def test_labels_and_report_are_unchanged(self, tuned):
        store, tax, vocab, ckpt = tuned
        with seed_scratch.oracle_ops():
            want = evaluation.predict_corpus(ckpt, store, tax, vocab)
            want_report = evaluation.evaluate(ckpt, store, tax, vocab).to_json()
        for _ in range(2):
            assert evaluation.predict_corpus(ckpt, store, tax, vocab) == want
            assert evaluation.evaluate(ckpt, store, tax, vocab).to_json() == want_report
        assert len(set(want[0])) > 1


SCORE_THREE_TIMES = """
import resource, sys
from versebert import corpus, evaluation, tokenizer, training
ckpt, store = training.load_checkpoint(sys.argv[1]), corpus.load_corpus(sys.argv[2])
vocab, tax = tokenizer.Vocab.load(sys.argv[3]), corpus.taxonomy("rhyme")
evaluation.predict_corpus(ckpt, store, tax, vocab)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    evaluation.predict_corpus(ckpt, store, tax, vocab)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
"""


def _child(script: str, *args) -> str:
    """The stdout of ``python -c script args`` in a fresh process that imports this checkout's ``versebert``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


TRAIN_TWELVE_STEPS = """
import resource, statistics
import numpy as np
from versebert import model as mdl, tokenizer, training
vocab = tokenizer.Vocab(tokenizer.RESERVED + tuple(f"w{i}" for i in range(8000 - tokenizer.N_RESERVED)), 8000)
lines = [" ".join(f"w{i}" for i in np.random.default_rng(0).integers(0, 7993, 126)) for _ in range(32)]
config = mdl.ModelConfig(num_layers=1, num_heads=2, hidden=64, vocab_size=len(vocab), max_len=128, dropout=0.0)
faults = []
training.pretrain(lines, vocab, config, training.tiny_train_config(batch_size=8, max_steps=12, seed=0, mask_ratio=0.7),
                  on_step=lambda step, loss: faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt))
print(statistics.median(b - a for a, b in zip(faults[4:], faults[5:])))
"""


class TestTrainingHeap:
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc's mallopt and ru_minflt")
    def test_steady_steps_reuse_the_freed_heap(self):
        """A fresh process's steady pretrain steps fault in few pages, though each step frees its gradients and
        logits. Every weight gradient is past glibc's default 128 KiB mmap threshold, and the logits of about
        700 masked rows over 8,000 ids (45 MB) are past the 32 MiB cap on glibc's sliding threshold, so under
        glibc's defaults, with ``_fit`` not calling ``ag.keep_freed_heap``, the median step took about 7,700 faults."""
        assert float(_child(TRAIN_TWELVE_STEPS)) < 10


class TestScoringHeap:
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc's mallopt and ru_minflt")
    def test_warm_calls_reuse_the_freed_heap(self, tuned, tmp_path):
        """In a fresh process that has not trained (``_fit`` makes the same setting), three warm
        ``predict_corpus`` calls fault in few pages: each chunk's freed arrays serve the next. With glibc's
        default thresholds the same calls took about 3,800 minor faults, 1 with ``classifier``'s setting."""
        store, tax, vocab, ckpt = tuned
        paths = [tmp_path / "rhyme.ckpt", tmp_path / "corpus.tsv", tmp_path / "vocab.txt"]
        training.save_checkpoint(ckpt, paths[0])
        corpus.write_corpus(store, paths[1])
        vocab.save(paths[2])
        assert int(_child(SCORE_THREE_TIMES, *map(str, paths))) < 100


class TestPositions:
    @pytest.mark.parametrize("d", [32, 768])
    def test_cached_table_slices_equal_the_table_built_per_length(self, d):
        table = mdl._positions(MAX_LEN, d)
        assert mdl._positions(MAX_LEN, d) is table
        assert not table.flags.writeable
        for t in range(1, MAX_LEN + 1):
            assert table[:t].tobytes() == mdl.sinusoidal_table(t, d).tobytes()
