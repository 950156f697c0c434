"""Steady-state training steps: gradients taken over from the tape, a table's
row-sparse gradient, batched masking, a tape-free frozen encoder and the
streaming checkpoint writer, each checked against the code it replaced
(``seed_autograd``, ``seed_training``)."""

import contextlib
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from versebert import autograd as ag
from versebert import corpus, model as mdl, preprocess, tokenizer, training
from versebert.autograd import AdamW, Tensor
from versebert.errors import CorruptFile
from versebert.tokenizer import TokenSequence

import seed_autograd
import seed_training
import tape_ops


@pytest.fixture(scope="module")
def verses():
    store = corpus.generate_synthetic(48, seed=9, signal="rhyme")
    lines = [v.line for v in preprocess.preprocess_corpus(store)]
    return store, lines, tokenizer.train_wordpiece(lines, 256)


def _catch_params(monkeypatch) -> list:
    """The ModelParams of every later ``init_params`` call, as they are made."""
    caught, init_params = [], mdl.init_params
    monkeypatch.setattr(mdl, "init_params", lambda *a, **kw: caught.append(init_params(*a, **kw)) or caught[-1])
    return caught


def _dense_grad_bytes(params) -> int:
    """The bytes of one fresh gradient for each parameter but the token table, which takes a ``RowGrad``."""
    return sum(p.data.nbytes for p in params.parameters() if p is not params.token_embedding)


class TestKeptGradients:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    @pytest.mark.parametrize("positional_mode, dropout", [("sinusoidal", 0.0), ("learned", 0.2)])
    def test_checkpoint_bytes_match_seed_autograd(self, verses, tmp_path, monkeypatch, weight_decay,
                                                  positional_mode, dropout):
        _, lines, vocab = verses
        cfg = mdl.ModelConfig(num_layers=2, num_heads=2, hidden=24, vocab_size=len(vocab), max_len=24,
                              positional_mode=positional_mode)
        paths = [tmp_path / "kept.ckpt", tmp_path / "seed.ckpt"]
        for path in paths:
            tcfg = training.tiny_train_config(batch_size=8, max_steps=5, seed=2, weight_decay=weight_decay,
                                              dropout=dropout)
            training.save_checkpoint(training.pretrain(lines, vocab, cfg, tcfg), path)
            seed_autograd.install(monkeypatch)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_each_table_gradient_is_a_fresh_row_grad_each_step(self, verses, monkeypatch):
        """Each table's gradient, the token and the learned position table's, is a fresh ``RowGrad``
        each step; every other gradient is a dense array."""
        _, lines, vocab = verses
        caught = _catch_params(monkeypatch)
        grads = []
        config = mdl.ModelConfig(num_layers=2, num_heads=2, hidden=32, vocab_size=len(vocab), max_len=32,
                                 positional_mode="learned")
        training.pretrain(lines, vocab, config, training.tiny_train_config(batch_size=8, max_steps=5, seed=1),
                          on_step=lambda step, loss: grads.append([p.grad for p in caught[0].parameters()]))
        assert len(grads) == 5 and all(g is not None for g in grads[1])
        params = caught[0]
        tables = [params.token_embedding, params.positional]
        for later in grads[2:]:
            for p, g, first in zip(params.parameters(), later, grads[1]):
                if any(p is t for t in tables):
                    assert type(g) is ag.RowGrad and g is not first
                else:
                    assert type(g) is np.ndarray

    def test_caller_assigned_gradient_is_never_written(self, rng):
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        table = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        bias = Tensor(rng.normal(size=(4,)), requires_grad=True)
        params = [w, table, bias]

        def step():
            for p in params:
                p.zero_grad()
            x = ag.embedding_lookup(table, [[1, 2], [2, 5]])
            ag.backward(ag.cross_entropy(tape_ops.reshape(ag.add(ag.matmul(x, w), bias), (4, 4)), [0, 1, 2, 3]))

        for warm in (False, True):  # on the first step and on later ones
            if warm:
                step()
            assigned = [np.full(p.shape, 7.0) for p in params]
            for p, g in zip(params, assigned):
                p.grad = g
            step()
            step()
            for p, g in zip(params, assigned):
                assert p.grad is not g and np.all(g == 7.0)

    def test_steady_state_step_allocates_less_than_the_largest_parameter(self, monkeypatch):
        """Past the dense parameters' own fresh gradients, the step allocates less than the token table.
        A vocab x hidden table dominates; 4 masked rows keep the logits small."""
        cfg = mdl.ModelConfig(num_layers=1, num_heads=2, hidden=64, vocab_size=8192, max_len=16, dropout=0.0)
        rng = np.random.default_rng(0)
        ids = rng.integers(7, cfg.vocab_size, size=(2, 16))
        rows = np.ravel_multi_index(([0, 0, 1, 1], [3, 5, 7, 9]), ids.shape)
        targets = ids.reshape(-1)[rows]

        def step_peak(steps=3):
            params = mdl.init_params(cfg, np.random.default_rng(1))
            opt = AdamW(params.parameters(), lr=1e-3)
            for k in range(steps):
                if k == steps - 1:
                    tracemalloc.start()
                opt.zero_grad()
                hidden = mdl.encoder_forward(ids, np.ones_like(ids), cfg, params, rows=rows)
                ag.backward(mdl.mlm_loss(hidden, targets, params))
                opt.step()
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return peak - _dense_grad_bytes(params), params.token_embedding.data.nbytes

        peak, table = step_peak()
        assert peak < table
        seed_autograd.install(monkeypatch)  # the old bookkeeping adds a table-sized gradient each step
        assert step_peak()[0] > table

    def test_a_mid_shaped_step_allocates_no_vocab_by_hidden_gradient(self, monkeypatch):
        """pretrain-mid's encoder and vocab, batch 8 of 24 positions with 4 masked each: past the first
        step, the backward and the AdamW step allocate less than the token table's size at their peak,
        on top of the dense parameters' own fresh gradients. (The taped forward's arrays alone outweigh
        the table, so it runs before the count starts.)"""
        cfg = mdl.ModelConfig(num_layers=4, num_heads=4, hidden=256, vocab_size=8000, max_len=32, dropout=0.0)
        rng = np.random.default_rng(2)
        ids = rng.integers(7, cfg.vocab_size, size=(8, 24))
        rows = np.sort(rng.choice(ids.size, size=32, replace=False))

        def step_peak(steps=2):
            params = mdl.init_params(cfg, np.random.default_rng(1))
            opt = AdamW(params.parameters(), lr=1e-3)
            for k in range(steps):
                opt.zero_grad()
                hidden = mdl.encoder_forward(ids, np.ones_like(ids), cfg, params, rows=rows)
                loss = mdl.mlm_loss(hidden, ids.reshape(-1)[rows], params)
                if k == steps - 1:
                    tracemalloc.start()
                ag.backward(loss)
                opt.step()
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return peak - _dense_grad_bytes(params), params.token_embedding.data.nbytes

        peak, table = step_peak()
        assert peak < table
        seed_autograd.install(monkeypatch)  # the dense scatter allocates a table-sized gradient each step
        assert step_peak()[0] >= table


@st.composite
def batches(draw):
    """An (ids, mask) pair of (B, T) matrices whose rows attend to a prefix."""
    b, t = draw(st.integers(1, 6)), draw(st.integers(2, 12))
    ids = draw(arrays(np.int64, (b, t), elements=st.integers(0, 40)))
    lengths = np.array(draw(st.lists(st.integers(0, t), min_size=b, max_size=b)))
    return ids, (np.arange(t) < lengths[:, None]).astype(np.int64)


SPLITS = [(0.8, 0.1), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (0.5, 0.5)]  # ([MASK], random id) shares


# With seed 0, rows with no candidate (special ids; no unpadded position), no
# pick, picks but no random fate, and a random fate: the skipped empty draws.
NO_DRAW_ROWS = (np.array([[3] * 12] + [[20] * 12] * 2 + [[30] * 12, [25] * 12, [33] * 12]),
                (np.arange(12) < np.array([[12], [0], [1], [1], [12], [12]])).astype(np.int64))


class TestBatchedMasking:
    @settings(max_examples=150, deadline=None)
    @example(batch=NO_DRAW_ROWS, ratio=0.5, split=(0.8, 0.1), vocab_size=50, seed=0)
    @given(batch=batches(), ratio=st.sampled_from([0.0, 0.15, 0.5, 1.0]), split=st.sampled_from(SPLITS),
           vocab_size=st.integers(41, 64), seed=st.integers(0, 2**32 - 1))
    def test_matches_masking_each_row_alone(self, batch, ratio, split, vocab_size, seed):
        ids, mask = batch
        before = ids.copy()
        cfg = training.TrainConfig(mask_ratio=ratio)
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        # patched per example: a function-scoped monkeypatch would not be undone between examples
        with mock.patch.multiple(training, MASK_PROB=split[0], RANDOM_PROB=split[1]):
            got_ids, got_targets = training.apply_mlm_masking((ids, mask), cfg, rng, vocab_size)
            rows = [seed_training.apply_mlm_masking(TokenSequence(tuple(i.tolist()), tuple(m.tolist()), ids.shape[1]),
                                                    cfg, oracle_rng, vocab_size) for i, m in zip(ids, mask)]
        assert np.array_equal(got_ids, [seq.ids for seq, _ in rows])
        assert np.array_equal(got_targets, [targets for _, targets in rows])
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        assert np.array_equal(ids, before)  # the caller's batch is not masked in place

    def test_one_call_per_step(self, verses, monkeypatch):
        _, lines, vocab = verses
        calls, masking = [], training.apply_mlm_masking
        monkeypatch.setattr(training, "apply_mlm_masking", lambda *a: calls.append(1) or masking(*a))
        training.pretrain(lines, vocab, mdl.tiny_config(vocab_size=len(vocab)),
                          training.tiny_train_config(batch_size=8, max_steps=4, seed=0))
        assert len(calls) == 4


class TestHeadOnlyFinetune:
    def test_no_encoder_gradient_and_same_bytes_as_a_taped_encoder(self, verses, tmp_path, monkeypatch):
        store, lines, vocab = verses
        cfg = mdl.tiny_config(vocab_size=len(vocab))
        base = training.pretrain(lines, vocab, cfg, training.tiny_train_config(batch_size=8, max_steps=2, seed=3))
        pairs = [(preprocess.preprocess_verse(r).line, label) for r, label in corpus.task_pairs(store, "Rhyme")]
        tax = corpus.taxonomy("Rhyme")
        caught, to_params = [], training.Checkpoint.to_params
        monkeypatch.setattr(training.Checkpoint, "to_params", lambda self: caught.append(to_params(self)) or caught[-1])
        paths = [tmp_path / "no_tape.ckpt", tmp_path / "taped.ckpt"]
        for path in paths:
            tcfg = training.tiny_train_config(batch_size=8, max_steps=4, seed=5, dropout=0.2)
            training.save_checkpoint(training.finetune(base, pairs, tax, vocab, tcfg, head_only=True), path)
            monkeypatch.setattr(ag, "no_grad", contextlib.nullcontext)  # today's encoder forward, on the tape
        assert paths[0].read_bytes() == paths[1].read_bytes()
        encoder = [p for name, p in caught[0].named_parameters() if not name.startswith("heads.")]
        assert all(p.grad is None for p in encoder)
        assert all(p.grad is not None for p in caught[0].heads["Rhyme"])
        assert any(p.grad is not None for p in caught[1].parameters()[:-2])  # the taped run did fill them


class TestCheckpointWrite:
    @pytest.fixture()
    def ckpt(self, verses):
        _, lines, vocab = verses
        cfg = mdl.tiny_config(vocab_size=len(vocab))
        params = mdl.init_params(cfg, np.random.default_rng(0))
        opt = AdamW(params.parameters(), lr=0.1)
        for p in opt.params:
            p.grad = np.random.default_rng(1).normal(size=p.shape)
        opt.step()
        ckpt = training.checkpoint_from_params(params, cfg, vocab.digest(), 3)
        ckpt.arrays["token_embedding"] = np.asfortranarray(ckpt.arrays["token_embedding"])  # not C order
        return ckpt

    def test_bytes_equal_the_old_writer(self, ckpt, tmp_path):
        training.save_checkpoint(ckpt, tmp_path / "new.ckpt")
        seed_training.save_checkpoint(ckpt, tmp_path / "old.ckpt")
        assert (tmp_path / "new.ckpt").read_bytes() == (tmp_path / "old.ckpt").read_bytes()
        again = training.load_checkpoint(tmp_path / "new.ckpt")
        for name, arr in again.arrays.items():
            assert arr.flags.writeable and np.array_equal(arr, ckpt.arrays[name]), name

    def test_a_file_with_optimizer_state_is_refused(self, ckpt, tmp_path):
        params = ckpt.to_params().parameters()
        opt = AdamW([Tensor(p.data.copy(), requires_grad=True) for p in params], lr=0.1)  # to_params gives views
        for p in opt.params:
            p.grad = np.ones_like(p.data)
        opt.step()
        moments = {f"{k}.{i}": a for i, pair in enumerate(zip(opt.m, opt.v)) for k, a in zip("mv", pair)}
        seed_training.save_checkpoint(ckpt, tmp_path / "old.ckpt", {"step": opt.step_count, "arrays": moments})
        with pytest.raises(CorruptFile, match="optimizer state"):
            training.load_checkpoint(tmp_path / "old.ckpt")

    def test_failed_write_keeps_old_file_and_leaves_no_temp_file(self, ckpt, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        training.save_checkpoint(ckpt, path)
        old = path.read_bytes()
        ckpt.global_step = 4

        def fail(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", fail)
        with pytest.raises(OSError):
            training.save_checkpoint(ckpt, path)
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["model.ckpt"]
