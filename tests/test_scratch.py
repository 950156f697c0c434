"""Forward-only passes that draw their large arrays from the autograd scratch,
checked against the fresh-allocating ops kept in ``seed_scratch``: the same
logits bit for bit, logits that outlive later calls, no scratch memory for a
taped pass, a reset on an exception, the cap, and no large allocation once
the buffer is warm. Plus the cached positional table."""

import functools
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from versebert import autograd as ag, corpus, evaluation, model as mdl, preprocess, training
from versebert.autograd import Tensor
from versebert.errors import ShapeMismatch
from versebert.tokenizer import TokenSequence

import seed_scratch
from gradcheck import dense_grad

MAX_LEN = 32
VOCAB = 64
KIB64 = 64 * 1024


@functools.lru_cache(maxsize=None)
def _model(positional_mode: str, labels: int):
    """A 2-layer, 32-wide model; at B=40, T=32 most of its arrays pass 64 KiB."""
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


def _count_scratch_views(monkeypatch) -> list:
    """Every scratch view the ops draw from now on."""
    views, out = [], ag._out

    def recording(*args):
        view = out(*args)
        if view is not None:
            views.append(view)
        return view

    monkeypatch.setattr(ag, "_out", recording)
    return views


def _warm(config, params, head) -> None:
    """Grow the buffer to a full B=40, T=32 pass."""
    for _ in range(2):
        mdl.predict_logits(_seqs([MAX_LEN] * 40, seed=99), config, params, head)


class TestSameLogits:
    @settings(max_examples=60, deadline=None)
    @given(lengths=st.lists(st.integers(2, MAX_LEN), min_size=1, max_size=40),
           mode=st.sampled_from(["sinusoidal", "learned"]), labels=st.sampled_from([5, 300]),
           seed=st.integers(0, 2**16))
    def test_logits_equal_the_oracle_bit_for_bit(self, lengths, mode, labels, seed):
        config, params, head = _model(mode, labels)
        seqs = _seqs(lengths, seed)
        want = seed_scratch.predict_logits(seqs, config, params, head)
        for _ in range(2):  # the first call may grow the buffer, the second draws from it
            got = mdl.predict_logits(seqs, config, params, head)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_a_large_batch_draws_aligned_views(self, monkeypatch):
        config, params, head = _model("sinusoidal", 300)
        _warm(config, params, head)
        views = _count_scratch_views(monkeypatch)
        mdl.predict_logits(_seqs([MAX_LEN] * 40), config, params, head)
        assert len(views) >= 20
        assert all(v.ctypes.data % 64 == 0 and np.shares_memory(v, ag._scratch_buf) for v in views)
        assert all(v.size >= ag._SCRATCH_MIN for v in views)

    def test_a_single_short_verse_draws_nothing(self, monkeypatch):
        config, params, head = _model("sinusoidal", 5)
        views = _count_scratch_views(monkeypatch)
        mdl.predict_logits(_seqs([12]), config, params, head)
        assert views == []


@pytest.fixture(scope="module")
def tuned(synth_rhyme):
    store, _, vocab = synth_rhyme
    cfg = mdl.tiny_config(vocab_size=len(vocab))
    base = training.checkpoint_from_params(mdl.init_params(cfg, np.random.default_rng(5)), cfg, vocab.digest(), 0)
    tax = corpus.taxonomy("rhyme")
    pairs = [(preprocess.preprocess_verse(r).line, label) for r, label in corpus.task_pairs(store, tax.task_id)]
    ckpt = training.finetune(base, pairs, tax, vocab, training.tiny_train_config(max_steps=40, lr=3e-3, seed=2))
    return store, tax, vocab, ckpt, pairs, base


class TestEvaluate:
    def test_labels_and_report_are_unchanged(self, tuned, monkeypatch):
        store, tax, vocab, ckpt, _, _ = tuned
        with seed_scratch.oracle_ops():
            want = evaluation.predict_corpus(ckpt, store, tax, vocab)
            want_report = evaluation.evaluate(ckpt, store, tax, vocab).to_json()
        views = _count_scratch_views(monkeypatch)
        for _ in range(2):
            assert evaluation.predict_corpus(ckpt, store, tax, vocab) == want
            assert evaluation.evaluate(ckpt, store, tax, vocab).to_json() == want_report
        assert views  # the chunks did draw from the scratch
        assert len(set(want[0])) > 1


class TestLifetime:
    def test_logits_outlive_later_calls_at_other_shapes(self):
        config, params, head = _model("sinusoidal", 300)
        _warm(config, params, head)
        first = mdl.predict_logits(_seqs([MAX_LEN] * 40), config, params, head)  # 12,000 logits
        kept = first.copy()
        for lengths in ([5] * 40, [MAX_LEN] * 33, [20, 31, 2] * 13, [MAX_LEN] * 40):
            mdl.predict_logits(_seqs(lengths, seed=len(lengths)), config, params, head)
        assert first.tobytes() == kept.tobytes()
        assert not np.shares_memory(first, ag._scratch_buf)

    def test_an_exception_resets_the_scratch(self):
        config, params, head = _model("sinusoidal", 5)
        _warm(config, params, head)
        x = Tensor(np.random.default_rng(0).normal(size=(64, 256)))
        with pytest.raises(ShapeMismatch):
            with ag.no_grad(), ag._scratch():
                assert np.shares_memory(ag.scale(x, 2.0).data, ag._scratch_buf)
                ag.add(x, Tensor(np.ones(3)))
        assert ag._scratch_top is None
        wrong_head = (Tensor(np.zeros((5, 3))), Tensor(np.zeros(3)))
        with pytest.raises(ShapeMismatch):  # raised by the head, after the encoder drew its arrays
            mdl.predict_logits(_seqs([MAX_LEN] * 40), config, params, wrong_head)
        assert ag._scratch_top is None
        with ag.no_grad():
            assert not np.shares_memory(ag.scale(x, 2.0).data, ag._scratch_buf)

    def test_a_nested_context_gives_back_only_its_own_arrays(self):
        config, params, head = _model("sinusoidal", 5)
        _warm(config, params, head)
        x = Tensor(np.random.default_rng(0).normal(size=(64, 256)))
        with ag.no_grad(), ag._scratch():
            outer = ag.scale(x, 2.0)
            with ag._scratch():
                ag.scale(x, 3.0)
            assert not np.shares_memory(ag.scale(x, 4.0).data, outer.data)
            assert outer.data.tobytes() == (x.data * 2.0).tobytes()
        assert ag._scratch_top is None


def _mlm_loss(config, params, seqs) -> Tensor:
    """A taped MLM loss over every third position, with the gradients cleared."""
    ids, mask = mdl.stack_batch(seqs)
    targets = np.where(np.arange(ids.size).reshape(ids.shape) % 3 == 0, ids, mdl.IGNORE_INDEX)
    scored = targets != mdl.IGNORE_INDEX
    for p in params.parameters():
        p.zero_grad()
    return mdl.mlm_loss(mdl.encoder_forward(ids, mask, config, params, rows=np.flatnonzero(scored)), targets[scored],
                        params)


class TestTapedPasses:
    def test_a_taped_pass_inside_the_scratch_takes_none_of_it(self):
        config, params, head = _model("learned", 300)
        _warm(config, params, head)
        seqs = _seqs([MAX_LEN] * 40, seed=3)
        ag.backward(_mlm_loss(config, params, seqs))
        want = [dense_grad(p) for p in params.parameters()]
        with ag._scratch():
            loss = _mlm_loss(config, params, seqs)
            assert ag._scratch_top == 0
        # a forward-only pass before the backward may reuse every scratch view
        mdl.predict_logits(_seqs([MAX_LEN] * 40, seed=4), config, params, head)
        ag.backward(loss)
        for p, g in zip(params.parameters(), want):
            assert dense_grad(p).tobytes() == g.tobytes()

    @pytest.mark.parametrize("head_only", [False, True])
    def test_checkpoint_bytes_are_unchanged_inside_the_scratch(self, tuned, tmp_path, head_only):
        store, tax, vocab, _, pairs, base = tuned
        lines = [line for line, _ in pairs]
        config = mdl.tiny_config(vocab_size=len(vocab))
        cfg = training.tiny_train_config(max_steps=3, seed=4)
        _warm(*_model("sinusoidal", 300))

        def run(path):
            pre = training.pretrain(lines, vocab, config, cfg)
            tuned_ckpt = training.finetune(pre, pairs, tax, vocab, cfg, head_only=head_only)
            training.save_checkpoint(pre, path.with_suffix(".pre"))
            training.save_checkpoint(tuned_ckpt, path)
            return path.with_suffix(".pre").read_bytes() + path.read_bytes()

        want = run(tmp_path / "plain.ckpt")
        with ag._scratch():
            got = run(tmp_path / "scratch.ckpt")
        assert got == want


class TestBuffer:
    def test_the_buffer_never_exceeds_the_cap(self, monkeypatch):
        cap = 20_000
        monkeypatch.setattr(ag, "_SCRATCH_CAP", cap)
        monkeypatch.setattr(ag, "_scratch_buf", np.empty(0))
        config, params, head = _model("sinusoidal", 300)
        seqs = _seqs([MAX_LEN] * 40)
        want = seed_scratch.predict_logits(seqs, config, params, head)
        for _ in range(3):  # past the cap, arrays are fresh and still right
            assert mdl.predict_logits(seqs, config, params, head).tobytes() == want.tobytes()
            assert 0 < ag._scratch_buf.size <= cap
        assert ag._scratch_buf.ctypes.data % 64 == 0

    def test_the_cap_is_32_mib(self):
        assert ag._SCRATCH_CAP * 8 == 32 << 20
        assert ag._scratch_buf.size <= ag._SCRATCH_CAP

    @pytest.mark.parametrize("oracle", [False, True])
    def test_a_warm_call_allocates_no_array_of_64_kib(self, oracle):
        config, params, head = _model("sinusoidal", 5)
        seqs = _seqs([MAX_LEN] * 32)
        predict = seed_scratch.predict_logits if oracle else mdl.predict_logits
        predict(seqs, config, params, head)
        burst = _largest_burst(lambda: predict(seqs, config, params, head))
        # Each array of this pass holds at most 4,096 or at least 32,768 float64s
        # (256 KiB). A reduction also takes numpy's 64 KiB iteration buffer, so a
        # burst under 128 KiB leaves no room for any such array. The small arrays
        # of the [CLS]-only last layer add up past 128 KiB over the whole pass,
        # so its overall peak would not tell them from one large array.
        assert burst >= 4 * KIB64 if oracle else burst < 2 * KIB64

    def test_a_warm_call_on_a_padded_batch_allocates_no_array_of_64_kib(self):
        """Half the verses padded: attention's zero-padded (B*T, 3d) projection and the rows it
        gathers back come from the scratch as well, under the bound above."""
        config, params, head = _model("sinusoidal", 5)
        seqs = _seqs([MAX_LEN] * 16 + [5] * 16)
        mdl.predict_logits(seqs, config, params, head)
        assert _largest_burst(lambda: mdl.predict_logits(seqs, config, params, head)) < 2 * KIB64


def _largest_burst(call) -> int:
    """The most bytes ``call`` holds at once beyond what was live when its
    current stretch of C code began: tracemalloc's peak is read and reset at
    every Python-level call and return, builtins included."""
    largest = start = 0

    def hook(frame, event, arg):
        nonlocal largest, start
        largest = max(largest, tracemalloc.get_traced_memory()[1] - start)
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        sys.setprofile(hook)
        try:
            call()
        finally:
            sys.setprofile(None)
        hook(None, "return", None)  # the stretch after the last event
    finally:
        tracemalloc.stop()
    return largest


class TestPositions:
    @pytest.mark.parametrize("d", [32, 768])
    def test_cached_table_slices_equal_the_table_built_per_length(self, d):
        table = mdl._positions(MAX_LEN, d)
        assert mdl._positions(MAX_LEN, d) is table
        assert not table.flags.writeable
        for t in range(1, MAX_LEN + 1):
            assert table[:t].tobytes() == mdl.sinusoidal_table(t, d).tobytes()
