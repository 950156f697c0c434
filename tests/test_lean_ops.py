"""Allocation-lean ops: the one-``exp`` GELU against the tanh form, gradients
handed down in place against the ops that copied them (both in
``seed_autograd``), atomic corpus and preprocess writers, and checkpoint
arrays loaded as views of the file's bytes."""

import itertools
import os
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from versebert import autograd as ag
from versebert import corpus, model as mdl, preprocess, tokenizer, training
from versebert.autograd import Tensor

import seed_autograd
import tape_ops

SPECIAL = [0.0, 1e-300, -1e-300, 709.0, -709.0, 1e6, -1e6, 1e150, -1e150, 20.0, -20.0, 20.5, -20.5]


def _gelu_pass(gelu, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU of ``x`` and the gradient of its sum."""
    leaf = Tensor(x.copy(), requires_grad=True)
    out = gelu(leaf)
    ag.backward(ag.sum_all(out))
    return out.data, leaf.grad


def _check_against_oracle(x: np.ndarray) -> None:
    with np.errstate(all="raise"):  # no overflow, underflow or invalid value anywhere
        y, grad = _gelu_pass(ag.gelu, x)
    with np.errstate(all="ignore"):
        old_y, old_grad = _gelu_pass(seed_autograd.gelu, x)
    ok = np.isfinite(old_y) & np.isfinite(old_grad)
    assert np.isfinite(y[ok]).all() and np.isfinite(grad[ok]).all()
    assert np.all(np.abs(y - old_y)[ok] <= 1e-15 * np.maximum(1.0, np.abs(x[ok])))
    assert np.all(np.abs(grad - old_grad)[ok] <= 5e-14)


magnitudes = st.one_of(st.just(0.0), st.floats(1e-300, 1e300), st.floats(1e-3, 40.0))


class TestOneExpGelu:
    def test_matches_tanh_form_on_a_grid_and_at_extremes(self):
        x = np.concatenate([SPECIAL, np.linspace(-30.0, 30.0, 60_001)])
        _check_against_oracle(x)
        with np.errstate(all="ignore"):
            old_y, old_grad = _gelu_pass(seed_autograd.gelu, np.array(SPECIAL))
        assert np.isfinite(old_y).all() and np.isfinite(old_grad).all()  # every extreme is checked

    @settings(max_examples=200, deadline=None)
    @given(x=arrays(np.float64, st.integers(1, 64),
                    elements=st.tuples(magnitudes, st.booleans()).map(lambda p: -p[0] if p[1] else p[0])))
    def test_matches_tanh_form_on_any_magnitude(self, x):
        _check_against_oracle(x)

    def test_forward_without_tape_gives_the_same_bits(self, rng):
        x = np.concatenate([SPECIAL, rng.normal(scale=4.0, size=1000)])
        taped = ag.gelu(Tensor(x, requires_grad=True)).data
        ag.reset_tape()
        with ag.no_grad():
            assert np.array_equal(ag.gelu(Tensor(x, requires_grad=True)).data, taped)
        assert np.array_equal(ag.gelu(Tensor(x)).data, taped)

    @pytest.mark.parametrize("gelu, forward_arrays, backward_arrays", [
        (ag.gelu, 2, 0), (seed_autograd.gelu, 3, 3),
    ])
    def test_arrays_allocated(self, rng, gelu, forward_arrays, backward_arrays):
        x = Tensor(rng.normal(size=1 << 16), requires_grad=True)
        size = x.data.nbytes
        g = np.ones_like(x.data)  # gelu's output gradient, made outside the count
        tracemalloc.start()
        try:
            gelu(x)
            forward = tracemalloc.get_traced_memory()[1]
            _, fn = ag._tape.pop()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fn(g)
            backward = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
            ag.reset_tape()
        assert forward_arrays * size <= forward < (forward_arrays + 0.5) * size
        assert backward_arrays * size <= backward < (backward_arrays + 0.5) * size


class TestHandDown:
    @pytest.mark.parametrize("positional_mode, dropout", [("sinusoidal", 0.0), ("learned", 0.2)])
    def test_pretrain_checkpoint_bytes_match_the_copying_ops(self, tmp_path, monkeypatch, positional_mode,
                                                             dropout):
        store = corpus.generate_synthetic(48, seed=9, signal="rhyme")
        lines = [v.line for v in preprocess.preprocess_corpus(store)]
        vocab = tokenizer.train_wordpiece(lines, 256)
        cfg = mdl.ModelConfig(num_layers=2, num_heads=2, hidden=24, vocab_size=len(vocab), max_len=24,
                              positional_mode=positional_mode)
        paths = [tmp_path / "handed.ckpt", tmp_path / "copied.ckpt"]
        monkeypatch.setattr(ag, "gelu", seed_autograd.gelu)  # the one op whose bits change
        for path in paths:
            tcfg = training.tiny_train_config(batch_size=8, max_steps=5, seed=2, dropout=dropout)
            training.save_checkpoint(training.pretrain(lines, vocab, cfg, tcfg), path)
            seed_autograd.install_ops(monkeypatch)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @staticmethod
    def _graph(rng):
        """Leaves and a loss through every handing-down op: add with both,
        one or no input broadcast and with one input twice, scale, dropout,
        layer norm with and without an input gradient, and reshape/permute
        chains, some of them into leaves."""
        leaves = {name: Tensor(rng.normal(size=shape), requires_grad=True) for name, shape in [
            ("a", (2, 3, 4)), ("b", (2, 3, 4)), ("x", (2, 3, 4)), ("bias", (4,)), ("row", (1, 3, 1)),
            ("t", (4, 3, 2)), ("flat", (24,)), ("w", (4, 4)), ("gain", (4,)), ("beta", (4,)),
            ("gain2", (4,)), ("beta2", (4,)),
        ]}
        const = Tensor(rng.normal(size=(2, 3, 4)))
        drop_rng = np.random.default_rng(5)

        def loss():
            v = leaves
            h = ag.add(ag.add(v["a"], v["b"]), ag.add(v["x"], v["x"]))
            h = ag.add(ag.add(h, v["bias"]), ag.add(v["row"], const))
            h = ag.add(h, tape_ops.permute(v["t"], (2, 1, 0)))
            h = ag.add(tape_ops.reshape(v["flat"], (2, 3, 4)), h)
            h = ag.layer_norm(ag.matmul(h, v["w"]), v["gain"], v["beta"])
            h = ag.add(h, ag.layer_norm(const, v["gain2"], v["beta2"]))
            h = ag.dropout(ag.scale(h, 0.5), 0.3, drop_rng)
            h = tape_ops.reshape(tape_ops.permute(tape_ops.reshape(h, (2, 3, 2, 2)), (0, 2, 1, 3)), (6, 4))
            return ag.cross_entropy(ag.gelu(h), [0, 2, 3, 1, 0, 2])

        return leaves, loss

    def test_gradients_equal_the_copying_ops_and_share_no_memory(self, monkeypatch):
        monkeypatch.setattr(ag, "gelu", seed_autograd.gelu)
        runs, values = [], []
        for old in (False, True):
            if old:
                seed_autograd.install_ops(monkeypatch)
            leaves, loss = self._graph(np.random.default_rng(3))
            steps = []
            for _ in range(2):  # a second step gives the same values
                for t in leaves.values():
                    t.zero_grad()
                ag.backward(loss())
                steps.append({k: t.grad for k, t in leaves.items()})
                values.append({k: g.copy() for k, g in steps[-1].items()})
            runs.append((leaves, steps))
        (leaves, (_, new2)), _ = runs
        for name in leaves:
            assert all(np.array_equal(values[k][name], values[k + 2][name]) for k in (0, 1)), name
        for (p, g), (q, h) in itertools.combinations(new2.items(), 2):
            assert not np.shares_memory(g, h), (p, q)

    @staticmethod
    def _backward_peak(loss, x) -> float:
        """The backward's peak of allocated memory in arrays of ``x``'s size."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ag.backward(loss)
            return (tracemalloc.get_traced_memory()[1] - base) / x.data.nbytes
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("copying, arrays", [(False, 1), (True, 2)])
    def test_chain_allocates_only_the_first_gradient(self, rng, monkeypatch, copying, arrays):
        if copying:
            seed_autograd.install_ops(monkeypatch)
        x = Tensor(rng.normal(size=(256, 256)), requires_grad=True)
        h = ag.dropout(ag.scale(x, 2.0), 0.5, np.random.default_rng(1))
        h = tape_ops.permute(tape_ops.permute(ag.add(h, Tensor(rng.normal(size=(256, 256)))), (1, 0)), (1, 0))
        # only sum_all allocates: every op after it hands its gradient down, and x takes it over
        assert arrays <= self._backward_peak(ag.sum_all(tape_ops.reshape(h, (-1,))), x) < arrays + 0.5

    @pytest.mark.parametrize("copying, arrays", [(False, 2), (True, 3)])
    def test_layer_norm_needs_one_scratch_array(self, rng, monkeypatch, copying, arrays):
        if copying:
            seed_autograd.install_ops(monkeypatch)
        x = Tensor(rng.normal(size=(256, 256)), requires_grad=True)
        gain, bias = (Tensor(rng.normal(size=256), requires_grad=True) for _ in range(2))
        loss = ag.sum_all(ag.layer_norm(x, gain, bias))
        assert arrays <= self._backward_peak(loss, x) < arrays + 0.5

    @pytest.mark.parametrize("copying, arrays", [(False, 0), (True, 3)])
    def test_cross_entropy_turns_its_log_probabilities_into_the_gradient(self, rng, monkeypatch, copying, arrays):
        if copying:
            seed_autograd.install_ops(monkeypatch)
        logits = Tensor(rng.normal(size=(2048, 64)), requires_grad=True)
        targets = rng.integers(0, 64, size=2048)
        assert arrays <= self._backward_peak(ag.cross_entropy(logits, targets), logits) < arrays + 0.5

    def test_a_transposed_gradient_is_taken_over_not_copied(self, rng):
        w, p, q = (Tensor(rng.normal(size=(5, 3)), requires_grad=True) for _ in range(3))
        eye = Tensor(np.eye(5))
        for logits in (lambda: ag.matmul(ag.transpose(w), eye), lambda: ag.matmul(ag.transpose(ag.add(p, q)), eye)):
            ag.backward(ag.cross_entropy(logits(), [0, 1, 4]))
        for leaf in (w, p):  # handed down transposed
            assert not leaf.grad.flags.c_contiguous


def _fail_on_third(rows, attr):
    """``rows`` with the third one raising OSError when ``attr`` is read."""

    class Failing:
        def __init__(self, row):
            self._row = row

        def __getattr__(self, name):
            if name == attr:
                raise OSError("disk full")
            return getattr(self._row, name)

    return rows[:2] + [Failing(rows[2])] + rows[3:]


class TestAtomicWriters:
    @pytest.fixture()
    def store(self):
        return corpus.generate_synthetic(6, seed=4, signal="rhyme")

    def _assert_old_file_kept(self, tmp_path, path, write):
        old = path.read_bytes()
        with pytest.raises(OSError, match="disk full"):
            write()
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == [path.name]

    def test_write_lines(self, store, tmp_path):
        path = tmp_path / "lines.tsv"
        verses = preprocess.preprocess_corpus(store)
        preprocess.write_lines(verses[::-1], path)
        failing = _fail_on_third(verses, "line")
        self._assert_old_file_kept(tmp_path, path, lambda: preprocess.write_lines(failing, path))
        preprocess.write_lines(verses, path)
        assert preprocess.read_lines(path) == [v.line for v in verses]

    def test_write_corpus(self, store, tmp_path):
        path = tmp_path / "corpus.tsv"
        corpus.write_corpus(types.SimpleNamespace(records=list(store.records[::-1])), path)
        failing = types.SimpleNamespace(records=_fail_on_third(list(store.records), "meter"))
        self._assert_old_file_kept(tmp_path, path, lambda: corpus.write_corpus(failing, path))
        corpus.write_corpus(store, path)
        assert corpus.load_corpus(path).records == store.records



def _buffer_of(arr: np.ndarray):
    """The object whose memory ``arr`` views."""
    while isinstance(arr, np.ndarray) and arr.base is not None:
        arr = arr.base
    return arr.obj if isinstance(arr, memoryview) else arr


class TestCheckpointViews:
    @pytest.fixture(scope="class")
    def pretrained(self, tmp_path_factory):
        store = corpus.generate_synthetic(48, seed=11, signal="rhyme")
        lines = [v.line for v in preprocess.preprocess_corpus(store)]
        vocab = tokenizer.train_wordpiece(lines, 256)
        path = tmp_path_factory.mktemp("ckpt") / "base.ckpt"
        training.save_checkpoint(training.pretrain(lines, vocab, mdl.tiny_config(vocab_size=len(vocab)),
                                                   training.tiny_train_config(batch_size=8, max_steps=3, seed=1)),
                                 path)
        return store, vocab, path

    def test_arrays_view_one_aligned_buffer_and_to_params_read_only(self, pretrained):
        _, _, path = pretrained
        ckpt = training.load_checkpoint(path)
        loaded = list(ckpt.arrays.values())
        buffers = {id(_buffer_of(a)) for a in loaded}
        assert len(buffers) == 1 and sum(a.nbytes for a in loaded) <= memoryview(_buffer_of(loaded[0])).nbytes
        assert not any(a.flags.owndata for a in loaded)
        assert all(a.flags.aligned and a.flags.writeable for a in loaded)
        for name, param in ckpt.to_params().named_parameters():
            assert not param.data.flags.writeable and not param.data.flags.owndata, name
            assert np.shares_memory(param.data, ckpt.arrays[name]), name
        assert all(a.flags.writeable for a in loaded)  # the views leave the checkpoint's own arrays as they were

    def test_the_payload_starts_on_a_64_byte_boundary_whatever_the_header_length(self, tmp_path):
        arrays = {"a": np.arange(3.0), "b": np.linspace(0.0, 1.0, 10).reshape(2, 5), "c": np.array(-0.5)}
        residues = set()
        for pad in range(8):  # each byte of the vocab digest lengthens the header by one
            path = tmp_path / f"{pad}.ckpt"
            training.save_checkpoint(training.Checkpoint(mdl.tiny_config(vocab_size=40), arrays, "d" * pad, 0), path)
            residues.add(int.from_bytes(path.read_bytes()[8:16], "little") % 8)
            for _ in range(3):  # wherever the allocator puts the buffer
                loaded = training.load_checkpoint(path).arrays
                assert loaded["a"].ctypes.data % 64 == 0  # the first array, at offset 0 of the payload
                assert all(arr.flags.aligned and arr.ctypes.data % 8 == 0 for arr in loaded.values())
                assert all(loaded[k].tobytes() == arrays[k].tobytes() for k in arrays)
        assert residues == set(range(8))

    def test_pretrain_returns_the_arrays_it_trained(self, pretrained, monkeypatch):
        store, vocab, _ = pretrained
        caught, init_params = [], mdl.init_params
        monkeypatch.setattr(mdl, "init_params", lambda *a, **kw: caught.append(init_params(*a, **kw)) or caught[-1])
        ckpt = training.pretrain([v.line for v in preprocess.preprocess_corpus(store)], vocab,
                                 mdl.tiny_config(vocab_size=len(vocab)),
                                 training.tiny_train_config(batch_size=8, max_steps=2, seed=1))
        named = dict(caught[0].named_parameters())
        assert sorted(named) == sorted(ckpt.arrays)
        assert all(ckpt.arrays[name] is p.data for name, p in named.items())

    @pytest.mark.parametrize("head_only", [False, True])
    def test_finetune_copies_only_what_it_trains(self, pretrained, tmp_path, monkeypatch, head_only):
        """The input checkpoint keeps its bytes, the trained arrays are new, the frozen ones stay views
        of the input, and the output's bytes are those of a set-up whose to_params copied every array."""
        store, vocab, path = pretrained
        pairs = [(preprocess.preprocess_verse(r).line, label) for r, label in corpus.task_pairs(store, "Rhyme")]
        tcfg = training.tiny_train_config(batch_size=8, max_steps=4, seed=5)
        ckpt = training.load_checkpoint(path)
        before = {name: arr.tobytes() for name, arr in ckpt.arrays.items()}
        tuned = training.finetune(ckpt, pairs, corpus.taxonomy("Rhyme"), vocab, tcfg, head_only=head_only)
        assert {name: arr.tobytes() for name, arr in ckpt.arrays.items()} == before
        for name, arr in ckpt.arrays.items():
            frozen = name.startswith("mlm_") or head_only
            assert np.shares_memory(tuned.arrays[name], arr) == frozen, name
            assert tuned.arrays[name].flags.writeable != frozen, name

        to_params = training.Checkpoint.to_params

        def copying(self):  # to_params as it was: an owned, writeable copy of every array
            params = to_params(self)
            for p in params.parameters():
                p.data = p.data.copy()
            return params

        monkeypatch.setattr(training.Checkpoint, "to_params", copying)
        copied = training.finetune(training.load_checkpoint(path), pairs, corpus.taxonomy("Rhyme"), vocab, tcfg,
                                   head_only=head_only)
        outs = [tmp_path / "views.ckpt", tmp_path / "copies.ckpt"]
        for out, tuned_ckpt in zip(outs, (tuned, copied)):
            training.save_checkpoint(tuned_ckpt, out)
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_finetune_from_a_loaded_checkpoint_gives_the_same_bytes(self, pretrained, tmp_path):
        store, vocab, path = pretrained
        pairs = [(preprocess.preprocess_verse(r).line, label) for r, label in corpus.task_pairs(store, "Rhyme")]
        loaded = training.load_checkpoint(path)
        copied = training.load_checkpoint(path)
        copied.arrays = {k: np.array(v) for k, v in copied.arrays.items()}  # independent arrays, as before
        outs = [tmp_path / "views.ckpt", tmp_path / "copies.ckpt"]
        for ckpt, out in zip((loaded, copied), outs):
            tcfg = training.tiny_train_config(batch_size=8, max_steps=4, seed=5)
            training.save_checkpoint(training.finetune(ckpt, pairs, corpus.taxonomy("Rhyme"), vocab, tcfg), out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        again = training.load_checkpoint(path)
        assert all(np.array_equal(loaded.arrays[k], again.arrays[k]) for k in again.arrays)
