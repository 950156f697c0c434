"""The one training loop against the separate pretrain and finetune set-ups it
replaced (``tests/seed_training.py``): the same checkpoint bytes and the same
``on_step`` calls, skipped and failing steps included."""

import dataclasses

import numpy as np
import pytest

import seed_adamw
import seed_training
from versebert import autograd as ag, corpus, model as mdl, preprocess, training
from versebert.errors import EmptyCorpus, NonFiniteLoss


def _run(fn, tmp_path, tag, cfg, *args, **kwargs):
    """(checkpoint bytes, on_step calls) of one run written to ``tmp_path/tag``."""
    path = tmp_path / f"{tag}.ckpt"
    calls = []
    fn(*args, dataclasses.replace(cfg, checkpoint_path=str(path)), on_step=lambda *c: calls.append(c), **kwargs)
    return path.read_bytes(), calls


def _pretrain(fn, tmp_path, tag, lines, vocab, config, cfg):
    return _run(lambda *a, **kw: fn(lines, vocab, config, *a, **kw), tmp_path, tag, cfg)


def _finetune(fn, tmp_path, tag, base, pairs, vocab, cfg, head_only):
    tax = corpus.taxonomy("rhyme")
    return _run(lambda *a, **kw: fn(base, pairs, tax, vocab, *a, **kw), tmp_path, tag, cfg, head_only=head_only)


@pytest.fixture(scope="module")
def pairs(synth_rhyme):
    store, _, _ = synth_rhyme
    return [(preprocess.preprocess_verse(r).line, label) for r, label in corpus.task_pairs(store, "rhyme")]


@pytest.fixture(scope="module")
def base(synth_rhyme):
    _, lines, vocab = synth_rhyme
    cfg = training.tiny_train_config(max_steps=3, seed=5)
    return training.pretrain(lines, vocab, mdl.tiny_config(vocab_size=len(vocab)), cfg)


# 120 lines in batches of 32: four batches an epoch, the last one short, so
# seven steps cross an epoch boundary
@pytest.mark.parametrize("dropout", [0.0, 0.2])
@pytest.mark.parametrize("positional_mode", ["sinusoidal", "learned"])
@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_pretrain_matches_the_separate_set_up(synth_rhyme, tmp_path, dropout, positional_mode, weight_decay):
    _, lines, vocab = synth_rhyme
    config = dataclasses.replace(mdl.tiny_config(vocab_size=len(vocab)), positional_mode=positional_mode)
    cfg = training.tiny_train_config(max_steps=7, seed=11, dropout=dropout, weight_decay=weight_decay)
    got = _pretrain(training.pretrain, tmp_path, "new", lines, vocab, config, cfg)
    want = _pretrain(seed_training.pretrain, tmp_path, "old", lines, vocab, config, cfg)
    assert [step for step, _ in got[1]] == list(range(1, 8))
    assert got == want


@pytest.mark.parametrize("head_only, dropout", [(False, 0.0), (True, 0.0), (False, 0.2), (True, 0.2)])
def test_finetune_matches_the_separate_set_up(synth_rhyme, base, pairs, tmp_path, head_only, dropout):
    _, _, vocab = synth_rhyme
    cfg = training.tiny_train_config(max_steps=6, lr=3e-3, seed=2, dropout=dropout)
    got = _finetune(training.finetune, tmp_path, "new", base, pairs, vocab, cfg, head_only)
    want = _finetune(seed_training.finetune, tmp_path, "old", base, pairs, vocab, cfg, head_only)
    assert len(got[1]) == 6
    assert got == want


def test_finetune_decays_only_what_it_trains(synth_rhyme, base, pairs):
    """With weight decay, the MLM head and another task's head come back as loaded, and the encoder
    and the new head as the replaced set-up, which also decayed those it never trained, left them."""
    _, _, vocab = synth_rhyme
    loaded = dataclasses.replace(base, arrays=dict(base.arrays))
    w, _ = mdl.init_head(base.model_config, corpus.taxonomy("gender").num_labels, np.random.default_rng(0))
    loaded.arrays.update({"heads.Gender.w": w.data, "heads.Gender.b": np.full(w.shape[1], 0.5)})
    cfg = training.tiny_train_config(max_steps=6, lr=3e-3, seed=2, weight_decay=0.01)
    tax = corpus.taxonomy("rhyme")
    got = training.finetune(loaded, pairs, tax, vocab, cfg).arrays
    want = seed_training.finetune(loaded, pairs, tax, vocab, cfg).arrays
    untrained = ["mlm_w", "mlm_b", "heads.Gender.w", "heads.Gender.b"]
    for name in untrained:
        assert np.array_equal(got[name], loaded.arrays[name]), name
        assert not np.array_equal(want[name], loaded.arrays[name]), name
    assert sorted(got) == sorted(want) and "heads.Rhyme.w" in got
    for name in set(got) - set(untrained):
        assert np.array_equal(got[name], want[name]), name


@pytest.mark.parametrize("run", ["pretrain", "pretrain decay", "finetune", "finetune head_only"])
def test_a_two_thread_adamw_writes_the_same_checkpoint(synth_rhyme, base, pairs, tmp_path, monkeypatch, run):
    """Against the single-thread whole-array step of ``seed_adamw``."""
    _, lines, vocab = synth_rhyme
    cfg = training.tiny_train_config(max_steps=4, lr=3e-3, seed=4, weight_decay=0.01 if "decay" in run else 0.0)
    got = []
    for tag in ("two threads", "seed step"):
        if tag == "seed step":
            monkeypatch.setattr(ag.AdamW, "step", seed_adamw.step)
        if run.startswith("pretrain"):
            config = mdl.tiny_config(vocab_size=len(vocab))
            got.append(_pretrain(training.pretrain, tmp_path, tag, lines, vocab, config, cfg))
        else:
            got.append(_finetune(training.finetune, tmp_path, tag, base, pairs, vocab, cfg, "head_only" in run))
    assert len(got[0][1]) == 4
    assert got[0] == got[1]


def test_a_batch_without_masked_positions_is_skipped_as_before(synth_rhyme, tmp_path):
    _, lines, vocab = synth_rhyme
    config = mdl.tiny_config(vocab_size=len(vocab))
    cfg = training.tiny_train_config(max_steps=12, batch_size=1, mask_ratio=0.05, seed=4)
    got = _pretrain(training.pretrain, tmp_path, "new", lines, vocab, config, cfg)
    want = _pretrain(seed_training.pretrain, tmp_path, "old", lines, vocab, config, cfg)
    steps = [step for step, _ in got[1]]
    assert 0 < len(steps) < 12  # some steps were skipped, some were taken
    assert got == want
    assert training.load_checkpoint(tmp_path / "new.ckpt").global_step == 12


def _nan_on_call(n, fn):
    """``fn`` whose ``n``-th call returns NaN in place of its output."""
    calls = []

    def wrapped(*args):
        calls.append(None)
        out = fn(*args)
        return ag.scale(out, float("nan")) if len(calls) == n else out

    return wrapped


def _failing_run(fn, tmp_path, tag, cfg, *args, **kwargs):
    """(error message, on_step calls, tape size) of a run that must raise NonFiniteLoss."""
    calls = []
    with pytest.raises(NonFiniteLoss) as info:
        fn(*args, dataclasses.replace(cfg, checkpoint_path=str(tmp_path / tag)),
           on_step=lambda *c: calls.append(c), **kwargs)
    assert not (tmp_path / tag).exists()
    return str(info.value), calls, ag.tape_size()


def test_a_non_finite_pretrain_loss_raises_as_before(synth_rhyme, tmp_path, monkeypatch):
    _, lines, vocab = synth_rhyme
    config = mdl.tiny_config(vocab_size=len(vocab))
    cfg = training.tiny_train_config(max_steps=5, seed=1)
    results = []
    for tag, fn in (("new", training.pretrain), ("old", seed_training.pretrain)):
        monkeypatch.setattr(mdl, "mlm_loss", _nan_on_call(3, mdl.mlm_loss))
        results.append(_failing_run(fn, tmp_path, tag, cfg, lines, vocab, config))
        monkeypatch.undo()
    assert results[0] == results[1]
    assert results[0][0] == "step 3: loss=nan" and len(results[0][1]) == 2 and results[0][2] == 0


def test_a_non_finite_finetune_loss_raises_as_before(synth_rhyme, base, pairs, tmp_path, monkeypatch):
    _, _, vocab = synth_rhyme
    cfg = training.tiny_train_config(max_steps=5, seed=1)
    results = []
    # the old set-up calls its own classify, which cuts the [CLS] rows itself
    for tag, fn, owner in (("new", training.finetune, mdl), ("old", seed_training.finetune, seed_training.mdl)):
        monkeypatch.setattr(owner, "classify", _nan_on_call(2, owner.classify))
        results.append(_failing_run(fn, tmp_path, tag, cfg, base, pairs, corpus.taxonomy("rhyme"), vocab))
        monkeypatch.undo()
    assert results[0] == results[1]
    assert results[0][0] == "step 2: loss=nan" and len(results[0][1]) == 1 and results[0][2] == 0


def test_empty_training_input_is_empty_corpus(synth_rhyme, base, tmp_path):
    _, _, vocab = synth_rhyme
    cfg = training.tiny_train_config(max_steps=2, checkpoint_path=str(tmp_path / "c.ckpt"))
    with pytest.raises(EmptyCorpus, match="pretrain"):
        training.pretrain([], vocab, mdl.tiny_config(vocab_size=len(vocab)), cfg)
    with pytest.raises(EmptyCorpus, match=r"finetune\[Rhyme\]"):
        training.finetune(base, [], corpus.taxonomy("rhyme"), vocab, cfg)
    assert not (tmp_path / "c.ckpt").exists()


class TestEncoderDropout:
    """The encoder takes its dropout rate only from its caller."""

    def _forward(self, config, params, *dropout):
        ids = np.array([[2, 9, 10, 11, 3], [2, 12, 13, 3, 0]])
        return mdl.encoder_forward(ids, (ids != 0).astype(np.int64), config, params, *dropout).data

    def test_model_config_dropout_is_not_read(self, tiny):
        config, params = tiny
        want = self._forward(config, params)
        noisy = dataclasses.replace(config, dropout=0.5)
        assert np.array_equal(self._forward(noisy, params), want)
        assert np.array_equal(self._forward(noisy, params, np.random.default_rng(0)), want)

    def test_a_passed_rate_and_rng_drop_units(self, tiny):
        config, params = tiny
        a = self._forward(config, params, np.random.default_rng(0), 0.5)
        b = self._forward(config, params, np.random.default_rng(0), 0.5)
        assert np.array_equal(a, b) and not np.array_equal(a, self._forward(config, params))

    def test_a_rate_without_an_rng_is_refused(self, tiny):
        config, params = tiny
        with pytest.raises(ValueError, match="rng"):
            self._forward(config, params, None, 0.5)
