"""The batched encoder against the per-sequence, per-head one it replaced
(``seed_model``): hidden states, [CLS] logits, MLM loss and every parameter
gradient agree to 1e-12 on a batch of mixed lengths. And ``predict_logits``,
whose last layer runs past attention on [CLS] alone, against the full chain
and, byte for byte, against the [CLS] path it replaced (``seed_cls``)."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from versebert import autograd as ag
from versebert import model as mdl
from versebert.tokenizer import TokenSequence

import seed_cls
import seed_model

TOL = 1e-12
MAX_LEN = 12


def seq(n_real, first_id=7):
    ids = [2] + [first_id + (i * 5) % 50 for i in range(n_real - 2)] + [3]
    return TokenSequence(
        tuple(ids) + (0,) * (MAX_LEN - n_real), (1,) * n_real + (0,) * (MAX_LEN - n_real), MAX_LEN
    )


# a length-2 ([CLS] [SEP]) and a full max_len sequence among the mixed lengths
BATCH = [seq(5), seq(2, 9), seq(MAX_LEN, 11), seq(7, 20), seq(3, 30)]


def targets_for(s, picks):
    t = np.full(MAX_LEN, mdl.IGNORE_INDEX)
    for pos in picks:
        if pos < sum(s.attention_mask) - 1:
            t[pos] = (s.ids[pos] * 7) % 60 + 3
    return t


TARGETS = [targets_for(s, p) for s, p in zip(BATCH, ([1, 3], [1], [1, 4, 10], [2, 5], [1]))]


def build(positional_mode, labels=5):
    cfg = mdl.ModelConfig(
        num_layers=2, num_heads=4, hidden=16, vocab_size=64, max_len=MAX_LEN,
        dropout=0.0, positional_mode=positional_mode,
    )
    params = mdl.init_params(cfg, np.random.default_rng(5))
    # larger weights than the 0.02 init, so attention is far from uniform
    scale_rng = np.random.default_rng(6)
    for name, p in params.named_parameters():
        if not name.endswith("gain"):
            p.data = scale_rng.normal(0.0, 0.3, size=p.data.shape)
    head = (
        ag.Tensor(scale_rng.normal(size=(cfg.hidden, labels)), requires_grad=True),
        ag.Tensor(scale_rng.normal(size=(labels,)), requires_grad=True),
    )
    return cfg, params, head


@pytest.fixture(params=["sinusoidal", "learned"])
def model(request):
    ag.reset_tape()
    yield build(request.param)
    ag.reset_tape()


def close(a, b):
    return np.abs(a - b).max() <= TOL * max(1.0, np.abs(b).max())


def batched_forward(cfg, params):
    ids, mask = mdl.stack_batch(BATCH)
    return mdl.encoder_forward(ids, mask, cfg, params)


def test_batch_is_trimmed_to_its_longest_verse():
    ids, mask = mdl.stack_batch([seq(5), seq(3)])
    assert ids.shape == mask.shape == (2, 5)
    assert mdl.stack_batch(BATCH)[0].shape == (5, MAX_LEN)


def test_hidden_states_match_at_real_positions(model):
    cfg, params, _ = model
    with ag.no_grad():
        got = batched_forward(cfg, params).data
        heads = seed_model.split_heads(params, cfg.num_heads)
        for b, s in enumerate(BATCH):
            want = seed_model.encoder_forward(s, cfg, params, heads).data
            n = sum(s.attention_mask)
            assert close(got[b, :n], want[:n]), b


def test_cls_logits_match(model):
    cfg, params, head = model
    heads = seed_model.split_heads(params, cfg.num_heads)
    with ag.no_grad():
        want = seed_model.cls_logits(BATCH, cfg, params, heads, *head).data
    assert close(mdl.predict_logits(BATCH, cfg, params, head), want)


def _grads(params, extra=()):
    """Every gradient by name; the oracle leaves the fused w_qkv without one."""
    return {name: t.grad.copy() for name, t in params.named_parameters() + list(extra) if t.grad is not None}


def test_mlm_loss_and_every_gradient_match(model):
    cfg, params, _ = model
    ids, mask = mdl.stack_batch(BATCH)
    loss = mdl.mlm_loss(
        mdl.encoder_forward(ids, mask, cfg, params), np.stack(TARGETS)[:, : ids.shape[1]], params
    )
    ag.backward(loss)
    got = _grads(params)

    for p in params.parameters():
        p.zero_grad()
    heads = seed_model.split_heads(params, cfg.num_heads)
    want_loss = seed_model.mlm_loss(BATCH, TARGETS, cfg, params, heads)
    ag.backward(want_loss)
    want = _grads(params)
    for li, fused in enumerate(seed_model.fused_qkv_grads(heads)):
        want[f"layers.{li}.w_qkv"] = fused

    assert abs(float(loss.data) - float(want_loss.data)) <= TOL * abs(float(want_loss.data))
    assert got.keys() == want.keys()
    for name in got:
        assert close(got[name], want[name]), name


def test_classification_gradients_match(model):
    cfg, params, head = model
    labels = [0, 4, 2, 1, 3]
    ids, mask = mdl.stack_batch(BATCH)
    ag.backward(ag.cross_entropy(mdl.classify(mdl.cls_rows(mdl.encoder_forward(ids, mask, cfg, params)), *head), labels))
    named_head = [("head_w", head[0]), ("head_b", head[1])]
    got = _grads(params, named_head)

    for _, p in params.named_parameters() + named_head:
        p.zero_grad()
    heads = seed_model.split_heads(params, cfg.num_heads)
    ag.backward(ag.cross_entropy(seed_model.cls_logits(BATCH, cfg, params, heads, *head), labels))
    want = _grads(params, named_head)
    for li, fused in enumerate(seed_model.fused_qkv_grads(heads)):
        want[f"layers.{li}.w_qkv"] = fused
    for name in got:
        assert close(got[name], want[name]), name


def test_appended_padding_leaves_real_positions_unchanged(model):
    cfg, params, _ = model
    ids, mask = mdl.stack_batch(BATCH[:2])  # trimmed to 5 positions
    full_ids = np.array([s.ids for s in BATCH[:2]])
    full_mask = np.array([s.attention_mask for s in BATCH[:2]])
    with ag.no_grad():
        trimmed = mdl.encoder_forward(ids, mask, cfg, params).data
        padded = mdl.encoder_forward(full_ids, full_mask, cfg, params).data
    for b, s in enumerate(BATCH[:2]):
        n = sum(s.attention_mask)
        assert close(trimmed[b, :n], padded[b, :n])


def test_padded_keys_get_exactly_zero_weight():
    rng = np.random.default_rng(0)
    q, k, v = (ag.Tensor(rng.normal(size=(2, 3, 4, 2))) for _ in range(3))
    mask = np.array([[1, 1, 0, 0], [1, 1, 1, 0]])[:, None, :]
    _, weights = mdl.scaled_dot_attention(q, k, v, mask, return_weights=True)
    assert np.all(weights.data[0, :, :, 2:] == 0.0)
    assert np.all(weights.data[1, :, :, 3] == 0.0)


def test_predict_one_verse_matches_its_row_in_a_batch(model):
    cfg, params, head = model
    batch = mdl.predict_logits(BATCH, cfg, params, head)
    for b, s in enumerate(BATCH):
        assert close(mdl.predict_logits([s], cfg, params, head)[0], batch[b])


_built = functools.lru_cache(maxsize=None)(build)  # tape-free use only: nothing here writes a gradient


@settings(max_examples=80, deadline=None)
@given(lengths=st.lists(st.integers(2, MAX_LEN), min_size=1, max_size=40),
       mode=st.sampled_from(["sinusoidal", "learned"]), labels=st.sampled_from([5, 300]), first=st.integers(0, 9))
def test_cls_only_logits_match_the_full_chain(lengths, mode, labels, first):
    cfg, params, head = _built(mode, labels)
    batch = [seq(n, 4 + (first + i) % 10) for i, n in enumerate(lengths)]
    ids, mask = mdl.stack_batch(batch)
    with ag.no_grad():
        full = mdl.encoder_forward(ids, mask, cfg, params)
        want = mdl.classify(mdl.cls_rows(full), *head).data
        cls = mdl.encoder_forward(ids, mask, cfg, params, cls_only=True).data
    got = mdl.predict_logits(batch, cfg, params, head)
    assert cls.shape == (len(batch), cfg.hidden) and close(cls, full.data[:, 0])
    assert got.shape == want.shape == (len(batch), labels) and close(got, want)
    assert (got.argmax(axis=1) == want.argmax(axis=1)).all()


@settings(max_examples=80, deadline=None)
@given(lengths=st.lists(st.integers(2, MAX_LEN), min_size=1, max_size=40),
       mode=st.sampled_from(["sinusoidal", "learned"]), labels=st.sampled_from([5, 300]), first=st.integers(0, 9))
def test_predict_logits_bytes_match_the_replaced_cls_path(lengths, mode, labels, first):
    # the replaced path cut to (B, 1, d) states, and its classify gathered their rows again
    cfg, params, head = _built(mode, labels)
    batch = [seq(n, 4 + (first + i) % 10) for i, n in enumerate(lengths)]
    got = mdl.predict_logits(batch, cfg, params, head)
    want = seed_cls.predict_logits(batch, cfg, params, head)
    assert got.shape == want.shape == (len(batch), labels) and got.tobytes() == want.tobytes()
