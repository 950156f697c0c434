"""The packed encoder, which runs every op but attention on the real rows
only, against the padded one it replaced (``seed_padded``): the states at the
kept rows, the MLM loss and every parameter gradient, byte for byte at the
``pretrain-mid`` shape and within ``tests/test_batched.py``'s 1e-12 bound at a
small one, with the dropout stream ending where the padded forward leaves it.
A batch without padding skips the scatter and the gather, and records the
padded forward's ops."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from versebert import autograd as ag
from versebert import model as mdl
from versebert.errors import ShapeMismatch

import seed_padded
import tape_ops
from gradcheck import dense_grad

TOL = 1e-12
VOCAB = 64
# (layers, heads, hidden, max_len, batch): the pretrain-mid encoder, and a small one
SHAPES = {"mid": (4, 4, 256, 32, 8), "small": (2, 4, 16, 12, 8)}


@functools.lru_cache(maxsize=None)
def build(shape: str, positional_mode: str):
    layers, heads, hidden, max_len, _ = SHAPES[shape]
    config = mdl.ModelConfig(num_layers=layers, num_heads=heads, hidden=hidden, vocab_size=VOCAB,
                             max_len=max_len, dropout=0.0, positional_mode=positional_mode)
    params = mdl.init_params(config, np.random.default_rng(11))
    if shape == "small":  # larger weights than the 0.02 init, so attention is far from uniform
        scale_rng = np.random.default_rng(12)
        for name, p in params.named_parameters():
            if not name.endswith("gain"):
                p.data = scale_rng.normal(0.0, 0.3, size=p.data.shape)
    return config, params


def batch(lengths, max_len, first=0):
    """(B, T) ids and mask of verses of ``lengths`` real tokens, trimmed as ``stack_batch`` trims."""
    ids = np.zeros((len(lengths), max_len), dtype=np.int64)
    mask = np.zeros_like(ids)
    for b, n in enumerate(lengths):
        ids[b, :n] = [2] + [7 + (first + b + 3 * i) % (VOCAB - 7) for i in range(n - 2)] + [3]
        mask[b, :n] = 1
    return mdl.trim_batch(ids, mask)


def run(encoder, config, params, ids, mask, rows, rate, seed):
    """States, loss, every parameter gradient and the dropout stream's end state of one MLM step.
    With ``rows`` None the loss reads every real position."""
    for p in params.parameters():
        p.zero_grad()
    rng = np.random.default_rng(seed)
    hidden = encoder(ids, mask, config, params, rng, rate, rows)
    real = np.flatnonzero(mask)
    if hidden.data.ndim == 3:  # the padded forward's (B, T, hidden) states
        hidden = ag.take_rows(tape_ops.reshape(hidden, (-1, config.hidden)), real)
    targets = (ids.reshape(-1)[real if rows is None else rows] * 7) % VOCAB
    loss = mdl.mlm_loss(hidden, targets, params)
    ag.backward(loss)
    grads = {name: dense_grad(t) for name, t in params.named_parameters() if t.grad is not None}
    return hidden.data.copy(), float(loss.data), grads, rng.bit_generator.state


def close(a, b):
    return np.abs(a - b).max(initial=0.0) <= TOL * max(1.0, np.abs(b).max(initial=0.0))


def same_grads(got: dict, want: dict, exact: bool) -> bool:
    """Every gradient equal in bytes when ``exact``, else ``close``. A learned position table's is
    always only ``close``: its gradient gathers each position's rows in ``_scatter_add``, whose
    reduceat sums g0 + ((g1 + g2) + ...), where the padded forward's broadcast add summed left to right."""
    return got.keys() == want.keys() and all(
        got[n].tobytes() == want[n].tobytes() if exact and n != "positional" else close(got[n], want[n]) for n in want)


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(sorted(SHAPES)), lengths=st.lists(st.integers(2, 32), min_size=1, max_size=8),
       mode=st.sampled_from(["sinusoidal", "learned"]), rate=st.sampled_from([0.0, 0.2]),
       picks=st.none() | st.lists(st.integers(0, 10**6), min_size=1, max_size=30), seed=st.integers(0, 9))
def test_packed_rows_match_the_padded_forward(shape, lengths, mode, rate, picks, seed):
    """Any real rows, or all of them, at dropout 0 and 0.2."""
    config, params = build(shape, mode)
    ids, mask = batch([min(n, config.max_len) for n in lengths], config.max_len, seed)
    real = np.flatnonzero(mask)
    rows = None if picks is None else np.unique(real[np.array(picks) % real.size])
    got = run(mdl.encoder_forward, config, params, ids, mask, rows, rate, seed)
    want = run(seed_padded.encoder_forward, config, params, ids, mask, rows, rate, seed)
    assert got[0].shape == want[0].shape == (real.size if rows is None else rows.size, config.hidden)
    assert got[3] == want[3]  # the dropout stream
    if shape == "mid":
        assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]
    else:
        assert close(got[0], want[0]) and abs(got[1] - want[1]) <= TOL * abs(want[1])
    assert same_grads(got[2], want[2], exact=shape == "mid")


@pytest.mark.parametrize("ids, rows", [([[2, 9, 3, 0], [2, 11, 10, 3]], [3]), ([[2, 9, 3, 0], [2, 11, 3, 0]], [7])],
                         ids=["padded-row", "past-the-last-real-row"])
def test_rows_that_are_not_real_positions_raise_before_any_op(ids, rows):
    """A padded row would otherwise map to the next real one, and one past the last real row would
    index past the packed states."""
    config, params = build("small", "sinusoidal")
    ids = np.array(ids)
    with pytest.raises(ShapeMismatch, match="real positions"):
        mdl.encoder_forward(ids, (ids != 0).astype(np.int64), config, params, rows=np.array(rows))
    assert ag.tape_size() == 0


def _ops(encoder, config, params, ids, mask, rows):
    """The backward closure names a forward records, in order."""
    ag.reset_tape()
    encoder(ids, mask, config, params, rows=rows)
    names = [fn.__qualname__.split(".")[0] for _, fn in ag._tape]
    ag.reset_tape()
    return names


@pytest.mark.parametrize("mode", ["sinusoidal", "learned"])
def test_a_batch_without_padding_skips_the_scatter_and_records_the_padded_ops(mode, monkeypatch):
    config, params = build("small", mode)
    scattered, scatter = [], ag._scattered
    monkeypatch.setattr(ag, "_scattered", lambda *a: scattered.append(a[0].shape) or scatter(*a))
    full = batch([config.max_len] * 3, config.max_len)
    rows = mdl.cls_rows(full[0])
    got = run(mdl.encoder_forward, config, params, *full, rows, 0.0, 0)
    assert scattered == []  # neither in the forward nor in the backward
    want = run(seed_padded.encoder_forward, config, params, *full, rows, 0.0, 0)
    assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]
    assert same_grads(got[2], want[2], exact=True)
    for cut in (None, rows):
        want_ops = _ops(seed_padded.encoder_forward, config, params, *full, cut)
        if mode == "learned":  # the positions are gathered as an embedding, not by take_rows
            want_ops[want_ops.index("take_rows")] = "embedding_lookup"
        # the packed states need no reshape, neither around attention nor before the cut
        want_ops = [op for op in want_ops if op != "reshape"]
        assert _ops(mdl.encoder_forward, config, params, *full, cut) == want_ops
    padded = batch([config.max_len, 5, 3], config.max_len)
    run(mdl.encoder_forward, config, params, *padded, None, 0.0, 0)
    assert len(scattered) == 2 * config.num_layers  # per layer, the QKV rows in and their gradient back
