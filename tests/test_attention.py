"""The one attention op (``ag.attention``) against the composed chain it
replaced (``seed_attention``): the same output and the same gradient of every
input, byte for byte, so signed zeros count too. Plus the arrays a taped
forward keeps for its backward and the ones that backward allocates."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from versebert import autograd as ag
from versebert import model as mdl
from versebert import corpus, preprocess, tokenizer, training
from versebert.autograd import Tensor
from versebert.errors import AllMasked

import seed_attention
from gradcheck import grad_check


def _masks(rng, lead, m):
    """0/1 key masks of shape ``lead + (m,)``, each row keeping at least one key
    and about a third keeping exactly one (a sequence padded down to one token)."""
    mask = (rng.random(lead + (m,)) < 0.6).astype(np.int64)
    for row in mask.reshape(-1, m):
        if not row.any() or rng.random() < 0.3:
            row[:] = 0
            row[int(rng.integers(0, m))] = 1
    return mask


def _values(rng, shape):
    """Normal values, with some exact zeros so products of +0.0 and -0.0 show up."""
    x = rng.normal(scale=2.0, size=shape)
    x[rng.random(shape) < 0.15] = 0.0
    return x


def _run(fn, arrays, n_out):
    """Output bytes and the bytes of each leaf's gradient after a cross-entropy backward."""
    ag.reset_tape()
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*leaves)
    ag.backward(ag.cross_entropy(out, np.arange(out.shape[0]) % n_out))
    return [out.data.tobytes()] + [leaf.grad.tobytes() for leaf in leaves]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 8), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_split_attend_merge_matches_the_composed_chain(b, t, heads, d_k, seed):
    rng = np.random.default_rng(seed)
    mask = _masks(rng, (b,), t)
    real = np.flatnonzero(mask)
    qkv = _values(rng, (real.size, 3 * heads * d_k))
    want = _run(lambda a: seed_attention.attend_real_rows(a, mask, heads, real), [qkv], heads * d_k)
    got = _run(lambda a: ag.attention(a, mdl.key_bias(mask), heads, real)[0], [qkv], heads * d_k)
    assert got == want


def test_forward_without_tape_gives_the_same_bits():
    rng = np.random.default_rng(4)
    mask = _masks(rng, (4,), 32)
    real, bias = np.flatnonzero(mask), mdl.key_bias(mask)
    qkv = Tensor(rng.normal(size=(real.size, 3 * 3 * 8)), requires_grad=True)
    taped, _ = ag.attention(qkv, bias, 3, real)
    ag.reset_tape()
    with ag.no_grad():
        free, _ = ag.attention(qkv, bias, 3, real)
    assert free.data.tobytes() == taped.data.tobytes()


@pytest.mark.parametrize("padded", [0, 2])  # positions cut from the end of the second verse
def test_a_taped_forward_keeps_one_score_array_the_weights(padded):
    rng = np.random.default_rng(6)
    b, t, d = 2, 128, 4  # scores of 2 x 2 x 128 x 128 float64s (512 KiB) dwarf every other array
    mask = np.ones((b, t), dtype=np.int64)
    mask[1, t - padded:] = 0
    real, bias = np.flatnonzero(mask), mdl.key_bias(mask)
    qkv = Tensor(rng.normal(size=(real.size, 3 * d)), requires_grad=True)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out, weights = ag.attention(qkv, bias, 2, real)
        forward_peak = tracemalloc.get_traced_memory()[1] - base
        kept = tracemalloc.get_traced_memory()[0] - base
        _, fn = ag._tape.pop()
        g = np.ones_like(out.data)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(g)
        backward_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
        ag.reset_tape()
    size = weights.nbytes
    assert size <= kept < 1.5 * size and forward_peak < 1.5 * size
    held = [cell.cell_contents for cell in fn.__closure__ if getattr(cell.cell_contents, "size", 0) >= weights.size]
    assert len(held) == 1 and held[0] is weights
    assert 2 * size <= backward_peak < 2.5 * size  # the weights' gradient and its product with them


def test_gradients_against_finite_differences():
    rng = np.random.default_rng(5)
    mask = np.array([[1, 1, 0, 1], [1, 0, 0, 0]])
    real, bias = np.flatnonzero(mask), mdl.key_bias(mask)
    qkv = Tensor(rng.normal(size=(real.size, 3 * 2 * 3)), requires_grad=True)
    assert grad_check(lambda: ag.cross_entropy(ag.attention(qkv, bias, 2, real)[0], [0, 5, 1, 4]), [qkv]) < 1e-5


def test_pretrain_checkpoint_bytes_match_the_composed_chain(tmp_path, monkeypatch):
    lines = [v.line for v in preprocess.preprocess_corpus(corpus.generate_synthetic(32, seed=9, signal="rhyme"))]
    vocab = tokenizer.train_wordpiece(lines, 128)
    cfg = mdl.ModelConfig(num_layers=2, num_heads=2, hidden=12, vocab_size=len(vocab), max_len=16)
    paths = [tmp_path / "op.ckpt", tmp_path / "chain.ckpt"]
    for path in paths:
        tcfg = training.tiny_train_config(batch_size=4, max_steps=3, seed=1, dropout=0.1)
        training.save_checkpoint(training.pretrain(lines, vocab, cfg, tcfg), path)
        monkeypatch.setattr(mdl, "multi_head_attention", seed_attention.multi_head_attention)
    assert paths[0].read_bytes() == paths[1].read_bytes()


class TestEncoder:
    @pytest.fixture
    def model(self):
        cfg = mdl.ModelConfig(num_layers=3, num_heads=2, hidden=8, vocab_size=20, max_len=6, dropout=0.0)
        return cfg, mdl.init_params(cfg, np.random.default_rng(0))

    def test_one_key_bias_per_forward_and_ten_records_per_layer(self, model, monkeypatch):
        cfg, params = model
        calls = []
        key_bias = mdl.key_bias
        monkeypatch.setattr(mdl, "key_bias", lambda *a: calls.append(a) or key_bias(*a))
        ag.reset_tape()
        mdl.encoder_forward(np.array([[2, 5, 6, 3], [2, 7, 3, 0]]), np.array([[1, 1, 1, 1], [1, 1, 1, 0]]),
                            cfg, params)
        assert len(calls) == 1
        assert ag.tape_size() == 2 + 10 * cfg.num_layers  # embedding and positions, then each layer
        ag.reset_tape()

    def test_a_row_with_no_attended_position_is_all_masked(self, model):
        cfg, params = model
        with pytest.raises(AllMasked):
            mdl.encoder_forward(np.array([[2, 5, 3], [0, 0, 0]]), np.array([[1, 1, 1], [0, 0, 0]]), cfg, params)
