"""The one attention op (``ag.attention``) against the composed chain it
replaced (``seed_attention``): the same output and the same gradient of every
input, byte for byte, so signed zeros count too."""

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
    width = out.shape[-1]
    loss = ag.cross_entropy(ag.reshape(out, (-1, width)), np.arange(out.data.size // width) % n_out)
    ag.backward(loss)
    return [out.data.tobytes()] + [leaf.grad.tobytes() for leaf in leaves]


shapes = st.fixed_dictionaries({
    "lead": st.sampled_from([(), (1,), (2,), (3,), (4,), (2, 3)]),
    "n": st.integers(1, 8), "m": st.integers(1, 8), "d_k": st.integers(1, 4), "d_v": st.integers(1, 4),
    "seed": st.integers(0, 2**32 - 1),
})


@settings(max_examples=150, deadline=None)
@given(shapes)
def test_scaled_dot_attention_matches_the_composed_chain(p):
    rng = np.random.default_rng(p["seed"])
    lead, n, m = p["lead"], p["n"], p["m"]
    arrays = [_values(rng, lead + (n, p["d_k"])), _values(rng, lead + (m, p["d_k"])), _values(rng, lead + (m, p["d_v"]))]
    mask = _masks(rng, lead[:1], m)  # one mask per batch row, broadcast over any further axes
    mask = mask.reshape(lead[:1] + (1,) * (len(lead) - 1) + (m,))
    want = _run(lambda q, k, v: seed_attention.scaled_dot_attention(q, k, v, mask), arrays, p["d_v"])
    got = _run(lambda q, k, v: mdl.scaled_dot_attention(q, k, v, mask), arrays, p["d_v"])
    assert got == want


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_one_tensor_as_query_key_and_value_matches(n, d, seed):
    rng = np.random.default_rng(seed)
    x, mask = _values(rng, (2, n, d)), _masks(rng, (2,), n)
    want = _run(lambda t: seed_attention.scaled_dot_attention(t, t, t, mask), [x], d)
    got = _run(lambda t: mdl.scaled_dot_attention(t, t, t, mask), [x], d)
    assert got == want


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(), (1,), (2,), (3,), (4,)]), st.integers(1, 8), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 2**32 - 1))
def test_split_attend_merge_matches_the_composed_chain(lead, t, heads, d_k, seed):
    rng = np.random.default_rng(seed)
    qkv = _values(rng, lead + (t, 3 * heads * d_k))
    mask = _masks(rng, lead, t)
    want = _run(lambda a: seed_attention.split_attend_merge(a, mask, heads), [qkv], heads * d_k)
    bias = mdl.key_bias(np.expand_dims(mask, -2), (*lead, heads, t))
    got = _run(lambda a: ag.attention(a, bias, heads)[0], [qkv], heads * d_k)
    assert got == want


def test_forward_without_tape_gives_the_same_bits():
    # large enough that the scratch holds the scores; the second pass gets them there
    rng = np.random.default_rng(4)
    qkv, mask = Tensor(rng.normal(size=(4, 32, 3 * 3 * 8)), requires_grad=True), _masks(rng, (4,), 32)
    bias = mdl.key_bias(mask[:, None, :], (4, 3, 32))
    taped, _ = ag.attention(qkv, bias, 3)
    ag.reset_tape()
    for _ in range(2):
        with ag.no_grad(), ag._scratch():
            free, _ = ag.attention(qkv, bias, 3)
            assert free.data.tobytes() == taped.data.tobytes()


def test_gradients_against_finite_differences():
    rng = np.random.default_rng(5)
    qkv = Tensor(rng.normal(size=(2, 4, 3 * 2 * 3)), requires_grad=True)
    bias = mdl.key_bias(np.array([[1, 1, 0, 1], [1, 0, 0, 0]])[:, None, :], (2, 2, 4))
    assert grad_check(lambda: ag.cross_entropy(ag.reshape(ag.attention(qkv, bias, 2)[0], (8, 6)), [0, 5, 1, 4] * 2),
                      [qkv]) < 1e-5


def test_pretrain_checkpoint_bytes_match_the_composed_chain(tmp_path, monkeypatch):
    lines = [v.line for v in preprocess.preprocess_corpus(corpus.generate_synthetic(32, seed=9, signal="rhyme"))]
    vocab = tokenizer.train_wordpiece(lines, 128)
    cfg = mdl.ModelConfig(num_layers=2, num_heads=2, hidden=12, vocab_size=len(vocab), max_len=16)
    paths = [tmp_path / "op.ckpt", tmp_path / "chain.ckpt"]
    for path in paths:
        training.pretrain(lines, vocab, cfg, training.tiny_train_config(batch_size=4, max_steps=3, seed=1,
                                                                        dropout=0.1, checkpoint_path=str(path)))
        monkeypatch.setattr(mdl, "multi_head_attention", lambda x, layer, mask, heads, bias=None:
                            seed_attention.multi_head_attention(x, layer, mask, heads))
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
