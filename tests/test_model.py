import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from versebert import autograd as ag
from versebert import model as mdl
from versebert import training
from versebert.autograd import Tensor
from versebert.errors import AllMasked, InvalidConfig, ShapeMismatch
from versebert.tokenizer import TokenSequence

import seed_model
from gradcheck import grad_check


def dense_attention_oracle(q, k, v, mask):
    """Straight-line per-row evaluation: scores, bias, softmax, weighted sum."""
    n, d_k = q.shape
    m = k.shape[0]
    out = np.zeros((n, v.shape[1]))
    for i in range(n):
        scores = []
        for j in range(m):
            s = sum(q[i, t] * k[j, t] for t in range(d_k)) / math.sqrt(d_k)
            if mask[j] == 0:
                s += mdl.MASK_BIAS
            scores.append(s)
        shift = max(scores)
        weights = [math.exp(s - shift) for s in scores]
        total = sum(weights)
        weights = [w / total for w in weights]
        for c in range(v.shape[1]):
            out[i, c] = sum(weights[j] * v[j, c] for j in range(m))
    return out


def multi_head_oracle(x, layer, mask, num_heads):
    """Per-head dense attention with each head's Q/K/V sliced from the fused weight."""
    d_k = layer.w_qkv.shape[0] // num_heads
    d = num_heads * d_k
    heads = []
    for h in range(num_heads):
        w_q, w_k, w_v = (layer.w_qkv.data[:, i * d + h * d_k : i * d + (h + 1) * d_k] for i in range(3))
        heads.append(dense_attention_oracle(x @ w_q, x @ w_k, x @ w_v, mask))
    return np.concatenate(heads, axis=1) @ layer.w_o.data


class TestPositionalEncoding:
    def test_position_zero(self):
        row = mdl.sinusoidal_table(1, 16)[0]
        for i in range(0, 12, 2):
            assert row[i] == 0.0
        for i in range(1, 12, 2):
            assert row[i] == 1.0

    def test_sin_of_one(self):
        assert mdl.sinusoidal_table(2, 4)[1, 0] == pytest.approx(0.8414709848078965, abs=1e-12)

    def test_against_high_precision_reference(self, rng):
        mpmath.mp.dps = 50
        for _ in range(100):
            d = int(rng.integers(2, 128))
            p = int(rng.integers(0, 64))
            i = int(rng.integers(0, d))
            exponent = mpmath.mpf(i - (i % 2)) / d
            angle = mpmath.mpf(p) / mpmath.power(10000, exponent)
            expected = mpmath.sin(angle) if i % 2 == 0 else mpmath.cos(angle)
            assert abs(mdl.sinusoidal_table(p + 1, d)[p, i] - float(expected)) < 1e-12

    def test_table_matches_scalar_function(self):
        table = mdl.sinusoidal_table(10, 8)
        for p in range(10):
            for i in range(8):
                want = math.sin(p / 10000.0 ** (i / 8)) if i % 2 == 0 else math.cos(p / 10000.0 ** ((i - 1) / 8))
                assert table[p, i] == pytest.approx(want, abs=1e-15)

    def test_values_bounded(self):
        table = mdl.sinusoidal_table(64, 32)
        assert np.all(table <= 1.0) and np.all(table >= -1.0)

    def test_periodicity(self):
        d, i = 8, 2
        period = 2 * math.pi * 10000 ** (i / d)
        a = math.sin(3 / 10000 ** (i / d))
        b = math.sin((3 + period) / 10000 ** (i / d))
        assert abs(a - b) < 1e-6
        assert mdl.sinusoidal_table(4, d)[3, i] == pytest.approx(a, abs=1e-12)


def attend(qkv, mask, heads=1):
    """``ag.attention`` on one verse: ``qkv`` is the (T, 3d) projection of each of its positions and
    ``mask`` their T 0/1 flags. Gives the (N, d) output at the N real positions and the weights."""
    mask = np.asarray(mask)[None]
    real = np.flatnonzero(mask)
    out, weights = ag.attention(Tensor(np.asarray(qkv, dtype=np.float64)[real]), mdl.key_bias(mask), heads, real)
    return out.data, weights


def attend_layer(x, layer, mask, num_heads):
    """``multi_head_attention`` on one verse: the (N, d) output at the N real positions of its (T, d)
    states ``x`` and T 0/1 ``mask`` flags."""
    mask = np.asarray(mask)[None]
    real = np.flatnonzero(mask)
    return mdl.multi_head_attention(Tensor(x[real]), layer, num_heads, mdl.key_bias(mask), real).data


class TestScaledDotAttention:
    def test_single_element(self):
        out, _ = attend([[2.0, 2.0, 5.0]], [1])
        assert np.allclose(out, [[5.0]])

    def test_identical_keys_average_values(self, rng):
        q = rng.normal(size=(2, 2))
        key_row = rng.normal(size=2)
        v = np.array([[1.0, 3.0], [5.0, 7.0]])
        out, _ = attend(np.concatenate([q, np.stack([key_row, key_row]), v], axis=1), [1, 1])
        assert np.allclose(out, [[3.0, 5.0]] * 2)

    def test_matches_dense_oracle(self, rng):
        for _ in range(20):
            q = rng.normal(size=(3, 2))
            k = rng.normal(size=(3, 2))
            v = rng.normal(size=(3, 2))
            out, _ = attend(np.concatenate([q, k, v], axis=1), [1, 1, 1])
            assert np.allclose(out, dense_attention_oracle(q, k, v, [1, 1, 1]), atol=1e-10)

    def test_masked_keys_get_no_weight(self, rng):
        mask = [1, 0, 1, 0]
        _, weights = attend(rng.normal(size=(4, 3 * 3)), mask)
        assert np.all(weights[0, 0][:, [1, 3]] < 1e-9)
        assert np.allclose(weights[0, 0].sum(axis=1), 1.0, atol=1e-12)

    def test_all_masked_rejected(self):
        with pytest.raises(AllMasked):
            mdl.key_bias(np.array([[1, 1], [0, 0]]))

    def test_shape_mismatch(self, rng):
        cfg = mdl.ModelConfig(num_layers=1, num_heads=2, hidden=4, vocab_size=8, max_len=4, dropout=0.0)
        layer = mdl.init_params(cfg, rng).layers[0]
        with pytest.raises(ShapeMismatch):  # rows 3 wide into a 4-wide layer
            mdl.multi_head_attention(Tensor(rng.normal(size=(2, 3))), layer, 2, mdl.key_bias(np.ones((1, 2))),
                                     np.arange(2))

    def test_output_inside_value_envelope(self, rng):
        for _ in range(50):
            t, d = 5, 3
            q = rng.normal(size=(t, d)) * 3
            k = rng.normal(size=(t, d)) * 3
            v = rng.normal(size=(t, d))
            mask = rng.integers(0, 2, size=t)
            if not mask.any():
                mask[0] = 1
            out, _ = attend(np.concatenate([q, k, v], axis=1), mask)
            live = v[mask == 1]
            assert np.all(out <= live.max(axis=0) + 1e-12)
            assert np.all(out >= live.min(axis=0) - 1e-12)


class TestMultiHeadAttention:
    def test_single_head_identity_projection(self, rng):
        d = 4
        w_q, w_k, w_v = (rng.normal(size=(d, d)) for _ in range(3))
        layer = mdl.LayerParams(
            w_qkv=Tensor(np.concatenate([w_q, w_k, w_v], axis=1)),
            w_o=Tensor(np.eye(d)),
            ffn_w1=Tensor(np.zeros((d, d))),
            ffn_w2=Tensor(np.zeros((d, d))),
            ln1_gain=Tensor(np.ones(d)),
            ln1_bias=Tensor(np.zeros(d)),
            ln2_gain=Tensor(np.ones(d)),
            ln2_bias=Tensor(np.zeros(d)),
        )
        x = rng.normal(size=(5, d))
        mask = [1] * 5
        out = attend_layer(x, layer, mask, 1)
        assert np.allclose(out, dense_attention_oracle(x @ w_q, x @ w_k, x @ w_v, mask), atol=1e-12)

    def test_output_shape(self, rng):
        cfg = mdl.ModelConfig(num_layers=1, num_heads=4, hidden=16, vocab_size=32, max_len=8, dropout=0.0)
        params = mdl.init_params(cfg, rng)
        out = attend_layer(rng.normal(size=(8, 16)), params.layers[0], [1] * 8, cfg.num_heads)
        assert out.shape == (8, 16)

    def test_matches_per_head_oracle(self, rng):
        cfg = mdl.ModelConfig(num_layers=1, num_heads=2, hidden=8, vocab_size=32, max_len=8, dropout=0.0)
        for _ in range(20):
            params = mdl.init_params(cfg, rng)
            x = rng.normal(size=(5, 8))
            mask = [1, 1, 1, 1, 0]
            out = attend_layer(x, params.layers[0], mask, cfg.num_heads)
            want = multi_head_oracle(x, params.layers[0], mask, cfg.num_heads)[:4]  # the real rows
            assert np.allclose(out, want, atol=1e-10)


def _make_seq(ids, max_len=16):
    n = len(ids)
    return TokenSequence(tuple(ids) + (0,) * (max_len - n), (1,) * n + (0,) * (max_len - n), max_len)


def _forward(seq, cfg, params):
    """Hidden states (n x hidden) of the n real positions of one untrimmed sequence."""
    return mdl.encoder_forward(np.array([seq.ids]), np.array([seq.attention_mask]), cfg, params)


class TestEncoderForward:
    def test_hidden_shape(self, tiny):
        cfg, params = tiny
        seq = _make_seq([2, 9, 10, 3])
        hidden = mdl.encoder_forward(np.array([seq.ids]), np.array([seq.attention_mask]), cfg, params)
        assert hidden.shape == (4, 32)  # the real positions only

    def test_deterministic_in_eval_mode(self, tiny):
        cfg, params = tiny
        seq = _make_seq([2, 9, 10, 11, 3])
        a = _forward(seq, cfg, params).data
        b = _forward(seq, cfg, params).data
        assert np.array_equal(a, b)
        ag.reset_tape()

    def test_permutation_equivariance_without_positions(self, rng):
        # learned positions zeroed out -> encoder sees tokens as a set
        cfg = mdl.ModelConfig(
            num_layers=2, num_heads=2, hidden=16, vocab_size=40, max_len=8,
            dropout=0.0, positional_mode="learned",
        )
        params = mdl.init_params(cfg, rng)
        params.positional.data[:] = 0.0
        seq_a = _make_seq([2, 8, 9, 3], max_len=8)
        seq_b = _make_seq([2, 9, 8, 3], max_len=8)
        ha = _forward(seq_a, cfg, params).data
        hb = _forward(seq_b, cfg, params).data
        assert np.allclose(ha[1], hb[2], atol=1e-10)
        assert np.allclose(ha[2], hb[1], atol=1e-10)
        assert np.allclose(ha[0], hb[0], atol=1e-10)

    def test_learned_positions_break_equivariance(self, rng):
        cfg = mdl.ModelConfig(
            num_layers=1, num_heads=2, hidden=16, vocab_size=40, max_len=8,
            dropout=0.0, positional_mode="sinusoidal",
        )
        params = mdl.init_params(cfg, rng)
        seq_a = _make_seq([2, 8, 9, 3], max_len=8)
        seq_b = _make_seq([2, 9, 8, 3], max_len=8)
        ha = _forward(seq_a, cfg, params).data
        hb = _forward(seq_b, cfg, params).data
        assert not np.allclose(ha[1], hb[2], atol=1e-6)


class TestHeads:
    def test_mlm_logits_shape(self, tiny):
        cfg, params = tiny
        hidden = _forward(_make_seq([2, 9, 3]), cfg, params)
        logits = mdl.mlm_logits(hidden, params)
        assert logits.shape == (3, 64)
        ag.reset_tape()

    def test_mlm_bias_only(self, rng):
        cfg = mdl.tiny_config(vocab_size=16, max_len=4)
        params = mdl.init_params(cfg, training.make_rngs(0).init)
        params.mlm_w.data[:] = 0.0
        params.mlm_b.data[:] = rng.normal(size=16)
        hidden = Tensor(np.zeros((4, 32)))
        logits = mdl.mlm_logits(hidden, params)
        assert np.allclose(logits.data, np.tile(params.mlm_b.data, (4, 1)))

    def test_mlm_matches_dense_oracle(self, rng):
        cfg = mdl.tiny_config(vocab_size=16, max_len=4)
        params = mdl.init_params(cfg, training.make_rngs(1).init)
        hidden = rng.normal(size=(4, 32))
        logits = mdl.mlm_logits(Tensor(hidden), params)
        assert np.allclose(logits.data, hidden @ params.mlm_w.data + params.mlm_b.data, atol=1e-12)

    def test_classify_bias_argmax(self):
        hidden = Tensor(np.zeros((4, 8)))
        w = Tensor(np.zeros((8, 2)))
        b = Tensor(np.array([0.1, 0.3]))
        logits = mdl.classify(hidden, w, b)
        assert int(np.argmax(logits.data)) == 1


class TestEndToEndGradient:
    def test_mlm_loss_grad_check(self):
        cfg = mdl.tiny_config(vocab_size=64, max_len=12)
        params = mdl.init_params(cfg, training.make_rngs(2).init)
        # rescale weights so every path carries finite-difference-resolvable
        # signal: the 0.02 init leaves attention-score gradients near the
        # noise floor, while large weights saturate gelu units dead
        scale_rng = np.random.default_rng(8)
        for name, p in params.named_parameters():
            if not name.endswith("gain"):
                p.data = scale_rng.normal(0.0, 0.15, size=p.data.shape)
        seq = _make_seq([2, 9, 10, 4, 12, 3], max_len=12)
        targets = np.full(12, mdl.IGNORE_INDEX)
        for pos, t in ((1, 15), (2, 33), (3, 20), (4, 41)):
            targets[pos] = t

        rows = np.flatnonzero(targets != mdl.IGNORE_INDEX)

        def f():
            hidden = mdl.encoder_forward(np.array([seq.ids]), np.array([seq.attention_mask]), cfg, params, rows=rows)
            return mdl.mlm_loss(hidden, targets[rows], params)

        err = grad_check(f, params.parameters(), max_samples=150, rng=np.random.default_rng(3))
        assert err < 1e-4


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shape", [(0,), (1,), (257,), (64, 3), (8000, 256), (2, 0, 5)])
def test_truncated_normal_matches_the_recheck_everything_loop(seed, shape):
    got, want = np.random.default_rng(seed), np.random.default_rng(seed)
    out = mdl.truncated_normal(got, shape)
    assert out.tobytes() == seed_model.truncated_normal(want, shape).tobytes() and out.shape == shape
    assert got.bit_generator.state == want.bit_generator.state
    assert np.all(np.abs(out) <= 2 * mdl.INIT_STD)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4), st.sampled_from([None, 1, 7]), st.integers(1, 30),
       st.sampled_from(["sinusoidal", "learned"]), st.integers(0, 2**32 - 1))
def test_init_params_matches_the_hand_written_initializer(layers, heads, d_k, ffn_dim, vocab, positional_mode, seed):
    cfg = mdl.ModelConfig(num_layers=layers, num_heads=heads, hidden=heads * d_k, ffn_dim=ffn_dim, vocab_size=vocab,
                          max_len=5, positional_mode=positional_mode)
    got, want = np.random.default_rng(seed), np.random.default_rng(seed)
    named = mdl.init_params(cfg, got).named_parameters()
    expected = seed_model.init_params(cfg, want).named_parameters()
    assert [n for n, _ in named] == [n for n, _ in expected]
    for (name, t), (_, e) in zip(named, expected):
        assert t.data.tobytes() == e.data.tobytes() and t.shape == e.shape and t.requires_grad, name
    assert got.bit_generator.state == want.bit_generator.state


def test_from_named_asks_for_each_array_in_named_parameters_order():
    cfg = mdl.ModelConfig(num_layers=2, num_heads=2, hidden=4, ffn_dim=6, vocab_size=9, max_len=5,
                          positional_mode="learned")
    asked = []
    params = mdl.ModelParams.from_named(cfg, lambda name, shape: asked.append((name, shape)) or Tensor(np.zeros(shape)))
    assert asked == [(name, t.shape) for name, t in params.named_parameters()]
    assert dict(asked)["layers.1.w_qkv"] == (4, 12) and dict(asked)["layers.0.ffn_w2"] == (6, 4)


class TestModelConfig:
    @pytest.mark.parametrize("ffn_dim", [-1, 0])
    def test_ffn_dim_below_one_rejected(self, ffn_dim):
        with pytest.raises(InvalidConfig, match="ffn"):
            mdl.ModelConfig(hidden=32, num_heads=2, ffn_dim=ffn_dim)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            mdl.ModelConfig(num_heads=5, hidden=32)

    def test_ffn_defaults_to_4x(self):
        assert mdl.ModelConfig(hidden=48, num_heads=4).ffn_dim == 192

    def test_round_trip(self):
        cfg = mdl.tiny_config()
        assert mdl.ModelConfig(**dataclasses.asdict(cfg)) == cfg

    def test_paper_scale_constants(self):
        cfg = mdl.paper_config()
        assert (cfg.num_layers, cfg.num_heads, cfg.hidden) == (10, 12, 768)
        assert (cfg.vocab_size, cfg.max_len, cfg.dropout) == (50_000, 32, 0.1)
