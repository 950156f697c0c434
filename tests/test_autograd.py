import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from versebert import autograd as ag
from versebert.autograd import AdamW, Tensor
from versebert.errors import EmptyReduction, LabelOutOfRange, ShapeMismatch

finite = st.floats(-5, 5, allow_nan=False)


def small_matrix(rows, cols):
    return arrays(np.float64, (rows, cols), elements=finite)


class TestForwardValues:
    def test_softmax_symmetry(self):
        out = ag.softmax_rows(Tensor([[0.0, 0.0]]))
        assert np.allclose(out.data, [[0.5, 0.5]])

    def test_cross_entropy_uniform_logits(self):
        loss = ag.cross_entropy(Tensor([[0.0, 0.0]]), [0])
        assert loss.data == pytest.approx(math.log(2), abs=1e-12)

    def test_layer_norm_constant_row(self):
        out = ag.layer_norm(Tensor([[7.0, 7.0, 7.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.all(out.data == 0.0)

    def test_cross_entropy_ignores_index(self):
        logits = Tensor(np.array([[2.0, 0.0], [0.0, 5.0]]))
        only_first = ag.cross_entropy(logits, [0, ag.IGNORE_INDEX])
        expected = -np.log(np.exp(2.0) / (np.exp(2.0) + 1.0))
        assert float(only_first.data) == pytest.approx(expected, rel=1e-12)

    def test_cross_entropy_all_ignored(self):
        with pytest.raises(EmptyReduction):
            ag.cross_entropy(Tensor([[0.0, 0.0]]), [ag.IGNORE_INDEX])

    def test_cross_entropy_bad_target(self):
        with pytest.raises(LabelOutOfRange):
            ag.cross_entropy(Tensor([[0.0, 0.0]]), [5])

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ag.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    @given(arrays(np.float64, (4, 5), elements=finite))
    @settings(max_examples=100)
    def test_softmax_rows_sum_to_one(self, data):
        out = ag.softmax_rows(Tensor(data)).data
        assert np.all(out >= 0)
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-12)


class TestDropout:
    def test_rate_zero_is_identity(self, rng):
        x = Tensor(rng.normal(size=(8, 8)))
        assert ag.dropout(x, 0.0, train=True, rng=rng) is x

    def test_eval_mode_is_identity(self, rng):
        x = Tensor(rng.normal(size=(8, 8)))
        assert ag.dropout(x, 0.5, train=False) is x

    def test_zeroed_fraction_and_scaling(self, rng):
        rate = 0.3
        n = 40_000
        x = Tensor(np.ones(n))
        out = ag.dropout(x, rate, train=True, rng=rng).data
        zeroed = np.sum(out == 0.0) / n
        sigma = math.sqrt(rate * (1 - rate) / n)
        assert abs(zeroed - rate) <= 3 * sigma
        survivors = out[out != 0.0]
        assert np.allclose(survivors, 1.0 / (1 - rate))

    def test_backward_uses_same_mask(self, rng):
        ag.reset_tape()
        x = Tensor(rng.normal(size=(2000,)) + 3.0, requires_grad=True)
        out = ag.dropout(x, 0.25, train=True, rng=rng)
        mask = out.data != 0.0
        out.grad = np.ones_like(out.data)
        _, fn = ag._tape[-1]
        fn(out.grad)
        assert np.all((x.grad != 0) == mask)
        ag.reset_tape()


class TestGradientsAgainstFiniteDifferences:
    """Each op's backward vs central differences (h=1e-5, rel err < 1e-5)."""

    def check(self, f, params, tol=1e-5):
        err = ag.grad_check(f, params)
        assert err < tol, f"relative error {err}"

    def test_matmul(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        self.check(lambda: ag.cross_entropy(ag.matmul(a, b), [0, 1, 0]), [a, b], tol=1e-6)

    def test_add_broadcast(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        self.check(lambda: ag.cross_entropy(ag.add(a, b), [3, 0, 2]), [a, b])

    def test_scale_and_transpose(self, rng):
        a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        self.check(lambda: ag.cross_entropy(ag.scale(ag.transpose(a), -1.7), [0, 1, 2]), [a])

    def test_softmax(self, rng):
        a = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        self.check(
            lambda: ag.cross_entropy(ag.scale(ag.softmax_rows(a), 3.0), [4, 2]), [a], tol=1e-6
        )

    def test_layer_norm(self, rng):
        x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        g = Tensor(1.0 + rng.normal(size=(6,)) * 0.1, requires_grad=True)
        b = Tensor(rng.normal(size=(6,)), requires_grad=True)
        self.check(lambda: ag.cross_entropy(ag.layer_norm(x, g, b), [0, 5, 3]), [x, g, b])

    def test_gelu(self, rng):
        x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        self.check(lambda: ag.cross_entropy(ag.gelu(x), [1, 4]), [x])

    def test_embedding_lookup(self, rng):
        table = Tensor(rng.normal(size=(10, 4)), requires_grad=True)
        ids = [1, 3, 3, 7]
        self.check(
            lambda: ag.cross_entropy(ag.embedding_lookup(table, ids), [0, 1, 2, 3]), [table]
        )

    def test_take_rows_and_concat(self, rng):
        a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)

        def f():
            joined = ag.concat([ag.take_rows(a, [0, 2]), b], axis=0)
            return ag.cross_entropy(joined, [0, 1, 2, 0])

        self.check(f, [a, b])

    def test_take_rows_repeated(self, rng):
        # the masked-row gather: rows picked out of order, one of them twice
        a = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        self.check(lambda: ag.cross_entropy(ag.take_rows(a, [3, 0, 3, 4]), [0, 1, 2, 0]), [a])

    def test_matmul_batched_against_shared_weight(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        self.check(lambda: ag.cross_entropy(ag.reshape(ag.matmul(a, w), (6, 5)), [0, 1, 2, 3, 4, 0]), [a, w])

    def test_matmul_batched_both_sides(self, rng):
        a = Tensor(rng.normal(size=(2, 2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 2, 4, 3)), requires_grad=True)
        self.check(
            lambda: ag.cross_entropy(ag.reshape(ag.matmul(a, b), (12, 3)), [0, 1, 2] * 4), [a, b]
        )

    def test_reshape_permute_unstack_qkv_split(self, rng):
        # (B, T, 3*H*d_k) -> (B, T, 3, H, d_k) -> (3, B, H, T, d_k) -> q, k, v
        x = Tensor(rng.normal(size=(2, 3, 12)), requires_grad=True)

        def f():
            split = ag.permute(ag.reshape(x, (2, 3, 3, 2, 2)), (2, 0, 3, 1, 4))
            q, k, v = ag.unstack(split)
            scores = ag.matmul(q, ag.permute(k, (0, 1, 3, 2)))
            mixed = ag.matmul(ag.softmax_rows(scores), v)
            return ag.cross_entropy(ag.reshape(mixed, (12, 2)), [0, 1] * 6)

        self.check(f, [x])

    def test_embedding_lookup_batched_one_scatter(self, rng):
        table = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        ids = np.array([[1, 3, 3], [5, 1, 0]])
        self.check(
            lambda: ag.cross_entropy(ag.reshape(ag.embedding_lookup(table, ids), (6, 4)), [0, 1, 2, 3, 0, 1]),
            [table],
        )

    def test_softmax_cross_entropy_composite(self, rng):
        logits = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        self.check(
            lambda: ag.cross_entropy(ag.scale(ag.softmax_rows(logits), 5.0), [0, 3, 5, 1]),
            [logits],
            tol=1e-6,
        )

    def test_quadratic_analytic_case(self):
        x = Tensor(np.array([[3.0]]), requires_grad=True)

        def f():
            return ag.sum_all(ag.matmul(x, x))

        ag.reset_tape()
        x.zero_grad()
        loss = f()
        assert float(loss.data) == 9.0
        ag.backward(loss)
        assert float(x.grad[0, 0]) == pytest.approx(6.0, abs=1e-12)
        assert ag.grad_check(f, [x]) < 1e-9


class TestTape:
    def test_backward_frees_tape(self, rng):
        a = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        loss = ag.cross_entropy(ag.matmul(a, Tensor(np.eye(2))), [0, 1])
        assert ag.tape_size() > 0
        ag.backward(loss)
        assert ag.tape_size() == 0

    def test_no_grad_suspends_recording(self, rng):
        ag.reset_tape()
        a = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        with ag.no_grad():
            ag.matmul(a, Tensor(np.eye(2)))
        assert ag.tape_size() == 0

    def test_backward_needs_scalar(self, rng):
        a = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        out = ag.matmul(a, Tensor(np.eye(2)))
        with pytest.raises(ShapeMismatch):
            ag.backward(out)
        ag.reset_tape()

    def test_first_gradient_is_copied_not_aliased(self):
        # add's backward hands one array to both inputs; each must own its grad
        a = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        b = Tensor(np.array([[3.0, -1.0]]), requires_grad=True)
        ag.backward(ag.cross_entropy(ag.add(a, b), [0]))
        assert a.grad is not b.grad and not np.shares_memory(a.grad, b.grad)
        a.grad += 1.0
        assert not np.array_equal(a.grad, b.grad)

    def test_gradient_accumulates_across_reuse(self):
        x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        doubled = ag.add(x, x)
        loss = ag.cross_entropy(doubled, [1])
        ag.backward(loss)
        single = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        loss2 = ag.cross_entropy(ag.scale(single, 2.0), [1])
        ag.backward(loss2)
        assert np.allclose(x.grad, single.grad)


class TestAdamW:
    def test_zero_grad_zero_decay_fixed_point(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        opt = AdamW([p], lr=0.1, weight_decay=0.0)
        opt.step()
        assert np.all(p.data == np.array([1.0, -2.0]))

    def test_first_step_hand_value(self):
        p = Tensor(np.array(1.0), requires_grad=True)
        p.grad = np.array(0.1)
        opt = AdamW([p], lr=5e-5, weight_decay=0.0)
        opt.step()
        expected = 1.0 - 5e-5 * (0.1 / (0.1 + 1e-8))
        assert float(p.data) == pytest.approx(expected, rel=1e-12)

    def test_decoupled_decay_only(self):
        p = Tensor(np.array(1.0), requires_grad=True)
        p.grad = np.array(0.0)
        opt = AdamW([p], lr=0.1, weight_decay=0.01)
        opt.step()
        assert float(p.data) == pytest.approx(0.999, rel=1e-12)

    def test_step_counter_increments(self):
        p = Tensor(np.array(1.0), requires_grad=True)
        opt = AdamW([p], lr=0.1)
        opt.step()
        opt.step()
        assert opt.step_count == 2

    def test_deterministic(self, rng):
        grads = rng.normal(size=(6, 5, 3))
        results = []
        for _ in range(2):
            p = Tensor(np.ones((5, 3)), requires_grad=True)
            opt = AdamW([p], lr=1e-2, weight_decay=0.04)
            for g in grads:
                p.grad = g.copy()
                opt.step()
            results.append(p.data.copy())
        assert np.array_equal(results[0], results[1])
