import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from versebert import autograd as ag
from versebert.autograd import AdamW, Tensor
from versebert.errors import EmptyReduction, LabelOutOfRange, ShapeMismatch

import seed_adamw
import seed_autograd
from seed_attention import unstack
from gradcheck import grad_check

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

    def test_cross_entropy_empty_targets(self):
        with pytest.raises(EmptyReduction):
            ag.cross_entropy(Tensor(np.zeros((0, 2))), [])

    def test_cross_entropy_bad_target(self):
        with pytest.raises(LabelOutOfRange):
            ag.cross_entropy(Tensor([[0.0, 0.0]]), [5])

    def test_matmul_shape_mismatch(self):
        # the right operand is one shared 2-D weight: a batched one raises even when its leading axes match
        for a, b in (((2, 3), (2, 3)), ((2, 5, 3), (2, 3, 4)), ((2, 5, 3), (3,))):
            with pytest.raises(ShapeMismatch):
                ag.matmul(Tensor(np.ones(a)), Tensor(np.ones(b)))

    @given(arrays(np.float64, (4, 5), elements=finite))
    @settings(max_examples=100)
    def test_softmax_rows_sum_to_one(self, data):
        out = ag.softmax_rows(Tensor(data)).data
        assert np.all(out >= 0)
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-12)


class TestDropout:
    def test_rate_zero_is_identity(self, rng):
        x = Tensor(rng.normal(size=(8, 8)))
        assert ag.dropout(x, 0.0, rng=rng) is x

    def test_zeroed_fraction_and_scaling(self, rng):
        rate = 0.3
        n = 40_000
        x = Tensor(np.ones(n))
        out = ag.dropout(x, rate, rng=rng).data
        zeroed = np.sum(out == 0.0) / n
        sigma = math.sqrt(rate * (1 - rate) / n)
        assert abs(zeroed - rate) <= 3 * sigma
        survivors = out[out != 0.0]
        assert np.allclose(survivors, 1.0 / (1 - rate))

    def test_backward_uses_same_mask(self, rng):
        ag.reset_tape()
        x = Tensor(rng.normal(size=(2000,)) + 3.0, requires_grad=True)
        out = ag.dropout(x, 0.25, rng=rng)
        mask = out.data != 0.0
        out.grad = np.ones_like(out.data)
        _, fn = ag._tape[-1]
        fn(out.grad)
        assert np.all((x.grad != 0) == mask)
        ag.reset_tape()


class TestGradientsAgainstFiniteDifferences:
    """Each op's backward vs central differences (h=1e-5, rel err < 1e-5)."""

    def check(self, f, params, tol=1e-5):
        err = grad_check(f, params)
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
        # ``ag.matmul`` has only the shared-weight form; the attention oracle's batched products use this one
        a = Tensor(rng.normal(size=(2, 2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 2, 4, 3)), requires_grad=True)
        self.check(
            lambda: ag.cross_entropy(ag.reshape(seed_autograd.matmul(a, b), (12, 3)), [0, 1, 2] * 4), [a, b]
        )

    def test_reshape_permute_unstack_qkv_split(self, rng):
        # (B, T, 3*H*d_k) -> (B, T, 3, H, d_k) -> (3, B, H, T, d_k) -> q, k, v
        x = Tensor(rng.normal(size=(2, 3, 12)), requires_grad=True)

        def f():
            split = ag.permute(ag.reshape(x, (2, 3, 3, 2, 2)), (2, 0, 3, 1, 4))
            q, k, v = unstack(split)
            scores = seed_autograd.matmul(q, ag.permute(k, (0, 1, 3, 2)))
            mixed = seed_autograd.matmul(ag.softmax_rows(scores), v)
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
        assert grad_check(f, [x]) < 1e-9


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


BLOCK = ag._ADAMW_BLOCK


def adamw_cases(rng):
    """(param data, grad per step) pairs: sizes around the block edges, 0-D to
    3-D shapes, a parameter without a gradient, one with a gradient only on
    odd steps, a transposed-view gradient and a transposed-view parameter."""
    steps = 6
    shapes = [(1,), (BLOCK - 1,), (BLOCK,), (BLOCK + 1,), (3 * BLOCK + 7,), (), (181, 183), (3, 5, 2185)]
    cases = [(rng.normal(size=s), [rng.normal(size=s) for _ in range(steps)]) for s in shapes]
    cases.append((rng.normal(size=(40, 30)), [None] * steps))
    cases.append((rng.normal(size=(BLOCK + 3,)), [rng.normal(size=BLOCK + 3) if k % 2 else None for k in range(steps)]))
    cases.append((rng.normal(size=(300, 120)), [rng.normal(size=(120, 300)).T for _ in range(steps)]))
    cases.append((rng.normal(size=(120, 300)).T, [rng.normal(size=(300, 120)) for _ in range(steps)]))
    return cases


class TestBlockedAdamWMatchesSeedStep:
    """The blocked step against the whole-array step it replaced (``seed_adamw``)."""

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_bit_identical_params_and_moments(self, rng, weight_decay):
        cases = adamw_cases(rng)
        runs = []
        for step in (AdamW.step, seed_adamw.step):
            params = [Tensor(data.copy(order="K"), requires_grad=True) for data, _ in cases]
            opt = AdamW(params, lr=1e-2, weight_decay=weight_decay)
            for k in range(len(cases[0][1])):
                for p, (_, grads) in zip(params, cases):
                    p.grad = grads[k]
                step(opt)
            runs.append(opt)
        new, old = runs
        assert new.step_count == old.step_count == 6
        for i, (p, q) in enumerate(zip(new.params, old.params)):
            assert np.array_equal(p.data, q.data), i
            assert np.array_equal(new.m[i], old.m[i]), i
            assert np.array_equal(new.v[i], old.v[i]), i
        transposed = new.params[-1].data  # updated in place, not in a flattened copy
        assert not transposed.flags.c_contiguous and not np.array_equal(transposed, cases[-1][0])

    def test_bad_grad_shape_changes_nothing(self, rng):
        params = [Tensor(rng.normal(size=s), requires_grad=True) for s in [(BLOCK + 5,), (4, 3)]]
        opt = AdamW(params, lr=1e-2, weight_decay=0.01)
        for p in params:
            p.grad = rng.normal(size=p.shape)
        opt.step()
        params[0].grad = rng.normal(size=params[0].shape)
        params[1].grad = rng.normal(size=(3, 4))
        before = [a.copy() for a in [p.data for p in params] + opt.m + opt.v]
        with pytest.raises(ShapeMismatch):
            opt.step()
        after = [p.data for p in params] + opt.m + opt.v
        assert all(np.array_equal(a, b) for a, b in zip(before, after))
        assert opt.step_count == 1

    @pytest.mark.parametrize("has_grad", [True, False])
    def test_step_allocates_no_parameter_sized_array(self, rng, has_grad):
        n = 1 << 20
        p = Tensor(rng.normal(size=(n // 256, 256)), requires_grad=True)
        p.grad = rng.normal(size=p.shape) if has_grad else None
        opt = AdamW([p], lr=1e-2, weight_decay=0.01)
        tracemalloc.start()
        try:
            opt.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * BLOCK * 8  # an 8 MiB parameter; one block is 256 KiB


class TestTwoThreadAdamW:
    def test_each_block_is_updated_once_under_thread_switching(self, rng, monkeypatch):
        """Three optimizers step at once, each with its helper, over 64-element
        blocks that both of its threads take from one deque."""
        monkeypatch.setattr(ag, "_ADAMW_BLOCK", 64)
        grads = [[rng.normal(size=(50, 97)) for _ in range(3)] for _ in range(4)]  # per step, per param
        runs = []
        for _ in range(3):
            params = [Tensor(rng.normal(size=(50, 97)), requires_grad=True) for _ in range(3)]
            runs.append((AdamW(params, lr=1e-2, weight_decay=0.01), [p.data.copy() for p in params]))

        def train(opt):
            for step_grads in grads:
                for p, g in zip(opt.params, step_grads):
                    p.grad = g
                opt.step()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=train, args=(opt,)) for opt, _ in runs]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for opt, start in runs:
            want = AdamW([Tensor(a, requires_grad=True) for a in start], lr=1e-2, weight_decay=0.01)
            for step_grads in grads:
                for p, g in zip(want.params, step_grads):
                    p.grad = g
                seed_adamw.step(want)
            assert opt.step_count == want.step_count == 4
            for i, (p, q) in enumerate(zip(opt.params, want.params)):
                assert np.array_equal(p.data, q.data) and np.array_equal(opt.m[i], want.m[i]), i

    def test_a_raise_in_the_helper_reaches_the_caller(self, rng, monkeypatch):
        update, halves = AdamW._update, []

        def failing(self, blocks, *args):
            halves.append(threading.current_thread() is threading.main_thread())
            if not halves[-1]:
                raise RuntimeError("helper half")
            update(self, blocks, *args)

        monkeypatch.setattr(AdamW, "_update", failing)
        params = [Tensor(rng.normal(size=BLOCK + 5), requires_grad=True) for _ in range(2)]
        for p in params:
            p.grad = rng.normal(size=p.shape)
        opt = AdamW(params, lr=1e-2)
        with pytest.raises(RuntimeError, match="helper half"):
            opt.step()
        assert sorted(halves) == [False, True] and opt.step_count == 0


class TestOpenBlasThreadTimeout:
    """``import versebert`` lets an idle OpenBLAS worker sleep unless the user chose otherwise."""

    def _imported(self, env):
        code = ("import os, sys, versebert; "
                "print('numpy' in sys.modules, os.environ.get('OPENBLAS_THREAD_TIMEOUT'))")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"} | env | {"PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        return done.stdout.split()

    def test_set_when_unset_before_numpy_loads(self):
        assert self._imported({}) == ["False", "22"]

    def test_an_exported_value_wins(self):
        assert self._imported({"OPENBLAS_THREAD_TIMEOUT": "28"}) == ["False", "28"]
