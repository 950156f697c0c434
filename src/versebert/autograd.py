"""Dense float64 tensors with a reverse-mode tape, core NN ops and AdamW.

Every op computes its forward value eagerly with numpy and, when gradients are
enabled and an input requires them, records a backward closure on a global
tape. ``backward(loss)`` replays the tape in reverse (execution order is a
valid topological order) and then frees it; leaf tensors keep their gradient
arrays across steps. Arrays are 64-bit floats throughout so finite-difference
checks can run at tight tolerances.
"""

from __future__ import annotations

import contextlib
import math
from collections import deque

import numpy as np

from .errors import EmptyReduction, LabelOutOfRange, ShapeMismatch


class Tensor:
    """A dense array with an optional accumulated gradient."""

    __slots__ = ("data", "grad", "requires_grad", "_grad_buf")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._grad_buf: np.ndarray | None = None  # the array the tape allocated for grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        """Drop the gradient. The next backward overwrites the array the tape
        allocated for it, so copy a gradient that must outlive the step."""
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


_tape: list[tuple[Tensor, object]] = []
_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Suspend tape recording (forward values still computed)."""
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


_SCRATCH_MIN, _SCRATCH_CAP = 8192, 4 << 20  # float64s: 64 KiB, 32 MiB
_scratch_buf = np.empty(0)
_scratch_top: int | None = None  # float64s handed out in the open context; None when closed


@contextlib.contextmanager
def _scratch():
    """Inside, with the tape off, each op array of _SCRATCH_MIN float64s or more is a
    64-byte aligned view of one kept buffer, valid until the context exits. On exit
    the buffer grows to what the context asked for, up to _SCRATCH_CAP."""
    global _scratch_buf, _scratch_top
    saved, _scratch_top = _scratch_top, _scratch_top or 0
    try:
        yield
    finally:
        want = min(_scratch_top, _SCRATCH_CAP)
        if saved is None and want > _scratch_buf.size:
            raw = np.empty(want + 7)
            _scratch_buf = raw[(-raw.ctypes.data % 64) // 8:][:want]
        _scratch_top = saved


def _out(shape, other=None) -> np.ndarray | None:
    """A scratch view for an op result of ``shape`` (broadcast with ``other``), or None."""
    global _scratch_top
    if _scratch_top is None or _grad_enabled or math.prod(shape) < _SCRATCH_MIN:
        return None
    shape = shape if other in (None, shape) else np.broadcast_shapes(shape, other)
    lo, n = _scratch_top, math.prod(shape)
    _scratch_top = lo + -(-n // 8) * 8  # whole 64-byte lines keep the next view aligned
    return _scratch_buf[lo:lo + n].reshape(shape) if _scratch_top <= _scratch_buf.size else None


def reset_tape() -> None:
    _tape.clear()


def tape_size() -> int:
    return len(_tape)


def _record(out: Tensor, backward_fn) -> None:
    out.requires_grad = out.requires_grad and _grad_enabled  # off the tape, a constant
    if out.requires_grad:
        _tape.append((out, backward_fn))


def _accumulate(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Add ``g`` to ``t.grad``; a first gradient goes into the array kept from
    an earlier step, or is taken over if ``owned`` says no other tensor holds
    it, or else copied, never aliased. Only a C-contiguous array is kept, so
    a kept buffer ravels without a copy in ``AdamW.step``."""
    if not t.requires_grad:
        return
    if t.grad is not None:
        t.grad += g
    elif t._grad_buf is not None:
        t.grad = t._grad_buf
        np.copyto(t.grad, g)
    else:
        t.grad = g if owned else np.array(g, dtype=np.float64, order="C")
        if t.grad.flags.c_contiguous:
            t._grad_buf = t.grad


def _scatter_add(t: Tensor, idx, g: np.ndarray) -> None:
    """Add the rows of ``g`` into ``t.grad`` at the row indices ``idx``; a repeated row's gradients add up."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = t._grad_buf = np.empty_like(t.data) if t._grad_buf is None else t._grad_buf
        t.grad.fill(0)
    if idx.size:
        # sum each row's gradients (a stable sort keeps their order), then one
        # fancy-index add over distinct rows; several times faster than np.add.at
        order = np.argsort(idx, kind="stable")
        rows = idx[order]
        starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        t.grad[rows[starts]] += np.add.reduceat(g[order], starts, axis=0)


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss through the recorded tape, then free it."""
    if loss.data.shape != ():
        raise ShapeMismatch(f"backward expects a scalar, got shape {loss.data.shape}")
    try:
        loss.grad = np.ones(())
        while _tape:
            # popping frees each op's saved arrays and output gradient once used;
            # no other tensor holds that gradient, so ``fn`` may write it in place
            # and hand it down to one input
            out, fn = _tape.pop()
            if out.grad is not None:
                fn(out.grad)
                out.grad = out._grad_buf = None  # an op output's gradient is used once
    finally:
        reset_tape()


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    while g.ndim > len(shape):
        g = np.add.reduce(g, axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = np.add.reduce(g, axis=axis, keepdims=True)
    return g.reshape(shape)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` over ``a``'s last axis, with ``b`` one matrix (a weight) shared by every leading index of ``a``."""
    if a.data.ndim < 2 or b.data.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeMismatch(f"matmul: {a.shape} @ {b.shape}")
    a_data, b_data = a.data, b.data
    # one GEMM over all leading rows instead of one per leading index
    rows = a_data.reshape(-1, a.shape[-1])
    out = Tensor(np.matmul(rows, b_data, out=_out((rows.shape[0], b_data.shape[1]))).reshape(
        a.shape[:-1] + b.shape[-1:]), a.requires_grad or b.requires_grad)

    def fn(g):
        g_rows = g.reshape(-1, b.shape[-1])
        _accumulate(a, (g_rows @ b_data.T).reshape(a.shape), owned=True)
        if b.grad is None and b._grad_buf is not None:  # the step's first weight gradient
            b.grad = np.matmul(rows.T, g_rows, out=b._grad_buf)
        else:
            _accumulate(b, rows.T @ g_rows, owned=True)

    _record(out, fn)
    return out


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data
    if not data.flags.c_contiguous and (buf := _out(data.shape)) is not None:
        data = buf  # the C-order copy numpy's reshape would make, made in the scratch
        np.copyto(data, a.data)
    out = Tensor(data.reshape(shape), a.requires_grad)
    _record(out, lambda g: _accumulate(a, g.reshape(a.shape), owned=True))
    return out


def permute(a: Tensor, axes) -> Tensor:
    """Reorder the axes of ``a`` (``numpy.transpose`` with explicit axes)."""
    axes = tuple(ax % a.data.ndim for ax in axes)
    out = Tensor(a.data.transpose(axes), a.requires_grad)
    inverse = tuple(map(axes.index, range(len(axes))))
    _record(out, lambda g: _accumulate(a, g.transpose(inverse), owned=True))
    return out


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeMismatch(f"transpose expects a matrix, got {a.shape}")
    return permute(a, (1, 0))


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = np.add(a.data, b.data, out=_out(a.data.shape, b.data.shape))
    except ValueError:
        raise ShapeMismatch(f"add: {a.shape} + {b.shape}") from None
    out = Tensor(data, a.requires_grad or b.requires_grad)

    def fn(g):
        # g goes to one input of its full shape, after the other took a copy;
        # an input broadcast up to g's shape gets a fresh sum
        a_takes = a.requires_grad and a.shape == g.shape
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape), owned=not a_takes or b.shape != g.shape)
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape), owned=True)

    _record(out, fn)
    return out


def scale(a: Tensor, s: float) -> Tensor:
    out = Tensor(np.multiply(a.data, s, out=_out(a.data.shape)), a.requires_grad)

    def fn(g):
        g *= s
        _accumulate(a, g, owned=True)

    _record(out, fn)
    return out


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    y = np.subtract(a.data, np.maximum.reduce(a.data, axis=-1, keepdims=True), out=_out(a.data.shape))
    np.exp(y, out=y)
    y /= np.add.reduce(y, axis=-1, keepdims=True)
    out = Tensor(y, a.requires_grad)

    def fn(g):
        grad = g * y
        np.subtract(g, np.add.reduce(grad, axis=-1, keepdims=True), out=grad)
        grad *= y
        _accumulate(a, grad, owned=True)

    _record(out, fn)
    return out


def attention(qkv, bias: np.ndarray, heads: int = 0) -> tuple[Tensor, np.ndarray]:
    """softmax(q kᵀ / sqrt(d_k) + bias) v as one taped op; returns it and the weights (off the tape).

    ``qkv`` is (q, k, v) of shapes (..., n, d_k), (..., m, d_k), (..., m, d_v), or with ``heads``
    one (..., T, 3d) projection [Q heads | K heads | V heads], split into heads and merged back.
    Each matmul sees the operand layouts of the 13 records this replaced (numpy picks BLAS or its own
    loop by stride), so values keep their bits. A taped forward keeps four score arrays, as those ops
    did, and the backward writes into them: step time hangs on when glibc trims and refaults the heap.
    """
    srcs = (qkv,) if heads else qkv
    if heads:  # (..., T, 3, H, d / H) -> (3, ..., H, T, d / H)
        *lead, t, _ = qkv.shape
        split = (len(lead) + 1, *range(len(lead)), len(lead) + 2, len(lead), len(lead) + 3)
        q, k, v = qkv.data.reshape(*lead, t, 3, heads, -1).transpose(split)
    else:
        q, k, v = (s.data for s in srcs)
    taped = _grad_enabled and any(s.requires_grad for s in srcs)
    scale = 1.0 / math.sqrt(q.shape[-1])
    s0 = np.matmul(q, k.swapaxes(-1, -2), out=_out(q.shape[:-1] + k.shape[-2:-1]))
    s1 = np.multiply(s0, scale, out=None if taped else s0)
    s2 = np.add(s1, bias, out=None if taped else s1)
    y = np.subtract(s2, np.maximum.reduce(s2, axis=-1, keepdims=True), out=None if taped else s2)
    np.exp(y, out=y)
    y /= np.add.reduce(y, axis=-1, keepdims=True)
    o = np.matmul(y, v, out=_out(y.shape[:-1] + v.shape[-1:]))
    out = Tensor(reshape(Tensor(o.swapaxes(-2, -3)), (*lead, t, -1)).data if heads else o, taped)  # merge, untaped

    def fn(g):
        g = g.reshape(*lead, t, heads, -1).swapaxes(-2, -3) if heads else g
        gy = np.matmul(g, v.swapaxes(-1, -2), out=s0)
        gv = np.matmul(y.swapaxes(-1, -2), g)
        gs = np.subtract(gy, np.add.reduce(np.multiply(gy, y, out=s1), axis=-1, keepdims=True), out=s2)
        gs *= y
        gs *= scale
        grads = (np.matmul(gs, k), np.matmul(q.swapaxes(-1, -2), gs).swapaxes(-1, -2), gv)
        if heads:  # + 0.0 makes a -0.0 +0.0, as unstack's zero-filled buffer did
            buf = np.empty((*lead, t, 3, heads, q.shape[-1]))
            for part, grad in zip(buf.transpose(split), grads):
                np.add(grad, 0.0, out=part)
            _accumulate(qkv, buf.reshape(qkv.shape), owned=True)
        else:
            for i in (2, 0, 1):  # the order the replaced backward reached them
                _accumulate(srcs[i], grads[i], owned=True)

    _record(out, fn)
    return out, y


_LN_EPS = 1e-12  # added to each row's variance


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean/unit variance, then apply the affine pair."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeMismatch(f"layer_norm affine shapes {gain.shape}/{bias.shape} vs d={d}")
    xhat = np.subtract(x.data, np.add.reduce(x.data, axis=-1, keepdims=True) / d, out=_out(x.data.shape))
    y = np.square(xhat, out=_out(xhat.shape))
    inv_std = 1.0 / np.sqrt(np.add.reduce(y, axis=-1, keepdims=True) / d + _LN_EPS)
    xhat *= inv_std
    np.multiply(xhat, gain.data, out=y)
    y += bias.data
    out = Tensor(y, x.requires_grad or gain.requires_grad or bias.requires_grad)
    gain_data = gain.data

    def fn(g):
        lead = tuple(range(g.ndim - 1))
        prod = g * xhat
        _accumulate(gain, np.add.reduce(prod, axis=lead), owned=True)
        _accumulate(bias, np.add.reduce(g, axis=lead), owned=True)
        if x.requires_grad:
            g *= gain_data  # g becomes x's gradient
            np.multiply(g, xhat, out=prod)
            np.multiply(xhat, np.add.reduce(prod, axis=-1, keepdims=True) / d, out=prod)
            g -= np.add.reduce(g, axis=-1, keepdims=True) / d
            g -= prod
            g *= inv_std
            _accumulate(x, g, owned=True)

    _record(out, fn)
    return out


_GELU_C = math.sqrt(2.0 / math.pi)
# Beyond +-20 the logistic below is exactly 1 or below 1e-261, and exponents
# of +-2u(20) ~ 603 can neither overflow nor underflow, so u is taken at the
# clipped x.
_GELU_CLIP = 20.0
# Squaring x + 1e-100 instead of x never underflows and changes x^2 only
# where 1 + 0.044715 x^2 rounds to 1 either way.
_GELU_TINY = 1e-100


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh approximation, as the identity
    0.5 x (1 + tanh u) = x s, s = 1 / (1 + exp(-2u)), u = C (x + 0.044715 x^3).

    One ``exp``, and no overflow or underflow at 0 or any finite x with
    |x| >= 1e-300. When a backward will run, the array of the clipped input
    becomes the derivative s (1 + w (1 - s)), w = 2 x du/dx, and is kept, so
    the backward only scales its own gradient by it.
    """
    x_data = x.data
    needs_grad = x.requires_grad and _grad_enabled
    d = np.clip(x_data, -_GELU_CLIP, _GELU_CLIP, out=_out(x_data.shape))
    v = np.add(d, _GELU_TINY, out=_out(d.shape))
    np.square(v, out=v)
    v *= 0.044715
    v += 1.0
    v *= d  # u / C
    if needs_grad:  # w = 2 C x (1 + 3 * 0.044715 x^2) = 6 C (u / C - 2x / 3)
        d *= -2.0 / 3.0
        d += v
        d *= 6.0 * _GELU_C
    v *= -2.0 * _GELU_C
    np.exp(v, out=v)  # e = exp(-2u)
    if needs_grad:  # with D = 1 + e: s (1 + w (1 - s)) = (1 + w e / D) / D
        d *= v
        v += 1.0
        d /= v
        d += 1.0
        d /= v
    else:
        v += 1.0
    y = np.divide(x_data, v, out=v)
    out = Tensor(y, x.requires_grad)

    def fn(g):
        g *= d
        _accumulate(x, g, owned=True)

    _record(out, fn)
    return out


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of ``table`` for an id array of any shape; the backward pass
    scatter-adds every row's gradient into the table at once."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeMismatch(f"embedding id out of range [0, {table.shape[0]})")
    # ids are checked, so "clip" never clips; it lets take write to out unbuffered
    out = Tensor(np.take(table.data, idx, axis=0, out=_out(idx.shape + table.data.shape[1:]), mode="clip"),
                 table.requires_grad)

    def fn(g):
        _scatter_add(table, idx.reshape(-1), g.reshape(-1, table.shape[-1]))

    _record(out, fn)
    return out


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout; identity when rate is 0."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout at a nonzero rate needs an rng")
    keep = (rng.random(x.shape) >= rate) / (1.0 - rate)
    out = Tensor(x.data * keep, x.requires_grad)

    def fn(g):
        g *= keep
        _accumulate(x, g, owned=True)

    _record(out, fn)
    return out


def take_rows(x: Tensor, rows) -> Tensor:
    """Select rows along the first axis by index (e.g. the masked positions)."""
    idx = np.asarray(rows, dtype=np.int64)
    out = Tensor(x.data[idx], x.requires_grad)
    _record(out, lambda g: _scatter_add(x, idx, g))
    return out


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), any(t.requires_grad for t in tensors))
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]
    _record(out, lambda g: [_accumulate(t, part) for t, part in zip(tensors, np.split(g, splits, axis=axis))])
    return out


def sum_all(a: Tensor) -> Tensor:
    """Sum every element down to a scalar."""
    out = Tensor(np.float64(a.data.sum()), a.requires_grad)
    _record(out, lambda g: _accumulate(a, np.full_like(a.data, float(g)), owned=True))
    return out


def cross_entropy(logits: Tensor, target_ids) -> Tensor:
    """Mean negative log-likelihood of each row's target class."""
    if logits.data.ndim != 2:
        raise ShapeMismatch(f"cross_entropy expects 2-D logits, got {logits.shape}")
    targets = np.asarray(target_ids, dtype=np.int64)
    if targets.shape != (logits.shape[0],):
        raise ShapeMismatch(f"targets {targets.shape} vs logits rows {logits.shape[0]}")
    m = targets.size
    if m == 0:
        raise EmptyReduction("no target to average over")
    n_classes = logits.shape[1]
    if targets.min() < 0 or targets.max() >= n_classes:
        raise LabelOutOfRange(f"target outside [0, {n_classes})")

    rows = np.arange(m)
    row_max = logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(logits.data - row_max).sum(axis=1, keepdims=True)) + row_max
    log_probs = logits.data - logsumexp
    nll = -log_probs[rows, targets]
    out = Tensor(np.float64(nll.mean()), logits.requires_grad)

    def fn(g):
        grad = np.exp(log_probs, out=log_probs)  # the probabilities, used once
        grad[rows, targets] -= 1.0
        grad *= float(g) / m
        _accumulate(logits, grad, owned=True)

    _record(out, fn)
    return out


# float64 elements per block of the AdamW step. One block of the parameter,
# its two moments, its gradient and the two scratch blocks is 6 x 256 KiB =
# 1.5 MiB, which stays in a 2 MiB per-core L2 cache across the step's 14
# ufuncs (16 with weight decay); whole-array passes stream each one through
# memory. Blocks of 8,192 pay more Python per element and blocks of 131,072
# spill (both measured slower on pretrain-mid).
_ADAMW_BLOCK = 32_768
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


class AdamW:
    """Decoupled-weight-decay Adam with bias-corrected moments.

    ``step`` walks each parameter in blocks of ``_ADAMW_BLOCK`` elements with
    the same elementwise operations in the same order as a whole-array
    update, so results are bit-identical to it. It allocates no
    parameter-sized temporary unless a parameter or gradient is not
    C-contiguous and has to be flattened by a copy. A helper thread takes
    blocks too, with the same operations, so the bytes do not change.
    """

    def __init__(self, params: list[Tensor], lr: float = 5e-5, weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        # C order, so ravel in step is a view whatever the parameter's layout
        self.m = [np.zeros(p.data.shape) for p in self.params]
        self.v = [np.zeros(p.data.shape) for p in self.params]
        self._scratch = np.empty((2, 2, _ADAMW_BLOCK))  # two blocks for each thread
        # imported here: concurrent.futures adds about 0.25 MB of RSS to a process that never trains
        from concurrent.futures import ThreadPoolExecutor
        self._helper = ThreadPoolExecutor(max_workers=1)  # its thread starts at the first step

    def step(self) -> None:
        # Check every gradient before touching any array, so a raise leaves no half step.
        for p in self.params:
            if p.grad is not None and p.grad.shape != p.data.shape:
                raise ShapeMismatch(f"grad shape {p.grad.shape} vs param {p.data.shape}")
        t = self.step_count + 1
        flat, blocks = [p.data.ravel() for p in self.params], deque()
        for p, w, m, v in zip(self.params, flat, self.m, self.v):
            m, v = m.ravel(), v.ravel()
            g = None if p.grad is None else p.grad.ravel()
            for lo in range(0, w.size, _ADAMW_BLOCK):
                hi = lo + _ADAMW_BLOCK
                gb = 0.0 if g is None else g[lo:hi]  # a missing gradient is all zeros
                blocks.append((w[lo:hi], m[lo:hi], v[lo:hi], gb))
        # Both threads take blocks from one deque, whose popleft is atomic with or without the GIL,
        # so each block is taken once and a thread the OS pauses does not hold up the other.
        helper = self._helper.submit(self._update, blocks, self._scratch[1], t)
        try:
            self._update(blocks, self._scratch[0], t)
        finally:
            helper.result()  # joins the helper and re-raises what it raised
        for p, w in zip(self.params, flat):
            if not p.data.flags.c_contiguous:  # ravel copied: write the result back
                p.data[...] = w.reshape(p.data.shape)
        self.step_count = t

    def _update(self, blocks, scratch: np.ndarray, t: int) -> None:
        """Step ``t`` on each (param, m, v, grad) block it pops from ``blocks``, with two scratch blocks."""
        b1, b2, lr = _BETA1, _BETA2, self.lr
        bc1, bc2, decay = 1.0 - b1**t, 1.0 - b2**t, lr * self.weight_decay
        while True:
            try:
                wb, mb, vb, gb = blocks.popleft()
            except IndexError:  # the last block is taken
                return
            tmp, upd = scratch[:, :wb.size]
            if self.weight_decay != 0.0:
                np.multiply(wb, decay, out=tmp)
                wb -= tmp
            np.multiply(gb, 1.0 - b1, out=tmp)
            mb *= b1
            mb += tmp
            np.multiply(gb, 1.0 - b2, out=tmp)
            tmp *= gb
            vb *= b2
            vb += tmp
            np.divide(vb, bc2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += _EPS
            np.divide(mb, bc1, out=upd)
            upd *= lr
            upd /= tmp
            wb -= upd

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Moment arrays keyed by parameter position, for checkpointing."""
        return {f"{k}.{i}": a for i, pair in enumerate(zip(self.m, self.v)) for k, a in zip("mv", pair)}

