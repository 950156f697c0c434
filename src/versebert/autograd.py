"""Dense float64 tensors with a reverse-mode tape, core NN ops and AdamW.

Every op computes its forward value eagerly with numpy and, when gradients are
enabled and an input requires them, records a backward closure on a global
tape. ``backward(loss)`` replays the tape in reverse (execution order is a
valid topological order) and then frees it. A dense leaf takes over the array
the tape hands it as its gradient; a table that ``embedding_lookup`` reads gets
a row-sparse ``RowGrad`` instead, so no table-sized gradient exists. Neither
outlives the next ``zero_grad``, and ``keep_freed_heap`` lets the next step
reuse the memory.
Arrays are 64-bit floats throughout so finite-difference checks can run at
tight tolerances.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
from collections import deque
from typing import NamedTuple

import numpy as np

from .errors import EmptyReduction, LabelOutOfRange, ShapeMismatch


class RowGrad(NamedTuple):
    """A table's row-sparse gradient: the sorted distinct ``rows`` the step touched and each
    one's summed gradient in ``values``, of shape (len(rows), *table.shape[1:]); other rows are zero."""

    rows: np.ndarray
    values: np.ndarray


class Tensor:
    """A dense array with an optional accumulated gradient."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | RowGrad | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        """Drop the gradient; the next backward gives a fresh array or ``RowGrad``."""
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


def reset_tape() -> None:
    _tape.clear()


def tape_size() -> int:
    return len(_tape)


def keep_freed_heap() -> None:
    """Raise glibc's trim and mmap thresholds for the whole process (no effect without ``mallopt``),
    so the arrays one training step or forward pass frees serve the next rather than going back to
    the OS and faulting in again. Training and scoring call it as they set up, not at import."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", lambda *_: 0)
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD: the heap keeps up to 256 MiB of freed top
    mallopt(-3, 64 << 20)  # M_MMAP_THRESHOLD: arrays under 64 MiB come from the heap, not fresh mappings


def _record(out: Tensor, backward_fn) -> None:
    out.requires_grad = out.requires_grad and _grad_enabled  # off the tape, a constant
    if out.requires_grad:
        _tape.append((out, backward_fn))


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add ``g``, an array no other tensor holds, to ``t.grad``; a first gradient is taken over."""
    if not t.requires_grad:
        return
    if t.grad is not None:
        if type(t.grad) is RowGrad:  # a table's second use in one step
            _densify(t)
        t.grad += g
    else:
        t.grad = g


def _row_sums(idx: np.ndarray, g: np.ndarray) -> RowGrad:
    """The distinct row indices of ``idx`` in order, and the sum of the rows of ``g`` at each; a stable
    sort keeps a row's gradients in their order. Several times faster than ``np.add.at``."""
    order = np.argsort(idx, kind="stable")
    rows = idx[order]
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    return RowGrad(rows[starts], np.add.reduceat(g[order], starts, axis=0))


def _densify(t: Tensor) -> None:
    """Make ``t.grad`` dense: zeros, then a ``RowGrad`` it holds added at its rows, in the
    dense scatter's order, so that signed zeros match it."""
    held, t.grad = t.grad, np.zeros(t.shape)
    if held is not None:  # a table's second use in one step
        t.grad[held.rows] += held.values


def _scatter_add(t: Tensor, idx, g: np.ndarray) -> None:
    """Add the rows of ``g`` into ``t.grad``, dense, at the row indices ``idx``; a repeated row's gradients add up."""
    if not isinstance(t.grad, np.ndarray):
        _densify(t)
    rows, sums = _row_sums(idx, g)
    t.grad[rows] += sums


def _lookup_grad(table: Tensor, idx, g: np.ndarray) -> None:
    """Give a table with no gradient yet this step the ``RowGrad`` of ``g``'s rows at ``idx``;
    a table that already holds a gradient takes the dense scatter."""
    if table.grad is None:
        table.grad = _row_sums(idx, g)
    else:
        _scatter_add(table, idx, g)  # a table's second use in one step


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
                out.grad = None  # an op output's gradient is used once
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
    out = Tensor(np.matmul(rows, b_data).reshape(a.shape[:-1] + b.shape[-1:]), a.requires_grad or b.requires_grad)

    def fn(g):
        g_rows = g.reshape(-1, b.shape[-1])
        _accumulate(a, (g_rows @ b_data.T).reshape(a.shape))
        _accumulate(b, rows.T @ g_rows)

    _record(out, fn)
    return out


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeMismatch(f"transpose expects a matrix, got {a.shape}")
    out = Tensor(a.data.T, a.requires_grad)
    _record(out, lambda g: _accumulate(a, g.T))
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = np.add(a.data, b.data)
    except ValueError:
        raise ShapeMismatch(f"add: {a.shape} + {b.shape}") from None
    out = Tensor(data, a.requires_grad or b.requires_grad)

    def fn(g):
        # an input broadcast up to g's shape gets a fresh sum; when both take g whole, b gets a copy
        if b.requires_grad:
            _accumulate(b, g.copy() if a.requires_grad and a.shape == b.shape else _unbroadcast(g, b.shape))
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))

    _record(out, fn)
    return out


def scale(a: Tensor, s: float) -> Tensor:
    out = Tensor(np.multiply(a.data, s), a.requires_grad)

    def fn(g):
        g *= s
        _accumulate(a, g)

    _record(out, fn)
    return out


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    y = np.subtract(a.data, np.maximum.reduce(a.data, axis=-1, keepdims=True))
    np.exp(y, out=y)
    y /= np.add.reduce(y, axis=-1, keepdims=True)
    out = Tensor(y, a.requires_grad)

    def fn(g):
        grad = g * y
        np.subtract(g, np.add.reduce(grad, axis=-1, keepdims=True), out=grad)
        grad *= y
        _accumulate(a, grad)

    _record(out, fn)
    return out


def _scattered(rows: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """An n-row array with ``rows`` at the row indices ``idx`` and zeros elsewhere."""
    out = np.zeros((n, *rows.shape[1:]))
    out[idx] = rows
    return out


def attention(qkv: Tensor, bias: np.ndarray, heads: int, real: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """softmax(q kᵀ / sqrt(d_k) + bias) v over ``heads`` heads as one taped op; returns it and the weights
    (off the tape).

    ``real`` holds the sorted flat indices of the N real positions of a (B, T) batch, ``bias`` is its
    (B, 1, 1, T) key bias, and ``qkv`` the (N, 3d) projection of those rows, [Q heads | K heads | V heads];
    the result is the (N, d) merged heads. With padding, the rows go into a zero-padded (B·T, 3d) array
    first and the merged rows come back out. Every matmul's operands keep the layouts of
    ``tests/seed_attention.py``'s chain, as numpy picks BLAS or its own loop by stride, so that bits hold.
    With or without the tape, the scores become the weights in place in one array and the heads merge
    into one C-order copy; the backward keeps the weights and allocates its own two score-sized temporaries.
    """
    b, t = bias.shape[0], bias.shape[-1]
    pad = real.size < b * t
    split = (2, 0, 3, 1, 4)  # (B, T, 3, H, d / H) -> (3, B, H, T, d / H)
    data = _scattered(qkv.data, real, b * t) if pad else qkv.data
    q, k, v = data.reshape(b, t, 3, heads, -1).transpose(split)
    scale = 1.0 / math.sqrt(q.shape[-1])
    y = np.matmul(q, k.swapaxes(-1, -2))
    y *= scale
    y += bias
    y -= np.maximum.reduce(y, axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= np.add.reduce(y, axis=-1, keepdims=True)
    o = np.matmul(y, v)
    # (B, H, T, d / H) -> (B·T, d). One-column heads merge as a view, the layout numpy's reshape gives
    # them: the gradient comes back in this layout, and the backward's matmuls pick kernels by stride
    o = o.swapaxes(-2, -3)
    o = (o if o.shape[-1] == 1 else np.positive(o, order="C")).reshape(b * t, -1)
    if pad:
        o = np.take(o, real, axis=0)
    out = Tensor(o, qkv.requires_grad)

    def fn(g):
        g = _scattered(g, real, b * t) if pad else g
        g = g.reshape(b, t, heads, -1).swapaxes(-2, -3)
        gy = np.matmul(g, v.swapaxes(-1, -2))
        gv = np.matmul(y.swapaxes(-1, -2), g)
        gs = np.subtract(gy, np.add.reduce(np.multiply(gy, y), axis=-1, keepdims=True), out=gy)
        gs *= y
        gs *= scale
        grads = (np.matmul(gs, k), np.matmul(q.swapaxes(-1, -2), gs).swapaxes(-1, -2), gv)
        buf = np.empty((b, t, 3, heads, q.shape[-1]))
        for part, grad in zip(buf.transpose(split), grads):
            np.add(grad, 0.0, out=part)  # + 0.0 makes a -0.0 +0.0, as unstack's zero-filled buffer did
        buf = buf.reshape(b * t, -1)
        _accumulate(qkv, buf[real] if pad else buf)

    _record(out, fn)
    return out, y


_LN_EPS = 1e-12  # added to each row's variance


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean/unit variance, then apply the affine pair."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeMismatch(f"layer_norm affine shapes {gain.shape}/{bias.shape} vs d={d}")
    xhat = np.subtract(x.data, np.add.reduce(x.data, axis=-1, keepdims=True) / d)
    y = np.square(xhat)
    inv_std = 1.0 / np.sqrt(np.add.reduce(y, axis=-1, keepdims=True) / d + _LN_EPS)
    xhat *= inv_std
    np.multiply(xhat, gain.data, out=y)
    y += bias.data
    out = Tensor(y, x.requires_grad or gain.requires_grad or bias.requires_grad)
    gain_data = gain.data

    def fn(g):
        lead = tuple(range(g.ndim - 1))
        prod = g * xhat
        _accumulate(gain, np.add.reduce(prod, axis=lead))
        _accumulate(bias, np.add.reduce(g, axis=lead))
        if x.requires_grad:
            g *= gain_data  # g becomes x's gradient
            np.multiply(g, xhat, out=prod)
            np.multiply(xhat, np.add.reduce(prod, axis=-1, keepdims=True) / d, out=prod)
            g -= np.add.reduce(g, axis=-1, keepdims=True) / d
            g -= prod
            g *= inv_std
            _accumulate(x, g)

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
    d = np.clip(x_data, -_GELU_CLIP, _GELU_CLIP)
    v = np.add(d, _GELU_TINY)
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
        _accumulate(x, g)

    _record(out, fn)
    return out


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of ``table`` for an id array of any shape; the backward pass sums
    each row's gradients into a ``RowGrad``, with no table-sized array."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeMismatch(f"embedding id out of range [0, {table.shape[0]})")
    out = Tensor(np.take(table.data, idx, axis=0), table.requires_grad)

    def fn(g):
        _lookup_grad(table, idx.reshape(-1), g.reshape(-1, table.shape[-1]))

    _record(out, fn)
    return out


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None = None, cut=None) -> Tensor:
    """Inverted dropout; identity when rate is 0. With ``cut = (n, rows)``, ``x`` holds ``rows``
    of n rows: the mask is drawn for all n and cut alike, so the stream moves as for the whole array."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout at a nonzero rate needs an rng")
    drawn = rng.random(x.shape if cut is None else (cut[0], *x.shape[1:]))
    keep = ((drawn if cut is None else drawn[cut[1]]) >= rate) / (1.0 - rate)
    out = Tensor(x.data * keep, x.requires_grad)

    def fn(g):
        g *= keep
        _accumulate(x, g)

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
    _record(out, lambda g: [_accumulate(t, part.copy()) for t, part in zip(tensors, np.split(g, splits, axis=axis))])
    return out


def sum_all(a: Tensor) -> Tensor:
    """Sum every element down to a scalar."""
    out = Tensor(np.float64(a.data.sum()), a.requires_grad)
    _record(out, lambda g: _accumulate(a, np.full_like(a.data, float(g))))
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
        _accumulate(logits, grad)

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

    ``step`` walks each parameter in blocks of ``_ADAMW_BLOCK`` elements with the same
    elementwise operations in the same order as a whole-array update, so results are
    bit-identical to it. A parameter that is read-only or not C-contiguous raises ShapeMismatch,
    so each block is a view updated in place; a gradient that is not C-contiguous is flattened
    by a copy, the one parameter-sized temporary a step may allocate. A table with a ``RowGrad`` goes in blocks
    of ``max(1, _ADAMW_BLOCK // width)`` whole rows: each block decays both moments whole and
    adds gradient terms at its touched rows alone. That leaves out only the +0.0 that a dense
    gradient's zero fill added to each element, which can only make a moment's -0.0 +0.0, and
    so changes a parameter's bytes only where the parameter is exactly -0.0. A helper thread
    takes blocks too, with the same operations, so the bytes do not change.
    The moments live as long as the optimizer: a checkpoint holds parameters only.
    """

    def __init__(self, params: list[Tensor], lr: float = 5e-5, weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        # C order, like every parameter step accepts, so ravel is a view
        self.m = [np.zeros(p.data.shape) for p in self.params]
        self.v = [np.zeros(p.data.shape) for p in self.params]
        # two blocks for each thread; a block of whole rows holds one row at least
        width = max([_ADAMW_BLOCK, *(math.prod(p.shape[1:]) for p in self.params)])
        self._scratch = np.empty((2, 2, width))
        # imported here: concurrent.futures adds about 0.25 MB of RSS to a process that never trains
        from concurrent.futures import ThreadPoolExecutor
        self._helper = ThreadPoolExecutor(max_workers=1)  # its thread starts at the first step

    def step(self) -> None:
        # Check every array before touching any, so a raise leaves no half step.
        for p in self.params:
            g = p.grad
            if type(g) is RowGrad:
                rows = g.rows
                if p.data.ndim == 0 or rows.ndim != 1 or rows.dtype.kind not in "iu" \
                        or g.values.shape != (rows.size, *p.shape[1:]) \
                        or rows.size and (rows[0] < 0 or rows[-1] >= p.shape[0] or np.any(rows[1:] <= rows[:-1])):
                    raise ShapeMismatch(f"row gradient of {rows.shape} rows and {g.values.shape} values is not "
                                        f"one value row each at sorted, distinct rows of a {p.shape} table")
            elif g is not None and g.shape != p.data.shape:
                raise ShapeMismatch(f"grad shape {g.shape} vs param {p.data.shape}")
            if not p.data.flags.c_contiguous:  # ravel would update a copy
                raise ShapeMismatch(f"param of shape {p.data.shape} is not C-contiguous")
            if not p.data.flags.writeable:  # such as a view of a loaded checkpoint, which training copies
                raise ShapeMismatch(f"param of shape {p.data.shape} is read-only")
        t = self.step_count + 1
        blocks = deque()
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if type(g) is RowGrad:  # whole rows, each block with its slice of the touched rows
                n, width = p.shape[0], math.prod(p.shape[1:])
                w, m, v = (a.reshape(n, width) for a in (p.data, m, v))
                values, per = g.values.reshape(-1, width), max(1, _ADAMW_BLOCK // width)
                cuts = np.searchsorted(g.rows, range(0, n + per, per)).tolist()
                for lo, a, b in zip(range(0, n, per), cuts, cuts[1:]):
                    hi = lo + per
                    blocks.append((w[lo:hi], m[lo:hi], v[lo:hi], RowGrad(g.rows[a:b] - lo, values[a:b])))
                continue
            w, m, v = p.data.ravel(), m.ravel(), v.ravel()
            g = None if g is None else g.ravel()
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
            tmp, upd = scratch[:, :wb.size].reshape(2, *wb.shape)
            if self.weight_decay != 0.0:
                np.multiply(wb, decay, out=tmp)
                wb -= tmp
            if type(gb) is RowGrad:  # the gradient terms at the touched rows only
                mb *= b1
                vb *= b2
                part = tmp[:gb.rows.size]
                np.multiply(gb.values, 1.0 - b1, out=part)
                mb[gb.rows] += part
                np.multiply(gb.values, 1.0 - b2, out=part)
                part *= gb.values
                vb[gb.rows] += part
            else:
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
