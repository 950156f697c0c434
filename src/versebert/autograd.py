"""Dense float64 tensors with a reverse-mode tape, core NN ops, AdamW, grad checking.

Every op computes its forward value eagerly with numpy and, when gradients are
enabled and an input requires them, records a backward closure on a global
tape. ``backward(loss)`` replays the tape in reverse (execution order is a
valid topological order) and then frees it. Arrays are 64-bit floats
throughout so finite-difference checks can run at tight tolerances.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import EmptyReduction, LabelOutOfRange, ShapeMismatch


class Tensor:
    """A dense array with an optional accumulated gradient."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
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


def _record(out: Tensor, backward_fn) -> None:
    if _grad_enabled and out.requires_grad:
        _tape.append((out, backward_fn))


def _accumulate(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Add ``g`` to ``t.grad``, taking over the first gradient. ``owned`` says
    the caller just allocated ``g`` for ``t`` alone, so it is adopted as is;
    otherwise it is copied, never aliased (add's backward hands one array to
    both of its inputs)."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g if owned else np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _scatter_add(t: Tensor, idx, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad`` at index ``idx`` along the first axis; an
    index array may repeat rows, whose gradients then add up."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    if isinstance(idx, int):
        t.grad[idx] += g
    elif idx.size:
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
            # popping frees each op's saved arrays and output gradient once used
            out, fn = _tape.pop()
            if out.grad is not None:
                fn(out.grad)
                out.grad = None
    finally:
        reset_tape()


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` over the last two axes. ``b`` is either one matrix shared by
    every leading index of ``a`` (a weight) or has ``a``'s leading axes."""
    if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2] or (
        b.data.ndim > 2 and a.shape[:-2] != b.shape[:-2]
    ):
        raise ShapeMismatch(f"matmul: {a.shape} @ {b.shape}")
    a_data, b_data = a.data, b.data
    if b_data.ndim == 2:
        # one GEMM over all leading rows instead of one per leading index
        rows = a_data.reshape(-1, a.shape[-1])
        out = Tensor((rows @ b_data).reshape(a.shape[:-1] + b.shape[-1:]),
                     a.requires_grad or b.requires_grad)

        def fn(g):
            g_rows = g.reshape(-1, b.shape[-1])
            _accumulate(a, (g_rows @ b_data.T).reshape(a.shape), owned=True)
            _accumulate(b, rows.T @ g_rows, owned=True)
    else:
        out = Tensor(a_data @ b_data, a.requires_grad or b.requires_grad)

        def fn(g):
            _accumulate(a, g @ b_data.swapaxes(-1, -2), owned=True)
            _accumulate(b, a_data.swapaxes(-1, -2) @ g, owned=True)

    _record(out, fn)
    return out


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape), a.requires_grad)
    _record(out, lambda g: _accumulate(a, g.reshape(a.shape)))
    return out


def permute(a: Tensor, axes) -> Tensor:
    """Reorder the axes of ``a`` (``numpy.transpose`` with explicit axes)."""
    axes = tuple(ax % a.data.ndim for ax in axes)
    out = Tensor(a.data.transpose(axes), a.requires_grad)
    inverse = tuple(np.argsort(axes))
    _record(out, lambda g: _accumulate(a, g.transpose(inverse)))
    return out


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeMismatch(f"transpose expects a matrix, got {a.shape}")
    return permute(a, (1, 0))


def unstack(a: Tensor) -> list[Tensor]:
    """Split ``a`` along its first axis into ``a.shape[0]`` tensors."""
    outs = []
    for i in range(a.shape[0]):
        out = Tensor(a.data[i], a.requires_grad)
        _record(out, lambda g, i=i: _scatter_add(a, i, g))
        outs.append(out)
    return outs


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeMismatch(f"add: {a.shape} + {b.shape}") from None
    out = Tensor(data, a.requires_grad or b.requires_grad)

    def fn(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    _record(out, fn)
    return out


def scale(a: Tensor, s: float) -> Tensor:
    out = Tensor(a.data * s, a.requires_grad)
    _record(out, lambda g: _accumulate(a, g * s, owned=True))
    return out


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    y = a.data - a.data.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    out = Tensor(y, a.requires_grad)

    def fn(g):
        grad = g * y
        np.subtract(g, grad.sum(axis=-1, keepdims=True), out=grad)
        grad *= y
        _accumulate(a, grad, owned=True)

    _record(out, fn)
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-12) -> Tensor:
    """Normalize the last axis to zero mean/unit variance, then apply the affine pair."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeMismatch(f"layer_norm affine shapes {gain.shape}/{bias.shape} vs d={d}")
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    y = np.square(xhat)
    inv_std = 1.0 / np.sqrt(y.mean(axis=-1, keepdims=True) + eps)
    xhat *= inv_std
    np.multiply(xhat, gain.data, out=y)
    y += bias.data
    out = Tensor(y, x.requires_grad or gain.requires_grad or bias.requires_grad)
    gain_data = gain.data

    def fn(g):
        lead = tuple(range(g.ndim - 1))
        _accumulate(gain, (g * xhat).sum(axis=lead), owned=True)
        _accumulate(bias, g.sum(axis=lead), owned=True)
        if x.requires_grad:
            gx = g * gain_data
            term = xhat * (gx * xhat).mean(axis=-1, keepdims=True)
            gx -= gx.mean(axis=-1, keepdims=True)
            gx -= term
            gx *= inv_std
            _accumulate(x, gx, owned=True)

    _record(out, fn)
    return out


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh approximation."""
    # in place where possible: each fresh array costs page faults, not just arithmetic
    x_data = x.data
    x2 = x_data * x_data
    t = x2 * x_data
    t *= 0.044715
    t += x_data
    t *= _GELU_C
    np.tanh(t, out=t)
    y = t + 1.0
    y *= x_data
    y *= 0.5
    out = Tensor(y, x.requires_grad)

    def fn(g):
        du = x2 * (3 * 0.044715)
        du += 1.0
        du *= _GELU_C
        grad = t * t
        np.subtract(1.0, grad, out=grad)
        grad *= x_data
        grad *= 0.5
        grad *= du
        du = t + 1.0
        du *= 0.5
        grad += du
        grad *= g
        _accumulate(x, grad, owned=True)

    _record(out, fn)
    return out


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of ``table`` for an id array of any shape; the backward pass
    scatter-adds every row's gradient into the table at once."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeMismatch(f"embedding id out of range [0, {table.shape[0]})")
    out = Tensor(table.data[idx], table.requires_grad)

    def fn(g):
        _scatter_add(table, idx.reshape(-1), g.reshape(-1, table.shape[-1]))

    _record(out, fn)
    return out


def dropout(x: Tensor, rate: float, train: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout; identity when not training or when rate is 0."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    keep = (rng.random(x.shape) >= rate) / (1.0 - rate)
    out = Tensor(x.data * keep, x.requires_grad)
    _record(out, lambda g: _accumulate(x, g * keep, owned=True))
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


IGNORE_INDEX = -100


def cross_entropy(logits: Tensor, target_ids, ignore_index: int = IGNORE_INDEX) -> Tensor:
    """Mean negative log-likelihood over rows whose target is not ignored."""
    if logits.data.ndim != 2:
        raise ShapeMismatch(f"cross_entropy expects 2-D logits, got {logits.shape}")
    targets = np.asarray(target_ids, dtype=np.int64)
    if targets.shape != (logits.shape[0],):
        raise ShapeMismatch(f"targets {targets.shape} vs logits rows {logits.shape[0]}")
    selected = targets != ignore_index
    m = int(selected.sum())
    if m == 0:
        raise EmptyReduction("all targets ignored")
    n_classes = logits.shape[1]
    live = targets[selected]
    if live.min() < 0 or live.max() >= n_classes:
        raise LabelOutOfRange(f"target outside [0, {n_classes})")

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True)) + logits.data.max(axis=1, keepdims=True)
    log_probs = logits.data - logsumexp
    nll = -log_probs[selected, live]
    out = Tensor(np.float64(nll.mean()), logits.requires_grad)

    def fn(g):
        probs = np.exp(log_probs)
        grad = np.zeros_like(logits.data)
        grad[selected] = probs[selected]
        grad[selected, live] -= 1.0
        grad *= float(g) / m
        _accumulate(logits, grad, owned=True)

    _record(out, fn)
    return out


class AdamW:
    """Decoupled-weight-decay Adam with bias-corrected moments."""

    def __init__(self, params: list[Tensor], lr: float = 5e-5, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        t = self.step_count + 1
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is not None and g.shape != p.data.shape:
                raise ShapeMismatch(f"grad shape {g.shape} vs param {p.data.shape}")
            if self.weight_decay != 0.0:
                p.data -= self.lr * self.weight_decay * p.data
            if g is None:
                g = np.zeros_like(p.data)
            # in place, two scratch arrays: fresh parameter-sized arrays cost page faults
            tmp = np.multiply(g, 1.0 - self.beta1, out=np.empty_like(p.data))
            m *= self.beta1
            m += tmp
            np.multiply(g, 1.0 - self.beta2, out=tmp)
            tmp *= g
            v *= self.beta2
            v += tmp
            np.divide(v, bc2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            step = m / bc1
            step *= self.lr
            step /= tmp
            p.data -= step
        self.step_count = t

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Moment arrays keyed by parameter position, for checkpointing."""
        return {f"{k}.{i}": a for i, pair in enumerate(zip(self.m, self.v)) for k, a in zip("mv", pair)}


def grad_check(
    f,
    params: list[Tensor],
    h: float = 1e-5,
    max_samples: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative error between analytic gradients of ``f()`` and central differences.

    ``f`` must be a deterministic scalar-valued computation over ``params``.
    When ``max_samples`` is set, that many parameter elements are sampled
    (without replacement across the flattened concatenation of all params).
    """
    for p in params:
        p.zero_grad()
    reset_tape()
    loss = f()
    backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    coords = [(i, j) for i, p in enumerate(params) for j in range(p.data.size)]
    if max_samples is not None and max_samples < len(coords):
        if rng is None:
            rng = np.random.default_rng(0)
        picks = rng.choice(len(coords), size=max_samples, replace=False)
        coords = [coords[int(k)] for k in picks]

    worst = 0.0
    with no_grad():
        for i, j in coords:
            flat = params[i].data.reshape(-1)
            saved = flat[j]
            flat[j] = saved + h
            up = float(f().data)
            flat[j] = saved - h
            down = float(f().data)
            flat[j] = saved
            numeric = (up - down) / (2.0 * h)
            a = float(analytic[i].reshape(-1)[j])
            err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, err)
    return worst
