"""Finite-difference gradient checker for the autograd tests, and ``dense_grad``."""

from __future__ import annotations

import numpy as np

from versebert.autograd import RowGrad, Tensor, backward, no_grad, reset_tape


def dense_grad(t: Tensor) -> np.ndarray | None:
    """A copy of ``t.grad`` as a dense array, or None. A table's ``RowGrad`` is added at its rows into
    zeros, in the order of the dense scatter it replaced, so its bytes, signed zeros included, match it."""
    if isinstance(t.grad, RowGrad):
        dense = np.zeros(t.shape)
        dense[t.grad.rows] += t.grad.values
        return dense
    return None if t.grad is None else t.grad.copy()


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
    analytic = [np.zeros_like(p.data) if p.grad is None else dense_grad(p) for p in params]

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
