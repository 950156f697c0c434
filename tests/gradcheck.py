"""Finite-difference gradient checker for the autograd tests."""

from __future__ import annotations

import numpy as np

from versebert.autograd import Tensor, backward, no_grad, reset_tape


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
