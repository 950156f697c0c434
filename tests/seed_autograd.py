"""The gradient bookkeeping that kept-buffer gradients replaced, kept as an
oracle for the equivalence tests.

Here ``zero_grad`` drops a gradient for good, and each backward allocates
every first gradient afresh: a weight's in ``matmul``, the embedding table's
in ``_scatter_add`` and any other in ``_accumulate``. Writing the first
gradient into an array kept from the previous step must give the same bits.
Patch these over the ``versebert.autograd`` names (and ``Tensor.zero_grad``)
to run the old path.
"""

from __future__ import annotations

import numpy as np

from versebert.autograd import Tensor, _record
from versebert.errors import ShapeMismatch


def zero_grad(self) -> None:
    self.grad = None


def _accumulate(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g if owned else np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _scatter_add(t: Tensor, idx, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    if isinstance(idx, int):
        t.grad[idx] += g
    elif idx.size:
        order = np.argsort(idx, kind="stable")
        rows = idx[order]
        starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        t.grad[rows[starts]] += np.add.reduceat(g[order], starts, axis=0)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2] or (
        b.data.ndim > 2 and a.shape[:-2] != b.shape[:-2]
    ):
        raise ShapeMismatch(f"matmul: {a.shape} @ {b.shape}")
    a_data, b_data = a.data, b.data
    if b_data.ndim == 2:
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


def install(monkeypatch) -> None:
    """Swap the old bookkeeping in for the rest of a test."""
    from versebert import autograd

    monkeypatch.setattr(autograd.Tensor, "zero_grad", zero_grad)
    for fn in (_accumulate, _scatter_add, matmul):
        monkeypatch.setattr(autograd, fn.__name__, fn)
