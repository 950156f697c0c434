"""``reshape``, the one tape op that only tests call, kept here since the
encoder holds its real rows as one (N x hidden) array and no longer needs it.
The tests shape an op's output for a loss with it, and the oracles of replaced
chains use it as they did. It is the removed ``versebert.autograd.reshape``
verbatim: its backward hands the gradient down as a view of itself.
``seed_autograd.install_ops`` swaps the copying form in for this name.
"""

from __future__ import annotations

from versebert.autograd import Tensor, _accumulate, _record


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape), a.requires_grad)
    _record(out, lambda g: _accumulate(a, g.reshape(a.shape)))
    return out
