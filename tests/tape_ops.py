"""``reshape`` and ``permute``, the tape ops that only tests call, kept here
since the encoder holds its real rows as one (N x hidden) array and attention
is one op, so the program needs neither. The tests shape an op's output for a
loss with them, and the oracles of replaced chains use them as they did. Each
is the removed ``versebert.autograd`` op verbatim: its backward hands the
gradient down as a view of itself. ``seed_autograd.install_ops`` swaps the
copying forms in for these names.
"""

from __future__ import annotations

from versebert.autograd import Tensor, _accumulate, _record


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape), a.requires_grad)
    _record(out, lambda g: _accumulate(a, g.reshape(a.shape)))
    return out


def permute(a: Tensor, axes) -> Tensor:
    """Reorder the axes of ``a`` (``numpy.transpose`` with explicit axes)."""
    axes = tuple(ax % a.data.ndim for ax in axes)
    out = Tensor(a.data.transpose(axes), a.requires_grad)
    inverse = tuple(map(axes.index, range(len(axes))))
    _record(out, lambda g: _accumulate(a, g.transpose(inverse)))
    return out
