"""The whole-array AdamW step that the cache-blocked one replaced, kept as an
oracle for the equivalence tests.

Each update is a full pass over parameter-sized arrays; the blocked step does
the same elementwise operations in the same order, so the two must agree bit
for bit. ``step`` takes an ``AdamW`` instance and updates its params and
moments in place, like ``AdamW.step``. It reads the moment decays and the
denominator floor from the module constants ``AdamW`` uses.
"""

from __future__ import annotations

import numpy as np

from versebert.autograd import _BETA1, _BETA2, _EPS
from versebert.errors import ShapeMismatch


def step(self) -> None:
    t = self.step_count + 1
    bc1 = 1.0 - _BETA1**t
    bc2 = 1.0 - _BETA2**t
    for p, m, v in zip(self.params, self.m, self.v):
        g = p.grad
        if g is not None and g.shape != p.data.shape:
            raise ShapeMismatch(f"grad shape {g.shape} vs param {p.data.shape}")
        if self.weight_decay != 0.0:
            p.data -= self.lr * self.weight_decay * p.data
        if g is None:
            g = np.zeros_like(p.data)
        # in place, two scratch arrays: fresh parameter-sized arrays cost page faults
        tmp = np.multiply(g, 1.0 - _BETA1, out=np.empty_like(p.data))
        m *= _BETA1
        m += tmp
        np.multiply(g, 1.0 - _BETA2, out=tmp)
        tmp *= g
        v *= _BETA2
        v += tmp
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += _EPS
        step = m / bc1
        step *= self.lr
        step /= tmp
        p.data -= step
    self.step_count = t
