"""Minimal Adam optimizer (Kingma & Ba, ICLR 2015) over one flat buffer."""
from __future__ import annotations

import math

import numpy as np


class Adam:
    """Adam over copies of `params` held in one float64 buffer.

    Train through `self.params`, views of that buffer that `step` updates in
    place; the arrays passed in are left untouched. Write each step's
    gradients into `self.grads`, views of a second buffer shaped like
    `self.params`, then call `step()`. Every element sees the IEEE operations
    of a per-array update in the same order, so results are bit-equal to it.
    """

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        arrays = [np.asarray(p, dtype=np.float64) for p in params]
        self._shapes = [a.shape for a in arrays]
        self.flat = np.concatenate(arrays, axis=None)
        self.params = self.unflatten(self.flat)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self._grad = np.empty_like(self.flat)
        self.grads = self.unflatten(self._grad)
        self._num = np.empty_like(self.flat)
        self._den = np.empty_like(self.flat)

    def unflatten(self, flat: np.ndarray) -> list:
        """Views of a buffer laid out like `self.flat`, shaped like `params`."""
        views = []
        offset = 0
        for shape in self._shapes:
            size = math.prod(shape)
            views.append(flat[offset : offset + size].reshape(shape))
            offset += size
        return views

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        g, m, v, num, den = self._grad, self.m, self.v, self._num, self._den
        m *= b1
        np.multiply(1.0 - b1, g, out=num)
        m += num  # m = m*b1 + (1-b1)*g
        v *= b2
        np.multiply(1.0 - b2, g, out=num)
        num *= g
        v += num  # v = v*b2 + ((1-b2)*g)*g
        np.divide(m, bias1, out=num)
        num *= self.lr
        np.divide(v, bias2, out=den)
        np.sqrt(den, out=den)
        den += self.eps
        num /= den
        self.flat -= num
