"""RMSprop with a leaky squared-gradient cache.

cache <- rho * cache + (1 - rho) * g^2
theta <- theta - lr * g / (sqrt(cache) + eps)

The epsilon sits outside the square root. All state lives in this object, so
two optimizers stepped with identical gradients stay bit-identical.
"""

from __future__ import annotations

import numpy as np

from .engine import Parameter

LR = 0.0002
RHO = 0.9
EPS = 1e-6


class RMSprop:
    def __init__(self, params: list[Parameter], lr: float = LR):
        if not 0 < lr < np.inf:
            raise ValueError(f"lr must be positive and finite, got {lr}")
        self.params = list(params)
        self.lr = float(lr)
        self.cache = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        # the float operations of the formulas above, in their order, in
        # place on two temporaries per parameter
        for p, c in zip(self.params, self.cache):
            g = p.grad
            c *= RHO
            t = (1.0 - RHO) * g
            t *= g
            c += t
            np.sqrt(c, out=t)
            t += EPS
            u = self.lr * g
            u /= t
            p.data -= u.astype(p.data.dtype, copy=False)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
