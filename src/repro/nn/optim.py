"""Optimizers: SGD (used by the Theorem-1 analysis) and AdamW (used for LoRA
fine-tuning, matching the paper's hyperparameters: lr 3e-5, betas (0.8, 0.999),
eps 1e-8, weight decay 3e-7).
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from .layers import Parameter


class Optimizer:
    """Base optimizer over a fixed list of parameters."""

    def __init__(self, params: Iterable[Parameter]):
        self.params: List[Parameter] = [p for p in params if p.requires_grad]
        if not self.params:
            raise ValueError("optimizer received no trainable parameters")

    def zero_grad(self) -> None:
        """Clear accumulated gradients."""
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        """Apply one update."""
        raise NotImplementedError


class SGD(Optimizer):
    """Plain (optionally momentum) stochastic gradient descent.

    Theorem 1 of the paper assumes ``w_t = w_{t-1} - mu * grad``; this class
    with ``momentum=0`` implements exactly that update.
    """

    def __init__(self, params: Iterable[Parameter], lr: float,
                 momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(params)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """Apply one update."""
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += grad
                grad = v
            p.data = p.data - self.lr * grad


class AdamW(Optimizer):
    """AdamW with decoupled weight decay.

    Defaults follow the paper's fine-tuning settings (Section V-A).

    The moments of all parameters of one dtype live in one preallocated
    flat buffer each; ``_m[i]`` and ``_v[i]`` are views of parameter
    ``i``'s segment.  :meth:`step` gathers every gradient and
    parameter into preallocated flat scratch buffers and updates each
    dtype with a handful of whole-buffer ops: no allocation scales with
    the parameter count, and the arithmetic is the per-tensor update's,
    bit for bit.  A gradient is read in its parameter's dtype.
    """

    def __init__(self, params: Iterable[Parameter], lr: float = 3e-5,
                 betas: tuple = (0.8, 0.999), eps: float = 1e-8,
                 weight_decay: float = 3e-7):
        super().__init__(params)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not (0.0 <= betas[0] < 1.0 and 0.0 <= betas[1] < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m: List[np.ndarray] = [None] * len(self.params)
        self._v: List[np.ndarray] = [None] * len(self.params)
        self._groups = []
        for dtype in dict.fromkeys(p.data.dtype for p in self.params):
            index = [i for i, p in enumerate(self.params)
                     if p.data.dtype == dtype]
            group = _FlatGroup([self.params[i] for i in index], dtype)
            for i, m, v in zip(index, group.views(group.m),
                               group.views(group.v)):
                self._m[i], self._v[i] = m, v
            self._groups.append(group)

    def step(self) -> None:
        """Apply one update to every parameter that has a gradient; one
        without keeps its value and its moments."""
        self._step += 1
        bias1 = 1.0 - self.beta1 ** self._step
        bias2 = 1.0 - self.beta2 ** self._step
        for group in self._groups:
            where = group.gather()
            if where is None:
                continue
            m, v, g, p, t = group.m, group.v, group.grad, group.param, \
                group.scratch
            np.multiply(m, self.beta1, out=m, where=where)
            np.multiply(g, 1.0 - self.beta1, out=t)
            np.add(m, t, out=m, where=where)
            np.multiply(v, self.beta2, out=v, where=where)
            np.multiply(g, 1.0 - self.beta2, out=t)
            t *= g
            np.add(v, t, out=v, where=where)
            np.divide(v, bias2, out=t)
            np.sqrt(t, out=t)
            t += self.eps
            np.divide(m, bias1, out=g)
            g /= t                                   # the update
            if self.weight_decay:
                np.multiply(p, self.weight_decay, out=t)
                g += t
            g *= self.lr
            p -= g
            for param, new in zip(group.params, group.param_views):
                if param.grad is not None:
                    param.data = new.copy()


class _FlatGroup:
    """One dtype's flat AdamW state and scratch: moments ``m``/``v`` plus
    ``grad``, ``param`` and ``scratch`` buffers, with ``params`` laid out
    back to back in order."""

    def __init__(self, params: List[Parameter], dtype):
        self.params = params
        self.shapes = [p.data.shape for p in params]
        sizes = [p.data.size for p in params]
        self.bounds = np.concatenate([[0], np.cumsum(sizes)]).tolist()
        total = self.bounds[-1]
        self.m, self.v, self.grad, self.param, self.scratch = (
            np.zeros(total, dtype=dtype) for _ in range(5))
        self.param_views = self.views(self.param)
        self.mask = np.ones(total, dtype=bool)
        self.zeros = np.zeros(max(sizes), dtype=dtype)

    def views(self, flat: np.ndarray) -> List[np.ndarray]:
        """``flat`` cut into the parameters' shaped views."""
        return [flat[a:b].reshape(shape) for a, b, shape in
                zip(self.bounds, self.bounds[1:], self.shapes)]

    def gather(self):
        """Copy gradients (zeros where missing) and values into ``grad``
        and ``param``.  Returns the ``where=`` mask of the elements to
        update: ``True`` when every parameter has a gradient, ``None``
        when none has."""
        params = self.params
        grads = [p.grad for p in params]
        missing = [i for i, grad in enumerate(grads) if grad is None]
        if len(missing) == len(params):
            return None
        for i in missing:
            grads[i] = self.zeros[:params[i].data.size]
        np.concatenate(grads, axis=None, out=self.grad, casting="same_kind")
        np.concatenate([p.data for p in params], axis=None, out=self.param)
        if not missing:
            return True
        self.mask[:] = True
        for i in missing:
            self.mask[self.bounds[i]:self.bounds[i + 1]] = False
        return self.mask


class GradClipper:
    """Global-norm gradient clipping helper."""

    def __init__(self, max_norm: float):
        if max_norm <= 0:
            raise ValueError("max_norm must be positive")
        self.max_norm = max_norm

    def clip(self, params: Iterable[Parameter]) -> float:
        """Scale gradients in place; return the pre-clip global norm."""
        params = [p for p in params if p.grad is not None]
        total = float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in params)))
        if total > self.max_norm and total > 0:
            scale = self.max_norm / total
            for p in params:
                p.grad = p.grad * scale
        return total
