"""Neural-network modules: parameter containers and common layers.

The :class:`Module` base class provides recursive parameter discovery,
train/eval mode switching, and named-parameter iteration — the minimum
surface needed by the LoRA injector and the optimizers.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from . import init as initializers
from .functional import dropout as dropout_fn
from .functional import embedding_lookup, rms_norm, rms_normalize
from .tensor import Tensor, is_grad_enabled


class Parameter(Tensor):
    """A :class:`Tensor` that is a trainable leaf by default.

    Floating data is cast to the module-level default dtype (see
    :func:`repro.nn.tensor.set_default_dtype`), so building a model under
    ``set_default_dtype(np.float32)`` yields a float32 model end to end.
    """

    def __init__(self, data, requires_grad: bool = True, name: str = ""):
        super().__init__(data, requires_grad=requires_grad, name=name)
        from .tensor import get_default_dtype
        target = get_default_dtype()
        if np.issubdtype(self.data.dtype, np.floating) and self.data.dtype != target:
            self.data = self.data.astype(target)


class Module:
    """Base class for all layers.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; these are discovered automatically for iteration and
    freezing.
    """

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------ #
    # discovery
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth-first."""
        for attr, value in vars(self).items():
            name = f"{prefix}{attr}" if prefix else attr
            if isinstance(value, Parameter):
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{name}.{i}.")
                    elif isinstance(item, Parameter):
                        yield f"{name}.{i}", item
            elif isinstance(value, dict):
                for key, item in value.items():
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{name}.{key}.")
                    elif isinstance(item, Parameter):
                        yield f"{name}.{key}", item

    def parameters(self) -> List[Parameter]:
        """All parameters, depth-first."""
        return [p for _, p in self.named_parameters()]

    def trainable_parameters(self) -> List[Parameter]:
        """Parameters with ``requires_grad`` set."""
        return [p for p in self.parameters() if p.requires_grad]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        """Yield ``(dotted_name, module)`` including self (with empty name)."""
        yield prefix.rstrip("."), self
        for attr, value in vars(self).items():
            name = f"{prefix}{attr}" if prefix else attr
            if isinstance(value, Module):
                yield from value.named_modules(prefix=f"{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_modules(prefix=f"{name}.{i}.")
            elif isinstance(value, dict):
                for key, item in value.items():
                    if isinstance(item, Module):
                        yield from item.named_modules(prefix=f"{name}.{key}.")

    # ------------------------------------------------------------------ #
    # state
    # ------------------------------------------------------------------ #
    def zero_grad(self) -> None:
        """Clear accumulated gradients."""
        for p in self.parameters():
            p.grad = None

    def freeze(self) -> None:
        """Mark every parameter as non-trainable (used for the pre-trained base)."""
        for p in self.parameters():
            p.requires_grad = False

    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively."""
        for _, module in self.named_modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively."""
        return self.train(False)

    def num_parameters(self, trainable_only: bool = False) -> int:
        """Total (or trainable-only) parameter count."""
        params = self.trainable_parameters() if trainable_only else self.parameters()
        return int(sum(p.size for p in params))

    # ------------------------------------------------------------------ #
    # call protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        """Run the forward computation."""
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Inference-only forward on plain arrays (gradients disabled).

        The default wraps :meth:`forward`.  Layers on the live serving
        path override it with a Tensor-free kernel that does the same
        arithmetic in the same order, so the two agree bit for bit.
        """
        return self.forward(Tensor(x)).data


class Linear(Module):
    """Affine layer ``y = x W^T + b`` with Kaiming-uniform initialization."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            initializers.kaiming_uniform(rng, (out_features, in_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        """Run the forward computation."""
        if not is_grad_enabled() and isinstance(x, Tensor):
            # Inference fast path: identical GEMM on the raw arrays, without
            # allocating the transpose/matmul/add graph nodes.
            return Tensor(self.infer(x.data))
        out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out

    def infer(self, x: np.ndarray) -> np.ndarray:
        """``x W^T + b`` on plain arrays."""
        out = x @ self.weight.data.T
        if self.bias is not None:
            out += self.bias.data
        return out


class Embedding(Module):
    """Token-id to vector lookup table."""

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(initializers.normal(rng, (num_embeddings, embedding_dim),
                                                    std=0.02))

    def forward(self, indices) -> Tensor:
        """Run the forward computation."""
        return embedding_lookup(self.weight, indices)

    def infer(self, indices) -> np.ndarray:
        """The row gather on plain arrays."""
        return self.weight.data[np.asarray(indices, dtype=np.int64)]


class RMSNorm(Module):
    """Root-mean-square norm (the normalization Mistral-family models use)."""

    def __init__(self, dim: int, eps: float = 1e-6):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.weight = Parameter(np.ones(dim))

    def forward(self, x: Tensor) -> Tensor:
        """``x / sqrt(mean(x²) + eps) * w`` as one
        :func:`~repro.nn.functional.rms_norm` node."""
        return rms_norm(x, self.weight, self.eps)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward`'s arithmetic on plain arrays."""
        return rms_normalize(x, self.eps)[0] * self.weight.data


class Dropout(Module):
    """Inverted dropout layer (active only in training mode)."""

    def __init__(self, p: float = 0.1, seed: int = 0):
        super().__init__()
        self.p = p
        self._rng = np.random.default_rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        """Run the forward computation."""
        return dropout_fn(x, self.p, self._rng, training=self.training)


class Sequential(Module):
    """Chain modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.layers = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        """Run the forward computation."""
        for layer in self.layers:
            x = layer(x)
        return x

    def __getitem__(self, i: int) -> Module:
        return self.layers[i]

    def __len__(self) -> int:
        return len(self.layers)
