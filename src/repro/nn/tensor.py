"""A numpy-backed tensor with reverse-mode automatic differentiation.

This module is the computational substrate of the reproduction.  The paper's
artifact runs on PyTorch; here we implement the minimal-but-real autograd
engine needed to actually *fine-tune* MoE transformers, so that gating
dynamics (expert locality, Theorem 1 stability) are measured on a live model
rather than assumed.

The design follows the classic tape-based approach: every differentiable
operation records its parents and a local backward closure on the result
tensor.  Calling :meth:`Tensor.backward` topologically sorts the graph,
accumulates gradients, and frees each node's closure as it passes it.

Only float64/float32 arrays are supported for differentiable tensors; integer
tensors may participate as non-differentiable inputs (e.g. embedding indices).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]

_grad_enabled = True

_default_dtype = np.dtype(np.float64)


def set_default_dtype(dtype) -> None:
    """Set the floating dtype new tensors and parameters are created with.

    ``float64`` (the default) keeps gradient checks tight; ``float32`` halves
    the memory bandwidth of every op in the training hot loop.  Only affects
    tensors built from non-array data (lists, scalars), the ``zeros``/``ones``
    factories, and :class:`~repro.nn.layers.Parameter` construction — arrays
    passed in explicitly keep their dtype.
    """
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"default dtype must be float32 or float64, got {dtype}")
    global _default_dtype
    _default_dtype = dtype


def get_default_dtype() -> np.dtype:
    """The current default floating dtype."""
    return _default_dtype


class default_dtype:
    """Context manager that temporarily switches the default floating dtype."""

    def __init__(self, dtype):
        self._dtype = dtype

    def __enter__(self) -> "default_dtype":
        self._prev = _default_dtype
        set_default_dtype(self._dtype)
        return self

    def __exit__(self, *exc) -> None:
        set_default_dtype(self._prev)


class no_grad:
    """Context manager that disables gradient tape recording.

    Mirrors ``torch.no_grad``: inside the block, operations never record
    backward closures, which makes pure-inference passes (e.g. the locality
    profiling pass before fine-tuning) cheaper.
    """

    def __enter__(self) -> "no_grad":
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc) -> None:
        global _grad_enabled
        _grad_enabled = self._prev


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd tape."""
    return _grad_enabled


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after numpy broadcasting.

    Broadcasting may have added leading axes or stretched size-1 axes; the
    gradient of a broadcast is the sum over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum out added leading dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along axes that were stretched from 1.
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A multidimensional array with optional gradient tracking.

    Parameters
    ----------
    data:
        Anything convertible to ``numpy.ndarray``.  Floating data defaults to
        ``float64`` to keep gradient checks tight.
    requires_grad:
        If True, operations involving this tensor are recorded and
        :meth:`backward` will populate :attr:`grad`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents", "name")

    # numpy defers binary operators to the reflected Tensor methods, so a
    # numpy scalar or array on the left stays on the autograd graph.
    __array_ufunc__ = None

    def __init__(self, data: ArrayLike, requires_grad: bool = False, name: str = ""):
        if isinstance(data, Tensor):
            data = data.data
        from_array = isinstance(data, np.ndarray)
        arr = np.asarray(data)
        if arr.dtype == np.float16:
            arr = arr.astype(np.float32)
        if requires_grad and not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(_default_dtype)
        elif (not from_array and np.issubdtype(arr.dtype, np.floating)
              and arr.dtype != _default_dtype):
            arr = arr.astype(_default_dtype)
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: tuple = ()
        self.name = name

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple:
        """Array shape."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total element count."""
        return self.data.size

    @property
    def dtype(self):
        """Underlying numpy dtype."""
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        """Transposed view (reverses all axes)."""
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad_note})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """The value of a single-element tensor as a float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a view of the data cut off from the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Deep copy of the data (same requires_grad)."""
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        """Clear accumulated gradients."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # graph construction helper
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(data: np.ndarray, parents: Iterable["Tensor"],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        parents = tuple(p for p in parents if isinstance(p, Tensor))
        requires = _grad_enabled and any(p.requires_grad for p in parents)
        # A full reduction returns a numpy scalar: keep its dtype, as the
        # constructor keeps an array's.
        out = Tensor(np.asarray(data), requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = np.asarray(grad)
        if self.grad is None:
            # Keep the grad's own precision (never silently downcast a
            # float64 grad onto a float32 leaf); the copy also materializes
            # broadcast views so the in-place accumulate below is safe.
            self.grad = grad.copy()
        else:
            target = np.result_type(self.grad.dtype, grad.dtype)
            if self.grad.dtype != target:
                self.grad = self.grad.astype(target)
            self.grad += grad

    # ------------------------------------------------------------------ #
    # backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        A graph backpropagates once (PyTorch's ``retain_graph=False``): as
        the walk passes each interior node, the node drops its backward
        closure, the arrays that closure saved, and its parents, so the
        graph's activations are freed while the backward runs.  A second
        ``backward`` that reaches a freed node raises ``RuntimeError``.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to 1 for scalar outputs; required for
            non-scalar outputs.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar backward()")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).copy()

        # Topological order over the reachable graph.  A tensor that does
        # not require grad (a frozen weight, an input) never receives one,
        # so the walk skips it.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        # Reverse topological order, popped off the list so the walk holds
        # no reference to a node it has passed.  Every interior node is
        # freed once it has pushed its gradient (or received none): the
        # sentinel closure stops a later walk from treating it as a leaf.
        grads: dict[int, np.ndarray] = {id(self): grad}
        owned: set[int] = set()
        while topo:
            node = topo.pop()
            node_grad = grads.pop(id(node), None)
            owned.discard(id(node))
            if node._backward is None:
                if node_grad is not None:
                    # Leaf tensor: accumulate into .grad.
                    node._accumulate(node_grad)
                continue
            if node_grad is not None:
                node._push_to_parents(node_grad, grads, owned)
            node._backward = _freed_backward
            node._parents = ()

    def _push_to_parents(self, grad: np.ndarray, grads: dict[int, np.ndarray],
                         owned: Optional[set] = None) -> None:
        """Invoke the local backward closure, routing gradients to parents.

        ``owned`` tracks buffers this backward pass allocated itself: those
        accumulate in place, while first contributions (which may alias the
        upstream grad or a broadcast view) are only summed out-of-place once.
        """
        if owned is None:
            owned = set()
        contributions = self._backward(grad)
        if contributions is None:
            return
        for parent, contribution in zip(self._parents, contributions):
            if contribution is None or not parent.requires_grad:
                continue
            contribution = _unbroadcast(np.asarray(contribution), parent.data.shape)
            key = id(parent)
            if key not in grads:
                grads[key] = contribution
            elif key in owned and grads[key].dtype == np.result_type(
                    grads[key].dtype, contribution.dtype):
                grads[key] += contribution
            else:
                grads[key] = grads[key] + contribution
                owned.add(key)

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = _as_tensor(other, self)
        out_data = self.data + other.data
        return Tensor._make(out_data, (self, other), lambda g: (g, g))

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = _as_tensor(other, self)
        out_data = self.data - other.data
        return Tensor._make(out_data, (self, other), lambda g: (g, -g))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return _as_tensor(other, self).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = _as_tensor(other, self)
        out_data = self.data * other.data
        a, b = self, other
        return Tensor._make(out_data, (a, b), lambda g: (g * b.data, g * a.data))

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = _as_tensor(other, self)
        out_data = self.data / other.data
        a, b = self, other
        return Tensor._make(
            out_data, (a, b),
            lambda g: (g / b.data, -g * a.data / (b.data * b.data)))

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return _as_tensor(other, self).__truediv__(self)

    def __neg__(self) -> "Tensor":
        return Tensor._make(-self.data, (self,), lambda g: (-g,))

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent
        a = self
        return Tensor._make(
            out_data, (a,),
            lambda g: (g * exponent * a.data ** (exponent - 1),))

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = _as_tensor(other)
        a, b = self, other
        out_data = a.data @ b.data

        def backward(g: np.ndarray):
            if b.data.ndim == 1:
                # (..., n) @ (n,) -> (...)
                ga = np.expand_dims(g, -1) * b.data
                gb = np.tensordot(g, a.data, axes=(range(g.ndim), range(g.ndim)))
            elif a.data.ndim == 1:
                # (n,) @ (n, m) -> (m,)
                ga = g @ np.swapaxes(b.data, -1, -2)
                gb = np.outer(a.data, g)
            else:
                ga = g @ np.swapaxes(b.data, -1, -2)
                gb = np.swapaxes(a.data, -1, -2) @ g
            return ga, gb

        return Tensor._make(out_data, (a, b), backward)

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum reduction (autograd-aware)."""
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        a = self

        def backward(g: np.ndarray):
            if axis is None:
                return (np.broadcast_to(g, a.data.shape),)
            g_exp = g
            if not keepdims:
                g_exp = np.expand_dims(g, axis)
            return (np.broadcast_to(g_exp, a.data.shape),)

        return Tensor._make(out_data, (a,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Mean reduction (autograd-aware)."""
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[ax] for ax in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum reduction (autograd-aware)."""
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        a = self

        def backward(g: np.ndarray):
            if axis is None:
                mask = (a.data == out_data)
                return (g * mask / mask.sum(),)
            g_exp, out_exp = g, out_data
            if not keepdims:
                g_exp = np.expand_dims(g, axis)
                out_exp = np.expand_dims(out_data, axis)
            mask = (a.data == out_exp)
            counts = mask.sum(axis=axis, keepdims=True)
            return (g_exp * mask / counts,)

        return Tensor._make(out_data, (a,), backward)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Variance reduction (autograd-aware)."""
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------ #
    # elementwise functions
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        out_data = np.exp(self.data)
        return Tensor._make(out_data, (self,), lambda g: (g * out_data,))

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""
        a = self
        return Tensor._make(np.log(self.data), (a,), lambda g: (g / a.data,))

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        out_data = np.sqrt(self.data)
        return Tensor._make(out_data, (self,), lambda g: (g * 0.5 / out_data,))

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic sigmoid."""
        out_data = 1.0 / (1.0 + np.exp(-self.data))
        return Tensor._make(out_data, (self,),
                            lambda g: (g * out_data * (1.0 - out_data),))

    def silu(self) -> "Tensor":
        """SiLU / swish activation ``x * sigmoid(x)`` used by Mistral-family FFNs."""
        sig = 1.0 / (1.0 + np.exp(-self.data))
        out_data = self.data * sig
        a = self
        return Tensor._make(
            out_data, (a,),
            lambda g: (g * (sig + a.data * sig * (1.0 - sig)),))

    def abs(self) -> "Tensor":
        """Elementwise absolute value."""
        a = self
        return Tensor._make(np.abs(self.data), (a,), lambda g: (g * np.sign(a.data),))

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values to ``[low, high]`` (zero gradient outside)."""
        a = self
        out_data = np.clip(self.data, low, high)
        mask = (a.data >= low) & (a.data <= high)
        return Tensor._make(out_data, (a,), lambda g: (g * mask,))

    # ------------------------------------------------------------------ #
    # shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        """Reshaped view with gradient support."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        out_data = self.data.reshape(shape)
        return Tensor._make(out_data, (a,), lambda g: (g.reshape(a.data.shape),))

    def transpose(self, *axes) -> "Tensor":
        """Axis permutation with gradient support."""
        a = self
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = tuple(np.argsort(axes))
        out_data = self.data.transpose(axes)
        return Tensor._make(out_data, (a,), lambda g: (g.transpose(inverse),))

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        """Swap two axes with gradient support."""
        a = self
        out_data = np.swapaxes(self.data, axis1, axis2)
        return Tensor._make(out_data, (a,), lambda g: (np.swapaxes(g, axis1, axis2),))

    def __getitem__(self, index) -> "Tensor":
        a = self
        if isinstance(index, Tensor):
            index = index.data
        out_data = self.data[index]

        def backward(g: np.ndarray):
            # 1-D non-negative integer row gathers (the common case in MoE
            # dispatch) scatter-add via the sorted segment reduce; negative
            # ids alias rows and need np.add.at's accumulation semantics.
            if (isinstance(index, np.ndarray) and index.ndim == 1
                    and index.size > 0
                    and np.issubdtype(index.dtype, np.integer)
                    and index.min() >= 0):
                return (_segment_sum_rows(g, index, a.data.shape[0]),)
            full = np.zeros_like(a.data, dtype=g.dtype)
            np.add.at(full, index, g)
            return (full,)

        return Tensor._make(out_data, (a,), backward)

    def expand_dims(self, axis: int) -> "Tensor":
        """Insert a size-1 axis."""
        a = self
        out_data = np.expand_dims(self.data, axis)
        return Tensor._make(out_data, (a,), lambda g: (np.squeeze(g, axis=axis),))

    def squeeze(self, axis: Optional[int] = None) -> "Tensor":
        """Remove size-1 axes."""
        a = self
        out_data = np.squeeze(self.data, axis=axis)
        return Tensor._make(out_data, (a,), lambda g: (g.reshape(a.data.shape),))


def _freed_backward(grad: np.ndarray):
    """The closure of an interior node a backward pass has freed."""
    raise RuntimeError("backward through a graph that has already been "
                       "backpropagated: its saved arrays are freed, so run "
                       "the forward again")


def _segment_sum_rows(values: np.ndarray, row_ids: np.ndarray,
                      num_rows: int) -> np.ndarray:
    """Sum rows of ``values`` sharing a row id into a ``(num_rows, ...)`` array.

    Equivalent to ``np.add.at(zeros, row_ids, values)`` but vectorized: sort
    the ids once (skipped when already sorted) and segment-reduce with
    ``np.add.reduceat``.  ``np.add.at`` falls back to a scalar inner loop and
    is the single slowest primitive in the MoE dispatch backward.
    """
    out = np.zeros((num_rows,) + values.shape[1:], dtype=values.dtype)
    n = row_ids.shape[0]
    if n == 0:
        return out
    if n > 1 and np.any(row_ids[1:] < row_ids[:-1]):
        order = np.argsort(row_ids, kind="stable")
        sorted_ids = row_ids[order]
        sorted_values = values[order]
    else:
        sorted_ids = row_ids
        sorted_values = values
    starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
    out[sorted_ids[starts]] = np.add.reduceat(sorted_values, starts, axis=0)
    return out


_SCALARS = (int, float, np.integer, np.floating)


def _as_tensor(value: ArrayLike, like: Optional[Tensor] = None) -> Tensor:
    """``value`` as a :class:`Tensor`.

    A Python or numpy scalar meeting a floating ``like`` takes ``like``'s
    dtype, as numpy's own weak scalars do.  Built in the default dtype
    instead, it would be a strongly typed 0-d array under NumPy 2: a float64
    ``1/n`` or ``eps`` promotes every float32 op it touches to float64.
    """
    if isinstance(value, Tensor):
        return value
    if (like is not None and isinstance(value, _SCALARS)
            and like.data.dtype.kind == "f"):
        return Tensor(np.asarray(value, dtype=like.data.dtype))
    return Tensor(value)



def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Construct a :class:`Tensor` (convenience mirror of ``torch.tensor``)."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(*shape, requires_grad: bool = False) -> Tensor:
    """Zero-filled tensor/array of the given shape (default floating dtype)."""
    return Tensor(np.zeros(shape, dtype=_default_dtype), requires_grad=requires_grad)


def ones(*shape, requires_grad: bool = False) -> Tensor:
    """One-filled tensor of the given shape (default floating dtype)."""
    return Tensor(np.ones(shape, dtype=_default_dtype), requires_grad=requires_grad)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray):
        slices = []
        for i in range(len(tensors)):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(offsets[i], offsets[i + 1])
            slices.append(g[tuple(idx)])
        return tuple(slices)

    return Tensor._make(out_data, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient support."""
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g: np.ndarray):
        parts = np.split(g, len(tensors), axis=axis)
        return tuple(np.squeeze(p, axis=axis) for p in parts)

    return Tensor._make(out_data, tensors, backward)


def where(condition: ArrayLike, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise select with gradients flowing to both branches."""
    cond = condition.data if isinstance(condition, Tensor) else np.asarray(condition)
    a_t = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b_t = _as_tensor(b, a_t)
    out_data = np.where(cond, a_t.data, b_t.data)
    return Tensor._make(out_data, (a_t, b_t),
                        lambda g: (g * cond, g * (~np.asarray(cond, dtype=bool))))
