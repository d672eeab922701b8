"""A graph backpropagates once, and frees itself as it does.

``Tensor.backward`` is held to :func:`tests.oracles.retained_backward`,
the walk that keeps every node, on random graphs of ``Tensor`` ops with
shared sub-expressions and of the fused kernels: leaf gradients bitwise
equal, every interior node left without parents, and a second backward
through the graph, from its output or from an interior node, raising
``RuntimeError``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor
from repro.nn.functional import (attention, fused_swiglu, index_select,
                                 lora_linear, rms_norm)
from tests.oracles import retained_backward

FREED = "already been backpropagated"

BINARY = ("add", "sub", "mul", "broadcast")
OPS = BINARY + ("matmul", "getitem", "lora_linear", "attention", "rms_norm",
                "fused_swiglu", "index_select")


@st.composite
def graph_cases(draw):
    return dict(
        rows=draw(st.integers(1, 4)), heads=draw(st.sampled_from([1, 2])),
        head_dim=draw(st.integers(1, 3)),
        inputs=draw(st.lists(st.booleans(), min_size=1, max_size=4)),
        ops=draw(st.lists(st.tuples(st.sampled_from(OPS),
                                    st.integers(0, 7), st.integers(0, 7)),
                          min_size=1, max_size=8)),
        seed=draw(st.integers(0, 2 ** 16)))


class RandomGraph:
    """One build of a case's graph: its input leaves (``requires_grad`` as
    drawn), the parameter leaves the kernels take (``requires_grad`` from
    the seed), every interior node, and the scalar ``output``.  Operands
    are picked from every node built so far, so a node feeding two later
    ones makes a diamond; every node reaches the output."""

    def __init__(self, case):
        self.rng = np.random.default_rng(case["seed"])
        self.rows = case["rows"]
        self.heads = case["heads"]
        self.dim = case["heads"] * case["head_dim"]
        self.leaves, self.interior = [], []
        pool = [self.leaf(self.rows, self.dim, requires_grad=flag)
                for flag in case["inputs"]]
        unused = list(pool)
        for op, i, j in case["ops"]:
            a, b = pool[i % len(pool)], pool[j % len(pool)]
            used = (a, b) if op in BINARY else (a,)
            unused = [t for t in unused if all(t is not u for u in used)]
            out = getattr(self, op)(*used)
            pool.append(out)
            unused.append(out)
        total = unused[0]
        for t in unused[1:]:
            total = self.node(total + t)
        self.output = self.node(total.sum())

    def leaf(self, *shape, requires_grad=None):
        if requires_grad is None:
            requires_grad = bool(self.rng.integers(2))
        t = Tensor(self.rng.normal(size=shape), requires_grad=requires_grad)
        self.leaves.append(t)
        return t

    def node(self, t):
        self.interior.append(t)
        return t

    def adapter(self, fan_in, fan_out):
        """A LoRA ``(A, B, scaling, mask or None)`` entry."""
        rank = int(self.rng.integers(1, 3))
        mask = None
        if self.rng.integers(2):
            mask = (self.rng.random((self.rows, fan_in)) > 0.3) / 0.7
        return (self.leaf(rank, fan_in), self.leaf(fan_out, rank), 0.5, mask)

    def add(self, a, b):
        return self.node(a + b)

    def sub(self, a, b):
        return self.node(a - b)

    def mul(self, a, b):
        return self.node(a * b)

    def matmul(self, a):
        return self.node(a @ self.leaf(self.dim, self.dim))

    def getitem(self, a):
        return self.node(a[self.rng.integers(0, self.rows, self.rows)])

    def broadcast(self, a, b):
        return self.node(a * self.node(b.sum(axis=0, keepdims=True)))

    def lora_linear(self, a):
        lora_a, lora_b, scaling, mask = self.adapter(self.dim, self.dim)
        bias = self.leaf(self.dim) if self.rng.integers(2) else None
        return self.node(lora_linear(a, self.leaf(self.dim, self.dim),
                                     lora_a, lora_b, scaling, mask, bias))

    def attention(self, a):
        projections = []
        for _ in range(4):
            bias = self.leaf(self.dim) if self.rng.integers(2) else None
            adapter = (self.adapter(self.dim, self.dim)
                       if self.rng.integers(2) else None)
            projections.append((self.leaf(self.dim, self.dim), bias,
                                adapter))
        x = self.node(a.reshape(1, self.rows, self.dim))
        out = self.node(attention(x, projections, self.heads,
                                  causal=bool(self.rng.integers(2))))
        return self.node(out.reshape(self.rows, self.dim))

    def rms_norm(self, a):
        return self.node(rms_norm(a, self.leaf(self.dim), 1e-6))

    def fused_swiglu(self, a):
        ffn = int(self.rng.integers(1, 4))
        lora = None
        if self.rng.integers(2):
            lora = [self.adapter(self.dim, ffn), self.adapter(self.dim, ffn),
                    self.adapter(ffn, self.dim)]
        return self.node(fused_swiglu(a, self.leaf(ffn, self.dim),
                                      self.leaf(ffn, self.dim),
                                      self.leaf(self.dim, ffn), lora))

    def index_select(self, a):
        if self.rng.integers(2):
            return self.node(index_select(a, self.rng.permutation(self.rows),
                                          unique_rows=True))
        return self.node(index_select(
            a, self.rng.integers(0, self.rows, self.rows)))


def _grad_bytes(graph):
    return [None if t.grad is None else (t.grad.dtype, t.grad.tobytes())
            for t in graph.leaves]


@settings(max_examples=100, deadline=None)
@given(graph_cases())
def test_backward_matches_retained_walk_and_frees_the_graph(case):
    oracle, graph = RandomGraph(case), RandomGraph(case)
    if not graph.output.requires_grad:
        with pytest.raises(RuntimeError):
            graph.output.backward()
        return
    retained_backward(oracle.output)
    graph.output.backward()
    assert _grad_bytes(graph) == _grad_bytes(oracle)
    assert all(node._parents == () for node in graph.interior)
    grads = _grad_bytes(graph)
    with pytest.raises(RuntimeError, match=FREED):
        graph.output.backward()
    tracked = [t for t in graph.interior if t.requires_grad]
    inner = tracked[int(graph.rng.integers(len(tracked)))]
    with pytest.raises(RuntimeError, match=FREED):
        inner.backward(np.ones_like(inner.data))
    assert _grad_bytes(graph) == grads
    # The oracle kept its graph: it backpropagates again and doubles.
    retained_backward(oracle.output)
    for kept, once in zip(oracle.leaves, graph.leaves):
        if once.grad is not None:
            np.testing.assert_array_equal(kept.grad, once.grad + once.grad)


class TestOnePass:
    def test_interior_node_without_gradient_is_freed(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        hidden = a * 2.0
        out = Tensor._make(hidden.data.sum(), (hidden, a),
                           lambda g: (None, np.full(2, g)))
        out.backward()
        np.testing.assert_array_equal(a.grad, [1.0, 1.0])
        assert hidden._parents == () and out._parents == ()
        with pytest.raises(RuntimeError, match=FREED):
            hidden.backward(np.ones(2))

    def test_graph_built_on_a_freed_node_raises(self):
        a = Tensor([3.0], requires_grad=True)
        b = a * a
        b.sum().backward()
        with pytest.raises(RuntimeError, match=FREED):
            (b * 2.0).sum().backward()
        np.testing.assert_array_equal(a.grad, [6.0])

    def test_leaf_backward_repeats(self):
        a = Tensor(2.0, requires_grad=True)
        a.backward()
        a.backward()
        assert a.grad == 2.0
