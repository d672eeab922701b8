"""Stateless differentiable functions built on :class:`repro.nn.tensor.Tensor`.

These cover what an MoE transformer needs: numerically stable softmax /
log-softmax, cross-entropy over token logits, embedding lookup, top-k
selection (used by the MoE gate), and a handful of helpers.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .tensor import Tensor, _as_tensor, _segment_sum_rows


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray):
        # d softmax = s * (g - sum(g * s))
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (g - dot),)

    return Tensor._make(out_data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_norm
    soft = np.exp(out_data)

    def backward(g: np.ndarray):
        return (g - soft * g.sum(axis=axis, keepdims=True),)

    return Tensor._make(out_data, (x,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  ignore_index: Optional[int] = None) -> Tensor:
    """Mean cross-entropy between ``logits`` and integer ``targets``.

    Parameters
    ----------
    logits:
        Shape ``(..., vocab)``.
    targets:
        Integer array broadcastable to ``logits.shape[:-1]``.
    ignore_index:
        Target value whose positions are excluded from the mean (e.g. padding).
    """
    logits = _as_tensor(logits)
    targets = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
    flat_logits = logits.reshape(-1, logits.shape[-1])
    flat_targets = targets.reshape(-1).astype(np.int64)

    if ignore_index is not None:
        mask = flat_targets != ignore_index
    else:
        mask = np.ones(flat_targets.shape, dtype=bool)
    count = int(mask.sum())
    if count == 0:
        raise ValueError("cross_entropy received no valid targets")

    logp = log_softmax(flat_logits, axis=-1)
    rows = np.arange(flat_targets.shape[0])
    safe_targets = np.where(mask, flat_targets, 0)
    picked_data = logp.data[rows, safe_targets]
    loss_value = -(picked_data * mask).sum() / count

    def backward(g: np.ndarray):
        grad = np.zeros_like(logp.data)
        grad[rows, safe_targets] = -(mask.astype(logp.data.dtype)) / count
        return (grad * g,)

    return Tensor._make(np.asarray(loss_value), (logp,), backward)


def embedding_lookup(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of ``weight`` by integer ``indices`` (differentiable)."""
    weight = _as_tensor(weight)
    indices = indices.data if isinstance(indices, Tensor) else np.asarray(indices)
    indices = indices.astype(np.int64)
    out_data = weight.data[indices]

    def backward(g: np.ndarray):
        grad = np.zeros_like(weight.data)
        np.add.at(grad, indices.reshape(-1), g.reshape(-1, weight.shape[-1]))
        return (grad,)

    return Tensor._make(out_data, (weight,), backward)


def top_k(x: np.ndarray, k: int, axis: int = -1) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(values, indices)`` of the ``k`` largest entries along ``axis``.

    Indices are ordered by descending value, matching ``torch.topk``; exact
    ties keep ascending index order (one stable sort), so a tied route is
    deterministic.  This is a non-differentiable helper shared by the MoE
    gate's training and inference paths (the gradient flows through the
    softmax weights, not through the argmax).  The sort is over the whole
    axis — the gate's axis is the expert count.
    """
    x = x.data if isinstance(x, Tensor) else np.asarray(x)
    size = x.shape[axis]
    if k <= 0 or k > size:
        raise ValueError(f"k={k} out of range for axis of size {size}")
    if axis not in (-1, x.ndim - 1):
        vals, idx = top_k(np.moveaxis(x, axis, -1), k)
        return np.moveaxis(vals, -1, axis), np.moveaxis(idx, -1, axis)
    order = np.argsort(-x, axis=-1, kind="stable")
    idx = np.ascontiguousarray(order[..., :k])
    # A flat gather: take_along_axis costs several times more on the
    # gate's small arrays.
    rows = x.reshape(-1, size)
    picked = idx.reshape(-1, k)
    vals = rows[np.arange(rows.shape[0])[:, None], picked].reshape(idx.shape)
    return vals, idx


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer indices to a one-hot float array (non-differentiable)."""
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros(indices.shape + (num_classes,), dtype=np.float64)
    np.put_along_axis(out, indices[..., None], 1.0, axis=-1)
    return out


def dropout_mask(rng: np.random.Generator, shape: tuple, p: float,
                 dtype) -> np.ndarray:
    """An inverted-dropout mask: ``0`` with probability ``p``, else
    ``1 / (1 - p)``, in ``dtype`` so a float32 input stays float32."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    return ((rng.random(shape) >= p) / (1.0 - p)).astype(dtype, copy=False)


def dropout(x: Tensor, p: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout; identity when ``training`` is False or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    x = _as_tensor(x)
    mask = dropout_mask(rng, x.shape, p, x.dtype)
    out_data = x.data * mask
    return Tensor._make(out_data, (x,), lambda g: (g * mask,))


def index_select(x: Tensor, row_ids: np.ndarray,
                 unique_rows: bool = False) -> Tensor:
    """Differentiable row gather ``x[row_ids]`` for 1-D integer ``row_ids``.

    The backward pass scatter-adds through :func:`_segment_sum_rows` instead
    of the generic ``np.add.at`` fallback of ``Tensor.__getitem__`` — this is
    the fast path the fused MoE dispatch uses to hand each expert its token
    batch.  Pass ``unique_rows=True`` when the caller guarantees ``row_ids``
    are pairwise distinct (one expert's segment never repeats a token, since
    the gate's top-k choices are distinct): the backward then degenerates to
    an assignment scatter, skipping the segment reduction entirely.
    """
    x = _as_tensor(x)
    row_ids = np.asarray(row_ids, dtype=np.int64)
    if row_ids.ndim != 1:
        raise ValueError("index_select expects 1-D row ids")
    out_data = x.data[row_ids]
    num_rows = x.data.shape[0]

    def backward(g: np.ndarray):
        if unique_rows:
            grad = np.zeros((num_rows,) + g.shape[1:], dtype=g.dtype)
            grad[row_ids] = g
            return (grad,)
        return (_segment_sum_rows(g, row_ids, num_rows),)

    return Tensor._make(out_data, (x,), backward)


def take_along_rows(x: Tensor, col_ids: np.ndarray) -> Tensor:
    """Differentiable per-row column gather ``x[i, col_ids[i, j]]``.

    ``col_ids`` must hold distinct columns within each row (true for top-k
    selections), so the backward is a plain ``put_along_axis`` assignment —
    no atomic scatter-add needed.  This is the gate's hot path for picking
    the selected experts' scores out of the ``(tokens, num_experts)`` softmax.
    """
    x = _as_tensor(x)
    col_ids = np.asarray(col_ids, dtype=np.int64)
    if x.data.ndim != 2 or col_ids.ndim != 2:
        raise ValueError("take_along_rows expects 2-D input and 2-D col_ids")
    out_data = np.take_along_axis(x.data, col_ids, axis=1)

    def backward(g: np.ndarray):
        grad = np.zeros(x.data.shape, dtype=g.dtype)
        np.put_along_axis(grad, col_ids, g, axis=1)
        return (grad,)

    return Tensor._make(out_data, (x,), backward)


def scatter_rows(values: Tensor, row_ids: np.ndarray, num_rows: int) -> Tensor:
    """Scatter-add ``values`` (shape ``(n, d)``) into a zero matrix of shape
    ``(num_rows, d)`` at rows ``row_ids``.

    This is the token "combine" step of an MoE block: expert outputs computed
    on a token subset are added back at the tokens' original positions.
    Differentiable in ``values``.
    """
    values = _as_tensor(values)
    row_ids = np.asarray(row_ids, dtype=np.int64)
    if row_ids.ndim != 1 or values.data.ndim != 2:
        raise ValueError("scatter_rows expects 1-D row_ids and 2-D values")
    if row_ids.shape[0] != values.data.shape[0]:
        raise ValueError("row_ids and values must agree on the first dimension")
    out_data = _segment_sum_rows(values.data, row_ids, num_rows)

    def backward(g: np.ndarray):
        return (g[row_ids],)

    return Tensor._make(out_data, (values,), backward)


def _flat(a: np.ndarray) -> np.ndarray:
    """``a`` as a 2-D ``(rows, features)`` matrix (no-op when 2-D)."""
    return a if a.ndim == 2 else a.reshape(-1, a.shape[-1])


def _project(x: np.ndarray, w: np.ndarray, adapter=None, bias=None):
    """One projection ``x Wᵀ (+ b)``, plus the low-rank branch
    ``((x·mask) Aᵀ) Bᵀ · s`` when ``adapter = (A, B, s, mask or None)``.

    Works on the input's own shape, in the layered ``Linear`` +
    ``LoRALinear`` op order, so the result matches that chain bit for bit.
    Returns ``(y, r)``; ``r`` (``None`` without an adapter) is all
    :func:`_project_backward` needs besides ``x``.
    """
    y = x @ w.T
    if bias is not None:
        y = y + bias
    if adapter is None:
        return y, None
    a, b, s, mask = adapter
    r = (x if mask is None else x * mask) @ a.T
    return y + (r @ b.T) * s, r


def _project_backward(g: np.ndarray, x: np.ndarray, w: np.ndarray, adapter,
                      r, need_x: bool, need_w: bool, need_a: bool = False,
                      need_b: bool = False):
    """Gradients ``(gx, gW, gA, gB)`` of :func:`_project`; ``None`` for
    any not needed, so a frozen ``W`` costs no GEMM.  The branch input
    ``x·mask`` is rebuilt from ``x`` by the forward's op, so it is never
    saved."""
    gx = g @ w if need_x else None
    gw = _flat(g).T @ _flat(x) if need_w else None
    if adapter is None:
        return gx, gw, None, None
    a, b, s, mask = adapter
    gs = g * s
    gr = gs @ b
    ga = None
    if need_a:
        ga = _flat(gr).T @ _flat(x if mask is None else x * mask)
    gb = _flat(gs).T @ _flat(r) if need_b else None
    if need_x:
        gxm = gr @ a
        if mask is not None:
            gxm *= mask
        gx += gxm
    return gx, gw, ga, gb


def lora_linear(x: Tensor, weight: Tensor, lora_a: Tensor, lora_b: Tensor,
                scaling: float, mask: Optional[np.ndarray] = None,
                bias: Optional[Tensor] = None) -> Tensor:
    """LoRA projection ``x Wᵀ + b + ((x·mask) Aᵀ) Bᵀ · s`` as one node.

    The forward is the layered ``Linear`` + low-rank chain's, bit for bit;
    the backward skips the GEMM of every input that does not require grad
    (the frozen ``W`` of the fine-tuning recipe).  ``mask`` is the
    inverted-dropout mask of the branch input, or ``None``.
    """
    adapter = (lora_a.data, lora_b.data, scaling, mask)
    y, r = _project(x.data, weight.data, adapter,
                    None if bias is None else bias.data)
    parents = (x, weight, lora_a, lora_b) + ((bias,) if bias is not None
                                             else ())

    def backward(g: np.ndarray):
        grads = _project_backward(g, x.data, weight.data, adapter, r,
                                  x.requires_grad, weight.requires_grad,
                                  lora_a.requires_grad, lora_b.requires_grad)
        if bias is None or not bias.requires_grad:
            return grads
        return (*grads, _flat(g).sum(axis=0))

    return Tensor._make(y, parents, backward)


def rms_normalize(x: np.ndarray, eps: float):
    """``(x / rms, rms)`` with ``rms = sqrt(mean(x²) + eps)`` over the last
    axis, on plain arrays: the layered ``Tensor`` chain's ops (``mean`` is
    a sum times ``1/n``), every scalar in ``x``'s dtype."""
    ms = (x * x).sum(axis=-1, keepdims=True) * (1.0 / x.shape[-1])
    rms = np.sqrt(ms + float(eps))
    return x / rms, rms


def rms_norm(x: Tensor, weight: Tensor, eps: float) -> Tensor:
    """RMSNorm ``x / sqrt(mean(x²) + eps) * w`` over the last axis as one
    node.

    The forward is :func:`rms_normalize` times ``w``, the layered chain's
    bit for bit; the backward is ``(g·w - x̂ · mean(g·w·x̂)) / rms`` with
    ``x̂ = x / rms``.  Only ``rms`` is saved: the backward rebuilds ``x̂``
    from ``x``, whose data the graph holds anyway, by the forward's own
    division, so it has the forward's bits.
    """
    w = weight.data
    n = x.shape[-1]
    normed, rms = rms_normalize(x.data, eps)

    def backward(g: np.ndarray):
        normed = x.data / rms
        gw = _flat(g * normed).sum(axis=0) if weight.requires_grad else None
        if not x.requires_grad:
            return None, gw
        gn = g * w
        dot = (gn * normed).sum(axis=-1, keepdims=True) * (1.0 / n)
        gn -= normed * dot
        gn /= rms
        return gn, gw

    return Tensor._make(normed * w, (x, weight), backward)


def causal_mask(seq_len: int, dtype=np.float64) -> np.ndarray:
    """Return an additive causal mask of shape ``(seq_len, seq_len)``.

    Entries above the diagonal are ``-inf`` surrogates (-1e9) so softmax
    assigns them ~zero weight.  Build it in the scores' dtype: a float64
    mask would promote float32 scores, and every op after them, to float64.
    """
    mask = np.triu(np.ones((seq_len, seq_len), dtype=dtype), k=1)
    mask *= -1e9
    return mask


def scaled_softmax(scores: np.ndarray, scale: float,
                   mask: Optional[np.ndarray] = None) -> np.ndarray:
    """``softmax(scores · scale + mask)`` over the last axis, in place on
    ``scores`` (returned): the attention weights of the training kernel
    and of the KV-cached serving path, in the layered chain's op order.
    ``scale`` is a Python float, so it takes the scores' dtype."""
    scores *= scale
    if mask is not None:
        scores += mask
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def _split_heads(t: np.ndarray, heads: int) -> np.ndarray:
    """``(b, s, h·d)`` → ``(b, h, s, d)`` (a view)."""
    batch, seq, dim = t.shape
    return t.reshape(batch, seq, heads, dim // heads).transpose(0, 2, 1, 3)


def merge_heads(t: np.ndarray) -> np.ndarray:
    """``(b, h, s, d)`` → ``(b, s, h·d)``, the inverse of
    :func:`_split_heads`."""
    batch, heads, seq, hd = t.shape
    return t.transpose(0, 2, 1, 3).reshape(batch, seq, heads * hd)


def attention(x: Tensor, projections, num_heads: int,
              causal: bool = True) -> Tensor:
    """Multi-head self-attention over ``x`` ``(batch, seq, dim)`` as one
    node.

    ``projections`` holds the q, k, v and o projections, each a
    ``(weight, bias or None, adapter or None)`` triple in the ``Linear``
    layout, where ``adapter`` is ``(A, B, scaling, mask or None)`` as in
    :func:`lora_linear`; all but ``scaling`` and ``mask`` are Tensors.
    Each projection runs through :func:`_project`, then come the scaled
    scores, the causal mask, the stable softmax, the context and the head
    merge, in the layered chain's op order, so the forward is that chain's
    bit for bit.  The hand-written backward skips the gradient GEMMs of
    every input that does not require grad.
    """
    seq, dim = x.shape[1:]
    scale = float(1.0 / np.sqrt(dim // num_heads))
    owners = []  # per projection: its weight, bias, A and B Tensors
    arrays = []  # and its (weight, bias, adapter) entry on arrays
    for weight, bias, adapter in projections:
        tensors = [weight] + ([] if bias is None else [bias])
        if adapter is not None:
            a, b, scaling, mask = adapter
            tensors += [a, b]
            adapter = (a.data, b.data, scaling, mask)
        owners.append(tensors)
        arrays.append((weight.data, None if bias is None else bias.data,
                       adapter))

    def project(inp, i):
        w, b, adapter = arrays[i]
        return _project(inp, w, adapter, b)

    projected = [project(x.data, i) for i in range(3)]
    q, k, v = (_split_heads(y, num_heads) for y, _ in projected)
    probs = q @ k.transpose(0, 1, 3, 2)
    scaled_softmax(probs, scale,
                   causal_mask(seq, probs.dtype) if causal else None)
    merged = merge_heads(probs @ v)
    out, r_o = project(merged, 3)
    rs = [r for _, r in projected] + [r_o]

    def project_backward(grad, inp, i, need_x):
        """Projection ``i``'s input gradient and its parameters'."""
        w, b, adapter = arrays[i]
        needs = [t.requires_grad for t in owners[i]]
        need_ab = needs[-2:] if adapter is not None else ()
        gi, gw, ga, gb = _project_backward(grad, inp, w, adapter, rs[i],
                                           need_x, needs[0], *need_ab)
        grads = [gw]
        if b is not None:
            grads.append(_flat(grad).sum(axis=0) if needs[1] else None)
        if adapter is not None:
            grads += [ga, gb]
        return gi, grads

    def backward(g: np.ndarray):
        gmerged, grads_o = project_backward(g, merged, 3, True)
        gctx = _split_heads(gmerged, num_heads)
        gv = probs.transpose(0, 1, 3, 2) @ gctx
        gscores = gctx @ v.transpose(0, 1, 3, 2)
        gscores -= (gscores * probs).sum(axis=-1, keepdims=True)
        gscores *= probs
        gscores *= scale
        gq = gscores @ k
        gk = gscores.transpose(0, 1, 3, 2) @ q
        gx, grads = None, []
        for i, head_grad in enumerate((gq, gk, gv)):
            gi, grads_i = project_backward(merge_heads(head_grad), x.data, i,
                                           x.requires_grad)
            gx = gi if gx is None else gx + gi
            grads += grads_i
        return (gx, *grads, *grads_o)

    return Tensor._make(out, [x] + [t for ts in owners for t in ts],
                        backward)


def _swiglu_hidden(g: np.ndarray, u: np.ndarray):
    """``(sig, s, h)``: ``sig = sigmoid(g)``, ``s = silu(g) = g·sig`` and
    the SwiGLU hidden state ``h = s·u``, in :func:`swiglu_infer`'s op
    order.  The forward keeps only ``h``, and only until the down
    projection has run; the backward rebuilds all three from the saved
    ``g`` and ``u`` through this same call, so they have the forward's
    bits."""
    sig = 1.0 / (1.0 + np.exp(-g))
    s = g * sig
    return sig, s, s * u


def swiglu_forward(x: np.ndarray, w_gate: np.ndarray, w_up: np.ndarray,
                   w_down: np.ndarray, lora=None):
    """The SwiGLU FFN ``(silu(x Wg^T) * (x Wu^T)) Wd^T`` on plain arrays.

    ``lora`` is ``None`` or one ``(A, B, scaling, mask or None)`` entry per
    projection (gate, up, down), each adding its low-rank branch as
    :func:`_project` does.  Without adapters the op order is
    :func:`swiglu_infer`'s.  Returns ``(y, saved)`` for
    :func:`swiglu_backward`; ``saved`` holds the two ``(rows, ffn)``
    projections ``g`` and ``u`` and each adapter's ``r``, and nothing the
    backward can rebuild from them (see :func:`_swiglu_hidden`).
    """
    ad_gate, ad_up, ad_down = lora if lora is not None else (None,) * 3
    g, r_gate = _project(x, w_gate, ad_gate)
    u, r_up = _project(x, w_up, ad_up)
    y, r_down = _project(_swiglu_hidden(g, u)[2], w_down, ad_down)
    return y, (g, u, r_gate, r_up, r_down)


def swiglu_backward(gy: np.ndarray, x: np.ndarray, w_gate: np.ndarray,
                    w_up: np.ndarray, w_down: np.ndarray, lora, saved,
                    needs) -> tuple:
    """The gradients of :func:`swiglu_forward`, in one pass.

    ``needs`` flags which gradients to compute, in parent order: ``x``,
    ``w_gate``, ``w_up``, ``w_down``, then (with ``lora``) ``A``, ``B`` of
    gate, up and down.  Returns one gradient per flag, ``None`` where the
    flag is off.  ``sig``, ``s`` and ``h`` are rebuilt from the saved
    ``g`` and ``u`` and each is dropped after its last use.
    """
    g, u, r_gate, r_up, r_down = saved
    ad_gate, ad_up, ad_down = lora if lora is not None else (None,) * 3
    need_x, need_gate, need_up, need_down = needs[:4]
    need_ab = needs[4:]
    sig, s, h = _swiglu_hidden(g, u)
    gh, gw_down, ga_down, gb_down = _project_backward(
        gy, h, w_down, ad_down, r_down, True, need_down, *need_ab[4:])
    del h
    gu = gh * s
    del s
    # d silu(g)/dg = sig + g * sig * (1 - sig), same form as Tensor.silu,
    # built up in place to avoid three (n, ffn) temporaries.
    dsilu = 1.0 - sig
    dsilu *= sig
    dsilu *= g
    dsilu += sig
    del sig
    gg = gh * u
    del gh
    gg *= dsilu
    del dsilu
    gx, gw_gate, ga_gate, gb_gate = _project_backward(
        gg, x, w_gate, ad_gate, r_gate, need_x, need_gate, *need_ab[:2])
    gx_up, gw_up, ga_up, gb_up = _project_backward(
        gu, x, w_up, ad_up, r_up, need_x, need_up, *need_ab[2:4])
    if need_x:
        gx += gx_up
    grads = (gx, gw_gate, gw_up, gw_down)
    if lora is None:
        return grads
    return grads + (ga_gate, gb_gate, ga_up, gb_up, ga_down, gb_down)


def fused_swiglu(x: Tensor, w_gate: Tensor, w_up: Tensor, w_down: Tensor,
                 lora=None) -> Tensor:
    """SwiGLU FFN ``(silu(x Wg^T) * (x Wu^T)) Wd^T`` as one autograd node.

    Functionally identical to chaining three ``Linear`` layers with ``silu``
    and ``*``, but the whole expert runs as a single graph node with a
    hand-written single-pass backward (:func:`swiglu_forward` /
    :func:`swiglu_backward`): no intermediate ``Tensor`` wrappers, no
    transpose nodes, and the gradient GEMMs of frozen inputs are skipped
    outright (gate-frozen fine-tuning, LoRA's frozen bases, inference).
    This is the per-expert kernel of the fused MoE dispatch hot loop.

    ``lora`` is ``None`` or three ``(A, B, scaling, mask or None)`` entries,
    one per projection, with ``A``/``B`` the adapter Tensors: the node then
    runs LoRA-wrapped projections, forward bitwise equal to the layered
    ``LoRALinear`` chain, and its parents are ``x``, the three weights and
    the six adapter matrices.  Weights use the ``Linear`` layout:
    ``w_gate``/``w_up`` are ``(ffn, hidden)``, ``w_down`` is
    ``(hidden, ffn)``.
    """
    parents = (x, w_gate, w_up, w_down)
    arrays = None
    if lora is not None:
        arrays = tuple((a.data, b.data, s, mask) for a, b, s, mask in lora)
        parents += tuple(t for a, b, _, _ in lora for t in (a, b))
    weights = (w_gate.data, w_up.data, w_down.data)
    out_data, saved = swiglu_forward(x.data, *weights, arrays)

    def backward(gy: np.ndarray):
        return swiglu_backward(gy, x.data, *weights, arrays, saved,
                               tuple(p.requires_grad for p in parents))

    return Tensor._make(out_data, parents, backward)


def swiglu_infer(x: np.ndarray, w_gate: np.ndarray, w_up: np.ndarray,
                 w_down: np.ndarray) -> np.ndarray:
    """Raw-ndarray SwiGLU ``(silu(x Wg^T) * (x Wu^T)) Wd^T``, inference only.

    The same arithmetic as :func:`fused_swiglu`'s forward, in the same
    operation order, but on plain arrays: no autograd node, no ``Tensor``
    wrappers.  This is the per-expert kernel of the inference-only array
    dispatch (:func:`repro.models.moe_block.array_dispatch`), where graph
    bookkeeping would dominate the tiny GEMMs.  Weights use the ``Linear``
    layout: ``w_gate``/``w_up`` are ``(ffn, hidden)``, ``w_down`` is
    ``(hidden, ffn)``.
    """
    g = x @ w_gate.T
    u = x @ w_up.T
    sig = 1.0 / (1.0 + np.exp(-g))
    s = g * sig
    h = s * u
    return h @ w_down.T

