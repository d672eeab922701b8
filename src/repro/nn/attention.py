"""Multi-head self-attention with causal masking and KV-cached decoding.

This is the attention block of the backbone transformer.  Training and
full-sequence inference go through :meth:`MultiHeadAttention.forward`;
the serving path decodes through one model-wide :class:`KVCache` and
:meth:`MultiHeadAttention.forward_slots`, which projects only the *new*
positions of a subset of cache rows and attends each against its own
cached prefix (ragged, length-aware masking) — the O(T) half of the
prefill/decode split (`docs/ARCHITECTURE.md` § Serving).  Prefill and
decode, of one request or of many at different depths, are the same call;
its slot checks, offsets, gather selector and mask are laid out once per
step in a :class:`SlotPlan` that every layer shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .functional import attention, merge_heads, scaled_softmax
from .layers import Linear, Module
from .tensor import Tensor, get_default_dtype, is_grad_enabled


@dataclass
class SlotPlan:
    """One ragged step over rows of a :class:`KVCache`, laid out once by
    :meth:`KVCache.plan` and shared by every layer of the step."""

    slots: np.ndarray               # checked row ids
    offsets: np.ndarray             # their cursors before the step
    seq: int                        # new positions per row
    total: int                      # key columns attended: max offset + seq
    causal: bool
    rows: Union[slice, np.ndarray]  # gather selector; a slice gives views
    index: np.ndarray               # (rows, seq) positions of the new entries
    write: Tuple[np.ndarray, np.ndarray]  # and their buffer index
    shape: Tuple[int, ...]          # each layer's new keys and values
    mask: Optional[np.ndarray]      # additive ragged mask, or None


class KVCache:
    """Preallocated key/value buffers for every attention layer of a model.

    ``keys``/``values`` are ``(layers, batch, max_len, num_heads,
    head_dim)``, and one fill cursor *per batch row* (:attr:`positions`)
    serves every layer.  Each row is an independent sequence.  A step over
    a subset of rows is :meth:`plan` (slot checks, overflow check, offsets,
    gather selector, write index and mask, once), then per layer
    :meth:`append_rows` and :meth:`gather`, then :meth:`commit`, which
    advances the cursors once.  A step that raises before :meth:`commit`
    leaves every cursor as it was: what it wrote lies past the cursors.
    :meth:`reset` accepts a slot list so an evicted row can be handed to
    the next request without touching the others.  The serve loop writes
    through this one path; allocate a model's cache with
    :meth:`repro.models.MoETransformer.new_kv_cache`.
    """

    def __init__(self, layers: int, batch: int, max_len: int,
                 num_heads: int, head_dim: int, dtype=None):
        if layers < 1 or batch < 1 or max_len < 1:
            raise ValueError(f"layers ({layers}), batch ({batch}) and "
                             f"max_len ({max_len}) must be positive")
        dtype = np.dtype(dtype) if dtype is not None else get_default_dtype()
        self.keys = np.zeros((layers, batch, max_len, num_heads, head_dim),
                             dtype=dtype)
        self.values = np.zeros_like(self.keys)
        self._positions = np.zeros(batch, dtype=np.int64)

    @property
    def batch(self) -> int:
        """Batch size the buffers were allocated for."""
        return self.keys.shape[1]

    @property
    def max_len(self) -> int:
        """Maximum number of positions the cache can hold."""
        return self.keys.shape[2]

    @property
    def positions(self) -> np.ndarray:
        """Per-row fill cursors, shape ``(batch,)`` (read-only view)."""
        view = self._positions.view()
        view.flags.writeable = False
        return view

    def slot_ids(self, slots) -> np.ndarray:
        """``slots`` as a checked int64 row-index array.

        Raises ``ValueError`` unless the ids form a non-empty 1-D list of
        distinct rows in ``[0, batch)``.  numpy would wrap a negative id
        onto another row (slot ``-1`` of a 4-row cache is row 3), silently
        writing one request's keys into another's.
        """
        slots = np.asarray(slots, dtype=np.int64)
        if slots.ndim != 1 or slots.size == 0:
            raise ValueError(f"slots must be a non-empty 1-D index array, "
                             f"got shape {slots.shape}")
        if slots.min() < 0 or slots.max() >= self.batch:
            raise ValueError(f"slot ids must lie in [0, {self.batch}), got "
                             f"{slots.tolist()}")
        if np.bincount(slots).max() > 1:
            raise ValueError(f"slots must be distinct, got {slots.tolist()}")
        return slots

    def reset(self, slots=None) -> None:
        """Rewind fill cursors (buffer contents are overwritten lazily).

        With ``slots`` (an index array) only those rows rewind — the slot
        pool does this when a finished request's row is re-issued to the
        next occupant; all other rows keep decoding undisturbed.
        """
        if slots is None:
            self._positions[:] = 0
        else:
            self._positions[self.slot_ids(slots)] = 0

    def plan(self, slots, seq: int, causal: bool = True) -> SlotPlan:
        """Check and lay out one step of ``seq`` new positions per slot.

        Raises ``ValueError`` on bad slot ids (see :meth:`slot_ids`) or when
        a row would run past ``max_len``, before anything is written.  The
        mask hides the columns past each row's filled length and, when
        ``causal``, past each query's own position; it is built in the
        buffers' dtype, the scores' dtype for a cache in the model's."""
        if seq < 1:
            raise ValueError(f"seq must be positive, got {seq}")
        slots = self.slot_ids(slots)
        offsets = self._positions[slots]
        if np.any(offsets + seq > self.max_len):
            worst = int(slots[int(np.argmax(offsets))])
            raise ValueError(f"KV cache overflow on slot {worst}: "
                             f"{int(offsets.max())} + {seq} exceeds max_len "
                             f"{self.max_len}")
        total = int(offsets.max()) + seq
        start = int(slots[0])
        rows = slots
        if (slots == np.arange(start, start + slots.size)).all():
            rows = slice(start, start + slots.size)
        # Row i's query j sits at position index[i, j]; causal attention
        # admits key columns <= that, and a non-causal layer still must
        # stop at the row's filled length.
        index = offsets[:, None] + np.arange(seq)
        limit = index if causal else offsets[:, None] + (seq - 1)
        mask = None
        if limit.min() < total - 1:
            invalid = np.arange(total) > limit[:, :, None]
            mask = (invalid * self.keys.dtype.type(-1e9))[:, None]
        return SlotPlan(slots=slots, offsets=offsets, seq=seq, total=total,
                        causal=causal, rows=rows, index=index,
                        write=(slots[:, None], index),
                        shape=(slots.size, seq) + self.keys.shape[3:],
                        mask=mask)

    def append_rows(self, layer: int, plan: SlotPlan, keys: np.ndarray,
                    values: np.ndarray) -> None:
        """Write layer ``layer``'s new ``keys``/``values``, each
        ``plan.shape``, at ``plan``'s index; the cursors stay put."""
        if keys.shape != plan.shape or values.shape != plan.shape:
            raise ValueError(f"expected key/value shape {plan.shape}, got "
                             f"{keys.shape} / {values.shape}")
        self.keys[layer][plan.write] = keys
        self.values[layer][plan.write] = values

    def gather(self, layer: int, plan: SlotPlan):
        """Layer ``layer``'s keys and values of ``plan``'s rows over
        positions ``[0, plan.total)``: views of the buffers when the slots
        form an ascending run (a full slot pool), copies otherwise."""
        return (self.keys[layer, plan.rows, :plan.total],
                self.values[layer, plan.rows, :plan.total])

    def commit(self, plan: SlotPlan) -> None:
        """Advance the cursors of ``plan``'s rows by its ``seq``, once
        every layer has appended."""
        self._positions[plan.slots] = plan.offsets + plan.seq


def _projection(proj: Module, shape: tuple, dtype) -> tuple:
    """``proj``'s ``(weight, bias, adapter)`` entry for an input of
    ``shape``: a plain :class:`Linear`, or a
    :class:`~repro.lora.LoRALinear` (its ``base`` and ``factors``)."""
    if isinstance(proj, Linear):
        return proj.weight, proj.bias, None
    return proj.base.weight, proj.base.bias, proj.factors(shape, dtype)


class MultiHeadAttention(Module):
    """Standard scaled-dot-product multi-head self-attention.

    Parameters
    ----------
    dim:
        Model feature size (must be divisible by ``num_heads``).
    num_heads:
        Number of attention heads.
    causal:
        If True (default), apply a causal mask for autoregressive LM training.
    """

    def __init__(self, dim: int, num_heads: int, causal: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        rng = rng or np.random.default_rng()
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.causal = causal
        self.q_proj = Linear(dim, dim, bias=False, rng=rng)
        self.k_proj = Linear(dim, dim, bias=False, rng=rng)
        self.v_proj = Linear(dim, dim, bias=False, rng=rng)
        self.o_proj = Linear(dim, dim, bias=False, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        """Apply self-attention to ``x`` of shape ``(batch, seq, dim)``.

        One :func:`~repro.nn.functional.attention` node.  Each projection
        is a ``Linear`` or a LoRA adapter over one; an adapter draws its
        dropout mask from its own stream, as its ``forward`` would.
        """
        return attention(x, [_projection(proj, x.shape, x.dtype)
                             for proj in (self.q_proj, self.k_proj,
                                          self.v_proj, self.o_proj)],
                         self.num_heads, self.causal)

    def forward_slots(self, x: np.ndarray, cache: KVCache, layer: int,
                      plan: SlotPlan) -> np.ndarray:
        """Ragged attention for a subset of cache rows at per-slot cursors.

        ``x`` is a plain ``(len(plan.slots), seq, dim)`` array: row ``i``
        holds the next ``seq`` positions of the sequence in cache slot
        ``plan.slots[i]``, starting at that slot's own cursor.  A batched
        prefill, a ragged decode step of many requests at different depths
        and a single-sequence decode are all this call.  ``plan`` comes
        from ``cache.plan(slots, seq, causal=self.causal)``, this layer's
        keys and values sit at index ``layer`` of ``cache``, and the caller
        commits the plan once every layer has run.

        Keys are gathered up to the longest row and the plan's
        length-aware mask hides both future positions and every column
        past a row's cursor, so a slot never attends the previous
        occupant's stale entries.  The mask's ``-1e9`` surrogate
        underflows ``exp`` to an exact ``0.0``, and the op chain is
        :meth:`forward`'s, so a prefill returns :meth:`forward`'s output
        bit for bit.  Inference-only: returns a plain array.
        """
        if is_grad_enabled():
            raise RuntimeError("forward_slots is inference-only; "
                               "wrap the decode loop in no_grad()")
        if plan.causal != self.causal:
            raise ValueError(f"plan built with causal={plan.causal} for a "
                             f"layer with causal={self.causal}")
        rows, seq, _ = x.shape
        heads, hd = self.num_heads, self.head_dim

        q = self.q_proj.infer(x).reshape(rows, seq, heads, hd)
        k_new = self.k_proj.infer(x).reshape(rows, seq, heads, hd)
        v_new = self.v_proj.infer(x).reshape(rows, seq, heads, hd)
        cache.append_rows(layer, plan, k_new, v_new)
        k, v = cache.gather(layer, plan)   # (rows, total, heads, hd)

        scores = q.transpose(0, 2, 1, 3) @ k.transpose(0, 2, 3, 1)
        scaled_softmax(scores, float(1.0 / np.sqrt(hd)), plan.mask)
        context = scores @ v.transpose(0, 2, 1, 3)  # (rows, h, seq, hd)
        return self.o_proj.infer(merge_heads(context))
