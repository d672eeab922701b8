"""Multi-head self-attention with causal masking and KV-cached decoding.

This is the attention block of the backbone transformer.  Training and
full-sequence inference go through :meth:`MultiHeadAttention.forward`;
the serving path decodes through a :class:`KVCache` and
:meth:`MultiHeadAttention.forward_slots`, which projects only the *new*
positions of a subset of cache rows and attends each against its own
cached prefix (ragged, length-aware masking) — the O(T) half of the
prefill/decode split (`docs/ARCHITECTURE.md` § Serving).  Prefill and
decode, of one request or of many at different depths, are the same call.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .functional import softmax
from .layers import Linear, Module
from .tensor import Tensor, get_default_dtype, is_grad_enabled


def causal_mask(seq_len: int, dtype=np.float64) -> np.ndarray:
    """Return an additive causal mask of shape ``(seq_len, seq_len)``.

    Entries above the diagonal are ``-inf`` surrogates (-1e9) so softmax
    assigns them ~zero weight.  Build it in the scores' dtype: a float64
    mask would promote float32 scores, and every op after them, to float64.
    """
    mask = np.triu(np.ones((seq_len, seq_len), dtype=dtype), k=1)
    mask *= -1e9
    return mask


class KVCache:
    """Preallocated key/value buffers for one attention layer.

    Holds ``(batch, max_len, num_heads, head_dim)`` buffers plus one fill
    cursor *per batch row* (:attr:`positions`).  Each row is an
    independent sequence: :meth:`append_rows` writes a subset of rows at
    their own cursors, and :meth:`reset` accepts a slot list so an evicted
    row can be handed to the next request without touching the others.
    The serve loop (``ContinuousBatchingEngine``, and
    ``LiveDecodeEngine`` on top of it) writes through this one path.

    No per-step reallocation, no concatenation.  One cache per transformer
    block; allocate the full set with
    :meth:`repro.models.MoETransformer.new_kv_caches`.
    """

    def __init__(self, batch: int, max_len: int, num_heads: int,
                 head_dim: int, dtype=None):
        if batch < 1 or max_len < 1:
            raise ValueError(f"batch ({batch}) and max_len ({max_len}) "
                             f"must be positive")
        dtype = np.dtype(dtype) if dtype is not None else get_default_dtype()
        self.keys = np.zeros((batch, max_len, num_heads, head_dim),
                             dtype=dtype)
        self.values = np.zeros_like(self.keys)
        self._positions = np.zeros(batch, dtype=np.int64)

    @property
    def batch(self) -> int:
        """Batch size the buffers were allocated for."""
        return self.keys.shape[0]

    @property
    def max_len(self) -> int:
        """Maximum number of positions the cache can hold."""
        return self.keys.shape[1]

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

    def gather(self, slots: np.ndarray, length: int):
        """Keys and values of rows ``slots`` over positions ``[0, length)``.

        ``slots`` is an index array checked by :meth:`slot_ids`.  Returns
        two ``(len(slots), length, num_heads, head_dim)`` arrays: views of
        the buffers when ``slots`` is an ascending run of rows (every row of
        one batch, a full slot pool), gathered copies otherwise.
        """
        start = int(slots[0])
        if (slots == np.arange(start, start + slots.size)).all():
            rows = slice(start, start + slots.size)
            return self.keys[rows, :length], self.values[rows, :length]
        return self.keys[slots, :length], self.values[slots, :length]

    def append_rows(self, slots: np.ndarray, keys: np.ndarray,
                    values: np.ndarray) -> np.ndarray:
        """Write ``keys``/``values`` into ``slots`` at their own cursors.

        ``slots`` is a 1-D array of distinct row indices (see
        :meth:`slot_ids`); ``keys``/``values`` are
        ``(len(slots), seq, num_heads, head_dim)``.  Each row's block lands
        at that row's cursor, and the cursors advance by ``seq``.  Returns
        the cursors *before* the append (the absolute offset of each row's
        new block) — the ragged attention path needs them for its
        length-aware mask.
        """
        slots = self.slot_ids(slots)
        expected = (slots.size, keys.shape[1]) + self.keys.shape[2:]
        if keys.shape != expected or values.shape != expected:
            raise ValueError(f"expected key/value shape {expected}, got "
                             f"{keys.shape} / {values.shape}")
        seq = keys.shape[1]
        offsets = self._positions[slots]
        if np.any(offsets + seq > self.max_len):
            worst = int(slots[int(np.argmax(offsets))])
            raise ValueError(f"KV cache overflow on slot {worst}: "
                             f"{int(offsets.max())} + {seq} exceeds max_len "
                             f"{self.max_len}")
        index = offsets[:, None] + np.arange(seq)
        self.keys[slots[:, None], index] = keys
        self.values[slots[:, None], index] = values
        self._positions[slots] = offsets + seq
        return offsets


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
        """Apply self-attention to ``x`` of shape ``(batch, seq, dim)``."""
        batch, seq, _ = x.shape
        heads, hd = self.num_heads, self.head_dim

        def split_heads(t: Tensor) -> Tensor:
            # (b, s, d) -> (b, h, s, hd)
            return t.reshape(batch, seq, heads, hd).transpose(0, 2, 1, 3)

        q = split_heads(self.q_proj(x))
        k = split_heads(self.k_proj(x))
        v = split_heads(self.v_proj(x))

        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(hd))
        if self.causal:
            scores = scores + causal_mask(seq, scores.dtype)
        weights = softmax(scores, axis=-1)
        context = weights @ v  # (b, h, s, hd)
        merged = context.transpose(0, 2, 1, 3).reshape(batch, seq, self.dim)
        return self.o_proj(merged)

    def forward_slots(self, x: np.ndarray, cache: KVCache,
                      slots: np.ndarray) -> np.ndarray:
        """Ragged attention for a subset of cache rows at per-slot cursors.

        ``x`` is a plain ``(len(slots), seq, dim)`` array: row ``i`` holds
        the next ``seq`` positions of the sequence in cache slot
        ``slots[i]``, starting at that slot's own cursor.  A batched
        prefill of newly admitted requests (cursors all zero), a decode
        step of many requests at different depths (one token each, cursors
        all different) and a single-sequence decode are all this call.

        Keys are gathered up to the longest row and a length-aware causal
        mask hides both future positions and every column past a row's
        cursor, so a slot never attends the previous occupant's stale
        entries.  The mask's ``-1e9`` surrogate underflows ``exp`` to an
        exact ``0.0``, and the op chain is :meth:`forward`'s, so a prefill
        returns :meth:`forward`'s output bit for bit.  Inference-only:
        returns a plain array and requires gradients disabled.
        """
        if is_grad_enabled():
            raise RuntimeError("forward_slots is inference-only; "
                               "wrap the decode loop in no_grad()")
        rows, seq, _ = x.shape
        heads, hd = self.num_heads, self.head_dim

        q = self.q_proj.infer(x).reshape(rows, seq, heads, hd)
        k_new = self.k_proj.infer(x).reshape(rows, seq, heads, hd)
        v_new = self.v_proj.infer(x).reshape(rows, seq, heads, hd)
        offsets = cache.append_rows(slots, k_new, v_new)

        total = int(offsets.max()) + seq
        k, v = cache.gather(slots, total)   # (rows, total, heads, hd)

        scores = q.transpose(0, 2, 1, 3) @ k.transpose(0, 2, 3, 1)
        scores *= float(1.0 / np.sqrt(hd))
        # Row i's query at block index j sits at absolute position
        # offsets[i] + j; causal attention admits key columns <= that, and
        # a non-causal layer still must stop at the row's filled length.
        steps = (np.arange(seq) if self.causal
                 else np.full(seq, seq - 1, dtype=np.int64))
        limit = offsets[:, None] + steps                    # (rows, seq)
        if limit.min() < total - 1:
            invalid = np.arange(total) > limit[:, :, None]
            scores += (invalid * scores.dtype.type(-1e9))[:, None, :, :]
        # Raw stable softmax, same formula as functional.softmax.
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=-1, keepdims=True)

        context = scores @ v.transpose(0, 2, 1, 3)  # (rows, h, seq, hd)
        merged = context.transpose(0, 2, 1, 3).reshape(rows, seq, self.dim)
        return self.o_proj.infer(merged)
