"""The MoE transformer: backbone + detachable expert layers.

:class:`MoETransformer` is a decoder-only language model whose FFN layers are
:class:`~repro.models.moe_block.MoEBlock` instances.  It exposes the
backbone/expert split that VELA's framework design (Section IV-A) relies on:
``backbone_parameters()`` excludes all expert weights, and ``iter_experts()``
enumerates the ``L x E`` expert modules that get distributed to workers.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..nn.attention import KVCache, MultiHeadAttention, SlotPlan
from ..nn.functional import cross_entropy
from ..nn.layers import Embedding, Linear, Module, Parameter, RMSNorm
from ..nn.tensor import Tensor, is_grad_enabled
from .config import MoEModelConfig
from .expert import ExpertFFN
from .moe_block import BlockRoutingRecord, MoEBlock


class TransformerBlock(Module):
    """Pre-norm transformer block: attention + MoE FFN with residuals."""

    def __init__(self, config: MoEModelConfig, layer_index: int,
                 rng: np.random.Generator):
        super().__init__()
        self.attn_norm = RMSNorm(config.hidden_size)
        self.attn = MultiHeadAttention(config.hidden_size, config.num_heads,
                                       causal=True, rng=rng)
        self.ffn_norm = RMSNorm(config.hidden_size)
        self.moe = MoEBlock(config.hidden_size, config.ffn_hidden_size,
                            config.num_experts, config.top_k,
                            layer_index=layer_index,
                            aux_loss_weight=config.aux_loss_weight, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        """Run the forward computation."""
        x = x + self.attn(self.attn_norm(x))
        x = x + self.moe(self.ffn_norm(x))
        return x

    def forward_slots(self, x: np.ndarray, cache: KVCache, layer: int,
                      plan: SlotPlan) -> np.ndarray:
        """:meth:`forward` for new positions of KV-cache rows, on arrays.

        ``x`` row ``i`` continues the sequence in cache slot
        ``plan.slots[i]`` at that slot's own cursor (ragged attention over
        layer ``layer`` of ``cache``); the MoE FFN is position-local, so it
        needs no cache.  Inference-only.
        """
        x = x + self.attn.forward_slots(self.attn_norm.infer(x), cache,
                                        layer, plan)
        return x + self.moe(self.ffn_norm.infer(x))


class MoETransformer(Module):
    """Decoder-only MoE language model.

    Build only from configs that pass ``config.assert_buildable()`` — the
    Mixtral-scale presets are trace-simulation specs (see DESIGN.md §1).
    """

    def __init__(self, config: MoEModelConfig):
        super().__init__()
        config.assert_buildable()
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.token_embedding = Embedding(config.vocab_size, config.hidden_size, rng=rng)
        self.position_embedding = Parameter(
            np.zeros((config.max_seq_len, config.hidden_size)))
        self.blocks = [TransformerBlock(config, layer_index=i, rng=rng)
                       for i in range(config.num_layers)]
        self.final_norm = RMSNorm(config.hidden_size)
        self.lm_head = Linear(config.hidden_size, config.vocab_size,
                              bias=False, rng=rng)

    # ------------------------------------------------------------------ #
    # forward / loss
    # ------------------------------------------------------------------ #
    def forward(self, token_ids: np.ndarray) -> Tensor:
        """Return next-token logits for ``token_ids`` of shape ``(batch, seq)``."""
        token_ids = self._check_token_ids(token_ids)
        seq = token_ids.shape[1]
        if seq > self.config.max_seq_len:
            raise ValueError(f"sequence length {seq} exceeds max_seq_len "
                             f"{self.config.max_seq_len}")
        x = self.token_embedding(token_ids) + self.position_embedding[:seq]
        for block in self.blocks:
            x = block(x)
        return self.lm_head(self.final_norm(x))

    def _check_token_ids(self, token_ids) -> np.ndarray:
        """``token_ids`` checked: a non-empty ``(rows, seq)`` integer array
        in ``[0, vocab_size)``.  numpy would wrap a negative id onto the
        last embedding rows and truncate a float one."""
        token_ids = np.asarray(token_ids)
        if token_ids.ndim != 2 or token_ids.size == 0:
            raise ValueError(f"expected non-empty (rows, seq) token ids, "
                             f"got shape {token_ids.shape}")
        if not np.issubdtype(token_ids.dtype, np.integer):
            raise ValueError(f"token ids must be integers, got dtype "
                             f"{token_ids.dtype}")
        vocab_size = self.config.vocab_size
        low, high = token_ids.min(), token_ids.max()
        if low < 0 or high >= vocab_size:
            raise ValueError(f"token ids must lie in [0, {vocab_size}), got "
                             f"{low}..{high}")
        return token_ids

    def new_kv_cache(self, batch: int,
                     max_len: Optional[int] = None) -> KVCache:
        """Allocate the model's :class:`~repro.nn.attention.KVCache`: one
        key/value buffer pair per block, in the model's dtype, and one
        cursor per row.

        ``max_len`` bounds the total sequence (prompt + generation) the
        cache can hold; it defaults to, and may not exceed, the model's
        ``max_seq_len``.  Pass the cache to :meth:`forward_slots`.
        """
        config = self.config
        if max_len is None:
            max_len = config.max_seq_len
        if not 1 <= max_len <= config.max_seq_len:
            raise ValueError(f"max_len {max_len} out of range (1, "
                             f"{config.max_seq_len})")
        return KVCache(len(self.blocks), batch, max_len, config.num_heads,
                       config.hidden_size // config.num_heads,
                       dtype=self.token_embedding.weight.dtype)

    def forward_slots(self, token_ids: np.ndarray, cache: KVCache,
                      slots) -> Tensor:
        """Next-token logits for a subset of KV-cache slots (ragged decode).

        ``token_ids`` is ``(len(slots), seq)``: row ``i`` holds the next
        ``seq`` tokens of the sequence occupying cache slot ``slots[i]``,
        continuing at that slot's own fill cursor — one token per active
        request on a decode step, a whole (equal-length) prompt per row on
        a batched prefill of newly admitted requests.  ``cache`` comes
        from :meth:`new_kv_cache` and advances in place; rows not listed
        in ``slots`` are untouched, so waiting requests keep their state
        while others advance.  Slot ids must be distinct rows of the
        cache.

        Every block shares one :meth:`KVCache.plan`, and the cursors
        advance after the last block: a call that raises leaves every slot
        as it was.

        Inference-only, and computed on plain arrays from the embedding
        gather to the LM head (no autograd graph); the result is wrapped
        in one :class:`Tensor`.  A prefill returns :meth:`forward`'s logits
        bit for bit, and decode steps agree with it to ~1e-12 in float64.
        """
        if is_grad_enabled():
            raise RuntimeError("forward_slots is inference-only; "
                               "wrap the decode loop in no_grad()")
        token_ids = self._check_token_ids(token_ids)
        config = self.config
        layers, _, max_len, *heads = cache.keys.shape
        if (layers, *heads) != (len(self.blocks), config.num_heads,
                                config.hidden_size // config.num_heads) \
                or max_len > config.max_seq_len:
            raise ValueError(f"a KV cache of shape {cache.keys.shape} does "
                             f"not fit this model; use new_kv_cache")
        rows, seq = token_ids.shape
        plan = cache.plan(slots, seq)
        if plan.slots.size != rows:
            raise ValueError(f"slots must have one entry per row, got "
                             f"{plan.slots.size} for {rows} rows")
        # Per-row position embeddings: row i continues at its own cursor.
        x = self.token_embedding.infer(token_ids) + \
            self.position_embedding.data[plan.index]
        for layer, block in enumerate(self.blocks):
            x = block.forward_slots(x, cache, layer, plan)
        logits = self.lm_head.infer(self.final_norm.infer(x))
        cache.commit(plan)
        return Tensor(logits)

    def loss(self, token_ids: np.ndarray, targets: np.ndarray) -> Tensor:
        """Cross-entropy LM loss, plus any gate auxiliary losses."""
        logits = self.forward(token_ids)
        loss = cross_entropy(logits, targets)
        for block in self.blocks:
            aux = block.moe.last_aux_loss
            if aux is not None:
                loss = loss + aux
        return loss

    # ------------------------------------------------------------------ #
    # backbone / expert split (VELA Section IV-A)
    # ------------------------------------------------------------------ #
    def iter_experts(self) -> Iterator[Tuple[int, int, ExpertFFN]]:
        """Yield ``(layer, expert_id, module)`` for every expert in the model."""
        for layer, block in enumerate(self.blocks):
            for expert_id, expert in enumerate(block.moe.experts):
                yield layer, expert_id, expert

    def expert_parameters(self) -> List[Parameter]:
        """Parameters belonging to expert layers."""
        params: List[Parameter] = []
        for _, _, expert in self.iter_experts():
            params.extend(expert.parameters())
        return params

    def backbone_parameters(self) -> List[Parameter]:
        """Parameters outside the expert layers."""
        expert_ids = {id(p) for p in self.expert_parameters()}
        return [p for p in self.parameters() if id(p) not in expert_ids]

    def gate_parameters(self) -> List[Parameter]:
        """The (frozen-in-fine-tuning) router parameters."""
        params: List[Parameter] = []
        for block in self.blocks:
            params.extend(block.moe.gate.parameters())
        return params

    # ------------------------------------------------------------------ #
    # routing introspection
    # ------------------------------------------------------------------ #
    def routing_records(self) -> List[BlockRoutingRecord]:
        """Routing records of the most recent forward pass, one per block."""
        records = []
        for block in self.blocks:
            if block.moe.last_record is None:
                raise RuntimeError("no forward pass has been run yet")
            records.append(block.moe.last_record)
        return records

    def _moe_blocks(self) -> List[MoEBlock]:
        """The MoE block of every transformer block."""
        return [block.moe for block in self.blocks]

    def set_record_probs(self, enabled: bool) -> None:
        """Control whether records copy the full probability matrix."""
        for moe in self._moe_blocks():
            moe.record_probs = enabled

    # convenient sizes ---------------------------------------------------
    def num_expert_params(self) -> int:
        """Parameter count across all experts."""
        return sum(e.num_params() for _, _, e in self.iter_experts())

    def num_backbone_params(self) -> int:
        """Parameter count of the backbone."""
        return int(sum(p.size for p in self.backbone_parameters()))
