"""Autoregressive text generation from a live MoE transformer.

Used by the examples to show the fine-tuned tiny model actually producing
text, and by the serving simulation to derive decode-time routing patterns
(one token per sequence per step — a very different communication profile
from training).
"""

from __future__ import annotations

import numbers
from typing import List, Optional

import numpy as np

from ..nn.functional import softmax
from ..nn.tensor import Tensor, no_grad
from .transformer import MoETransformer


def generate(model: MoETransformer, prompt_ids: np.ndarray, max_new_tokens: int,
             temperature: float = 1.0, top_k: Optional[int] = None,
             seed: int = 0) -> np.ndarray:
    """Sample a continuation of ``prompt_ids``.

    Parameters
    ----------
    prompt_ids:
        1-D integer array of prompt tokens.
    max_new_tokens:
        Tokens to generate.
    temperature:
        Softmax temperature; 0 means greedy decoding.
    top_k:
        If set, sample only among the ``top_k`` most likely tokens.

    Returns the full sequence (prompt + continuation).
    """
    prompt_ids = _check_decode(prompt_ids, max_new_tokens)
    if temperature < 0:
        raise ValueError("temperature must be non-negative")

    rng = np.random.default_rng(seed)
    max_ctx = model.config.max_seq_len
    sequence = prompt_ids.tolist()

    was_training = model.training
    model.eval()
    try:
        with no_grad():
            for _ in range(max_new_tokens):
                context = np.array(sequence[-max_ctx:], dtype=np.int64)
                logits = model.forward(context[None, :]).data[0, -1]
                sequence.append(_sample_token(logits, temperature, top_k, rng))
    finally:
        model.train(was_training)
    return np.array(sequence, dtype=np.int64)


def _check_decode(prompt_ids, max_new_tokens: int) -> np.ndarray:
    """``prompt_ids`` as a checked non-empty 1-D integer array; raises
    ``ValueError`` on a bad prompt or a ``max_new_tokens`` that is not a
    positive integer.  A cast would truncate float ids silently."""
    if not isinstance(max_new_tokens, numbers.Integral) or \
            max_new_tokens < 1:
        raise ValueError(f"max_new_tokens must be a positive integer, got "
                         f"{max_new_tokens!r}")
    prompt_ids = np.asarray(prompt_ids)
    if prompt_ids.ndim != 1 or len(prompt_ids) == 0 or \
            not np.issubdtype(prompt_ids.dtype, np.integer):
        raise ValueError("prompt_ids must be a non-empty 1-D integer array")
    return prompt_ids


def _sample_token(logits: np.ndarray, temperature: float,
                  top_k: Optional[int], rng: np.random.Generator) -> int:
    if temperature == 0.0:
        return int(logits.argmax())
    scaled = logits / temperature
    if top_k is not None:
        if top_k < 1:
            raise ValueError("top_k must be positive")
        cutoff = np.sort(scaled)[-min(top_k, len(scaled))]
        scaled = np.where(scaled >= cutoff, scaled, -np.inf)
    shifted = scaled - scaled.max()
    probs = np.exp(shifted)
    probs /= probs.sum()
    return int(rng.choice(len(probs), p=probs))


def decode_routing_counts(model: MoETransformer, prompt_ids: np.ndarray,
                          max_new_tokens: int, seed: int = 0) -> np.ndarray:
    """Per-layer expert access counts accumulated over a decode.

    Decode-time routing drives the serving simulation: each generated token
    makes one routing decision per block (the trailing position).  The
    prompt and ``max_new_tokens`` are checked as :func:`generate` checks
    them.
    """
    prompt_ids = _check_decode(prompt_ids, max_new_tokens)
    config = model.config
    counts = np.zeros((config.num_layers, config.num_experts), dtype=np.int64)
    max_ctx = config.max_seq_len
    sequence = prompt_ids.tolist()

    rng = np.random.default_rng(seed)
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            for _ in range(max_new_tokens):
                context = np.array(sequence[-max_ctx:], dtype=np.int64)
                logits = model.forward(context[None, :]).data[0, -1]
                for record in model.routing_records():
                    # trailing position = the token being generated
                    counts[record.layer] += np.bincount(
                        record.expert_indices[-1],
                        minlength=config.num_experts)
                sequence.append(_sample_token(logits, 1.0, None, rng))
    finally:
        model.train(was_training)
    return counts
