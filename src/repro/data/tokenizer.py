"""Tokenizer for the synthetic corpus.

``CharTokenizer`` serves the Tiny-Shakespeare-style experiments (character-
level LM, as in the paper's Section III measurement study).
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np


class CharTokenizer:
    """Character-level tokenizer with a stable, sorted vocabulary."""

    PAD = "\x00"

    def __init__(self, text: str):
        chars = sorted(set(text) | {self.PAD})
        self._stoi: Dict[str, int] = {ch: i for i, ch in enumerate(chars)}
        self._itos: List[str] = chars

    @property
    def vocab_size(self) -> int:
        """Vocabulary size."""
        return len(self._itos)

    @property
    def pad_id(self) -> int:
        """Padding token id."""
        return self._stoi[self.PAD]

    def encode(self, text: str) -> np.ndarray:
        """Text to integer token ids."""
        try:
            return np.array([self._stoi[ch] for ch in text], dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"character {exc.args[0]!r} not in vocabulary") from exc

    def decode(self, ids: Iterable[int]) -> str:
        """Integer token ids back to text."""
        return "".join(self._itos[int(i)] for i in ids)

