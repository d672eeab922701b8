"""Synthetic corpus and tokenization (see DESIGN.md for substitutions)."""

from .loader import LMDataLoader
from .shakespeare import generate_tiny_shakespeare
from .tokenizer import CharTokenizer

__all__ = ["CharTokenizer", "LMDataLoader", "generate_tiny_shakespeare"]
