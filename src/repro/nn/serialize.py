"""Serialization of int8-quantized expert weights.

:func:`save_quantized_state` / :func:`load_quantized_state` write and read
``{name: QuantizedTensor}`` maps (see :mod:`repro.nn.quant`) as flat
``.npz`` archives (``<name>.codes`` int8 + ``<name>.scales`` float per
entry), roughly 4x smaller than the same matrices stored as float32.
"""

from __future__ import annotations

import os
from typing import Dict

import numpy as np

from .quant import QuantizedTensor

_QUANT_SUFFIXES = (".codes", ".scales")


def save_quantized_state(quantized: Dict[str, QuantizedTensor],
                         path: str) -> None:
    """Save a ``{name: QuantizedTensor}`` map as one ``.npz`` archive.

    Each entry becomes two arrays, ``<name>.codes`` (int8) and
    ``<name>.scales`` (float), keyed by the entry's dotted name.
    """
    flat: Dict[str, np.ndarray] = {}
    for name, qt in quantized.items():
        flat.update(qt.to_state(prefix=f"{name}."))
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    np.savez(path, **flat)


def load_quantized_state(path: str) -> Dict[str, QuantizedTensor]:
    """Inverse of :func:`save_quantized_state`."""
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    with np.load(path) as archive:
        flat = {k: archive[k] for k in archive.files}
    names = sorted({k[:-len(".codes")] for k in flat if k.endswith(".codes")})
    state: Dict[str, QuantizedTensor] = {}
    for name in names:
        state[name] = QuantizedTensor.from_state(flat, prefix=f"{name}.")
    stray = [k for k in flat
             if not any(k.endswith(s) for s in _QUANT_SUFFIXES)]
    if stray:
        raise ValueError(f"not a quantized checkpoint: stray keys {stray[:3]}")
    return state
