"""Activation compression for master<->worker transfers.

The paper's preliminaries discuss weight quantization (QLoRA-style); the
communication analogue is quantizing the *activations* exchanged between the
broker and the expert managers.  Every transfer in Eq. (5) scales with the
bit depth ``b``, so int8 halves and int4 quarters the traffic — at the price
of quantization error injected into forward features and backward gradients.

This module provides:

* real absmax quantize/dequantize kernels (numpy) with measurable error;
* :class:`CompressionScheme` descriptors the engines consume through
  ``MoEModelConfig.bits_per_feature``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class CompressionScheme:
    """A named activation-compression configuration.

    ``bits`` drives the communication volume; ``per_channel`` selects the
    quantization granularity (per-token rows vs whole-tensor).
    """

    name: str
    bits: int
    per_channel: bool = True

    def __post_init__(self) -> None:
        if self.bits not in (4, 8, 16):
            raise ValueError(f"unsupported bit depth {self.bits}")

    @property
    def compression_ratio(self) -> float:
        """Traffic relative to the fp16 baseline."""
        return self.bits / 16.0


FP16 = CompressionScheme(name="fp16", bits=16)
INT8 = CompressionScheme(name="int8", bits=8)
INT4 = CompressionScheme(name="int4", bits=4)

SCHEMES = {s.name: s for s in (FP16, INT8, INT4)}


def quantize_absmax(x: np.ndarray, bits: int,
                    per_channel: bool = True) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric absmax quantization.

    Returns ``(codes, scales)`` where ``codes`` are signed integers in
    ``[-(2^(b-1)-1), 2^(b-1)-1]`` and ``scales`` restore magnitudes.
    ``per_channel`` computes one scale per row (token), the granularity real
    systems use for activation tensors.
    """
    if bits < 2 or bits > 16:
        raise ValueError("bits must be in [2, 16]")
    x = np.asarray(x, dtype=np.float64)
    qmax = 2 ** (bits - 1) - 1
    if per_channel and x.ndim >= 2:
        absmax = np.abs(x).max(axis=-1, keepdims=True)
    else:
        absmax = np.abs(x).max()
    scales = np.where(absmax > 0, absmax / qmax, 1.0)
    codes = np.clip(np.round(x / scales), -qmax, qmax).astype(np.int32)
    return codes, np.asarray(scales)


def dequantize_absmax(codes: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Inverse of :func:`quantize_absmax`."""
    return codes.astype(np.float64) * scales


def roundtrip(x: np.ndarray, scheme: CompressionScheme) -> np.ndarray:
    """Quantize-dequantize ``x`` under ``scheme`` (fp16 is near-lossless)."""
    if scheme.bits >= 16:
        return np.asarray(x, dtype=np.float16).astype(np.float64)
    codes, scales = quantize_absmax(x, scheme.bits, scheme.per_channel)
    return dequantize_absmax(codes, scales)


def quantization_error(x: np.ndarray, scheme: CompressionScheme) -> float:
    """Relative L2 error of a roundtrip: ``|x - Q(x)| / |x|``."""
    x = np.asarray(x, dtype=np.float64)
    norm = np.linalg.norm(x)
    if norm == 0:
        return 0.0
    return float(np.linalg.norm(x - roundtrip(x, scheme)) / norm)


def apply_scheme(config, scheme: CompressionScheme):
    """Return a model config whose transfers use ``scheme``'s bit depth.

    The engines already scale every transfer by
    ``config.bits_per_feature``, so compression plugs in as a config
    override; the quantization-error kernels quantify the accuracy cost.
    """
    return config.with_overrides(bits_per_feature=scheme.bits)
