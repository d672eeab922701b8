"""Int8 weight quantization: per-channel codes + scales, GEMM path, modules.

This is the *weight* counterpart of :mod:`repro.comm.compression` (which
quantizes activations in flight): expert FFN matrices are stored and shipped
as signed int8 codes with one float scale per output channel, cutting both
the bytes a serving-path expert fetch moves through the bandwidth model and
the bytes a checkpoint occupies — 4x vs float32, 2x vs the paper's fp16
accounting.

Two consumption patterns are supported:

**dequant-on-load**
    :func:`dequantize` / :meth:`QuantizedTensor.dequantize` reconstruct a
    dense float matrix once (when an expert is loaded) and compute proceeds
    at full speed with the usual kernels.  :func:`quantize_expert_weights`
    applies this to a whole live model.

**quantized GEMM**
    :func:`quantized_matmul` contracts against the raw codes and applies the
    per-channel scales to the *output* columns, so the dense weight matrix is
    never materialized.  :class:`QuantizedLinear` wraps this as an
    inference-only drop-in for :class:`~repro.nn.layers.Linear` when resident
    memory, not speed, is the constraint.

Quantization is symmetric absmax per output channel: for a ``(out, in)``
weight the scale of row ``i`` is ``max(|W[i, :]|) / 127``, so the
reconstruction error of every element in that row is at most half a scale
step (the bound ``tests/nn/test_quant.py`` pins).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .layers import Linear, Module
from .tensor import Tensor, is_grad_enabled

INT8_QMAX = 127


def quantize_tensor(weight: np.ndarray,
                    dtype=np.float64) -> "QuantizedTensor":
    """Per-output-channel symmetric absmax int8 quantization.

    ``weight`` is a 2-D ``(out, in)`` matrix; each row gets one scale
    ``absmax / 127`` (rows of zeros get scale 1.0 so dequantization is
    well-defined).  ``dtype`` selects the scale (and dequantization)
    precision.
    """
    weight = np.asarray(weight)
    if weight.ndim != 2:
        raise ValueError(f"expected a 2-D weight matrix, got {weight.shape}")
    absmax = np.abs(weight).max(axis=1)
    scales = np.where(absmax > 0, absmax / INT8_QMAX, 1.0).astype(dtype)
    codes = np.clip(np.round(weight / scales[:, None]),
                    -INT8_QMAX, INT8_QMAX).astype(np.int8)
    return QuantizedTensor(codes=codes, scales=scales)


def dequantize(codes: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Reconstruct the dense matrix ``codes * scales[:, None]``."""
    return codes.astype(scales.dtype) * scales[:, None]


@dataclass(frozen=True)
class QuantizedTensor:
    """An int8-quantized 2-D weight: ``codes`` ``(out, in)`` + per-row scales.

    The pair round-trips through flat array dicts (:meth:`to_state` /
    :meth:`from_state`), which is what
    :func:`repro.nn.serialize.save_quantized_state` writes to ``.npz``.
    """

    codes: np.ndarray
    scales: np.ndarray

    def __post_init__(self) -> None:
        if self.codes.dtype != np.int8:
            raise ValueError(f"codes must be int8, got {self.codes.dtype}")
        if self.codes.ndim != 2 or self.scales.ndim != 1:
            raise ValueError("expected 2-D codes and 1-D scales")
        if self.codes.shape[0] != self.scales.shape[0]:
            raise ValueError(f"scale count {self.scales.shape[0]} does not "
                             f"match output channels {self.codes.shape[0]}")

    @property
    def shape(self) -> Tuple[int, int]:
        """Shape of the dense matrix this represents."""
        return self.codes.shape

    @property
    def nbytes(self) -> int:
        """Stored bytes (codes + scales)."""
        return int(self.codes.nbytes + self.scales.nbytes)

    def dequantize(self) -> np.ndarray:
        """Dense reconstruction at the scales' dtype."""
        return dequantize(self.codes, self.scales)

    def max_channel_error(self, reference: np.ndarray) -> np.ndarray:
        """Per-channel max absolute reconstruction error vs ``reference``."""
        return np.abs(self.dequantize() - np.asarray(reference)).max(axis=1)

    def to_state(self, prefix: str = "") -> Dict[str, np.ndarray]:
        """Flatten into a ``{name: array}`` dict (npz-serializable)."""
        return {f"{prefix}codes": self.codes, f"{prefix}scales": self.scales}

    @classmethod
    def from_state(cls, state: Dict[str, np.ndarray],
                   prefix: str = "") -> "QuantizedTensor":
        """Inverse of :meth:`to_state`."""
        return cls(codes=np.asarray(state[f"{prefix}codes"], dtype=np.int8),
                   scales=np.asarray(state[f"{prefix}scales"]))


def quantized_matmul(x: np.ndarray, qt: QuantizedTensor) -> np.ndarray:
    """``x @ W^T`` against int8 codes without materializing ``W``.

    The contraction runs in the code domain (codes cast to ``x``'s dtype so
    the GEMM stays a BLAS call) and the per-channel scales are applied to
    the output columns — each output column ``j`` is
    ``sum_k x[:, k] * codes[j, k] * scales[j]``, identical to dequantizing
    first up to one extra rounding per element.
    """
    x = np.asarray(x)
    return (x @ qt.codes.T.astype(x.dtype)) * qt.scales.astype(x.dtype)


class QuantizedLinear(Module):
    """Inference-only bias-free linear layer backed by int8 codes.

    A drop-in for a frozen :class:`~repro.nn.layers.Linear` on paths that
    never train: the resident weight is the int8 code matrix plus per-channel
    scales (~4x smaller than float32), and the forward runs through
    :func:`quantized_matmul`.  Calling it under an active gradient tape
    raises — quantized weights have no meaningful gradient.
    """

    def __init__(self, quantized: QuantizedTensor):
        super().__init__()
        self.quantized = quantized
        self.out_features, self.in_features = quantized.shape
        self.bias = None

    @classmethod
    def from_linear(cls, linear: Linear) -> "QuantizedLinear":
        """Quantize a bias-free :class:`Linear`'s weight."""
        if linear.bias is not None:
            raise ValueError("QuantizedLinear only supports bias-free layers")
        return cls(quantize_tensor(linear.weight.data,
                                   dtype=linear.weight.data.dtype))

    def forward(self, x: Tensor) -> Tensor:
        """Run the forward computation (inference only)."""
        if is_grad_enabled():
            raise RuntimeError("QuantizedLinear is inference-only; wrap the "
                               "forward in no_grad() or use eval paths")
        data = x.data if isinstance(x, Tensor) else np.asarray(x)
        return Tensor(quantized_matmul(data, self.quantized))

    def nbytes(self) -> int:
        """Resident bytes of the quantized weight."""
        return self.quantized.nbytes


@dataclass
class QuantizationReport:
    """What quantizing a set of expert weights cost and saved."""

    num_matrices: int = 0
    dense_nbytes: int = 0
    quantized_nbytes: int = 0
    max_abs_error: float = 0.0
    max_rel_error: float = 0.0

    @property
    def compression_ratio(self) -> float:
        """Quantized bytes over dense bytes."""
        if self.dense_nbytes == 0:
            return 1.0
        return self.quantized_nbytes / self.dense_nbytes


def _expert_weight_params(expert):
    """The three projection weight Parameters of one (possibly LoRA) expert."""
    params = []
    for proj in (expert.w_gate, expert.w_up, expert.w_down):
        base = getattr(proj, "base", proj)
        params.append(base.weight)
    return params


def quantize_expert_weights(model,
                            report: Optional[QuantizationReport] = None
                            ) -> QuantizationReport:
    """Round-trip every expert FFN weight of ``model`` through int8, in place.

    This is the dequant-on-load serving path: the model afterwards computes
    with exactly the values an int8 checkpoint reconstructs, so decode
    outputs match an int8-format deployment bit for bit while both dispatch
    paths (fused, inference array dispatch) keep working.  Every later
    engine or trainer on ``model`` runs these round-tripped experts.  Gate,
    attention and embedding weights are untouched.  Returns a
    :class:`QuantizationReport` with the byte savings and the observed
    worst-case reconstruction error.
    """
    report = report or QuantizationReport()
    for _, _, expert in model.iter_experts():
        for param in _expert_weight_params(expert):
            dense = param.data
            qt = quantize_tensor(dense, dtype=dense.dtype)
            restored = qt.dequantize().astype(dense.dtype)
            err = float(np.abs(restored - dense).max())
            scale = float(np.abs(dense).max())
            report.num_matrices += 1
            report.dense_nbytes += int(dense.nbytes)
            report.quantized_nbytes += qt.nbytes
            report.max_abs_error = max(report.max_abs_error, err)
            if scale > 0:
                report.max_rel_error = max(report.max_rel_error, err / scale)
            param.data = restored
    return report
