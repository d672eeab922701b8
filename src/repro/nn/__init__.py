"""Numpy-backed autograd substrate.

Public surface: :class:`Tensor`, layer modules, optimizers and the functional
namespace.  This replaces PyTorch for the reproduction (see DESIGN.md §1).
"""

from . import functional
from .attention import KVCache, MultiHeadAttention
from .functional import causal_mask
from .layers import (Dropout, Embedding, Linear, Module, Parameter, RMSNorm,
                     Sequential)
from .optim import SGD, AdamW, GradClipper, Optimizer
from .quant import (QuantizationReport, QuantizedLinear, QuantizedTensor,
                    dequantize, quantize_expert_weights, quantize_tensor,
                    quantized_matmul)
from .schedule import LRScheduler, WarmupCosineLR
from .serialize import load_quantized_state, save_quantized_state
from .tensor import (Tensor, concatenate, default_dtype, get_default_dtype,
                     is_grad_enabled, no_grad, ones, set_default_dtype, stack,
                     tensor, where, zeros)

__all__ = [
    "Tensor", "tensor", "zeros", "ones", "concatenate", "stack", "where",
    "no_grad", "is_grad_enabled",
    "set_default_dtype", "get_default_dtype", "default_dtype",
    "Module", "Parameter", "Linear", "Embedding", "RMSNorm",
    "Dropout", "Sequential", "MultiHeadAttention", "causal_mask",
    "KVCache",
    "Optimizer", "SGD", "AdamW", "GradClipper",
    "LRScheduler", "WarmupCosineLR",
    "save_quantized_state", "load_quantized_state",
    "QuantizedTensor", "QuantizedLinear", "QuantizationReport",
    "quantize_tensor", "quantized_matmul", "dequantize",
    "quantize_expert_weights",
    "functional",
]
