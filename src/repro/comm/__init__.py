"""Communication substrate: cost models, collectives, compression."""

from .collective import (all_to_all_time, cross_node_bytes_all_to_all,
                         ring_all_reduce_time, status_sync_time)
from .compression import (FP16, INT4, INT8, SCHEMES, CompressionScheme,
                          apply_scheme, dequantize_absmax, quantization_error,
                          quantize_absmax, roundtrip)
from .cost import CommCostModel

__all__ = [
    "CommCostModel",
    "CompressionScheme", "FP16", "INT8", "INT4", "SCHEMES",
    "quantize_absmax", "dequantize_absmax", "roundtrip",
    "quantization_error", "apply_scheme",
    "all_to_all_time", "status_sync_time",
    "ring_all_reduce_time", "cross_node_bytes_all_to_all",
]
