"""Hardware and metrics of decode-time serving with expert offloading.

Models the Fiddler/MoE-Infinity deployment the paper's related work covers:
a single GPU whose memory holds only part of the expert set; the rest lives
in host RAM and is fetched over PCIe on a cache miss.  Each decode step
routes one token through every MoE block; per-token latency is

    compute(all blocks) + fetch_penalty * (misses this token)

Expert locality is the entire game: with skewed routing, a small cache plus
a good policy approaches all-resident latency.  The decode loop itself is
:class:`~repro.serving.prefetch.OverlappedFetchScheduler`; this module holds
what it is priced with (:class:`ServingConfig`) and what a replay reports
(:class:`ServingMetrics`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster.device import DeviceSpec, v100_32gb
from ..models.config import MoEModelConfig


@dataclass(frozen=True)
class ServingConfig:
    """Hardware assumptions of the offloaded-serving simulation.

    ``pcie_bandwidth`` and ``fetch_latency`` price a host->device expert
    fetch; defaults approximate PCIe 3.0 x16 and driver overheads.

    ``weight_format`` selects what actually moves over the bus on a cache
    miss: ``"fp16"`` (the paper's accounting, 2 bytes/param) or ``"int8"``
    (the :mod:`repro.nn.quant` format — 1 byte/param codes plus one float
    scale per output channel), which roughly halves per-miss fetch time.
    """

    device: DeviceSpec = field(default_factory=v100_32gb)
    pcie_bandwidth: float = 12e9
    fetch_latency_s: float = 0.5e-3
    context_len: int = 512
    weight_format: str = "fp16"

    def __post_init__(self) -> None:
        if self.weight_format not in ("fp16", "int8"):
            raise ValueError(f"weight_format must be 'fp16' or 'int8', "
                             f"got {self.weight_format!r}")

    def fetch_time(self, expert_nbytes: int) -> float:
        """Seconds to fetch one expert from host memory."""
        return self.fetch_latency_s + expert_nbytes / self.pcie_bandwidth

    def expert_fetch_nbytes(self, config: MoEModelConfig) -> int:
        """Bytes one expert fetch moves, at the configured weight format."""
        if self.weight_format == "fp16":
            return config.expert_nbytes(bytes_per_param=2)
        # int8: 1-byte codes per parameter plus 8-byte per-output-channel
        # scales for the three projection matrices (w_gate/w_up: ffn rows
        # each, w_down: hidden rows).
        h, f = config.hidden_size, config.ffn_hidden_size
        return config.expert_num_params() + 8 * (2 * f + h)


@dataclass
class ServingMetrics:
    """Per-token latency series plus cache statistics."""

    token_latencies: np.ndarray
    hit_rate: float
    evictions: int
    fetch_time_total: float

    @property
    def num_tokens(self) -> int:
        """Token count."""
        return len(self.token_latencies)

    def mean_latency(self) -> float:
        """Mean per-token latency in seconds."""
        return float(self.token_latencies.mean())

    def latency_percentile(self, q: float) -> float:
        """``q``-th percentile (0–100) of per-token latency in seconds.

        Routed through :meth:`repro.telemetry.Histogram.percentile` — one
        quantile implementation for the whole repo.
        """
        from ..telemetry.instruments import Histogram
        return Histogram.of(self.token_latencies).percentile(q)

    def p50_latency(self) -> float:
        """Median per-token latency in seconds."""
        return self.latency_percentile(50)

    def p95_latency(self) -> float:
        """95th-percentile per-token latency in seconds."""
        return self.latency_percentile(95)

    def p99_latency(self) -> float:
        """99th-percentile per-token latency in seconds."""
        return self.latency_percentile(99)

    def throughput_tokens_per_s(self) -> float:
        """Decoded tokens per wall-clock second."""
        total = self.token_latencies.sum()
        return self.num_tokens / total if total > 0 else 0.0
