"""Decode-time serving simulation with expert offloading.

Models the Fiddler/MoE-Infinity deployment the paper's related work covers:
a single GPU whose memory holds only part of the expert set; the rest lives
in host RAM and is fetched over PCIe on a cache miss.  Each decode step
routes one token through every MoE block; per-token latency is

    compute(all blocks) + fetch_penalty * (misses this token)

Expert locality is the entire game: with skewed routing, a small cache plus
a good policy approaches all-resident latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..cluster.device import DeviceSpec, v100_32gb
from ..models.config import MoEModelConfig
from ..routing.synthetic import SyntheticRouter
from ..runtime.flops import FlopModel
from .cache import ExpertCache


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


class DecodeSimulator:
    """Simulate autoregressive decoding with an expert cache.

    Routing decisions come from a :class:`SyntheticRouter`'s popularity
    logits, sampled per token (Gumbel top-k), so the access stream has the
    same locality the profiling pass would measure.
    """

    def __init__(self, config: MoEModelConfig, router: SyntheticRouter,
                 cache: ExpertCache, serving: Optional[ServingConfig] = None,
                 seed: int = 0):
        self.config = config
        self.router = router
        self.cache = cache
        self.serving = serving or ServingConfig()
        self.seed = seed
        self.flops = FlopModel(config)
        self._expert_nbytes = self.serving.expert_fetch_nbytes(config)

    def _token_compute_time(self) -> float:
        """One token through every block (attention + top_k experts)."""
        device = self.serving.device
        per_block = self.flops.backbone_layer_time(
            device, 1.0, self.serving.context_len)
        per_block += self.config.top_k * self.flops.expert_time(device, 1.0)
        return per_block * self.config.num_layers + \
            self.flops.head_time(device, 1.0)

    def run(self, num_tokens: int) -> ServingMetrics:
        """Decode ``num_tokens`` tokens; returns the latency series."""
        if num_tokens < 1:
            raise ValueError("num_tokens must be positive")
        rng = np.random.default_rng(self.seed)
        logits = self.router.base_logits  # (L, E)
        temperature = self.router.regime.gate_temperature
        compute = self._token_compute_time()
        fetch = self.serving.fetch_time(self._expert_nbytes)

        latencies = np.empty(num_tokens)
        fetch_total = 0.0
        k = self.config.top_k
        for token in range(num_tokens):
            gumbel = rng.gumbel(size=logits.shape) * temperature
            scores = logits + gumbel
            chosen = np.argpartition(-scores, k - 1, axis=1)[:, :k]
            misses = 0
            for layer in range(self.config.num_layers):
                for expert in chosen[layer]:
                    if not self.cache.access((layer, int(expert))):
                        misses += 1
            latency = compute + misses * fetch
            fetch_total += misses * fetch
            latencies[token] = latency
        return ServingMetrics(token_latencies=latencies,
                              hit_rate=self.cache.stats.hit_rate,
                              evictions=self.cache.stats.evictions,
                              fetch_time_total=fetch_total)
