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

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..cluster.device import DeviceSpec, v100_32gb
from ..models.config import MoEModelConfig
from ..models.moe_block import DISPATCH_MODES
from ..models.transformer import MoETransformer
from ..nn.quant import quantize_expert_weights
from ..nn.tensor import no_grad
from ..parallel.shm import WEIGHT_FORMATS
from ..routing.synthetic import SyntheticRouter
from ..runtime.flops import FlopModel
from ..telemetry import Telemetry
from ..telemetry.monitor import RoutingHealthMonitor
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


DECODE_MODES = ("cached", "reference")


@contextmanager
def serving_flags(model: MoETransformer):
    """Hot-loop model flags for a serving pass, restored on exit.

    Switches the model to eval mode and turns full-probability record
    copies off (routing records keep flowing) for the duration — the
    shared prologue of :class:`LiveDecodeEngine` and the
    continuous-batching engine in :mod:`repro.serving.scheduler`.
    """
    was_training = model.training
    moe_blocks = model._moe_blocks()
    previous_probs = [moe.record_probs for moe in moe_blocks]
    model.eval()
    model.set_record_probs(False)
    try:
        yield
    finally:
        model.train(was_training)
        for moe, previous in zip(moe_blocks, previous_probs):
            moe.record_probs = previous


class LiveEngineBase:
    """Shared setup of the live-model serving engines.

    Validates and applies the dispatch mode, optionally round-trips the
    expert weights through the int8 format, and binds/attaches a
    :mod:`repro.parallel` executor — identical knob semantics for
    :class:`LiveDecodeEngine` and :class:`~repro.serving.scheduler.
    ContinuousBatchingEngine`.
    """

    def __init__(self, model: MoETransformer, dispatch: str = "fused",
                 telemetry: Optional[Telemetry] = None,
                 monitor: Optional[RoutingHealthMonitor] = None,
                 executor=None, weight_format: str = "native",
                 events=None, prefetch=None, tracing=None, flight=None):
        if dispatch not in DISPATCH_MODES:
            raise ValueError(f"dispatch must be one of {DISPATCH_MODES}, "
                             f"got {dispatch!r}")
        if weight_format not in WEIGHT_FORMATS:
            raise ValueError(f"weight_format must be one of "
                             f"{WEIGHT_FORMATS}, got {weight_format!r}")
        self.model = model
        self.model.set_dispatch_mode(dispatch)
        self.telemetry = telemetry
        self.monitor = monitor
        self.executor = executor
        self.weight_format = weight_format
        self.events = events
        # Request-scoped tracing + flight recording: accounting-only
        # sidecars, like the prefetcher below — they never touch the model,
        # so generated ids are bit-identical with them on or off.
        self.tracing = tracing
        self.flight = flight
        if tracing is not None:
            from ..telemetry.tracing import RequestTracer
            if not isinstance(tracing, RequestTracer):
                raise TypeError(f"tracing must be a RequestTracer, "
                                f"got {type(tracing).__name__}")
            tracing.bind(telemetry=telemetry, event_log=events)
        if flight is not None:
            from ..telemetry.flight import FlightRecorder
            if not isinstance(flight, FlightRecorder):
                raise TypeError(f"flight must be a FlightRecorder, "
                                f"got {type(flight).__name__}")
            if monitor is not None:
                flight.watch(monitor)
        self.quantization_report = None
        # Online re-placement: swap_placement() stages a new placement;
        # the serve loops apply it at their next iteration boundary.
        self._swap_lock = threading.Lock()
        self._pending_placement = None
        self.active_placement = monitor.placement \
            if monitor is not None else None
        # Predictive prefetch: an accounting-only sidecar fed with each
        # iteration's routing records.  It never touches the model, so
        # generated ids are bit-identical with prefetch on or off.
        self.prefetcher = None
        if prefetch is not None:
            from .prefetch import DecodePrefetcher, PrefetchConfig
            if not isinstance(prefetch, PrefetchConfig):
                raise TypeError(f"prefetch must be a PrefetchConfig, "
                                f"got {type(prefetch).__name__}")
            self.prefetcher = DecodePrefetcher(
                model.config, prefetch, telemetry=telemetry,
                event_log=events, placement=self.active_placement)
            self.prefetcher.bind(self)
        if weight_format == "int8":
            # Round-trip the expert weights through the int8 format so every
            # in-process path (array dispatch, Tensor dispatch) computes with
            # exactly the values an int8 deployment reconstructs — outputs
            # then match the executor's int8 shared-memory store bit for bit.
            self.quantization_report = quantize_expert_weights(model)
        if executor is not None:
            if not executor.bound:
                executor.bind(model, weight_format=weight_format)
            model.set_expert_executor(executor)

    def swap_placement(self, placement) -> None:
        """Stage a placement hot-swap (online re-placement hook).

        The swap is *deferred*: it takes effect at the engine's next
        iteration boundary (between decode steps), so whatever step is
        in flight finishes entirely under the old placement.  Decode is
        never stalled, and no request is evicted or re-prefilled —
        placement only changes where routing statistics are *scored*
        (and, in a real deployment, where expert weights live), not the
        model arithmetic.
        """
        with self._swap_lock:
            self._pending_placement = placement

    def apply_pending_placement(self):
        """Apply a staged swap, if any; returns the applied placement.

        Called by the serve loops at iteration boundaries.  Updates
        ``active_placement`` and the attached monitor (so locality
        gauges immediately score against the new assignment).
        """
        with self._swap_lock:
            placement = self._pending_placement
            self._pending_placement = None
        if placement is None:
            return None
        self.active_placement = placement
        if self.monitor is not None:
            self.monitor.swap_placement(placement)
        if self.prefetcher is not None:
            # Re-price fetches against the new holders (idempotent when
            # the prefetcher's own replication pass staged this swap).
            self.prefetcher.scheduler.set_placement(placement)
        return placement


class LiveDecodeEngine(LiveEngineBase):
    """Greedy autoregressive decoding on a live (tiny) :class:`MoETransformer`.

    Decoding runs in two explicit phases, the standard serving split:

    **prefill**
        One batched pass over the whole prompt.  In ``mode="cached"`` (the
        default) it populates per-layer :class:`~repro.nn.attention.KVCache`
        buffers through ``MoETransformer.forward_incremental`` (the
        continuous-batching engine's ``forward_slots`` path over every
        row); the last position's logits yield the first generated token.

    **decode**
        One step per remaining token.  Cached mode feeds only the previous
        token through the same path (O(T) total); ``mode="reference"``
        re-runs the full model over the full sequence every step (the
        seed's O(T²) loop, kept selectable for A/B equivalence runs —
        greedy ids are bit-identical across modes).  Both modes write into
        one preallocated ``(batch, prompt_len + num_tokens)`` ids buffer.

    The hot loop runs with gradients disabled, full-probability record
    copies off, and the fused MoE dispatch (``dispatch="fused"``, the
    default; ``"reference"`` stays selectable for A/B runs).  Routing
    records keep flowing in both modes, so the decode stream can still feed
    locality profiling and the cache simulators above.

    With ``telemetry=``, the prompt pass records a wall-clock
    ``serve.prefill`` span and feeds the ``serve.prefill_latency_s``
    histogram; every subsequent token records a ``serve.decode_token`` span
    and feeds ``serve.token_latency_s`` (mean/p50/p95/p99 in the summary
    table).  All spans land back to back on the ``decode`` track, so the
    per-phase sums tile the decode wall time.

    With ``monitor=`` (a :class:`~repro.telemetry.monitor.
    RoutingHealthMonitor`), every forward — the prefill and each decoded
    token — feeds the monitor's routing-health gauges from the model's
    routing records, so a long decode loop can be scraped live through
    :class:`~repro.telemetry.server.MetricsServer` while it runs.
    """

    def __init__(self, model: MoETransformer, dispatch: str = "fused",
                 mode: str = "cached",
                 telemetry: Optional[Telemetry] = None,
                 monitor: Optional[RoutingHealthMonitor] = None,
                 executor=None, weight_format: str = "native",
                 events=None, prefetch=None, tracing=None, flight=None):
        if mode not in DECODE_MODES:
            raise ValueError(f"mode must be one of {DECODE_MODES}, "
                             f"got {mode!r}")
        super().__init__(model, dispatch=dispatch, telemetry=telemetry,
                         monitor=monitor, executor=executor,
                         weight_format=weight_format, events=events,
                         prefetch=prefetch, tracing=tracing, flight=flight)
        self.mode = mode

    def decode(self, prompt_ids: np.ndarray, num_tokens: int,
               mode: Optional[str] = None) -> np.ndarray:
        """Greedily decode ``num_tokens`` continuations of ``prompt_ids``.

        ``prompt_ids`` is ``(batch, prompt_len)``; returns the generated ids
        as ``(batch, num_tokens)``.  The prompt plus generation must fit in
        the model's ``max_seq_len``.  ``mode`` overrides the engine default
        (``"cached"`` | ``"reference"``) for this call.
        """
        mode = self.mode if mode is None else mode
        if mode not in DECODE_MODES:
            raise ValueError(f"mode must be one of {DECODE_MODES}, "
                             f"got {mode!r}")
        prompt_ids = np.asarray(prompt_ids)
        if prompt_ids.ndim != 2:
            raise ValueError(f"expected (batch, prompt_len) prompt ids, "
                             f"got {prompt_ids.shape}")
        if num_tokens < 1:
            raise ValueError("num_tokens must be positive")
        max_len = self.model.config.max_seq_len
        batch, prompt_len = prompt_ids.shape
        total_len = prompt_len + num_tokens
        if total_len > max_len:
            raise ValueError(f"prompt ({prompt_len}) + generation "
                             f"({num_tokens}) exceeds max_seq_len {max_len}")
        # One ids buffer for the whole sequence, written in place — the
        # prompt up front, each generated token behind it (no per-token
        # concatenate-and-copy growth in either mode).
        ids = np.empty((batch, total_len), dtype=np.int64)
        ids[:, :prompt_len] = prompt_ids
        telemetry = self.telemetry
        monitor = self.monitor
        prefetcher = self.prefetcher
        tracing = self.tracing
        flight = self.flight
        num_experts = self.model.config.num_experts
        clock = telemetry.tracer.clock if telemetry is not None else None
        # One decode() call is one traced request: the whole batch advances
        # in lockstep, so each step is attributed to this stream with the
        # step's token count as its weight.  The ledger runs on a virtual
        # clock starting at 0 (wall-clock deltas from perf_counter), the
        # same convention the continuous-batching engine uses.
        steps = 0
        now_v = 0.0
        trace_ids: list = []
        token_latencies: list = []
        if tracing is not None:
            ledger = tracing.admit(now=0.0, prompt_len=batch * prompt_len)
            trace_ids = [ledger.trace_id]

        def observe_routing(kind: str) -> None:
            if monitor is None and prefetcher is None and tracing is None \
                    and flight is None:
                return
            records = self.model.routing_records()
            report = prefetcher.observe_records(records) \
                if prefetcher is not None else None
            if tracing is not None and report is not None:
                tracing.attribute_fetch(report)
            if flight is not None:
                counts = np.stack([record.access_counts(num_experts)
                                   for record in records]) if records \
                    else None
                flight.observe(step=steps, kind=kind, time=now_v,
                               counts=counts, active_slots=batch,
                               placement=self.active_placement,
                               trace_ids=trace_ids)
            # Monitor last: a latched anomaly auto-dumps the flight ring,
            # which must already hold this step's record.
            if monitor is not None:
                monitor.observe_records(records, num_experts=num_experts)

        with serving_flags(self.model), no_grad():
            self.apply_pending_placement()
            mark = clock.now() if clock is not None else 0.0
            t0 = time.perf_counter() if tracing is not None else 0.0
            if tracing is not None:
                tracing.set_step([(trace_ids[0], batch * prompt_len)])
            if mode == "cached":
                caches = self.model.new_kv_caches(batch,
                                                  max_len=total_len)
                logits = self.model.forward_incremental(
                    ids[:, :prompt_len], caches)
            else:
                logits = self.model(ids[:, :prompt_len])
            ids[:, prompt_len] = np.argmax(logits.data[:, -1, :], axis=-1)
            if tracing is not None:
                elapsed = time.perf_counter() - t0
                now_v += elapsed
                tracing.prefill(trace_ids, now_v - elapsed, elapsed)
            if telemetry is not None:
                now = clock.now()
                telemetry.record_span(
                    "serve.prefill", mark, now - mark,
                    category="prefill", track="decode", mode=mode,
                    prompt_len=prompt_len)
                telemetry.histogram(
                    "serve.prefill_latency_s").observe(now - mark)
                mark = now
            observe_routing("prefill")
            steps += 1
            for token in range(1, num_tokens):
                # Token steps are the decode loop's iteration boundary:
                # a staged placement swap lands here, between steps.
                self.apply_pending_placement()
                position = prompt_len + token
                t0 = time.perf_counter() if tracing is not None else 0.0
                if tracing is not None:
                    tracing.set_step([(trace_ids[0], batch)])
                if mode == "cached":
                    logits = self.model.forward_incremental(
                        ids[:, position - 1:position], caches)
                else:
                    logits = self.model(ids[:, :position])
                ids[:, position] = np.argmax(logits.data[:, -1, :],
                                             axis=-1)
                if tracing is not None:
                    elapsed = time.perf_counter() - t0
                    now_v += elapsed
                    token_latencies.append(elapsed)
                    tracing.decode_step(trace_ids, now_v - elapsed, elapsed)
                if telemetry is not None:
                    now = clock.now()
                    telemetry.record_span(
                        "serve.decode_token", mark, now - mark,
                        category="decode", track="decode", mode=mode,
                        token=token)
                    telemetry.histogram(
                        "serve.token_latency_s").observe(now - mark)
                    mark = now
                observe_routing("decode")
                steps += 1
        if tracing is not None:
            tracing.finish(trace_ids[0], now=now_v, reason="max_tokens",
                           token_latencies=token_latencies)
        return ids[:, prompt_len:]


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
