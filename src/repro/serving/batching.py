"""Continuous batching: concurrent decode streams sharing one expert cache.

Single-stream decoding pays one potential fetch per (layer, expert) per
token.  With several concurrent requests, tokens decoded in the same engine
step share expert activations — a fetched expert serves every stream that
routed to it — so cache pressure *per token* drops as concurrency rises.
This simulates that effect plus simple request queueing:

* Poisson request arrivals with configurable decode lengths,
* a batch slot limit (max concurrent streams),
* per-step expert union across active streams (fetch once, use many),
* per-request latency = queueing + decode steps' wall time.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from ..models.config import MoEModelConfig
from ..routing.synthetic import SyntheticRouter
from ..telemetry.instruments import Histogram
from ..telemetry.tracing import mint_trace_id
from .cache import ExpertCache
from .engine import ServingConfig
from .prefetch import OverlappedFetchScheduler, sample_decode_step


@dataclass(frozen=True)
class Request:
    """One inference request.

    The trace-level simulator below only needs the timing fields; the live
    :class:`~repro.serving.scheduler.ContinuousBatchingEngine` additionally
    decodes real tokens, so ``prompt_ids`` (a 1-D token-id array) carries
    the prompt.  ``decode_tokens`` is the generation budget — the live
    engine may finish earlier on EOS.  ``prompt_ids`` stays out of
    equality/ordering so workload lists still compare by timing.

    Every request carries a ``trace_id`` minted at construction — the
    request-scoped trace context the serving engines propagate through
    admission → prefill → ragged decode → eviction (see
    :class:`~repro.telemetry.tracing.RequestTracer`).  It stays out of
    equality/repr for the same reason as ``prompt_ids``.
    """

    request_id: int
    arrival_time: float
    decode_tokens: int
    prompt_ids: Optional[np.ndarray] = field(default=None, compare=False,
                                             repr=False)
    trace_id: Optional[str] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.decode_tokens, numbers.Integral) or \
                self.decode_tokens < 1:
            raise ValueError(f"decode_tokens must be a positive integer, "
                             f"got {self.decode_tokens!r}")
        if self.trace_id is None:
            object.__setattr__(self, "trace_id", mint_trace_id())
        if self.prompt_ids is not None:
            # Check the dtype before the cast, which would truncate float
            # ids silently (the rule of repro.models.generate).
            ids = np.asarray(self.prompt_ids)
            if ids.ndim != 1 or ids.size < 1 or \
                    not np.issubdtype(ids.dtype, np.integer):
                raise ValueError(f"prompt_ids must be a non-empty 1-D integer "
                                 f"array, got {ids.dtype} of shape "
                                 f"{ids.shape}")
            object.__setattr__(self, "prompt_ids", ids.astype(np.int64))

    @property
    def prompt_len(self) -> int:
        """Prompt length in tokens (0 when the request carries no prompt)."""
        return 0 if self.prompt_ids is None else int(self.prompt_ids.size)


def poisson_workload(num_requests: int, arrival_rate: float,
                     mean_decode_tokens: int = 64, seed: int = 0,
                     rng: Optional[np.random.Generator] = None,
                     prompt_len: Optional[Union[int, Tuple[int, int]]] = None,
                     vocab_size: Optional[int] = None) -> List[Request]:
    """Sample a Poisson arrival stream with geometric decode lengths.

    Pass ``rng`` to draw from a caller-owned generator (``seed`` is then
    ignored), e.g. to chain several workload phases off one stream.  With
    ``prompt_len`` (an int, or an inclusive ``(lo, hi)`` range) and
    ``vocab_size``, each request also gets uniform-random ``prompt_ids``
    for the live continuous-batching engine.
    """
    if num_requests < 1:
        raise ValueError("num_requests must be positive")
    if arrival_rate <= 0:
        raise ValueError("arrival_rate must be positive")
    if mean_decode_tokens < 1:
        raise ValueError("mean_decode_tokens must be positive")
    if rng is None:
        rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / arrival_rate,
                                         size=num_requests))
    lengths = 1 + rng.geometric(1.0 / mean_decode_tokens, size=num_requests)
    prompts: List[Optional[np.ndarray]] = [None] * num_requests
    if prompt_len is not None:
        if vocab_size is None:
            raise ValueError("vocab_size is required when prompt_len is set")
        lo, hi = (prompt_len if isinstance(prompt_len, tuple)
                  else (prompt_len, prompt_len))
        if lo < 1 or hi < lo:
            raise ValueError(f"prompt_len range must satisfy 1 <= lo <= hi, "
                             f"got ({lo}, {hi})")
        prompt_lens = rng.integers(lo, hi + 1, size=num_requests)
        prompts = [rng.integers(0, vocab_size, size=int(n))
                   for n in prompt_lens]
    return [Request(i, float(arrivals[i]), int(lengths[i]),
                    prompt_ids=prompts[i])
            for i in range(num_requests)]


FINISH_REASONS = ("max_tokens", "eos")


@dataclass
class RequestOutcome:
    """Timing (and, from the live engine, content) of one completed request.

    The trace-level simulator fills only the timing fields; the live
    :class:`~repro.serving.scheduler.ContinuousBatchingEngine` also records
    the first-token time, the finish reason (``"eos"`` | ``"max_tokens"``),
    the generated ids, and the per-token latency series.
    """

    request_id: int
    arrival_time: float
    start_time: float
    finish_time: float
    decode_tokens: int
    first_token_time: Optional[float] = None
    finish_reason: str = "max_tokens"
    token_ids: Optional[np.ndarray] = field(default=None, compare=False,
                                            repr=False)
    token_latencies: Optional[np.ndarray] = field(default=None,
                                                  compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.finish_reason not in FINISH_REASONS:
            raise ValueError(f"finish_reason must be one of "
                             f"{FINISH_REASONS}, got {self.finish_reason!r}")

    @property
    def queueing_delay(self) -> float:
        """Time spent waiting for a batch slot."""
        return self.start_time - self.arrival_time

    @property
    def latency(self) -> float:
        """Arrival-to-finish time."""
        return self.finish_time - self.arrival_time

    @property
    def ttft(self) -> Optional[float]:
        """Arrival-to-first-token time (``None`` from the simulator)."""
        if self.first_token_time is None:
            return None
        return self.first_token_time - self.arrival_time


@dataclass
class BatchedServingMetrics:
    """Fleet-level outcome of a batched serving run.

    Percentile math routes through :meth:`repro.telemetry.Histogram.
    percentile` — one quantile implementation for the whole repo.
    """

    outcomes: List[RequestOutcome]
    hit_rate: float
    total_steps: int
    wall_time: float

    def mean_latency(self) -> float:
        """Mean per-request (arrival-to-finish) latency in seconds."""
        return float(np.mean([o.latency for o in self.outcomes]))

    def latency_percentile(self, q: float) -> float:
        """``q``-th percentile (0–100) of per-request latency in seconds."""
        return Histogram.of(o.latency for o in self.outcomes).percentile(q)

    def p50_latency(self) -> float:
        """Median per-request latency in seconds."""
        return self.latency_percentile(50)

    def p95_latency(self) -> float:
        """95th-percentile per-request latency in seconds."""
        return self.latency_percentile(95)

    def p99_latency(self) -> float:
        """99th-percentile per-request latency in seconds."""
        return self.latency_percentile(99)

    def mean_queueing(self) -> float:
        """Mean queueing delay in seconds."""
        return float(np.mean([o.queueing_delay for o in self.outcomes]))

    def throughput_tokens_per_s(self) -> float:
        """Decoded tokens per wall-clock second."""
        total = sum(o.decode_tokens for o in self.outcomes)
        return total / self.wall_time if self.wall_time > 0 else 0.0


class BatchedDecodeSimulator:
    """Continuous-batching decode loop over a shared expert cache.

    The loop owns request queueing and admission.  Each engine step samples
    one demand mask per active stream (:func:`~repro.serving.prefetch.
    sample_decode_step`) and prices their union (OR) through an
    :class:`~repro.serving.prefetch.OverlappedFetchScheduler` without
    speculation, whose compute window covers every active stream.
    """

    def __init__(self, config: MoEModelConfig, router: SyntheticRouter,
                 cache: ExpertCache, max_batch: int = 8,
                 serving: Optional[ServingConfig] = None, seed: int = 0):
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        self.config = config
        self.router = router
        self.cache = cache
        self.max_batch = max_batch
        self.serving = serving or ServingConfig()
        self.seed = seed

    def run(self, requests: List[Request]) -> BatchedServingMetrics:
        """Serve ``requests`` to completion."""
        if not requests:
            raise ValueError("need at least one request")
        rng = np.random.default_rng(self.seed)
        logits = self.router.base_logits
        temperature = self.router.regime.gate_temperature
        scheduler = OverlappedFetchScheduler(self.config, None, self.cache,
                                             self.serving)

        pending = sorted(requests, key=lambda r: r.arrival_time)
        queue: List[Request] = []
        active: dict = {}          # request_id -> tokens remaining
        started: dict = {}
        outcomes: List[RequestOutcome] = []
        by_id = {r.request_id: r for r in requests}

        now = 0.0
        steps = 0
        while pending or queue or active:
            # admit arrivals up to now
            while pending and pending[0].arrival_time <= now:
                queue.append(pending.pop(0))
            while queue and len(active) < self.max_batch:
                request = queue.pop(0)
                active[request.request_id] = request.decode_tokens
                started[request.request_id] = max(now,
                                                  request.arrival_time)
            if not active:
                now = pending[0].arrival_time
                continue

            # one engine step: union of experts needed across streams
            needed = np.zeros(logits.shape, dtype=bool)
            for _ in active:
                needed |= sample_decode_step(logits, temperature,
                                             self.config.top_k, rng)
            now += scheduler.step(needed, tokens=len(active)).latency_s
            steps += 1

            finished = [rid for rid, left in active.items() if left <= 1]
            for rid in active:
                active[rid] -= 1
            for rid in finished:
                del active[rid]
                request = by_id[rid]
                outcomes.append(RequestOutcome(
                    request_id=rid, arrival_time=request.arrival_time,
                    start_time=started[rid], finish_time=now,
                    decode_tokens=request.decode_tokens))

        outcomes.sort(key=lambda o: o.request_id)
        return BatchedServingMetrics(outcomes=outcomes,
                                     hit_rate=self.cache.stats.hit_rate,
                                     total_steps=steps, wall_time=now)
