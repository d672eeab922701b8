"""Live serving: slot-pool KV cache, admission loop, and greedy decode.

Production MoE serving (vLLM-style continuous batching) keeps a fixed pool
of KV-cache *slots* and interleaves requests: newly arrived requests are
admitted into free slots mid-flight, every engine iteration runs one
batched decode step over all active slots, and a request that finishes
(EOS or token budget) releases its slot to the next waiting request — no
barrier at batch boundaries, no idle slots while work is queued.

:meth:`ContinuousBatchingEngine.serve` is the only live serve loop in
:mod:`repro.serving`; every sidecar (telemetry, monitor, prefetch,
tracing, flight) is wired into it once.  The pieces:

* :class:`SlotPool` — the free-list over the rows of the model's KV
  cache, rewinding a row's cursor (:meth:`repro.nn.attention.KVCache.
  reset`) on acquire so a re-issued slot can never leak the previous
  occupant's KV entries.
* :class:`ContinuousBatchingEngine` — the admit → prefill → decode → evict
  loop over ``MoETransformer.forward_slots`` (ragged per-slot attention).
* :class:`LiveDecodeEngine` — ``decode(prompt_ids, num_tokens)``: one
  prompt batch served through that loop as equal-length requests all
  arriving at t=0.
* :class:`ContinuousServingMetrics` — per-request latency / TTFT /
  queueing percentiles (through :meth:`repro.telemetry.Histogram.
  percentile`) and SLO-conditioned goodput.

Greedy ids from either entry point equal per-request
:func:`repro.models.generate` with ``temperature=0`` — the full
re-forward oracle that ``tests/serving`` and the serving benchmarks check
against.

Time is a *virtual clock*: ``now`` advances by the measured wall time of
each engine iteration, and fast-forwards across idle gaps to the next
arrival instead of sleeping.  Queueing delay and TTFT are therefore
honest — a request that arrives while the engine is busy waits for real
compute — while a quiet stream doesn't stall the benchmark.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..models.moe_block import routing_counts
from ..models.transformer import MoETransformer
from ..nn.attention import KVCache
from ..nn.tensor import no_grad
from ..placement.base import Placement
from ..placement.replication import ReplicatedPlacement
from ..telemetry import Telemetry
from ..telemetry.events import EventLog, MonitorEvent
from ..telemetry.flight import FlightRecorder
from ..telemetry.instruments import Histogram
from ..telemetry.monitor import RoutingHealthMonitor
from ..telemetry.tracing import RequestTracer
from .batching import Request, RequestOutcome
from .prefetch import DecodePrefetcher, PrefetchConfig

ADMISSION_POLICIES = ("fcfs", "shortest")


@contextmanager
def serving_flags(model: MoETransformer):
    """Hot-loop model flags for a serving pass, restored on exit.

    Switches the model to eval mode and turns full-probability record
    copies off (routing records keep flowing) for the duration — the
    serve loop's prologue.
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


class SlotPool:
    """Free-list over the rows of a model's KV cache, one slot per row.

    Slots are handed out lowest-index first (deterministic — tests and
    event logs can predict placements) and a slot's cursor, which serves
    every layer, is rewound on :meth:`acquire`, so the next occupant starts
    from position zero and the length-aware mask in ``forward_slots`` can
    never see the previous request's stale entries.
    """

    def __init__(self, cache: KVCache):
        self.cache = cache
        self.max_slots = cache.batch
        self._free = list(range(cache.batch))  # kept sorted, lowest first

    @property
    def free_count(self) -> int:
        """Number of unoccupied slots."""
        return len(self._free)

    @property
    def active_count(self) -> int:
        """Number of occupied slots."""
        return self.max_slots - len(self._free)

    def acquire(self) -> int:
        """Claim the lowest free slot (cursors rewound); raise when full."""
        if not self._free:
            raise RuntimeError("slot pool exhausted")
        slot = self._free.pop(0)
        self.cache.reset(slots=[slot])
        return slot

    def release(self, slot: int) -> None:
        """Return ``slot`` to the pool."""
        if not 0 <= slot < self.max_slots:
            raise ValueError(f"slot {slot} out of range 0..{self.max_slots - 1}")
        if slot in self._free:
            raise ValueError(f"slot {slot} is already free")
        self._free.append(slot)
        self._free.sort()


@dataclass
class _RequestState:
    """Book-keeping for one admitted request while it occupies a slot."""

    request: Request
    slot: int
    start_time: float
    first_token_time: Optional[float] = None
    token_ids: List[int] = field(default_factory=list)
    token_latencies: List[float] = field(default_factory=list)

    @property
    def remaining(self) -> int:
        """Tokens of decode budget left."""
        return self.request.decode_tokens - len(self.token_ids)

    @property
    def last_token(self) -> int:
        """Most recently generated token id."""
        return self.token_ids[-1]


@dataclass
class ContinuousServingMetrics:
    """Fleet-level outcome of a continuous-batching run.

    Percentile math routes through :meth:`repro.telemetry.Histogram.
    percentile`; :meth:`goodput_tokens_per_s` counts only tokens from
    requests that met the given SLOs, the serving-paper framing of
    "throughput that users actually experienced as responsive".
    """

    outcomes: List[RequestOutcome]
    wall_time: float
    total_steps: int
    max_slots: int

    @property
    def total_tokens(self) -> int:
        """Tokens actually generated (EOS may cut budgets short)."""
        return sum(o.decode_tokens for o in self.outcomes)

    def throughput_tokens_per_s(self) -> float:
        """Generated tokens per (virtual) wall-clock second."""
        return self.total_tokens / self.wall_time if self.wall_time > 0 \
            else 0.0

    def request_latency_percentile(self, q: float) -> float:
        """``q``-th percentile (0–100) of arrival-to-finish latency."""
        return Histogram.of(o.latency for o in self.outcomes).percentile(q)

    def token_latency_percentile(self, q: float) -> float:
        """``q``-th percentile (0–100) of the pooled per-token latencies."""
        pooled = [float(v) for o in self.outcomes
                  if o.token_latencies is not None
                  for v in o.token_latencies]
        return Histogram.of(pooled).percentile(q)

    def p50_latency(self) -> float:
        """Median per-request latency in seconds."""
        return self.request_latency_percentile(50)

    def p95_latency(self) -> float:
        """95th-percentile per-request latency in seconds."""
        return self.request_latency_percentile(95)

    def p99_latency(self) -> float:
        """99th-percentile per-request latency in seconds."""
        return self.request_latency_percentile(99)

    def mean_queueing(self) -> float:
        """Mean slot-wait (admission minus arrival) in seconds."""
        return float(np.mean([o.queueing_delay for o in self.outcomes]))

    def mean_ttft(self) -> float:
        """Mean arrival-to-first-token time in seconds."""
        return float(np.mean([o.ttft for o in self.outcomes]))

    def goodput_tokens_per_s(self, slo_ttft_s: Optional[float] = None,
                             slo_token_latency_s: Optional[float] = None
                             ) -> float:
        """Throughput counting only requests that met the SLOs.

        A request qualifies when its TTFT is within ``slo_ttft_s`` (if
        given) *and* its p95 per-token latency is within
        ``slo_token_latency_s`` (if given).  With no SLOs this equals
        :meth:`throughput_tokens_per_s`.
        """
        good = 0
        for o in self.outcomes:
            if slo_ttft_s is not None and (o.ttft is None
                                           or o.ttft > slo_ttft_s):
                continue
            if slo_token_latency_s is not None:
                if o.token_latencies is None or \
                        Histogram.of(o.token_latencies).percentile(95) > \
                        slo_token_latency_s:
                    continue
            good += o.decode_tokens
        return good / self.wall_time if self.wall_time > 0 else 0.0


class ContinuousBatchingEngine:
    """Slot-pool continuous batching over a live :class:`MoETransformer`.

    Each engine iteration: admit waiting requests into free slots
    (``admission="fcfs"`` in arrival order, ``"shortest"`` smallest decode
    budget first — a shortest-job heuristic that trades fairness for tail
    latency), run one batched prefill per group of equal-length prompts
    (equal lengths keep padded garbage tokens out of the routing records),
    then one batched ragged decode step over every active slot through
    ``MoETransformer.forward_slots``.  A request finishes on its decode
    budget (``finish_reason="max_tokens"``) or on emitting
    ``eos_token_id`` (``"eos"``, the EOS token included in the output);
    its slot is released and re-acquired by the next waiting request on
    the same iteration boundary.

    Greedy decoding throughout, with gradients disabled and
    full-probability record copies off; routing records keep flowing, so
    the serve stream can feed locality profiling.  Every request's ids
    equal its solo :func:`repro.models.generate` (``temperature=0``) ids,
    whatever it shares the pool with.

    Knobs: ``max_slots`` (KV pool size = max concurrent requests),
    ``admission``, ``eos_token_id``, ``max_len`` (per-slot cache length,
    default the model's ``max_seq_len``), ``events`` (a
    :class:`~repro.telemetry.events.EventLog` receiving
    ``request_admit`` / ``request_evict`` / ``placement_swap`` events), and
    ``prefetch`` (a :class:`~repro.serving.prefetch.PrefetchConfig`
    attaching the predictive prefetch + hot-expert replication sidecar).

    With ``telemetry=``, the run feeds ``serve.queueing_s``,
    ``serve.ttft_s``, ``serve.token_latency_s`` (every generated token,
    the prefill's first token included: the wall time of the forward
    that produced it), ``serve.prefill_latency_s`` and
    ``serve.request_latency_s`` histograms plus ``serve.queue_depth`` and
    ``serve.active_slots`` gauges — scrapeable live through the
    Prometheus exporter while a long run is in flight.  Each forward also
    closes a ``serve.prefill`` or ``serve.decode_token`` span on the
    ``decode`` track; the spans are recorded back to back, so they tile
    the loop's wall time.

    With ``monitor=`` (a :class:`~repro.telemetry.monitor.
    RoutingHealthMonitor`), every forward feeds the routing-health gauges.
    With ``tracing=`` (a :class:`~repro.telemetry.tracing.RequestTracer`),
    every request's ``trace_id`` is propagated admission → prefill →
    ragged decode → eviction into a per-request cost ledger: ragged step
    costs split across co-resident slots by token share, prefill stalls
    charged to the slots they delayed, prefetch/dispatch bytes attributed
    per request.  With ``flight=`` (a :class:`~repro.telemetry.flight.
    FlightRecorder`), every engine step appends a ring record (routing
    counts, queue depth, per-slot cursors, co-resident trace ids) and a
    monitor anomaly auto-dumps the post-mortem bundle.  All sidecars are
    accounting-only: generated ids are bit-identical on or off.
    """

    def __init__(self, model: MoETransformer, max_slots: int = 8,
                 telemetry: Optional[Telemetry] = None,
                 monitor: Optional[RoutingHealthMonitor] = None,
                 events: Optional[EventLog] = None,
                 eos_token_id: Optional[int] = None,
                 admission: str = "fcfs",
                 max_len: Optional[int] = None,
                 prefetch=None, tracing=None, flight=None):
        if admission not in ADMISSION_POLICIES:
            raise ValueError(f"admission must be one of "
                             f"{ADMISSION_POLICIES}, got {admission!r}")
        for name, sidecar, kind in (("tracing", tracing, RequestTracer),
                                    ("flight", flight, FlightRecorder),
                                    ("prefetch", prefetch, PrefetchConfig)):
            if sidecar is not None and not isinstance(sidecar, kind):
                raise TypeError(f"{name} must be a {kind.__name__}, "
                                f"got {type(sidecar).__name__}")
        self.model = model
        self.telemetry = telemetry
        self.monitor = monitor
        self.events = events
        self.tracing = tracing
        self.flight = flight
        if tracing is not None:
            tracing.bind(telemetry=telemetry, event_log=events)
        if flight is not None and monitor is not None:
            flight.watch(monitor)
        # Online re-placement: swap_placement() stages a new placement;
        # serve() applies it at its next iteration boundary.
        self._swap_lock = threading.Lock()
        self._pending_placement = None
        self.active_placement = monitor.placement \
            if monitor is not None else None
        self.prefetcher = None
        if prefetch is not None:
            self.prefetcher = DecodePrefetcher(
                model.config, prefetch, telemetry=telemetry,
                event_log=events, placement=self.active_placement)
            self.prefetcher.bind(self)
        self.eos_token_id = eos_token_id
        self.admission = admission
        self._size_pool(max_slots, model.config.max_seq_len
                        if max_len is None else max_len)

    def _size_pool(self, max_slots: int, max_len: int) -> None:
        """(Re)allocate the KV slot pool: ``max_slots`` rows of
        ``max_len`` positions in every layer."""
        self.max_slots = int(max_slots)
        self.max_len = int(max_len)
        self.cache = self.model.new_kv_cache(self.max_slots,
                                             max_len=self.max_len)
        self.pool = SlotPool(self.cache)

    # ------------------------------------------------------------------ #
    # online re-placement
    # ------------------------------------------------------------------ #
    def swap_placement(self, placement) -> None:
        """Stage a placement hot-swap (online re-placement hook).

        The swap is *deferred*: it takes effect at the engine's next
        iteration boundary (between decode steps), so whatever step is
        in flight finishes entirely under the old placement.  Decode is
        never stalled, and no request is evicted or re-prefilled —
        placement only changes where routing statistics are *scored*
        (and, in a real deployment, where expert weights live), not the
        model arithmetic.

        The placement is checked here, where it is staged, so a bad one
        never reaches the serve loop: anything but a
        :class:`~repro.placement.base.Placement` or a
        :class:`~repro.placement.replication.ReplicatedPlacement` raises
        ``TypeError``, a ``(num_layers, num_experts)`` other than the
        model's ``ValueError``, and the staged swap is left as it was.
        """
        if not isinstance(placement, (Placement, ReplicatedPlacement)):
            raise TypeError(f"placement must be a Placement or a "
                            f"ReplicatedPlacement, got "
                            f"{type(placement).__name__}")
        config = self.model.config
        shape = (placement.num_layers, placement.num_experts)
        expected = (config.num_layers, config.num_experts)
        if shape != expected:
            raise ValueError(f"placement shape {shape} does not match the "
                             f"model's {expected}")
        with self._swap_lock:
            self._pending_placement = placement

    def apply_pending_placement(self):
        """Apply a staged swap, if any; returns the applied placement.

        Called by the serve loop at iteration boundaries.  Hands the
        placement to the attached monitor (so locality gauges immediately
        score against the new assignment), then to the prefetcher, and
        only then sets ``active_placement``: a monitor that rejects the
        swap raises here and leaves the engine and both sidecars on the
        old placement (the staged swap is dropped).
        """
        with self._swap_lock:
            placement = self._pending_placement
            self._pending_placement = None
        if placement is None:
            return None
        if self.monitor is not None:
            self.monitor.swap_placement(placement)
        if self.prefetcher is not None:
            # Re-price fetches against the new holders (idempotent when
            # the prefetcher's own replication pass staged this swap).
            self.prefetcher.scheduler.set_placement(placement)
        self.active_placement = placement
        return placement

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #
    def _pop_next(self, queue: List[Request]) -> Request:
        """Remove and return the next request per the admission policy."""
        if self.admission == "fcfs":
            return queue.pop(0)
        # shortest: smallest decode budget, arrival order breaking ties
        best = min(range(len(queue)),
                   key=lambda i: (queue[i].decode_tokens, i))
        return queue.pop(best)

    def _emit(self, kind: str, now: float, **labels) -> None:
        if self.events is not None:
            self.events.emit(MonitorEvent(kind=kind, time_unix=now,
                                          labels=labels))

    # ------------------------------------------------------------------ #
    # serve loop
    # ------------------------------------------------------------------ #
    def serve(self, requests: Sequence[Request]) -> ContinuousServingMetrics:
        """Serve ``requests`` to completion; returns fleet metrics.

        Every request must carry ``prompt_ids`` in ``[0, vocab_size)``
        and fit the slot length: ``prompt_len + decode_tokens <=
        max_len``; a request that does not raises ``ValueError`` before
        any slot is taken.  Requests are consumed in arrival-time order
        from an open-loop stream — arrivals are never delayed by the
        engine, only admissions are.  If the run raises, the slots it
        held are released before the exception propagates.
        """
        if not requests:
            raise ValueError("need at least one request")
        vocab_size = self.model.config.vocab_size
        for request in requests:
            if request.prompt_ids is None:
                raise ValueError(f"request {request.request_id} has no "
                                 f"prompt_ids; the live engine decodes "
                                 f"real tokens")
            low, high = request.prompt_ids.min(), request.prompt_ids.max()
            if low < 0 or high >= vocab_size:
                raise ValueError(
                    f"request {request.request_id}: prompt token ids must "
                    f"lie in [0, {vocab_size}), got {low}..{high}")
            total = request.prompt_len + request.decode_tokens
            if total > self.max_len:
                raise ValueError(
                    f"request {request.request_id}: prompt "
                    f"({request.prompt_len}) + decode budget "
                    f"({request.decode_tokens}) exceeds slot max_len "
                    f"{self.max_len}")

        pending = sorted(requests, key=lambda r: (r.arrival_time,
                                                  r.request_id))
        queue: List[Request] = []
        active: Dict[int, _RequestState] = {}  # slot -> state
        outcomes: List[RequestOutcome] = []
        now = 0.0
        steps = 0

        telemetry = self.telemetry
        monitor = self.monitor
        prefetcher = self.prefetcher
        tracing = self.tracing
        flight = self.flight
        num_experts = self.model.config.num_experts
        clock = telemetry.tracer.clock if telemetry is not None else None
        mark = clock.now() if clock is not None else 0.0

        engine_steps = 0  # every forward: prefill groups + decode steps

        def observe_routing(kind: str) -> None:
            nonlocal engine_steps
            if monitor is None and prefetcher is None and tracing is None \
                    and flight is None:
                return
            engine_steps += 1
            records = self.model.routing_records()
            report = prefetcher.observe_records(records) \
                if prefetcher is not None else None
            if tracing is not None and report is not None:
                # The report's byte fields are exactly what the prefetcher
                # just added to the serve.prefetch_* counters; attributing
                # the same amounts keeps ledger sums tiling the aggregates.
                tracing.attribute_fetch(report)
            if flight is not None:
                counts = routing_counts(records, num_experts) if records \
                    else None
                occupied = sorted(active)
                flight.observe(
                    step=engine_steps - 1, kind=kind, time=now, counts=counts,
                    queue_depth=len(queue), active_slots=len(active),
                    placement=self.active_placement,
                    slot_positions={slot: int(self.cache.positions[slot])
                                    for slot in occupied},
                    trace_ids=[active[slot].request.trace_id
                               for slot in occupied])
            # The monitor goes last: an anomaly latching on this step
            # auto-dumps the flight ring, which must already contain the
            # step's record for the bundle to cover the anomaly.
            if monitor is not None:
                monitor.observe_records(records, num_experts=num_experts)

        def phase_span(name: str, category: str, **labels) -> float:
            """Close the phase that began at ``mark`` as a ``decode``-track
            span and return its duration; phases recorded back to back
            tile the loop's wall time."""
            nonlocal mark
            end = clock.now()
            duration, start, mark = end - mark, mark, end
            telemetry.record_span(name, start, duration, category=category,
                                  track="decode", **labels)
            return duration

        def set_gauges() -> None:
            if telemetry is not None:
                telemetry.gauge("serve.queue_depth").set(len(queue))
                telemetry.gauge("serve.active_slots").set(len(active))

        def finish(state: _RequestState, reason: str) -> None:
            self.pool.release(state.slot)
            request = state.request
            outcome = RequestOutcome(
                request_id=request.request_id,
                arrival_time=request.arrival_time,
                start_time=state.start_time,
                finish_time=now,
                decode_tokens=len(state.token_ids),
                first_token_time=state.first_token_time,
                finish_reason=reason,
                token_ids=np.asarray(state.token_ids, dtype=np.int64),
                token_latencies=np.asarray(state.token_latencies))
            outcomes.append(outcome)
            if telemetry is not None:
                telemetry.histogram("serve.request_latency_s").observe(
                    outcome.latency)
            if tracing is not None:
                tracing.finish(request.trace_id, now=now, reason=reason,
                               token_latencies=state.token_latencies)
            self._emit("request_evict", now, request_id=request.request_id,
                       slot=state.slot, finish_reason=reason,
                       tokens=len(state.token_ids),
                       queue_depth=len(queue))

        with serving_flags(self.model), no_grad():
            try:
                while pending or queue or active:
                    # -- apply a staged placement hot-swap --------------- #
                    # Iteration boundary: every slot finished its previous
                    # decode step under the old placement; nothing is
                    # evicted or re-prefilled, the next batched step simply
                    # scores (and, in a real deployment, routes) against
                    # the new assignment.
                    swapped = self.apply_pending_placement()
                    if swapped is not None:
                        self._emit("placement_swap", now,
                                   placement=getattr(swapped, "name", ""),
                                   active_slots=len(active),
                                   queue_depth=len(queue))

                    # -- arrivals up to the current virtual time --------- #
                    while pending and pending[0].arrival_time <= now:
                        queue.append(pending.pop(0))
                    if not queue and not active:
                        now = pending[0].arrival_time  # idle: fast-forward
                        continue

                    # -- admit into free slots --------------------------- #
                    admitted: List[_RequestState] = []
                    while queue and self.pool.free_count > 0:
                        request = self._pop_next(queue)
                        slot = self.pool.acquire()
                        state = _RequestState(request=request, slot=slot,
                                              start_time=now)
                        active[slot] = state
                        admitted.append(state)
                        if telemetry is not None:
                            telemetry.histogram("serve.queueing_s").observe(
                                now - request.arrival_time)
                        if tracing is not None:
                            tracing.admit(request, now=now,
                                          queue_depth=len(queue))
                        self._emit("request_admit", now,
                                   request_id=request.request_id, slot=slot,
                                   queue_depth=len(queue))
                    set_gauges()

                    # -- batched prefill, grouped by prompt length ------- #
                    # Equal lengths per forward_slots call: no padding, so
                    # no garbage tokens pollute the routing records feeding
                    # the locality profiler and the health monitor.
                    by_len: Dict[int, List[_RequestState]] = {}
                    for state in admitted:
                        by_len.setdefault(state.request.prompt_len,
                                          []).append(state)
                    for length in sorted(by_len):
                        group = by_len[length]
                        prompts = np.stack([s.request.prompt_ids
                                            for s in group])
                        slots = np.asarray([s.slot for s in group],
                                           dtype=np.int64)
                        if tracing is not None:
                            # This forward serves `length` prompt tokens per
                            # group member; anything it fetches/dispatches
                            # is split across the group by that (equal)
                            # share.
                            tracing.set_step([(s.request.trace_id, length)
                                              for s in group])
                        t0 = time.perf_counter()
                        logits = self.model.forward_slots(prompts,
                                                          self.cache, slots)
                        elapsed = time.perf_counter() - t0
                        now += elapsed
                        first = np.argmax(logits.data[:, -1, :], axis=-1)
                        for state, token in zip(group, first):
                            state.token_ids.append(int(token))
                            state.token_latencies.append(elapsed)
                            state.first_token_time = now
                            if telemetry is not None:
                                telemetry.histogram("serve.ttft_s").observe(
                                    now - state.request.arrival_time)
                                telemetry.histogram(
                                    "serve.token_latency_s").observe(elapsed)
                        if tracing is not None:
                            tracing.prefill(
                                [s.request.trace_id for s in group],
                                now - elapsed, elapsed)
                            # Requests that already hold a token
                            # (mid-decode, or prefilled in an earlier group
                            # this iteration) sat through this prefill
                            # without advancing — that wait is their stall,
                            # not their decode time.
                            group_ids = {id(s) for s in group}
                            tracing.stall(
                                [s.request.trace_id for s in active.values()
                                 if id(s) not in group_ids and s.token_ids],
                                elapsed)
                        if telemetry is not None:
                            telemetry.histogram(
                                "serve.prefill_latency_s").observe(
                                phase_span("serve.prefill", "prefill",
                                           prompt_len=length))
                        observe_routing("prefill")

                    # prefill may already satisfy a request (EOS on the
                    # first token, or a 1-token budget)
                    for state in admitted:
                        if self.eos_token_id is not None and \
                                state.last_token == self.eos_token_id:
                            del active[state.slot]
                            finish(state, "eos")
                        elif state.remaining == 0:
                            del active[state.slot]
                            finish(state, "max_tokens")

                    # -- one batched ragged decode step ------------------ #
                    deciding = [active[slot] for slot in sorted(active)]
                    if deciding:
                        tokens = np.asarray([[s.last_token]
                                             for s in deciding],
                                            dtype=np.int64)
                        slots = np.asarray([s.slot for s in deciding],
                                           dtype=np.int64)
                        if tracing is not None:
                            # One token per co-resident slot: the ragged
                            # step's shared costs split by equal token
                            # share.
                            tracing.set_step([(s.request.trace_id, 1)
                                              for s in deciding])
                        t0 = time.perf_counter()
                        logits = self.model.forward_slots(tokens,
                                                          self.cache, slots)
                        elapsed = time.perf_counter() - t0
                        now += elapsed
                        steps += 1
                        next_tokens = np.argmax(logits.data[:, -1, :],
                                                axis=-1)
                        for state, token in zip(deciding, next_tokens):
                            state.token_ids.append(int(token))
                            state.token_latencies.append(elapsed)
                            if telemetry is not None:
                                telemetry.histogram(
                                    "serve.token_latency_s").observe(elapsed)
                        if tracing is not None:
                            tracing.decode_step(
                                [s.request.trace_id for s in deciding],
                                now - elapsed, elapsed)
                        if telemetry is not None:
                            phase_span("serve.decode_token", "decode",
                                       token=steps)
                        observe_routing("decode")
                        for state in deciding:
                            if self.eos_token_id is not None and \
                                    state.last_token == self.eos_token_id:
                                del active[state.slot]
                                finish(state, "eos")
                            elif state.remaining == 0:
                                del active[state.slot]
                                finish(state, "max_tokens")
                    set_gauges()
            finally:
                # Empty after a clean run; after a failure it holds the
                # slots the run still occupied, which must not leak into
                # the next serve().
                for slot in active:
                    self.pool.release(slot)

        outcomes.sort(key=lambda o: o.request_id)
        return ContinuousServingMetrics(outcomes=outcomes, wall_time=now,
                                        total_steps=steps,
                                        max_slots=self.max_slots)


class LiveDecodeEngine(ContinuousBatchingEngine):
    """Greedy decoding of one prompt batch on a live
    :class:`MoETransformer`.

    :meth:`decode` submits one :class:`~repro.serving.batching.Request`
    per batch row, all arriving at t=0, to the inherited
    :meth:`~ContinuousBatchingEngine.serve` loop on a pool of ``batch``
    slots × ``prompt_len + num_tokens`` positions: one batched prefill
    over every row (the first generated token), then one decode step per
    remaining token that feeds each row only its newest token.  The
    constructor takes the shared knobs of :class:`ContinuousBatchingEngine`;
    the pool size, FCFS admission and the absent EOS are fixed by
    :meth:`decode`.  Every sidecar records exactly what it records for
    ``serve()``: one tracer ledger per row, ``serve.prefill`` /
    ``serve.decode_token`` spans, flight records and monitor gauges per
    forward.
    """

    def __init__(self, model: MoETransformer,
                 telemetry: Optional[Telemetry] = None,
                 monitor: Optional[RoutingHealthMonitor] = None,
                 events=None, prefetch=None, tracing=None, flight=None):
        # decode() sizes the slot pool to each call's batch.
        super().__init__(model, max_slots=1, max_len=1,
                         telemetry=telemetry, monitor=monitor,
                         events=events, prefetch=prefetch,
                         tracing=tracing, flight=flight)

    def decode(self, prompt_ids: np.ndarray, num_tokens: int) -> np.ndarray:
        """Greedily decode ``num_tokens`` continuations of ``prompt_ids``.

        ``prompt_ids`` is ``(batch, prompt_len)``; returns the generated ids
        as ``(batch, num_tokens)``.  The prompt plus generation must fit in
        the model's ``max_seq_len``.
        """
        prompt_ids = np.asarray(prompt_ids)
        if prompt_ids.ndim != 2:
            raise ValueError(f"expected (batch, prompt_len) prompt ids, "
                             f"got {prompt_ids.shape}")
        if num_tokens < 1:
            raise ValueError("num_tokens must be positive")
        batch, prompt_len = prompt_ids.shape
        max_len = self.model.config.max_seq_len
        if prompt_len + num_tokens > max_len:
            raise ValueError(f"prompt ({prompt_len}) + generation "
                             f"({num_tokens}) exceeds max_seq_len {max_len}")
        self._size_pool(batch, prompt_len + num_tokens)
        metrics = self.serve([Request(row, 0.0, num_tokens, prompt_ids=ids)
                              for row, ids in enumerate(prompt_ids)])
        return np.stack([outcome.token_ids for outcome in metrics.outcomes])
