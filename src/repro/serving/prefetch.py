"""Predictive expert prefetching: learned speculation + overlapped fetches.

A decode step cannot know layer ``l+1``'s experts before computing layer
``l`` — but MoE routing has *temporal* locality on top of the global kind:
consecutive tokens often reuse experts, and which experts follow which is
itself predictable.  Fiddler/MoE-Infinity exploit the first fact by
speculatively prefetching the experts the previous token used; "Fast MoE
Inference via Predictive Prefetching and Expert Replication" goes further
and *learns* the next-expert distribution, replicating persistently-hot
experts so their fetches become local.

This module holds the one modeled decode loop and its live-engine sidecar.
One engine step's expert demand is a ``(layers, experts)`` bool *mask*
(``mask[l, e]``: layer ``l`` routed at least one token to expert ``e``),
built from the step's routing records by
:func:`repro.models.moe_block.routing_counts` and carried unchanged
through the predictor, the scheduler and the cache:

* :class:`PreviousTokenPredictor` / :class:`TransitionPredictor` /
  :class:`OraclePredictor` — pluggable next-step expert predictors, each
  mapping the current step's mask to the next step's predicted mask.  The
  previous-token policy is the Fiddler/MoE-Infinity baseline; the
  transition predictor accumulates per-layer expert→expert transition
  counts online from gate history and falls back to the previous-token
  policy until a row has evidence; the oracle reads a prerecorded stream
  and bounds what any predictor could achieve.
* :class:`OverlappedFetchScheduler` — prices one decode step's demand mask
  against an :class:`ExpertCache`, issues predicted-expert fetches
  ahead of the step that needs them and charges only the *un-hidden*
  remainder (Comet-style fine-grained overlap: speculative fetch time up
  to the step's compute window is free; overflow and mispredictions are
  synchronous).  With no predictor every miss is synchronous — plain
  offloaded decode.  Fetches are priced per expert at the serving
  config's weight format — PCIe for locally-held experts, plus the
  holder's cluster link when the active placement puts the expert on a
  remote worker.  The cache sees one access per set mask entry, in
  row-major ``(layer, expert)`` order.
* :func:`sample_decode_stream` / :func:`markov_decode_stream` produce
  offline per-step demand as one ``(steps, layers, experts)`` mask array,
  and :func:`replay_stream` drives a scheduler through it:
  ``replay_stream(sample_decode_stream(config, router, n, seed),
  OverlappedFetchScheduler(config, None, cache))`` is the modeled decode
  of ``n`` tokens.
* :class:`DecodePrefetcher` — the live-engine sidecar
  (``LiveDecodeEngine(prefetch=...)`` / ``ContinuousBatchingEngine(
  prefetch=...)``): feeds the scheduler from each step's routing records,
  emits ``serve.prefetch_*`` telemetry, and — via a
  :class:`~repro.placement.replan.RoutingWindow` — periodically promotes
  persistently-hot experts onto the local worker through
  :class:`~repro.placement.replication.ReplicationStrategy` and the
  engines' ``swap_placement`` hot-swap hooks.  The sidecar only *reads*
  routing records; greedy token ids are bit-identical with prefetch on
  and off.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..models.config import MoEModelConfig
from ..models.moe_block import routing_counts
from ..routing.synthetic import SyntheticRouter
from ..runtime.flops import FlopModel
from .cache import ExpertCache, ExpertKey, safe_ratio
from .engine import ServingConfig, ServingMetrics

#: Predictors usable in the live path; ``"oracle"`` additionally exists for
#: offline streams (it needs the future) and is simulator-only.
PREDICTORS = ("transition", "previous")

#: Cache policies a live prefetcher may use (``belady`` needs a lookahead
#: sequence, which only offline replays have).
LIVE_CACHE_POLICIES = ("lru", "lfu")


@dataclass
class PrefetchStats:
    """Speculation counters: predictions, hits, wasted/hidden/unhidden work.

    Byte counters are cumulative over the run; ``hidden_bytes`` were
    overlapped under compute windows, ``unhidden_bytes`` (sync misses plus
    prefetch overflow) stalled a decode step, and ``remote_bytes`` also
    crossed a cluster link because the active placement held the expert on
    a non-local worker.
    """
    predicted: int = 0
    correct: int = 0
    wasted: int = 0
    steps: int = 0
    sync_fetches: int = 0
    prefetch_fetches: int = 0
    hidden_bytes: float = 0.0
    unhidden_bytes: float = 0.0
    remote_bytes: float = 0.0

    @property
    def accuracy(self) -> float:
        """Correct predictions over total predictions (0.0 with none)."""
        return safe_ratio(self.correct, self.predicted)

    @property
    def unhidden_bytes_per_step(self) -> float:
        """Mean un-hidden fetch bytes charged per decode step."""
        return safe_ratio(self.unhidden_bytes, self.steps)


# --------------------------------------------------------------------- #
# next-step expert predictors
# --------------------------------------------------------------------- #
class ExpertPredictor:
    """Interface: predict the next step's ``(layers, experts)`` mask."""

    def update(self, previous: np.ndarray, current: np.ndarray) -> None:
        """Learn from one observed transition (previous step → current)."""

    def predict(self, current: np.ndarray) -> np.ndarray:
        """The bool mask of experts expected at the *next* step."""
        raise NotImplementedError


class PreviousTokenPredictor(ExpertPredictor):
    """The Fiddler baseline: the next token reuses the current experts."""

    def update(self, previous: np.ndarray, current: np.ndarray) -> None:
        pass  # stateless

    def predict(self, current: np.ndarray) -> np.ndarray:
        return np.array(current, dtype=bool)


class TransitionPredictor(ExpertPredictor):
    """Learned next-step prediction from per-layer transition counts.

    ``counts[l, p, c]`` accumulates how often expert ``c`` was routed at
    a step that followed one routing expert ``p`` on layer ``l`` — gate
    history digested online, no extra model; one update adds the broadcast
    AND of the two masks.  Prediction sums the count rows of the currently
    active experts and takes the top scorers of each layer (as many as are
    currently active, so the prediction budget matches the previous-token
    baseline exactly).  Ties break toward the lowest expert id; experts
    with zero evidence are filled from the previous-token fallback, lowest
    id first, so a cold-start transition predictor *is* the baseline until
    it has seen traffic.
    """

    def __init__(self, num_layers: int, num_experts: int):
        if num_layers < 1 or num_experts < 1:
            raise ValueError("num_layers and num_experts must be positive")
        self.num_layers = num_layers
        self.num_experts = num_experts
        self.counts = np.zeros((num_layers, num_experts, num_experts))

    def update(self, previous: np.ndarray, current: np.ndarray) -> None:
        self.counts += previous[:, :, None] & current[:, None, :]

    def predict(self, current: np.ndarray) -> np.ndarray:
        budget = current.sum(axis=1, keepdims=True)
        # One row sum per layer over the active experts; integer-valued
        # float64 sums are exact in any order.
        score = np.matmul(current[:, None, :].astype(np.float64),
                          self.counts)[:, 0, :]
        # Each expert's place in its layer's stable descending order (ties:
        # lowest id first); the budget's leading places with evidence win.
        rank = np.argsort(-score, axis=1, kind="stable").argsort(axis=1)
        picked = (rank < budget) & (score > 0)
        # Cold start: fill the rest of the budget from the current experts,
        # lowest id first.
        spare = current & ~picked
        need = budget - picked.sum(axis=1, keepdims=True)
        return picked | (spare & (spare.cumsum(axis=1) <= need))


class OraclePredictor(ExpertPredictor):
    """Offline upper bound: reads the next step from a prerecorded stream.

    Only usable when the access stream — ``(steps, layers, experts)``
    masks — is known ahead of time (the benchmark's replay); the live
    engines reject it.
    """

    def __init__(self, stream: Sequence[np.ndarray]):
        self.stream = np.array(stream, dtype=bool)
        self._calls = 0

    def update(self, previous: np.ndarray, current: np.ndarray) -> None:
        pass

    def predict(self, current: np.ndarray) -> np.ndarray:
        self._calls += 1
        if self._calls < len(self.stream):
            return self.stream[self._calls].copy()
        return np.zeros_like(current, dtype=bool)


def make_predictor(name: str, config: MoEModelConfig) -> ExpertPredictor:
    """Build a live-path predictor by name (one of :data:`PREDICTORS`)."""
    if name == "transition":
        return TransitionPredictor(config.num_layers, config.num_experts)
    if name == "previous":
        return PreviousTokenPredictor()
    raise ValueError(f"predictor must be one of {PREDICTORS}, got {name!r}")


# --------------------------------------------------------------------- #
# overlapped fetch scheduling
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class StepFetchReport:
    """One decode step's fetch accounting under the overlap model."""

    tokens: int
    compute_s: float
    latency_s: float
    predicted: int
    correct: int
    sync_fetches: int
    prefetch_fetches: int
    hidden_bytes: float
    unhidden_bytes: float
    remote_bytes: float


class OverlappedFetchScheduler:
    """Issue predicted-expert fetches under the step's compute window.

    The overlap accounting mirrors what
    :class:`~repro.runtime.overlap.OverlappedMasterWorkerEngine` models for
    training exchanges: work that fits under compute is free, only the
    exceeding tail stalls.  Per step:

    1. last step's speculative fetch time up to the compute window is
       *hidden*; the overflow is charged to this step's latency (bytes
       split proportionally into ``hidden_bytes`` / ``unhidden_bytes``);
    2. every needed expert — each set entry of the step's ``(layers,
       experts)`` demand mask, in row-major order — is accessed in the
       cache; misses fetch synchronously (fully un-hidden);
    3. the predictor learns the observed transition, predicts the next
       step's mask, and the scheduler issues speculative fetches for
       predicted non-resident experts (to be scored at the next step).

    A fetch is priced from the expert's *holder*: PCIe host→device
    (:meth:`ServingConfig.fetch_time`) when the active placement holds a
    copy on ``local_worker`` (or no placement is set), plus the
    best-bandwidth holder's master link (the :mod:`repro.comm` /
    :mod:`repro.cluster` model) when every copy is remote — which is
    exactly what hot-expert replication removes.

    ``price_config`` decouples pricing from the (tiny) live model:
    passing ``mixtral_8x7b_sim()`` makes the byte/time accounting reflect
    a deployment-scale model while a CPU-sized model produces the routing
    stream.  ``predictor=None`` disables speculation entirely (every miss
    is synchronous) — the "off" baseline.
    """

    def __init__(self, config: MoEModelConfig,
                 predictor: Optional[ExpertPredictor],
                 cache: ExpertCache,
                 serving: Optional[ServingConfig] = None,
                 placement=None, topology=None, local_worker: int = 0,
                 price_config: Optional[MoEModelConfig] = None):
        self.config = config
        self.predictor = predictor
        self.cache = cache
        self.serving = serving or ServingConfig()
        self.placement = placement
        self.topology = topology
        self.local_worker = local_worker
        self.price_config = price_config or config
        self.flops = FlopModel(self.price_config)
        self.stats = PrefetchStats()
        self._fetch_nbytes = self.serving.expert_fetch_nbytes(
            self.price_config)
        self._token_compute = self._token_compute_time()
        self._predicted = np.zeros((config.num_layers, config.num_experts),
                                   dtype=bool)
        self._pending_time = 0.0
        self._pending_bytes = 0.0
        self._previous: Optional[np.ndarray] = None

    def set_placement(self, placement) -> None:
        """Swap the placement fetches are priced against (hot-swap hook)."""
        self.placement = placement

    def _token_compute_time(self) -> float:
        """One token through every block at the pricing config's scale."""
        device = self.serving.device
        per_block = self.flops.backbone_layer_time(
            device, 1.0, self.serving.context_len)
        per_block += self.price_config.top_k * \
            self.flops.expert_time(device, 1.0)
        return per_block * self.price_config.num_layers + \
            self.flops.head_time(device, 1.0)

    def _holders(self, key: ExpertKey) -> List[int]:
        layer, expert = key
        placement = self.placement
        if hasattr(placement, "holders"):  # ReplicatedPlacement
            return placement.holders(layer, expert)
        return [placement.worker_of(layer, expert)]

    def _fetch_cost(self, key: ExpertKey) -> Tuple[float, float, bool]:
        """``(seconds, bytes, crossed_cluster_link)`` for one expert fetch."""
        nbytes = float(self._fetch_nbytes)
        seconds = self.serving.fetch_time(nbytes)
        if self.placement is None or self.topology is None:
            return seconds, nbytes, False
        holders = self._holders(key)
        if self.local_worker in holders:
            return seconds, nbytes, False
        # Remote: the copy travels the best holder's master link first.
        link = max((self.topology.master_link(worker) for worker in holders),
                   key=lambda l: l.bandwidth_bytes_per_s)
        return seconds + link.transfer_time(nbytes), nbytes, True

    def step(self, needed: np.ndarray, tokens: int = 1) -> StepFetchReport:
        """Account one decode step's expert demand; speculate for the next.

        ``needed`` is the step's ``(layers, experts)`` bool mask of routed
        experts; ``tokens`` scales the compute window (a batched ragged
        step hides more fetch time than a single-token one).
        """
        needed = np.array(needed, dtype=bool)
        shape = (self.config.num_layers, self.config.num_experts)
        if needed.shape != shape:
            raise ValueError(f"expected a {shape} demand mask, got shape "
                             f"{needed.shape}")
        stats = self.stats
        stats.steps += 1
        remote_before = stats.remote_bytes
        correct = int(np.count_nonzero(needed & self._predicted))
        stats.correct += correct
        stats.wasted += int(np.count_nonzero(self._predicted)) - correct

        compute = self._token_compute * max(int(tokens), 1)
        # 1. last step's speculation overlaps this step's compute window
        hidden_time = min(self._pending_time, compute)
        overflow_time = self._pending_time - hidden_time
        hidden_fraction = safe_ratio(hidden_time, self._pending_time)
        hidden_bytes = self._pending_bytes * hidden_fraction
        overflow_bytes = self._pending_bytes - hidden_bytes

        # 2. demand accesses in (layer, expert) order; residual misses
        # fetch synchronously
        sync_time = 0.0
        sync_bytes = 0.0
        sync_fetches = 0
        for key in _mask_keys(needed):
            if not self.cache.access(key):
                seconds, nbytes, remote = self._fetch_cost(key)
                sync_time += seconds
                sync_bytes += nbytes
                sync_fetches += 1
                if remote:
                    stats.remote_bytes += nbytes
        stats.sync_fetches += sync_fetches
        stats.hidden_bytes += hidden_bytes
        stats.unhidden_bytes += overflow_bytes + sync_bytes
        latency = compute + overflow_time + sync_time

        # 3. learn the transition, speculate for the next step
        predicted_count = 0
        prefetch_fetches = 0
        pending_time = 0.0
        pending_bytes = 0.0
        if self.predictor is not None:
            if self._previous is not None:
                self.predictor.update(self._previous, needed)
            self._previous = needed
            self._predicted = np.asarray(self.predictor.predict(needed),
                                         dtype=bool)
            predicted_count = int(np.count_nonzero(self._predicted))
            stats.predicted += predicted_count
            for key in _mask_keys(self._predicted):
                if key not in self.cache:
                    self.cache.access(key)  # loads it (counts as a miss)
                    seconds, nbytes, remote = self._fetch_cost(key)
                    pending_time += seconds
                    pending_bytes += nbytes
                    prefetch_fetches += 1
                    if remote:
                        stats.remote_bytes += nbytes
            stats.prefetch_fetches += prefetch_fetches
        self._pending_time = pending_time
        self._pending_bytes = pending_bytes

        return StepFetchReport(
            tokens=int(tokens), compute_s=compute, latency_s=latency,
            predicted=predicted_count, correct=correct,
            sync_fetches=sync_fetches, prefetch_fetches=prefetch_fetches,
            hidden_bytes=hidden_bytes,
            unhidden_bytes=overflow_bytes + sync_bytes,
            remote_bytes=stats.remote_bytes - remote_before)


def _mask_keys(mask: np.ndarray) -> List[ExpertKey]:
    """The ``(layer, expert)`` keys of a mask's set entries as Python ints,
    in row-major (sorted) order."""
    layers, experts = np.nonzero(mask)
    return list(zip(layers.tolist(), experts.tolist()))


# --------------------------------------------------------------------- #
# offline streams (benchmark + oracle inputs)
# --------------------------------------------------------------------- #
def sample_decode_step(logits: np.ndarray, temperature: float, top_k: int,
                       rng: np.random.Generator) -> np.ndarray:
    """One decode token's ``(layers, experts)`` demand mask.

    Gumbel top-k over ``(layers, experts)`` popularity ``logits``, so the
    access stream has the same locality the profiling pass would measure.
    """
    gumbel = rng.gumbel(size=logits.shape) * temperature
    chosen = np.argpartition(-(logits + gumbel), top_k - 1, axis=1)[:, :top_k]
    mask = np.zeros(logits.shape, dtype=bool)
    np.put_along_axis(mask, chosen, True, axis=1)
    return mask


def sample_decode_stream(config: MoEModelConfig, router: SyntheticRouter,
                         num_steps: int, seed: int = 0) -> np.ndarray:
    """``(steps, layers, experts)`` demand masks: one
    :func:`sample_decode_step` per step.

    One token per step from the router's popularity logits, materialized
    up front so several policies (and the belady / oracle bounds) can
    consume the identical stream.
    """
    if num_steps < 1:
        raise ValueError("num_steps must be positive")
    rng = np.random.default_rng(seed)
    logits = router.base_logits
    temperature = router.regime.gate_temperature
    return np.stack([sample_decode_step(logits, temperature, config.top_k,
                                        rng)
                     for _ in range(num_steps)])


def markov_decode_stream(config: MoEModelConfig, num_steps: int,
                         advance_prob: float = 0.55,
                         resample_prob: float = 0.05,
                         seed: int = 0) -> np.ndarray:
    """A decode stream with *gate-history* structure, not just popularity.

    Real decode traces are temporally structured two ways: consecutive
    tokens often reuse experts (what the previous-token policy exploits),
    and *which* experts follow which is itself predictable from gate
    history (what the learned predictors in "Fast MoE Inference via
    Predictive Prefetching and Expert Replication" exploit).  This sampler
    models the second kind explicitly: each layer carries a hidden
    transition cycle (a fixed random single-cycle permutation of its
    experts), and per step the layer's active experts either *advance*
    along the cycle (probability ``advance_prob``), resample uniformly
    (``resample_prob`` — routing noise), or stay put.  Returns
    ``(steps, layers, experts)`` demand masks with ``top_k`` experts set
    per layer.

    A previous-token policy tops out at the stay probability; a transition
    predictor can learn the cycle and anticipate the advances — the regime
    the prefetch benchmark measures.  :func:`sample_decode_stream` remains
    the i.i.d.-popularity counterpart.
    """
    if num_steps < 1:
        raise ValueError("num_steps must be positive")
    if advance_prob < 0 or resample_prob < 0 or \
            advance_prob + resample_prob > 1:
        raise ValueError("advance_prob/resample_prob must be non-negative "
                         "and sum to at most 1")
    rng = np.random.default_rng(seed)
    num_layers, num_experts, k = (config.num_layers, config.num_experts,
                                  config.top_k)
    successor = np.empty((num_layers, num_experts), dtype=np.int64)
    for layer in range(num_layers):
        order = rng.permutation(num_experts)
        successor[layer][order] = np.roll(order, -1)  # one full cycle
    state = np.zeros((num_layers, num_experts), dtype=bool)
    for layer in range(num_layers):
        state[layer, rng.choice(num_experts, size=k, replace=False)] = True
    stream = np.empty((num_steps, num_layers, num_experts), dtype=bool)
    for step in range(num_steps):
        for layer in range(num_layers):
            u = rng.random()
            if u < advance_prob:
                row = np.zeros(num_experts, dtype=bool)
                row[successor[layer]] = state[layer]
                state[layer] = row
            elif u < advance_prob + resample_prob:
                state[layer] = False
                state[layer, rng.choice(num_experts, size=k,
                                        replace=False)] = True
        stream[step] = state
    return stream


def stream_lookahead(stream: Sequence[np.ndarray]) -> List[ExpertKey]:
    """Flatten a stream into the exact access order :func:`replay_stream`
    uses — the belady policy's ``lookahead`` input."""
    _, layers, experts = np.nonzero(np.asarray(stream, dtype=bool))
    return list(zip(layers.tolist(), experts.tolist()))


def replay_stream(stream: Sequence[np.ndarray],
                  scheduler: OverlappedFetchScheduler) -> ServingMetrics:
    """Replay a prerecorded mask stream through a scheduler; returns
    metrics."""
    latencies = np.empty(len(stream))
    fetch_total = 0.0
    for step, needed in enumerate(stream):
        report = scheduler.step(needed)
        latencies[step] = report.latency_s
        fetch_total += report.latency_s - report.compute_s
    return ServingMetrics(token_latencies=latencies,
                          hit_rate=scheduler.cache.stats.hit_rate,
                          evictions=scheduler.cache.stats.evictions,
                          fetch_time_total=fetch_total)


# --------------------------------------------------------------------- #
# the live-engine sidecar
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class PrefetchConfig:
    """Knobs of the live-path predictive prefetcher (see ``docs/API.md``).

    ``predictor`` selects the speculation policy (:data:`PREDICTORS`);
    ``cache_capacity`` defaults to half the model's experts;
    ``model_config`` reprices bytes/times at a deployment scale (default:
    the engine's own config); ``topology`` + the engine's active placement
    enable remote-fetch pricing and — with ``replication_budget > 0`` —
    online promotion of persistently-hot experts onto ``local_worker``
    (a worker id of ``topology``) every ``replication_interval`` observed
    steps, using the last ``window_size`` steps of routing counts.
    """

    predictor: str = "transition"
    cache_capacity: Optional[int] = None
    cache_policy: str = "lru"
    serving: Optional[ServingConfig] = None
    model_config: Optional[MoEModelConfig] = None
    topology: Any = None
    local_worker: int = 0
    replication_budget: int = 0
    replication_interval: int = 32
    window_size: int = 64

    def __post_init__(self) -> None:
        if self.predictor not in PREDICTORS:
            raise ValueError(f"predictor must be one of {PREDICTORS}, "
                             f"got {self.predictor!r}")
        if self.cache_policy not in LIVE_CACHE_POLICIES:
            raise ValueError(f"cache_policy must be one of "
                             f"{LIVE_CACHE_POLICIES} in the live path, "
                             f"got {self.cache_policy!r}")
        if self.cache_capacity is not None and self.cache_capacity < 1:
            raise ValueError("cache_capacity must be positive")
        if not isinstance(self.local_worker, numbers.Integral) or \
                self.local_worker < 0:
            raise ValueError(f"local_worker must be a non-negative integer, "
                             f"got {self.local_worker!r}")
        if self.topology is not None and \
                self.local_worker >= self.topology.num_workers:
            raise ValueError(f"local_worker {self.local_worker} is not a "
                             f"worker of a {self.topology.num_workers}-"
                             f"worker topology")
        if self.replication_budget < 0:
            raise ValueError("replication_budget must be non-negative")
        if self.replication_interval < 1:
            raise ValueError("replication_interval must be positive")
        if self.window_size < 1:
            raise ValueError("window_size must be positive")


class DecodePrefetcher:
    """Accounting-only prefetch + replication sidecar for the live engines.

    Attached through ``prefetch=`` on
    :class:`~repro.serving.scheduler.ContinuousBatchingEngine` (and
    :class:`~repro.serving.scheduler.LiveDecodeEngine`).  Every engine
    forward feeds :meth:`observe_records` with that forward's routing
    records; the sidecar never touches the model, the KV caches, or the
    generated ids, so tokens are bit-identical with the sidecar on or
    off.

    Telemetry (when the engine carries a registry): the
    ``serve.prefetch_accuracy`` / ``serve.prefetch_hit_rate`` /
    ``serve.prefetch_replicas`` gauges and the
    ``serve.prefetch_{predicted,correct,hidden_bytes,unhidden_bytes,
    remote_bytes}`` counters.  A replication pass that promotes experts
    emits one ``prefetch_replication`` event into the engine's event log.
    """

    def __init__(self, config: MoEModelConfig, prefetch: PrefetchConfig,
                 telemetry=None, event_log=None, placement=None):
        self.config = config
        self.prefetch = prefetch
        self.telemetry = telemetry
        self.event_log = event_log
        capacity = prefetch.cache_capacity
        if capacity is None:
            capacity = max(config.total_experts // 2, 1)
        self.scheduler = OverlappedFetchScheduler(
            config,
            predictor=make_predictor(prefetch.predictor, config),
            cache=ExpertCache(capacity, policy=prefetch.cache_policy),
            serving=prefetch.serving,
            placement=placement,
            topology=prefetch.topology,
            local_worker=prefetch.local_worker,
            price_config=prefetch.model_config)
        self._targets: List = []
        self._steps = 0
        self._window = None
        if prefetch.replication_budget > 0:
            from ..placement.replan import RoutingWindow
            self._window = RoutingWindow(prefetch.window_size)

    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> PrefetchStats:
        """The scheduler's cumulative speculation statistics."""
        return self.scheduler.stats

    @property
    def cache(self) -> ExpertCache:
        """The modeled device-resident expert cache."""
        return self.scheduler.cache

    @property
    def placement(self):
        """The placement fetches are currently priced against."""
        return self.scheduler.placement

    def bind(self, target) -> None:
        """Register a ``swap_placement``-capable replication target."""
        self._targets.append(target)

    # ------------------------------------------------------------------ #
    def observe_records(self, records: Sequence
                        ) -> Optional[StepFetchReport]:
        """Digest one engine iteration's routing records.

        Returns the step's :class:`StepFetchReport` (None for an empty
        record list).
        """
        records = list(records)
        if not records:
            return None
        counts = routing_counts(records, self.config.num_experts)
        report = self.scheduler.step(counts > 0,
                                     tokens=records[0].num_tokens)
        self._steps += 1

        telemetry = self.telemetry
        if telemetry is not None:
            stats = self.scheduler.stats
            telemetry.gauge("serve.prefetch_accuracy").set(stats.accuracy)
            telemetry.gauge("serve.prefetch_hit_rate").set(
                self.cache.stats.hit_rate)
            telemetry.counter("serve.prefetch_predicted").add(
                float(report.predicted))
            telemetry.counter("serve.prefetch_correct").add(
                float(report.correct))
            telemetry.counter("serve.prefetch_hidden_bytes").add(
                report.hidden_bytes)
            telemetry.counter("serve.prefetch_unhidden_bytes").add(
                report.unhidden_bytes)
            telemetry.counter("serve.prefetch_remote_bytes").add(
                report.remote_bytes)

        if self._window is not None:
            self._window.observe(counts)
            if self._steps % self.prefetch.replication_interval == 0:
                self._maybe_replicate()
        return report

    # ------------------------------------------------------------------ #
    def _maybe_replicate(self) -> None:
        """Promote persistently-hot experts onto the local worker.

        Freezes the current primary assignment and lets
        :class:`~repro.placement.replication.ReplicationStrategy` spend
        ``replication_budget`` spare slots on ``local_worker`` against
        the routing window — replicas land only where they reduce the
        windowed bottleneck, and the resulting
        :class:`~repro.placement.replication.ReplicatedPlacement` is
        hot-swapped into every bound engine (and, through them, the
        monitor) at the next iteration boundary.
        """
        from ..placement.replication import (FrozenPlacementStrategy,
                                             ReplicatedPlacement,
                                             ReplicationStrategy)
        prefetch = self.prefetch
        placement = self.scheduler.placement
        topology = prefetch.topology
        if placement is None or topology is None or len(self._window) == 0:
            return
        primary = placement.primary \
            if isinstance(placement, ReplicatedPlacement) else placement
        loads = primary.worker_loads(topology.num_workers)
        capacities = [int(load) for load in loads]
        capacities[prefetch.local_worker] += prefetch.replication_budget
        strategy = ReplicationStrategy(
            base=FrozenPlacementStrategy(primary),
            max_replicas=prefetch.replication_budget)
        report = strategy.solve_from_window(self.config, topology,
                                            self._window,
                                            capacities=capacities)
        replicated = report.placement
        old_replicas = placement.replicas \
            if isinstance(placement, ReplicatedPlacement) else {}
        if replicated.num_replicas == 0 or replicated.replicas == old_replicas:
            return
        # Price the fetches against the new holders immediately (the
        # sidecar is accounting-only); engines apply the swap at their
        # next iteration boundary through the standard staged hook.
        self.scheduler.set_placement(replicated)
        for target in self._targets:
            target.swap_placement(replicated)
        if self.telemetry is not None:
            self.telemetry.gauge("serve.prefetch_replicas").set(
                float(replicated.num_replicas))
        if self.event_log is not None:
            from ..telemetry.events import MonitorEvent
            keys = sorted(replicated.replicas)
            self.event_log.emit(MonitorEvent(
                kind="prefetch_replication", severity="info",
                step=self._steps, time_unix=time.time(),
                message=f"replicated {replicated.num_replicas} hot experts "
                        f"onto worker {prefetch.local_worker}",
                labels={"replicas": replicated.num_replicas,
                        "experts": [list(key) for key in keys],
                        "improvement": report.improvement,
                        "bytes": float(replicated.num_replicas
                                       * self.config.expert_nbytes())}))
