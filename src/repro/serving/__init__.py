"""Offloaded MoE serving simulation (expert caching, decode latency)."""

from .batching import (FINISH_REASONS, BatchedDecodeSimulator,
                       BatchedServingMetrics, Request, RequestOutcome,
                       poisson_workload)
from .cache import (POLICIES, CacheStats, ExpertCache, hot_expert_keys,
                    safe_ratio)
from .engine import ServingConfig, ServingMetrics
from .prefetch import (LIVE_CACHE_POLICIES, PREDICTORS, DecodePrefetcher,
                       OraclePredictor, OverlappedFetchScheduler,
                       PrefetchConfig, PrefetchStats, PreviousTokenPredictor,
                       StepFetchReport, TransitionPredictor, make_predictor,
                       markov_decode_stream, replay_stream,
                       sample_decode_step, sample_decode_stream,
                       stream_lookahead)
from .scheduler import (ADMISSION_POLICIES, ContinuousBatchingEngine,
                        ContinuousServingMetrics, LiveDecodeEngine, SlotPool,
                        serving_flags)

__all__ = [
    "ExpertCache", "CacheStats", "POLICIES", "hot_expert_keys",
    "LiveDecodeEngine", "ServingConfig", "ServingMetrics",
    "serving_flags",
    "BatchedDecodeSimulator", "BatchedServingMetrics", "Request",
    "RequestOutcome", "poisson_workload", "FINISH_REASONS",
    "ContinuousBatchingEngine", "ContinuousServingMetrics", "SlotPool",
    "ADMISSION_POLICIES",
    "PrefetchStats",
    "safe_ratio", "PREDICTORS", "LIVE_CACHE_POLICIES", "make_predictor",
    "TransitionPredictor", "PreviousTokenPredictor", "OraclePredictor",
    "OverlappedFetchScheduler", "StepFetchReport", "DecodePrefetcher",
    "PrefetchConfig", "sample_decode_step", "sample_decode_stream",
    "markov_decode_stream",
    "stream_lookahead", "replay_stream",
]
