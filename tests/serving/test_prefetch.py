"""Tests for speculative expert prefetching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cluster import paper_cluster
from repro.models import build_model, nano_moe
from repro.models.moe_block import BlockRoutingRecord
from repro.placement import Placement
from repro.routing import SyntheticRouter, UNIFORM_REGIME, WIKITEXT_REGIME
from repro.serving import ExpertCache, LiveDecodeEngine, ServingConfig
from repro.serving.prefetch import (LIVE_CACHE_POLICIES, PREDICTORS,
                                    DecodePrefetcher, OraclePredictor,
                                    OverlappedFetchScheduler, PrefetchConfig,
                                    PreviousTokenPredictor,
                                    TransitionPredictor, make_predictor,
                                    markov_decode_stream, replay_stream,
                                    sample_decode_stream, stream_lookahead)
from repro.telemetry import EventLog, Telemetry
from tests.oracles import (ReferenceFetchScheduler,
                           ReferenceTransitionPredictor, mask_sets,
                           reference_lookahead)


def demand(*layers, num_layers=2, num_experts=4) -> np.ndarray:
    """A ``(num_layers, num_experts)`` demand mask (``nano_moe``'s shape by
    default) with the given expert ids set on the leading layers."""
    mask = np.zeros((num_layers, num_experts), dtype=bool)
    for layer, experts in enumerate(layers):
        mask[layer, list(experts)] = True
    return mask


def previous_token_scheduler(capacity):
    """The scheduler under previous-token speculation, on ``nano_moe``."""
    return OverlappedFetchScheduler(nano_moe(), PreviousTokenPredictor(),
                                    ExpertCache(capacity))


class TestSpeculativePrefetcher:
    def test_prefetch_loads_missing(self):
        # Demand leaves the speculated experts resident: nothing to fetch.
        scheduler = previous_token_scheduler(capacity=8)
        report = scheduler.step(demand([1, 2]))
        assert report.predicted == 2
        assert report.prefetch_fetches == 0
        assert scheduler.cache.resident == {(0, 1), (0, 2)}
        # Demand beyond capacity evicted them: speculation loads them back.
        scheduler = previous_token_scheduler(capacity=2)
        report = scheduler.step(demand([1, 2, 3]))
        assert report.prefetch_fetches == 3
        assert len(scheduler.cache.resident) == 2

    def test_prediction_scoring(self):
        scheduler = previous_token_scheduler(capacity=8)
        scheduler.step(demand([1, 2]))
        report = scheduler.step(demand([1, 3]))
        assert report.correct == 1
        assert report.sync_fetches == 1  # (0, 3) was not speculated or resident
        assert scheduler.stats.wasted == 1  # (0, 2) unused

    def test_accuracy_statistic(self):
        scheduler = previous_token_scheduler(capacity=8)
        first = scheduler.step(demand([1]))
        second = scheduler.step(demand([1]))
        assert second.correct == first.predicted == 1
        # the second step's own prediction is not scored yet
        assert scheduler.stats.accuracy == 0.5

    def test_cache_sees_keys_in_row_major_order(self):
        scheduler = OverlappedFetchScheduler(nano_moe(), None,
                                             ExpertCache(8))
        scheduler.step(demand([3, 0], [2, 1]))
        assert list(scheduler.cache._resident) == [(0, 0), (0, 3), (1, 1),
                                                   (1, 2)]

    def test_demand_shape_checked(self):
        scheduler = previous_token_scheduler(capacity=8)
        with pytest.raises(ValueError, match="demand mask"):
            scheduler.step(np.zeros((3, 4), dtype=bool))


class TestPrefetchingDecode:
    """Previous-token speculation replayed over a sampled decode stream."""

    def stream(self, regime, num_tokens, seed=0):
        config = nano_moe()
        router = SyntheticRouter(config, regime, seed=2)
        return sample_decode_stream(config, router, num_tokens, seed)

    def test_runs_and_reports(self):
        metrics = replay_stream(self.stream(WIKITEXT_REGIME, 30),
                                previous_token_scheduler(capacity=6))
        assert metrics.num_tokens == 30
        assert np.all(metrics.token_latencies > 0)

    def test_prefetch_beats_plain_decode_under_skew(self):
        """Temporal locality: speculation hides fetches a plain LRU pays."""
        stream = self.stream(WIKITEXT_REGIME, 60)
        plain = replay_stream(stream, OverlappedFetchScheduler(
            nano_moe(), None, ExpertCache(4)))
        spec = replay_stream(stream, previous_token_scheduler(capacity=4))
        assert spec.mean_latency() <= plain.mean_latency() * 1.05

    def test_prediction_accuracy_tracks_skew(self):
        """Skewed routing repeats experts across tokens; uniform does not."""
        skewed = previous_token_scheduler(capacity=8)
        replay_stream(self.stream(WIKITEXT_REGIME, 60), skewed)
        uniform = previous_token_scheduler(capacity=8)
        replay_stream(self.stream(UNIFORM_REGIME, 60), uniform)
        assert skewed.stats.accuracy > uniform.stats.accuracy

    def test_validation(self):
        with pytest.raises(ValueError):
            self.stream(WIKITEXT_REGIME, 0)


class TestPredictors:
    def test_previous_token_returns_fresh_copies(self):
        current = demand([0, 1], [2])
        predicted = PreviousTokenPredictor().predict(current)
        np.testing.assert_array_equal(predicted, current)
        assert predicted is not current

    def test_transition_cold_start_is_previous_token(self):
        predictor = TransitionPredictor(num_layers=2, num_experts=4)
        current = demand([1, 3], [0])
        np.testing.assert_array_equal(predictor.predict(current), current)

    def test_transition_learns_a_cycle(self):
        predictor = TransitionPredictor(num_layers=1, num_experts=4)
        cycle = [demand([i], num_layers=1) for i in range(4)]
        for _ in range(3):
            for i in range(4):
                predictor.update(cycle[i], cycle[(i + 1) % 4])
        for i in range(4):
            np.testing.assert_array_equal(predictor.predict(cycle[i]),
                                          cycle[(i + 1) % 4])

    def test_transition_budget_matches_current_set(self):
        predictor = TransitionPredictor(num_layers=1, num_experts=8)
        shape = dict(num_layers=1, num_experts=8)
        for prev, cur in [([0, 1], [2, 3]), ([2, 3], [4, 5])]:
            predictor.update(demand(prev, **shape), demand(cur, **shape))
        assert predictor.predict(demand([0, 1], **shape)).sum() == 2
        assert not predictor.predict(demand(**shape)).any()

    def test_transition_ties_break_toward_lowest_id(self):
        predictor = TransitionPredictor(num_layers=1, num_experts=4)
        # equal evidence for 1, 2, 3
        predictor.update(demand([0], num_layers=1),
                         demand([1, 2, 3], num_layers=1))
        np.testing.assert_array_equal(
            predictor.predict(demand([0], num_layers=1)),
            demand([1], num_layers=1))

    def test_transition_validation(self):
        with pytest.raises(ValueError):
            TransitionPredictor(num_layers=0, num_experts=4)
        with pytest.raises(ValueError):
            TransitionPredictor(num_layers=2, num_experts=0)

    def test_oracle_reads_ahead_and_runs_dry(self):
        stream = [demand([0]), demand([1]), demand([2])]
        oracle = OraclePredictor(stream)
        np.testing.assert_array_equal(oracle.predict(stream[0]), stream[1])
        np.testing.assert_array_equal(oracle.predict(stream[1]), stream[2])
        assert not oracle.predict(stream[2]).any()  # past the end

    def test_make_predictor(self):
        config = nano_moe()
        assert isinstance(make_predictor("transition", config),
                          TransitionPredictor)
        assert isinstance(make_predictor("previous", config),
                          PreviousTokenPredictor)
        with pytest.raises(ValueError):
            make_predictor("oracle", config)  # offline-only


class TestOverlappedFetchScheduler:
    def make(self, predictor, capacity=16, **kwargs):
        config = nano_moe()
        return OverlappedFetchScheduler(config, predictor,
                                        ExpertCache(capacity), **kwargs)

    def test_off_baseline_pays_every_miss_synchronously(self):
        scheduler = self.make(predictor=None)
        first = scheduler.step(demand([0, 1], [2]))
        assert first.sync_fetches == 3
        assert first.predicted == 0 and first.prefetch_fetches == 0
        assert first.latency_s > first.compute_s
        second = scheduler.step(demand([0, 1], [2]))  # all resident now
        assert second.sync_fetches == 0
        assert second.latency_s == pytest.approx(second.compute_s)

    def test_correct_prediction_removes_sync_fetches(self):
        stream = [demand([0]), demand([1]), demand([2])]
        scheduler = self.make(OraclePredictor(stream))
        scheduler.step(stream[0])
        report = scheduler.step(stream[1])
        assert report.correct == 1
        assert report.sync_fetches == 0  # the oracle prefetched it

    def test_pending_bytes_split_hidden_plus_unhidden(self):
        stream = [demand([0]), demand([1]), demand([2])]
        scheduler = self.make(OraclePredictor(stream))
        scheduler.step(stream[0])  # issues one prefetch for expert 1
        nbytes = scheduler._fetch_nbytes
        report = scheduler.step(stream[1])
        assert report.hidden_bytes + report.unhidden_bytes == \
            pytest.approx(nbytes)
        assert report.latency_s >= report.compute_s

    def test_tokens_scale_the_compute_window(self):
        one = self.make(predictor=None).step(demand([0]), tokens=1)
        many = self.make(predictor=None).step(demand([0]), tokens=32)
        assert many.compute_s == pytest.approx(32 * one.compute_s)

    def test_stats_accumulate_across_steps(self):
        scheduler = self.make(PreviousTokenPredictor())
        for _ in range(4):
            scheduler.step(demand([0, 1], [2, 3]))
        stats = scheduler.stats
        assert stats.steps == 4
        assert stats.predicted == 16  # 4 experts speculated every step
        assert stats.correct == 12    # steps 2-4 scored; the stream never moves
        assert stats.accuracy == 0.75

    def test_remote_holder_prices_the_cluster_link(self, small_topology):
        config = nano_moe()
        shape = (config.num_layers, config.num_experts)
        remote = Placement(np.ones(shape, dtype=np.int64))
        local = Placement(np.zeros(shape, dtype=np.int64))
        kwargs = dict(topology=small_topology, local_worker=0)
        far = self.make(predictor=None, placement=remote, **kwargs)
        near = self.make(predictor=None, placement=local, **kwargs)
        far_report = far.step(demand([0, 1]))
        near_report = near.step(demand([0, 1]))
        assert far_report.remote_bytes == pytest.approx(
            2 * far._fetch_nbytes)
        assert near_report.remote_bytes == 0.0
        assert far_report.latency_s > near_report.latency_s

    def test_set_placement_swaps_pricing(self, small_topology):
        config = nano_moe()
        shape = (config.num_layers, config.num_experts)
        scheduler = self.make(predictor=None,
                              placement=Placement(np.ones(shape,
                                                          dtype=np.int64)),
                              topology=small_topology, local_worker=0)
        scheduler.step(demand([0]))
        assert scheduler.stats.remote_bytes > 0
        scheduler.set_placement(Placement(np.zeros(shape, dtype=np.int64)))
        before = scheduler.stats.remote_bytes
        scheduler.step(demand([1]))  # a fresh miss, now held locally
        assert scheduler.stats.remote_bytes == before


class TestMarkovDecodeStream:
    def test_deterministic_under_seed(self):
        config = nano_moe()
        np.testing.assert_array_equal(markov_decode_stream(config, 20, seed=3),
                                      markov_decode_stream(config, 20, seed=3))

    def test_set_sizes_stay_top_k(self):
        config = nano_moe()
        stream = markov_decode_stream(config, 50, seed=1)
        assert stream.shape == (50, config.num_layers, config.num_experts)
        assert stream.dtype == bool
        assert (stream.sum(axis=2) == config.top_k).all()

    def test_validation(self):
        config = nano_moe()
        with pytest.raises(ValueError):
            markov_decode_stream(config, 0)
        with pytest.raises(ValueError):
            markov_decode_stream(config, 10, advance_prob=0.8,
                                 resample_prob=0.3)
        with pytest.raises(ValueError):
            markov_decode_stream(config, 10, advance_prob=-0.1)

    def test_transition_beats_previous_on_advance_dominant_stream(self):
        """The headline property the benchmark gates on, at unit scale."""
        config = nano_moe()
        stream = markov_decode_stream(config, 300, advance_prob=0.7,
                                      resample_prob=0.0, seed=1)

        def run(predictor):
            scheduler = OverlappedFetchScheduler(
                config, predictor, ExpertCache(config.total_experts))
            replay_stream(stream, scheduler)
            return scheduler.stats

        learned = run(TransitionPredictor(config.num_layers,
                                          config.num_experts))
        baseline = run(PreviousTokenPredictor())
        assert learned.accuracy > baseline.accuracy


class TestStreamLookahead:
    def test_matches_replay_access_order(self):
        config = nano_moe()
        stream = markov_decode_stream(config, 10, seed=2)
        lookahead = stream_lookahead(stream)
        assert len(lookahead) == stream.sum()
        assert lookahead == reference_lookahead(
            [mask_sets(step) for step in stream])
        assert all(type(l) is int and type(e) is int for l, e in lookahead)

    def test_belady_hit_rate_bounds_lru(self):
        config = nano_moe()
        stream = markov_decode_stream(config, 120, seed=4)
        capacity = 3
        lru = OverlappedFetchScheduler(config, None, ExpertCache(capacity))
        oracle = OverlappedFetchScheduler(
            config, None, ExpertCache(capacity, policy="belady",
                                      lookahead=stream_lookahead(stream)))
        lru_metrics = replay_stream(stream, lru)
        oracle_metrics = replay_stream(stream, oracle)
        assert oracle_metrics.hit_rate >= lru_metrics.hit_rate


@st.composite
def demand_streams(draw):
    """A ``(steps, layers, experts)`` demand stream of 1–4 layers and 1–9
    experts.  Steps repeat a few drawn masks, so transitions recur and
    tie in the predictor's counts; drawn masks often leave a layer
    empty."""
    layers = draw(st.integers(1, 4))
    experts = draw(st.integers(1, 9))
    patterns = draw(st.lists(arrays(np.bool_, (layers, experts),
                                    elements=st.booleans(),
                                    fill=st.nothing()),
                             min_size=1, max_size=4))
    order = draw(st.lists(st.integers(0, len(patterns) - 1), min_size=1,
                          max_size=24))
    return np.stack([patterns[i] for i in order])


def sized_config(stream):
    """``nano_moe`` resized to a stream's layers and experts."""
    _, layers, experts = stream.shape
    return nano_moe().with_overrides(num_layers=layers, num_experts=experts,
                                     top_k=min(2, experts))


class TestMaskProperty:
    """The mask path against the per-layer-set oracles on random streams."""

    @settings(max_examples=80, deadline=None)
    @given(stream=demand_streams())
    def test_transition_predictions_match_oracle(self, stream):
        _, layers, experts = stream.shape
        predictor = TransitionPredictor(layers, experts)
        oracle = ReferenceTransitionPredictor(layers, experts)
        previous = None
        for current in stream:
            if previous is not None:
                predictor.update(previous, current)
                oracle.update(mask_sets(previous), mask_sets(current))
            predicted = predictor.predict(current)
            assert predicted.shape == current.shape
            assert predicted.dtype == bool
            assert mask_sets(predicted) == oracle.predict(mask_sets(current))
            previous = current

    @settings(max_examples=60, deadline=None)
    @given(stream=demand_streams(),
           policy=st.sampled_from(["lru", "lfu", "belady"]),
           speculate=st.booleans(), capacity=st.integers(1, 12),
           seed=st.integers(0, 2 ** 16))
    def test_scheduler_and_cache_match_oracle(self, stream, policy,
                                              speculate, capacity, seed):
        """Reports, stats, cache counters and the resident set step for
        step equal the set-driven scheduler's, remote pricing included."""
        config = sized_config(stream)
        topology = paper_cluster()
        assignment = np.random.default_rng(seed).integers(
            0, topology.num_workers, size=stream.shape[1:])

        def make(scheduler_cls, predictor, lookahead):
            cache_kwargs = {}
            if policy == "belady":
                cache_kwargs["lookahead"] = lookahead
            return scheduler_cls(
                config, predictor if speculate else None,
                ExpertCache(capacity, policy=policy, **cache_kwargs),
                placement=Placement(assignment), topology=topology)

        sets = [mask_sets(step) for step in stream]
        fast = make(OverlappedFetchScheduler,
                    TransitionPredictor(*stream.shape[1:]),
                    stream_lookahead(stream))
        oracle = make(ReferenceFetchScheduler,
                      ReferenceTransitionPredictor(*stream.shape[1:]),
                      reference_lookahead(sets))
        for needed, needed_sets in zip(stream, sets):
            assert fast.step(needed, tokens=3) == \
                oracle.step(needed_sets, tokens=3)
            assert fast.cache.resident == oracle.cache.resident
        assert fast.stats == oracle.stats
        assert fast.cache.stats == oracle.cache.stats


class TestPrefetchConfig:
    def test_defaults_are_valid(self):
        config = PrefetchConfig()
        assert config.predictor in PREDICTORS
        assert config.cache_policy in LIVE_CACHE_POLICIES

    def test_oracle_rejected_in_live_path(self):
        with pytest.raises(ValueError):
            PrefetchConfig(predictor="oracle")

    def test_belady_rejected_in_live_path(self):
        with pytest.raises(ValueError):
            PrefetchConfig(cache_policy="belady")

    @pytest.mark.parametrize("kwargs", [
        {"cache_capacity": 0},
        {"replication_budget": -1},
        {"replication_interval": 0},
        {"window_size": 0},
        {"local_worker": -1},
        {"local_worker": 7},
        {"local_worker": 1.0},
    ])
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PrefetchConfig(**{"topology": paper_cluster(), **kwargs})

    def test_local_worker_bound_needs_a_topology(self):
        assert PrefetchConfig(local_worker=7).local_worker == 7
        assert PrefetchConfig(topology=paper_cluster(),
                              local_worker=5).local_worker == 5


class TestDecodePrefetcherLive:
    def test_ids_bit_identical_with_prefetch_on_and_off(self, nano_model):
        prompt = np.array([[1, 2, 3], [7, 5, 9]])
        plain = LiveDecodeEngine(nano_model).decode(prompt, 12)
        engine = LiveDecodeEngine(nano_model, prefetch=PrefetchConfig())
        np.testing.assert_array_equal(engine.decode(prompt, 12), plain)
        assert engine.prefetcher.stats.steps > 0

    def test_non_config_prefetch_rejected(self, nano_model):
        with pytest.raises(TypeError):
            LiveDecodeEngine(nano_model, prefetch={"predictor": "previous"})

    def test_telemetry_emitted(self, nano_model):
        telemetry = Telemetry()
        engine = LiveDecodeEngine(nano_model, telemetry=telemetry,
                                  prefetch=PrefetchConfig())
        engine.decode(np.array([[1, 2, 3]]), 8)
        assert telemetry.counter_total("serve.prefetch_predicted") > 0
        assert 0.0 <= telemetry.gauge("serve.prefetch_hit_rate").value <= 1.0

    def test_default_capacity_is_half_the_experts(self, nano_model):
        engine = LiveDecodeEngine(nano_model, prefetch=PrefetchConfig())
        assert engine.prefetcher.cache.capacity == \
            nano_model.config.total_experts // 2


class _SwapTarget:
    """Records swap_placement calls like an engine would."""

    def __init__(self):
        self.swapped = []

    def swap_placement(self, placement):
        self.swapped.append(placement)


class TestReplicationSidecar:
    def make_prefetcher(self, topology, events=None):
        config = nano_moe()
        shape = (config.num_layers, config.num_experts)
        # Every expert off-worker-0: replication has something to win.
        placement = Placement(np.tile([1, 1, 2, 2], (shape[0], 1)))
        prefetch = PrefetchConfig(topology=topology, local_worker=0,
                                  replication_budget=2,
                                  replication_interval=2, window_size=8)
        return config, DecodePrefetcher(config, prefetch, event_log=events,
                                        placement=placement)

    def hot_records(self, config):
        indices = np.array([[0, 1]] * 4)  # 4 tokens, experts 0 and 1
        return [BlockRoutingRecord(layer=layer, expert_indices=indices,
                                   selected_scores=np.ones((4, 2)))
                for layer in range(config.num_layers)]

    def test_persistently_hot_experts_get_replicated(self, small_topology):
        events = EventLog()
        config, prefetcher = self.make_prefetcher(small_topology, events)
        target = _SwapTarget()
        prefetcher.bind(target)
        for _ in range(4):
            prefetcher.observe_records(self.hot_records(config))
        placement = prefetcher.placement
        assert getattr(placement, "num_replicas", 0) > 0
        # Replicas land only on the local worker (the budgeted slots).
        assert all(workers == [0]
                   for workers in placement.replicas.values())
        assert target.swapped and target.swapped[-1] is placement
        kinds = [event.kind for event in events.events]
        assert "prefetch_replication" in kinds

    def test_unchanged_replica_set_is_not_reswapped(self, small_topology):
        config, prefetcher = self.make_prefetcher(small_topology)
        target = _SwapTarget()
        prefetcher.bind(target)
        for _ in range(8):
            prefetcher.observe_records(self.hot_records(config))
        # Steady traffic: the replica set converges and later passes
        # must not re-stage an identical swap every interval.
        assert len(target.swapped) < 4

    def test_no_budget_means_no_window(self, small_topology):
        config = nano_moe()
        prefetcher = DecodePrefetcher(config, PrefetchConfig())
        assert prefetcher._window is None
