"""Engine/trainer/serving telemetry integration contracts.

The load-bearing invariants:

* telemetry on vs off changes **no** ``StepMetrics`` field, in the
  batched ``run_trace`` replay or the per-step oracle loops
  (``tests.oracles.replay_per_step``) — observation must not perturb the
  simulation;
* both replays emit the identical span sequence;
* per-step span durations tile ``total_time`` exactly (serialized
  engines), and the category sums recover the comm/sync/allreduce
  aggregates;
* broker/collective byte counters agree across the two replays.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.bench.workloads import paper_workload, tiny_finetune_workload
from repro.placement import PlacementProblem
from repro.placement.random_ import RandomPlacement
from repro.runtime import ExpertParallelEngine, MasterWorkerEngine
from repro.runtime.des_engine import EventDrivenMasterWorker
from repro.runtime.overlap import OverlappedMasterWorkerEngine
from repro.telemetry import Telemetry
from tests.oracles import replay_per_step

METRIC_FIELDS = ("total_time", "comm_time", "compute_time", "sync_time",
                 "allreduce_time", "total_bytes", "cross_node_bytes")

ENGINES = [MasterWorkerEngine, OverlappedMasterWorkerEngine,
           ExpertParallelEngine]

STEPS = 3


@lru_cache(maxsize=None)
def _cell():
    workload = paper_workload("mixtral", "wikitext", seed=1)
    cfg = workload.config
    trace = workload.trace(STEPS)
    problem = PlacementProblem(config=cfg.model, topology=cfg.topology,
                               probability_matrix=workload.probability_matrix,
                               tokens_per_step=cfg.tokens_per_step)
    placement = RandomPlacement(seed=3).place(problem)
    return cfg, trace, placement


def _run(engine_cls, mode, telemetry=None):
    """Replay the cell batched (``"vectorized"``) or through the per-step
    oracle loops (``"reference"``)."""
    cfg, trace, placement = _cell()
    engine = engine_cls(cfg.model, cfg.topology, placement,
                        cfg.tokens_per_step, cfg.seq_len, telemetry=telemetry)
    if mode == "reference":
        return replay_per_step(engine, trace)
    return engine.run_trace(trace)


class TestObservationDoesNotPerturb:
    @pytest.mark.parametrize("engine_cls", ENGINES)
    @pytest.mark.parametrize("mode", ["reference", "vectorized"])
    def test_step_metrics_identical_on_off(self, engine_cls, mode):
        plain = _run(engine_cls, mode)
        observed = _run(engine_cls, mode, telemetry=Telemetry())
        assert len(plain.steps) == len(observed.steps) == STEPS
        for a, b in zip(plain.steps, observed.steps):
            for name in METRIC_FIELDS:
                assert getattr(a, name) == getattr(b, name), name


class TestSpanSequences:
    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_modes_emit_identical_spans(self, engine_cls):
        spans = {}
        for mode in ("reference", "vectorized"):
            tel = Telemetry()
            _run(engine_cls, mode, telemetry=tel)
            spans[mode] = tel.spans
        ref, vec = spans["reference"], spans["vectorized"]
        assert len(ref) == len(vec)
        for a, b in zip(ref, vec):
            assert (a.name, a.category, a.track, a.labels) == \
                (b.name, b.category, b.track, b.labels)
            assert a.start == pytest.approx(b.start, abs=1e-9)
            assert a.duration == pytest.approx(b.duration, abs=1e-9)

    @pytest.mark.parametrize("engine_cls",
                             [MasterWorkerEngine, ExpertParallelEngine])
    def test_span_durations_tile_step_metrics(self, engine_cls):
        tel = Telemetry()
        run = _run(engine_cls, "vectorized", telemetry=tel)
        for metrics in run.steps:
            step_spans = [s for s in tel.spans
                          if s.labels["step"] == metrics.step]
            total = sum(s.duration for s in step_spans)
            assert total == pytest.approx(metrics.total_time, abs=1e-9)
            if engine_cls is ExpertParallelEngine:
                by_cat = {}
                for s in step_spans:
                    by_cat[s.category] = by_cat.get(s.category, 0.0) \
                        + s.duration
                assert by_cat["all_to_all"] == pytest.approx(
                    metrics.comm_time, abs=1e-9)
                assert by_cat["sync"] == pytest.approx(metrics.sync_time,
                                                       abs=1e-9)
                assert by_cat["allreduce"] == pytest.approx(
                    metrics.allreduce_time, abs=1e-9)
            else:
                comm = sum(s.labels.get("comm_s", 0.0) for s in step_spans)
                assert comm == pytest.approx(metrics.comm_time, abs=1e-9)

    def test_steps_are_contiguous_on_the_timeline(self):
        tel = Telemetry()
        run = _run(MasterWorkerEngine, "vectorized", telemetry=tel)
        cumulative = 0.0
        for metrics in run.steps:
            ends = [s.end for s in tel.spans
                    if s.labels["step"] == metrics.step]
            cumulative += metrics.total_time
            assert max(ends) == pytest.approx(cumulative, abs=1e-9)

    def test_overlap_backward_exchanges_on_exchange_track(self):
        tel = Telemetry()
        _run(OverlappedMasterWorkerEngine, "reference", telemetry=tel)
        backward_forks = [s for s in tel.spans
                          if s.name == "mw.fork_join"
                          and s.labels["direction"] == "bwd"]
        assert backward_forks
        assert all(s.track == "exchange" for s in backward_forks)
        # Overlap means backward spans may extend past serial accumulation,
        # but never before the forward pass of their own step.
        forward_end = min(s.start for s in backward_forks)
        assert forward_end > 0.0


class TestCounters:
    @pytest.mark.parametrize("engine_cls",
                             [MasterWorkerEngine, ExpertParallelEngine])
    def test_byte_counters_agree_across_modes(self, engine_cls):
        totals = {}
        for mode in ("reference", "vectorized"):
            tel = Telemetry()
            _run(engine_cls, mode, telemetry=tel)
            totals[mode] = {
                name: tel.counter_total(name)
                for name in ("broker.dispatch_bytes", "comm.all_to_all.bytes",
                             "comm.all_reduce.bytes")}
        for name, ref_value in totals["reference"].items():
            assert totals["vectorized"][name] == pytest.approx(
                ref_value, rel=1e-9), name

    def test_dispatch_bytes_labelled_per_edge(self):
        cfg, trace, placement = _cell()
        tel = Telemetry()
        engine = MasterWorkerEngine(cfg.model, cfg.topology, placement,
                                    cfg.tokens_per_step, cfg.seq_len,
                                    telemetry=tel)
        engine.run_trace(trace)
        edges = [c for c in tel.registry.instruments("counter")
                 if c.name == "broker.dispatch_bytes"]
        assert edges
        for counter in edges:
            assert set(counter.labels) == {"layer", "expert", "worker"}
            expert = counter.labels["expert"]
            layer = counter.labels["layer"]
            assert placement.assignment[layer, expert] == \
                counter.labels["worker"]


class TestEventDrivenTelemetry:
    def test_worker_tracks_and_total_coverage(self):
        cfg, trace, placement = _cell()
        tel = Telemetry()
        engine = EventDrivenMasterWorker(cfg.model, cfg.topology, placement,
                                         cfg.tokens_per_step, cfg.seq_len,
                                         telemetry=tel)
        results = engine.run_trace(trace, max_steps=2)
        tracks = {s.track for s in tel.spans}
        assert "master" in tracks
        assert any(t.startswith("worker-") for t in tracks)
        # Last span end == cumulative step time (steps laid back to back).
        cumulative = sum(r.total_time for r in results)
        assert max(s.end for s in tel.spans) == pytest.approx(cumulative,
                                                              abs=1e-9)

    def test_telemetry_does_not_change_des_timings(self):
        cfg, trace, placement = _cell()
        plain = EventDrivenMasterWorker(cfg.model, cfg.topology, placement,
                                        cfg.tokens_per_step, cfg.seq_len)
        observed = EventDrivenMasterWorker(cfg.model, cfg.topology, placement,
                                           cfg.tokens_per_step, cfg.seq_len,
                                           telemetry=Telemetry())
        a = plain.run_step(trace.step_counts(0))
        b = observed.run_step(trace.step_counts(0))
        assert a.total_time == b.total_time
        assert a.layer_finish_times == b.layer_finish_times


class TestLivePaths:
    def test_trainer_spans_and_gauges(self):
        from repro.finetune.trainer import FineTuneConfig, Trainer
        model, loader = tiny_finetune_workload(batch_size=2, seq_len=16,
                                               seed=0)
        tel = Telemetry()
        trainer = Trainer(model, loader,
                          FineTuneConfig(steps=2, grad_clip=1.0),
                          telemetry=tel)
        trainer.train(steps=2)
        categories = sorted({s.category for s in tel.spans})
        assert categories == ["backward", "forward", "optimizer"]
        assert all(s.track == "trainer" for s in tel.spans)
        gauges = {g.name: g for g in tel.registry.instruments("gauge")}
        assert gauges["train.loss"].updates == 2
        assert gauges["train.grad_norm"].value > 0.0

    def test_decode_latency_histograms(self):
        """decode() records the serve loop's telemetry: one prefill span
        and its latency, one decode_token span per further token, and
        serve.token_latency_s over every row's tokens, the first token of
        each row (from the prefill) included."""
        from repro.serving import LiveDecodeEngine
        model, _ = tiny_finetune_workload(batch_size=2, seq_len=16, seed=0)
        tel = Telemetry()
        engine = LiveDecodeEngine(model, telemetry=tel)
        out = engine.decode(np.array([[1, 2, 3], [4, 5, 6]]), 3)
        assert out.shape == (2, 3)
        hists = {h.name: h for h in tel.registry.instruments("histogram")}
        assert set(hists) == {"serve.prefill_latency_s",
                              "serve.token_latency_s", "serve.queueing_s",
                              "serve.ttft_s", "serve.request_latency_s"}
        # One prefill forward, then 2 decode steps for both rows.
        assert hists["serve.prefill_latency_s"].count == 1
        assert hists["serve.token_latency_s"].count == 2 * 3
        assert hists["serve.ttft_s"].count == 2
        assert hists["serve.request_latency_s"].count == 2
        for name in ("serve.prefill_latency_s", "serve.token_latency_s"):
            assert all(v > 0 for v in hists[name].values)
        gauges = {g.name for g in tel.registry.instruments("gauge")}
        assert gauges == {"serve.queue_depth", "serve.active_slots"}
        prefill = [s for s in tel.spans if s.name == "serve.prefill"]
        decode = [s for s in tel.spans if s.name == "serve.decode_token"]
        assert len(prefill) == 1
        assert prefill[0].labels == {"prompt_len": 3}
        assert [s.labels for s in decode] == [{"token": 1}, {"token": 2}]
        # The prefill span is the latency its histogram holds.
        assert prefill[0].duration == pytest.approx(
            hists["serve.prefill_latency_s"].values[0])

    def test_decode_phase_spans_tile_wall_time(self):
        """serve.prefill + serve.decode_token spans tile the decode wall."""
        import time

        from repro.serving import LiveDecodeEngine
        model, _ = tiny_finetune_workload(batch_size=2, seq_len=16, seed=0)
        tel = Telemetry()
        engine = LiveDecodeEngine(model, telemetry=tel)
        start = time.perf_counter()
        engine.decode(np.array([[1, 2, 3, 4]]), 4)
        wall = time.perf_counter() - start
        spans = [s for s in tel.spans if s.track == "decode"]
        assert [s.name for s in spans] == \
            ["serve.prefill"] + ["serve.decode_token"] * 3
        # Phases are recorded back to back: each span starts where the
        # previous one ended, so the durations sum to the span of the
        # timeline and stay within the decode() wall time.
        for prev, cur in zip(spans, spans[1:]):
            assert cur.start == pytest.approx(prev.end, abs=1e-9)
        total = sum(s.duration for s in spans)
        assert total == pytest.approx(spans[-1].end - spans[0].start,
                                      rel=1e-9)
        assert total <= wall
