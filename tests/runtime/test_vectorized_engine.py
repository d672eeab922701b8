"""Batched trace replay vs the per-step oracle.

The engines' batched ``run_trace`` must reproduce the per-step loops of
:func:`tests.oracles.replay_per_step` — StepMetrics fields to 1e-9 on
every paper cell and on traces with idle workers and layers.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.bench.workloads import paper_workload
from repro.placement import PlacementProblem, SequentialPlacement
from repro.placement.random_ import RandomPlacement
from repro.routing.trace import RoutingTrace
from repro.runtime import ExpertParallelEngine, MasterWorkerEngine
from repro.runtime.overlap import OverlappedMasterWorkerEngine
from repro.telemetry import Telemetry
from tests.oracles import replay_per_step

PAPER_CELLS = [("mixtral", "wikitext"), ("mixtral", "alpaca"),
               ("gritlm", "wikitext"), ("gritlm", "alpaca")]

METRIC_FIELDS = ("total_time", "comm_time", "compute_time", "sync_time",
                 "allreduce_time", "total_bytes", "cross_node_bytes")

ENGINES = [MasterWorkerEngine, OverlappedMasterWorkerEngine,
           ExpertParallelEngine]


@lru_cache(maxsize=None)
def _paper_cell(model, dataset, steps=4):
    workload = paper_workload(model, dataset, seed=1)
    cfg = workload.config
    trace = workload.trace(steps)
    problem = PlacementProblem(config=cfg.model, topology=cfg.topology,
                               probability_matrix=workload.probability_matrix,
                               tokens_per_step=cfg.tokens_per_step)
    placement = RandomPlacement(seed=3).place(problem)
    return cfg, trace, placement


def assert_runs_equal(ref, vec, rel=1e-9):
    assert len(ref.steps) == len(vec.steps)
    for a, b in zip(ref.steps, vec.steps):
        assert a.step == b.step
        for name in METRIC_FIELDS:
            assert getattr(a, name) == pytest.approx(getattr(b, name),
                                                     rel=rel, abs=1e-30), name


class TestPaperCellEquivalence:
    @pytest.mark.parametrize("engine_cls", ENGINES)
    @pytest.mark.parametrize("model,dataset", PAPER_CELLS)
    def test_metrics_match(self, engine_cls, model, dataset):
        cfg, trace, placement = _paper_cell(model, dataset)
        ref_engine = engine_cls(cfg.model, cfg.topology, placement,
                                cfg.tokens_per_step, cfg.seq_len)
        vec_engine = engine_cls(cfg.model, cfg.topology, placement,
                                cfg.tokens_per_step, cfg.seq_len)
        assert_runs_equal(replay_per_step(ref_engine, trace),
                          vec_engine.run_trace(trace))


class TestSmallScale:
    def _trace_with_idle_workers(self, nano_config):
        """A valid trace with steps where most workers host zero tokens."""
        rng = np.random.default_rng(5)
        total = 64 * nano_config.top_k
        counts = rng.multinomial(
            total, np.full(nano_config.num_experts,
                           1.0 / nano_config.num_experts),
            size=(6, nano_config.num_layers))
        counts[2] = 0                   # every selection on expert 0:
        counts[2, :, 0] = total         # all other workers sit idle
        counts[4, 0, :] = 0             # one layer concentrated on the
        counts[4, 0, -1] = total        # last expert only
        return RoutingTrace(model_name="nano/test", top_k=nano_config.top_k,
                            tokens_per_step=64, counts=counts)

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_idle_workers_and_layers(self, engine_cls, nano_config,
                                     small_topology):
        trace = self._trace_with_idle_workers(nano_config)
        placement = SequentialPlacement().place(PlacementProblem(
            config=nano_config, topology=small_topology,
            probability_matrix=np.full(
                (nano_config.num_layers, nano_config.num_experts),
                nano_config.top_k / nano_config.num_experts),
            tokens_per_step=64))
        ref = engine_cls(nano_config, small_topology, placement, 64, 16)
        vec = engine_cls(nano_config, small_topology, placement, 64, 16)
        assert_runs_equal(replay_per_step(ref, trace), vec.run_trace(trace))

    def test_max_steps_limits_replay(self, nano_config, small_topology):
        trace = self._trace_with_idle_workers(nano_config)
        placement = SequentialPlacement().place(PlacementProblem(
            config=nano_config, topology=small_topology,
            probability_matrix=np.full(
                (nano_config.num_layers, nano_config.num_experts),
                nano_config.top_k / nano_config.num_experts),
            tokens_per_step=64))
        engine = MasterWorkerEngine(nano_config, small_topology, placement,
                                    64, 16)
        run = engine.run_trace(trace, max_steps=3)
        assert len(run.steps) == 3


class TestNegativeMaxSteps:
    """A negative or zero ``max_steps`` is rejected before any work: sliced
    naively a negative one would replay the trace's tail, and zero steps
    would return a run whose averages are NaN."""

    @staticmethod
    def _rejected(engine_cls):
        cfg, trace, placement = _paper_cell("mixtral", "wikitext")
        telemetry = Telemetry()
        engine = engine_cls(cfg.model, cfg.topology, placement,
                            cfg.tokens_per_step, cfg.seq_len,
                            telemetry=telemetry)
        for max_steps in (-1, 0):
            with pytest.raises(ValueError, match="max_steps"):
                engine.run_trace(trace, max_steps=max_steps)
        assert not telemetry.spans
        return engine, telemetry

    def test_master_worker_engine(self):
        _, telemetry = self._rejected(MasterWorkerEngine)
        assert telemetry.counter_total("broker.dispatch_bytes") == 0.0

    def test_expert_parallel_engine(self):
        _, telemetry = self._rejected(ExpertParallelEngine)
        assert telemetry.counter_total("comm.all_to_all.bytes") == 0.0
        assert telemetry.counter_total("broker.dispatch_bytes") == 0.0

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_empty_trace_rejected(self, engine_cls):
        cfg, trace, placement = _paper_cell("mixtral", "wikitext")
        empty = RoutingTrace(model_name=trace.model_name, top_k=trace.top_k,
                             tokens_per_step=trace.tokens_per_step,
                             counts=trace.counts[:0])
        engine = engine_cls(cfg.model, cfg.topology, placement,
                            cfg.tokens_per_step, cfg.seq_len)
        with pytest.raises(ValueError, match="no steps"):
            engine.run_trace(empty)
