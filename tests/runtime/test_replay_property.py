"""Property test of the replay contract on random small setups.

Hypothesis draws ``nano_moe`` shapes (1-4 layers, 2-8 experts, top-1 or
top-2), topologies of 1-3 nodes x 1-3 GPUs with a random master seat,
random placements, and traces of 1-5 steps in which any (step, layer) may
send all of its selections to one expert.  For each step engine:

* ``run_trace`` equals the per-step oracle loops of
  :func:`tests.oracles.replay_per_step` on every ``StepMetrics`` field,
  span sequence and byte counter;
* ``run_step(counts, step=k)`` called step by step equals ``run_trace``,
  with the caller's labels on the metrics and spans and the spans laid
  back to back across calls.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterTopology
from repro.models import nano_moe
from repro.placement import Placement
from repro.routing.trace import RoutingTrace
from repro.runtime import (ExpertParallelEngine, MasterWorkerEngine,
                           OverlappedMasterWorkerEngine)
from repro.telemetry import Telemetry
from tests.oracles import replay_per_step

ENGINES = [MasterWorkerEngine, OverlappedMasterWorkerEngine,
           ExpertParallelEngine]

METRIC_FIELDS = ("total_time", "comm_time", "compute_time", "sync_time",
                 "allreduce_time", "total_bytes", "cross_node_bytes")

COUNTERS = ("broker.dispatch_bytes", "comm.all_to_all.bytes",
            "comm.all_reduce.bytes")


@st.composite
def setups(draw):
    """A model, topology, placement, trace and sequence length."""
    layers = draw(st.integers(1, 4))
    experts = draw(st.integers(2, 8))
    top_k = draw(st.integers(1, 2))
    config = nano_moe(num_layers=layers, num_experts=experts, top_k=top_k)
    nodes = draw(st.integers(1, 3))
    gpus = draw(st.integers(1, 3))
    topology = ClusterTopology(nodes, gpus,
                               master_node=draw(st.integers(0, nodes - 1)),
                               master_gpu=draw(st.integers(0, gpus - 1)))
    cells = layers * experts
    assignment = draw(st.lists(st.integers(0, nodes * gpus - 1),
                               min_size=cells, max_size=cells))
    placement = Placement(np.array(assignment).reshape(layers, experts))

    tokens = draw(st.integers(1, 96))
    steps = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    counts = rng.multinomial(tokens * top_k, np.full(experts, 1 / experts),
                             size=(steps, layers))
    hot = draw(st.lists(st.one_of(st.none(), st.integers(0, experts - 1)),
                        min_size=steps * layers, max_size=steps * layers))
    for index, expert in enumerate(hot):
        if expert is not None:
            step, layer = divmod(index, layers)
            counts[step, layer] = 0
            counts[step, layer, expert] = tokens * top_k
    trace = RoutingTrace(model_name="nano/property", top_k=top_k,
                         tokens_per_step=tokens, counts=counts)
    return config, topology, placement, trace, draw(st.integers(1, 64))


def _engine(engine_cls, setup, telemetry=None):
    config, topology, placement, trace, seq_len = setup
    return engine_cls(config, topology, placement, trace.tokens_per_step,
                      seq_len, telemetry=telemetry)


def _assert_metrics_match(expected, actual, rel, step_shift=0):
    assert len(expected) == len(actual)
    for a, b in zip(expected, actual):
        assert b.step == a.step + step_shift
        assert b.num_nodes == a.num_nodes
        for name in METRIC_FIELDS:
            assert getattr(b, name) == pytest.approx(
                getattr(a, name), rel=rel, abs=1e-30), name


def _assert_telemetry_match(expected, actual, rel, step_shift=0):
    """Same span sequence (names, tracks, labels, times) and counters."""
    assert len(expected.spans) == len(actual.spans)
    for a, b in zip(expected.spans, actual.spans):
        assert (b.name, b.category, b.track) == (a.name, a.category, a.track)
        assert set(b.labels) == set(a.labels)
        for key, value in a.labels.items():
            if key == "step":
                assert b.labels[key] == value + step_shift
            elif isinstance(value, float):
                assert b.labels[key] == pytest.approx(value, rel=rel,
                                                      abs=1e-30), key
            else:
                assert b.labels[key] == value, key
        assert b.start == pytest.approx(a.start, rel=rel, abs=1e-30)
        assert b.duration == pytest.approx(a.duration, rel=rel, abs=1e-30)
    for name in COUNTERS:
        assert actual.counter_total(name) == pytest.approx(
            expected.counter_total(name), rel=rel, abs=1e-30), name


@pytest.mark.parametrize("engine_cls", ENGINES)
@settings(max_examples=40, deadline=None)
@given(setup=setups())
def test_run_trace_matches_oracle_loops(engine_cls, setup):
    trace = setup[3]
    oracle_tel, batched_tel = Telemetry(), Telemetry()
    oracle = replay_per_step(_engine(engine_cls, setup, oracle_tel), trace)
    batched = _engine(engine_cls, setup, batched_tel).run_trace(trace)
    _assert_metrics_match(oracle.steps, batched.steps, rel=1e-9)
    _assert_telemetry_match(oracle_tel, batched_tel, rel=1e-9)
    # Observation does not perturb the replay.
    plain = _engine(engine_cls, setup).run_trace(trace)
    assert plain.steps == batched.steps


@pytest.mark.parametrize("engine_cls", ENGINES)
@settings(max_examples=25, deadline=None)
@given(setup=setups(), first_step=st.integers(0, 1000))
def test_run_step_is_a_one_step_run_trace(engine_cls, setup, first_step):
    trace = setup[3]
    trace_tel, step_tel = Telemetry(), Telemetry()
    run = _engine(engine_cls, setup, trace_tel).run_trace(trace)
    engine = _engine(engine_cls, setup, step_tel)
    stepped = [engine.run_step(trace.step_counts(k), step=first_step + k)
               for k in range(trace.num_steps)]
    _assert_metrics_match(run.steps, stepped, rel=1e-12,
                          step_shift=first_step)
    _assert_telemetry_match(trace_tel, step_tel, rel=1e-12,
                            step_shift=first_step)
