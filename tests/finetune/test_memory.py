"""One autograd graph alive at a time, measured with ``tracemalloc``.

numpy reports its array buffers to ``tracemalloc`` under its own domain,
so the numpy bytes alive after a step are counted exactly.
"""

import gc
import tracemalloc

import numpy as np

from repro.bench.workloads import tiny_finetune_workload
from repro.data import LMDataLoader
from repro.finetune import FineTuneConfig, Trainer
from repro.lora import inject_lora
from repro.models import build_model

NUMPY = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)


def _numpy_bytes() -> int:
    snapshot = tracemalloc.take_snapshot().filter_traces([NUMPY])
    return sum(trace.size for trace in snapshot.traces)


def test_backward_frees_the_graph_while_the_loss_is_alive(nano_config):
    """After ``loss.backward()``, with ``loss`` still bound, the numpy
    memory is back at its level before the forward: the graph's saved
    arrays went as the backward passed them.  The gradients exist before
    the measured step, so the backward accumulates into them in place."""
    model = build_model(nano_config)
    inject_lora(model)
    model.train()
    for p in model.trainable_parameters():
        p.grad = np.zeros_like(p.data)
    tokens = np.random.default_rng(0).integers(
        0, nano_config.vocab_size, size=2000)
    batches = LMDataLoader(tokens, batch_size=4, seq_len=16,
                           seed=0).batches(2)
    tracemalloc.start()
    try:
        # A first step replaces the arrays allocated before tracing began
        # (routing records, the causal mask).
        model.loss(*next(batches)).backward()
        inputs, targets = next(batches)
        before = _numpy_bytes()
        loss = model.loss(inputs, targets)
        graph = _numpy_bytes() - before
        loss.backward()
        live = _numpy_bytes() - before
    finally:
        tracemalloc.stop()
    assert np.isfinite(loss.item())
    assert graph > 500_000
    assert live <= graph // 100


def test_lora_forward_graph_fits_its_budget():
    """One ``tiny_mistral`` 8×48 LoRA forward holds at most 40.5 MB of
    numpy memory until its backward.  The SwiGLU kernel saves ``g``, ``u``
    and the adapters' ``r`` and RMSNorm saves ``rms``; kernels that also
    saved ``sig``, ``s``, ``h`` and ``x / rms`` held 56.5 MB."""
    model, loader = tiny_finetune_workload(batch_size=8, seq_len=48,
                                           seed=61)
    inject_lora(model)
    model.train()
    batches = loader.batches(2)
    tracemalloc.start()
    try:
        # A first step replaces the arrays allocated before tracing began.
        model.loss(*next(batches)).backward()
        inputs, targets = next(batches)
        before = _numpy_bytes()
        loss = model.loss(inputs, targets)
        graph = _numpy_bytes() - before
    finally:
        tracemalloc.stop()
    assert np.isfinite(loss.item())
    assert graph <= 40_500_000


def test_train_calls_do_not_stack_graphs():
    """Three ``Trainer.train(steps=1)`` calls peak no higher than the
    first.  The gate's aux loss, which each MoE block keeps as
    ``last_aux_loss``, reaches every node below it: a graph that
    backward did not free would outlive its call and meet the next
    call's graph."""
    # Traced from the build on, so the arrays a step replaces (the LoRA
    # weights, their gradients) are counted when they are freed.
    tracemalloc.start()
    try:
        model, loader = tiny_finetune_workload(batch_size=2, seq_len=16,
                                               seed=0)
        for block in model.blocks:
            block.moe.gate.aux_loss_weight = 0.01
        trainer = Trainer(model, loader, FineTuneConfig())
        peaks = []
        for _ in range(3):
            gc.collect()
            tracemalloc.reset_peak()
            trainer.train(steps=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert max(peaks[1:]) <= peaks[0]
