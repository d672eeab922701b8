"""Expert-parallel executors: serial (in-process) and process-pool.

Both executors run the same per-segment SwiGLU kernels against the same
:class:`~repro.parallel.shm.SharedWeightStore` views — the serial executor
simply evaluates the task functions in-process while the pool fans them out
over ``fork``-ed workers — so the two are bit-identical by construction.
The tasks call :func:`~repro.nn.functional.swiglu_forward` and
:func:`~repro.nn.functional.swiglu_backward`, the very array kernel inside
the in-process :func:`~repro.nn.functional.fused_swiglu` node, so the
parallel path is bit-identical to the in-process fused dispatch as well,
for plain and LoRA experts alike (native weight format).

A task ships only the per-expert activation segment (and, for LoRA
experts, the small adapter factors); the big frozen weight matrices stay in
shared memory.  The backward task recomputes the forward intermediates
worker-side instead of shipping them — two GEMMs of recompute versus three
``(rows, ffn)`` arrays of pickling.

Per-task wall-clock timings come back with each result; the owning
executor converts them into ``parallel.forward`` / ``parallel.backward``
telemetry spans on per-worker tracks (aligned with the session's
:class:`~repro.telemetry.clock.WallClock` origin, which ``fork`` workers
share because ``time.perf_counter`` is system-wide monotonic on Linux)
plus ``parallel.tasks`` / ``parallel.rows`` counters.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.functional import swiglu_backward, swiglu_forward
from ..nn.tensor import is_grad_enabled
from ..telemetry.clock import WallClock
from .shm import (SharedWeightStore, StoreHandle, WorkerWeightView,
                  expert_groups)

EXECUTOR_KINDS = ("serial", "process")

# Worker-process globals, set once per worker by _worker_init.
_VIEW: Optional[WorkerWeightView] = None
_ORIGIN: float = 0.0


def _worker_init(handle: StoreHandle, origin: float) -> None:
    global _VIEW, _ORIGIN
    _VIEW = WorkerWeightView(handle)
    _ORIGIN = origin


def _forward_task(task, view: WorkerWeightView, origin: float):
    """One expert segment forward: ``(y, (pid, start, duration))``.

    ``task`` is ``(layer, expert_id, x, lora)``, with ``lora`` ``None`` or
    the per-projection ``(A, B, scaling, None)`` entries of
    :func:`~repro.nn.functional.swiglu_forward`, which does the arithmetic.
    """
    layer, expert_id, x, lora = task
    t0 = time.perf_counter()
    y, _ = swiglu_forward(x, *view.dense_weights(layer, expert_id), lora)
    t1 = time.perf_counter()
    return y, (os.getpid(), t0 - origin, t1 - t0)


def _backward_task(task, view: WorkerWeightView, origin: float):
    """One expert segment backward: ``(grads, (pid, start, duration))``.

    ``task`` is ``(layer, expert_id, x, gy, lora, needs)``.  Recomputes
    the forward intermediates, then runs
    :func:`~repro.nn.functional.swiglu_backward`; ``grads`` holds one
    gradient per ``needs`` flag (``x``, the three weights, then ``A``,
    ``B`` per projection), ``None`` where the flag is off.
    """
    layer, expert_id, x, gy, lora, needs = task
    t0 = time.perf_counter()
    weights = view.dense_weights(layer, expert_id)
    _, saved = swiglu_forward(x, *weights, lora)
    grads = swiglu_backward(gy, x, *weights, lora, saved, needs)
    t1 = time.perf_counter()
    return grads, (os.getpid(), t0 - origin, t1 - t0)


def _pool_forward(task):
    return _forward_task(task, _VIEW, _ORIGIN)


def _pool_backward(task):
    return _backward_task(task, _VIEW, _ORIGIN)


class ExpertExecutor:
    """Common machinery of the serial and process-pool executors.

    Lifecycle: construct, :meth:`bind` to a model (builds the weight
    store), run per-layer forward/backward segment batches through
    :meth:`run_forward` / :meth:`run_backward` (the
    :func:`~repro.parallel.dispatch.executor_dispatch` autograd node calls
    these), :meth:`refresh` after weight updates, :meth:`close` when done.
    Executors are context managers; ``with`` guarantees teardown.
    """

    kind = "serial"

    def __init__(self, telemetry=None):
        self.telemetry = telemetry
        self._store: Optional[SharedWeightStore] = None
        self._origin = 0.0
        self._worker_ids: Dict[int, int] = {}
        self._frozen = False

    # -- binding -------------------------------------------------------- #
    def bind(self, model, weight_format: str = "native") -> None:
        """Build the weight store for ``model``'s experts and start serving.

        ``model`` is a :class:`~repro.models.transformer.MoETransformer` or
        a bare MoE block.  ``weight_format`` is ``"native"`` (trainable,
        bit-compatible) or ``"int8"`` (inference-only, ~8x smaller
        resident/shipped weights).  Re-binding tears down the previous
        store (and pool) first.
        """
        if self._store is not None:
            self.close()
        self._store = self._build_store(model, weight_format)
        self._frozen = self._all_bases_frozen()
        self._origin = self._clock_origin()
        self._start()

    def _build_store(self, model, weight_format: str) -> SharedWeightStore:
        raise NotImplementedError

    def _start(self) -> None:
        """Hook: bring up compute resources after the store exists."""

    def _clock_origin(self) -> float:
        clock = (self.telemetry.tracer.clock
                 if self.telemetry is not None else None)
        if isinstance(clock, WallClock):
            return clock._origin
        return time.perf_counter()

    def _all_bases_frozen(self) -> bool:
        for experts in expert_groups(self._bound_model).values():
            for expert in experts:
                for proj in (expert.w_gate, expert.w_up, expert.w_down):
                    if getattr(proj, "base", proj).weight.requires_grad:
                        return False
        return True

    def _build_groups(self, model, weight_format: str,
                      use_shm: bool) -> SharedWeightStore:
        self._bound_model = model
        return SharedWeightStore(model, fmt=weight_format, use_shm=use_shm)

    # -- introspection -------------------------------------------------- #
    @property
    def bound(self) -> bool:
        """Whether :meth:`bind` has been called (and not closed)."""
        return self._store is not None

    @property
    def weight_format(self) -> Optional[str]:
        """The bound store's format, or ``None`` when unbound."""
        return self._store.fmt if self._store is not None else None

    @property
    def layers(self) -> Tuple[int, ...]:
        """Layers the executor can serve."""
        return self._store.layers if self._store is not None else ()

    def can_run(self, layer: int) -> bool:
        """Whether this executor should handle ``layer`` right now.

        False when unbound, when the layer has no segment, or when the
        store is int8 and gradients are enabled (quantized weights carry
        no meaningful gradient — callers fall back to in-process dispatch).
        """
        if self._store is None or layer not in self._store.layers:
            return False
        return self._store.fmt == "native" or not is_grad_enabled()

    # -- execution ------------------------------------------------------ #
    def run_forward(self, layer: int, tasks: Sequence[tuple]) -> List[np.ndarray]:
        """Run forward tasks ``(layer, expert_id, x, lora)``; returns outputs."""
        results = self._execute("forward", tasks)
        self._record("forward", layer, [r[-1] for r in results],
                     sum(t[2].shape[0] for t in tasks))
        return [r[0] for r in results]

    def run_backward(self, layer: int, tasks: Sequence[tuple]) -> List[tuple]:
        """Run backward tasks ``(layer, expert_id, x, gy, lora, needs)``;
        returns each task's gradient tuple."""
        results = self._execute("backward", tasks)
        self._record("backward", layer, [r[-1] for r in results],
                     sum(t[2].shape[0] for t in tasks))
        return [r[0] for r in results]

    def _execute(self, phase: str, tasks: Sequence[tuple]) -> List[tuple]:
        raise NotImplementedError

    def _record(self, phase: str, layer: int, timings, rows: int) -> None:
        telemetry = self.telemetry
        if telemetry is None:
            return
        for pid, start, duration in timings:
            slot = self._worker_ids.setdefault(pid, len(self._worker_ids))
            telemetry.record_span(f"parallel.{phase}", start, duration,
                                  category="parallel",
                                  track=f"parallel-w{slot}", layer=layer)
        telemetry.counter("parallel.tasks", phase=phase).add(len(timings))
        telemetry.counter("parallel.rows", phase=phase).add(rows)

    # -- weight updates / teardown -------------------------------------- #
    def refresh(self) -> None:
        """Propagate updated expert weights into the store.

        A no-op when every base weight is frozen (the LoRA fine-tuning
        recipe: adapters ship per task, bases never change) — so calling
        this after every optimizer step is free in the common case.
        """
        if self._store is None:
            raise RuntimeError("executor is not bound")
        if self._frozen:
            return
        self._store.refresh()

    def close(self) -> None:
        """Tear down compute resources and the weight store (idempotent)."""
        self._stop()
        if self._store is not None:
            self._store.close()
            self._store = None

    def _stop(self) -> None:
        """Hook: tear down compute resources."""

    def __enter__(self) -> "ExpertExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class SerialExpertExecutor(ExpertExecutor):
    """Bit-compatible serial fallback: same kernels, same store, no pool.

    Useful as the equivalence baseline for the process pool, and as the
    zero-dependency path on single-core boxes.  Uses plain in-process
    buffers (``use_shm=False``), so nothing touches ``/dev/shm``.
    """

    kind = "serial"
    num_workers = 0

    def __init__(self, telemetry=None):
        super().__init__(telemetry=telemetry)
        self._view: Optional[WorkerWeightView] = None

    def _build_store(self, model, weight_format: str) -> SharedWeightStore:
        return self._build_groups(model, weight_format, use_shm=False)

    def _start(self) -> None:
        self._view = WorkerWeightView(self._store.handle())

    def _execute(self, phase: str, tasks: Sequence[tuple]) -> List[tuple]:
        if self._view is None:
            raise RuntimeError("executor is not bound")
        fn = _forward_task if phase == "forward" else _backward_task
        return [fn(task, self._view, self._origin) for task in tasks]

    def _stop(self) -> None:
        if self._view is not None:
            self._view.close()
            self._view = None


def _shutdown_pool(pool, store) -> None:
    """Finalizer: hard-stop the pool, then release the shared memory."""
    try:
        pool.terminate()
        pool.join()
    except Exception:
        pass
    store.close()


class ProcessPoolExpertExecutor(ExpertExecutor):
    """Fan expert segments out to ``num_workers`` forked processes.

    Workers attach the shared-memory weight segments once at pool start
    (via the pool initializer) and afterwards receive only activation
    segments; ``chunksize=1`` keeps per-expert tasks independently
    schedulable across workers (the Comet-style fine-grained overlap the
    issue motivates).  Teardown is triple-guarded: explicit :meth:`close`,
    context-manager exit, and a ``weakref.finalize`` that terminates the
    pool and unlinks the segments even if the owner forgets — so an
    exception (or ``KeyboardInterrupt``) in the driving loop never leaks
    ``/dev/shm`` blocks or worker processes.
    """

    kind = "process"

    def __init__(self, num_workers: int, telemetry=None,
                 start_method: Optional[str] = None):
        super().__init__(telemetry=telemetry)
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._start_method = start_method
        self._pool = None
        self._finalizer = None

    def _build_store(self, model, weight_format: str) -> SharedWeightStore:
        return self._build_groups(model, weight_format, use_shm=True)

    def _start(self) -> None:
        ctx = multiprocessing.get_context(self._start_method)
        self._pool = ctx.Pool(self.num_workers, initializer=_worker_init,
                              initargs=(self._store.handle(), self._origin))
        self._finalizer = weakref.finalize(
            self, _shutdown_pool, self._pool, self._store)

    def _execute(self, phase: str, tasks: Sequence[tuple]) -> List[tuple]:
        if self._pool is None:
            raise RuntimeError("executor is not bound")
        fn = _pool_forward if phase == "forward" else _pool_backward
        return self._pool.map(fn, tasks, chunksize=1)

    def _stop(self) -> None:
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def terminate(self) -> None:
        """Hard-stop workers (no waiting for in-flight tasks) and clean up."""
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        if self._store is not None:
            self._store.close()
            self._store = None


def make_executor(num_workers: int, telemetry=None) -> ExpertExecutor:
    """``num_workers <= 0`` → serial, otherwise a process pool of that size."""
    if num_workers <= 0:
        return SerialExpertExecutor(telemetry=telemetry)
    return ProcessPoolExpertExecutor(num_workers, telemetry=telemetry)
