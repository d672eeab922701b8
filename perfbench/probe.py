"""Host-speed probe: a fixed numpy kernel timed between the measured ops.

On a shared host the speed of the CPU drifts by tens of percent over
minutes, as neighbours load the physical cores.  A run that lands in a slow
phase reads slow from end to end, whatever the program does.  The probe is
a fixed kernel, independent of ``src/``, with the program's mix of work:
small GEMMs, elementwise maths, reductions, a sort and a Python loop.  It
runs before every op and after the last, and a few times around every
build, so it samples the same phases the ops do.  A workload whose time
also follows the neighbours' memory traffic adds a pass over arrays larger
than the caches (``stream=True``).

``run.py`` multiplies each op's times by ``REFERENCE_MS`` over the mean of
the probes just before and just after it, and the set-up time by
``REFERENCE_MS`` over the median of the probes around the builds (a rate
is divided instead).  It so reports the time the run would have taken on
a host where the probe takes ``REFERENCE_MS``.  A change to the program
moves the ops but not the probe, so it still shows in full.  The raw wall
figures are printed and recorded beside the scaled ones.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List

import numpy as np

# The probe's median, without and with the stream pass, on the 2-vCPU
# x86-64 host the benchmark was written on, with OpenBLAS at one thread.
# It only sets the scale of the reported times.
REFERENCE_MS = {False: 14.2, True: 25.0}

_REPS = 40
_STREAM_REPS = 3
_STREAM_LEN = 1 << 20  # 8 MB of float64 per array


class HostProbe:
    """Times the fixed kernel and keeps every sample."""

    def __init__(self, stream: bool):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((96, 64))
        self._b = rng.standard_normal((64, 256))
        self._c = rng.standard_normal((256, 64))
        self._stream = stream
        if stream:
            self._x = rng.standard_normal(_STREAM_LEN)
            self._y = np.empty_like(self._x)
        self.samples_ms: List[float] = []
        self._kernel()  # first call pays for lazy initialisation

    def _kernel(self) -> None:
        for _ in range(_REPS):
            h = self._a @ self._b
            g = h / (1.0 + np.exp(-h))
            o = g @ self._c
            e = np.exp(o - o.max(axis=-1, keepdims=True))
            e /= e.sum(axis=-1, keepdims=True)
            np.argsort(-e, axis=-1)
            [float(x) for x in e[0, :16]]
        if self._stream:
            for _ in range(_STREAM_REPS):
                np.multiply(self._x, 0.5, out=self._y)
                np.add(self._y, self._y, out=self._x)

    def __call__(self, times: int = 1) -> None:
        # With the collector off, a collection the program's garbage is due
        # for runs in the program's time, not the probe's.
        gc.disable()
        try:
            for _ in range(times):
                start = time.perf_counter()
                self._kernel()
                self.samples_ms.append((time.perf_counter() - start) * 1e3)
        finally:
            gc.enable()

    def scale(self, samples_ms: List[float]) -> float:
        """Reference probe time over the median of ``samples_ms``."""
        return REFERENCE_MS[self._stream] / statistics.median(samples_ms)
