"""Counting the Python calls a run makes into given packages.

A sidecar that is not attached must cost nothing.  Timing that cost
compares two runs of the same code and reads host noise; the calls it
would make can be counted exactly, so a detached sidecar is checked by
its call count being zero.
"""

from __future__ import annotations

import sys
import threading
from typing import Callable, Iterable


def calls_into(packages: Iterable[str], run: Callable[[], object]) -> int:
    """Python function calls that ``run()`` makes, on any thread, into
    modules of ``packages`` (dotted names; ``"repro.telemetry"`` covers
    ``repro.telemetry.tracing`` but not ``repro.telemetry_x``)."""
    prefixes = tuple(packages)
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            if any(module == p or module.startswith(p + ".")
                   for p in prefixes):
                calls.append(module)  # list.append is atomic across threads

    previous = sys.getprofile(), threading.getprofile()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous[0])
        threading.setprofile(previous[1])
    return len(calls)
