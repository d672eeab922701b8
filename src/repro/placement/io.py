"""Placement (de)serialization.

Placements are deployment artifacts — users compute one, inspect it, and
apply it to a cluster — so they serialize to human-auditable JSON with
enough metadata to detect mismatched reuse.
"""

from __future__ import annotations

import json
import os
from typing import Optional

import numpy as np

from .base import Placement

FORMAT_VERSION = 1


def save_placement(placement: Placement, path: str,
                   model_name: str = "", extra: Optional[dict] = None) -> None:
    """Write a placement as JSON at ``path`` (directories are created)."""
    payload = {
        "format_version": FORMAT_VERSION,
        "name": placement.name,
        "model_name": model_name,
        "num_layers": placement.num_layers,
        "num_experts": placement.num_experts,
        "assignment": placement.assignment.tolist(),
    }
    if extra:
        payload["extra"] = extra
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)


def load_placement(path: str, expect_model: Optional[str] = None) -> Placement:
    """Read a placement written by :func:`save_placement`.

    ``expect_model`` optionally guards against applying a placement computed
    for a different model.
    """
    with open(path) as handle:
        payload = json.load(handle)
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported placement format version {version!r}")
    if expect_model is not None and payload.get("model_name") != expect_model:
        raise ValueError(
            f"placement was computed for model {payload.get('model_name')!r}, "
            f"not {expect_model!r}")
    for row in payload["assignment"]:
        for worker in row if isinstance(row, list) else [row]:
            if type(worker) is not int:  # bool is an int subclass
                raise ValueError(f"worker id {worker!r} is not an integer")
    assignment = np.asarray(payload["assignment"], dtype=np.int64)
    expected = (payload["num_layers"], payload["num_experts"])
    if assignment.shape != expected:
        raise ValueError(f"assignment shape {assignment.shape} does not match "
                         f"recorded dimensions {expected}")
    return Placement(assignment, name=payload.get("name", ""))
