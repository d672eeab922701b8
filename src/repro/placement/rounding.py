"""Rounding the relaxed LP solution back to a feasible binary placement.

Implements the paper's three-step conversion (end of Section IV-B):

1. Threshold at 0.5: relaxed values above 0.5 become 1.
2. For each over-capacity worker, drop its assignments with the lowest
   relaxed values until the capacity constraint holds.
3. Every still-unassigned expert goes to the worker with remaining capacity
   that showed the strongest affinity (highest relaxed value) for it.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .base import Placement


def round_relaxed_assignment(relaxed: np.ndarray,
                             capacities: Sequence[int],
                             name: str = "vela") -> Placement:
    """Convert a relaxed ``X[n, l, e]`` tensor into a feasible placement.

    Raises if total capacity is insufficient (the LP itself would have been
    infeasible in that case, so reaching here indicates a caller bug).
    """
    relaxed = np.asarray(relaxed, dtype=np.float64)
    if relaxed.ndim != 3:
        raise ValueError("relaxed tensor must be (workers, layers, experts)")
    num_workers, layers, experts = relaxed.shape
    caps = np.asarray(list(capacities), dtype=np.int64)
    if caps.shape[0] != num_workers:
        raise ValueError("capacities length must equal num_workers")
    if caps.sum() < layers * experts:
        raise ValueError("total capacity cannot host all experts")

    assignment = np.full((layers, experts), -1, dtype=np.int64)

    # Step 1: threshold at 0.5.  Values sum to 1 over workers, so at most one
    # worker can exceed 0.5 for a given expert.
    winners = relaxed.argmax(axis=0)          # (layers, experts)
    winner_vals = relaxed.max(axis=0)
    above = winner_vals > 0.5
    assignment[above] = winners[above]

    # Step 2: trim over-capacity workers, dropping the weakest assignments.
    loads = np.bincount(assignment[assignment >= 0], minlength=num_workers)
    for worker in range(num_workers):
        if loads[worker] <= caps[worker]:
            continue
        held = np.argwhere(assignment == worker)
        values = np.array([relaxed[worker, l, e] for l, e in held])
        order = np.argsort(values)  # ascending: weakest first
        num_to_drop = loads[worker] - caps[worker]
        for idx in order[:num_to_drop]:
            l, e = held[idx]
            assignment[l, e] = -1
        loads[worker] = caps[worker]

    # Step 3: place the unassigned experts by strongest remaining affinity.
    unassigned = np.argwhere(assignment < 0)
    # Sort by how decisive the expert's best remaining choice is, so highly
    # contended experts are seated before capacity runs out under them.
    affinity_order = np.argsort(
        [-relaxed[:, l, e].max() for l, e in unassigned])
    for idx in affinity_order:
        l, e = unassigned[idx]
        preferences = np.argsort(-relaxed[:, l, e])
        placed = False
        for worker in preferences:
            if loads[worker] < caps[worker]:
                assignment[l, e] = worker
                loads[worker] += 1
                placed = True
                break
        if not placed:
            raise RuntimeError("capacity bookkeeping error during rounding")

    return Placement(assignment, capacities=caps.tolist(), name=name)

