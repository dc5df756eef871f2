"""Cost-model-driven re-partitioning of a dead rank's blocks.

When a rank dies the surviving world is smaller, so the block → rank
assignment the DSL computed at build time no longer covers every block.
This module plans the *new* ownership map: the logical keys keep their
Z-order (the DSL sorted them for locality — preserving contiguity keeps
halos between neighbouring ranks), and the split points between ranks
are chosen so the **modelled** per-rank time is as even as possible.

The per-key weights come from the run that died: the PR 6 obs layer
recorded each rank's :class:`~repro.runtime.tracing.TaskCounters`, and
:class:`~repro.runtime.costmodel.CostModel` converts them into modelled
seconds — a rank that measured twice the updates/halo pages contributes
twice the weight to each of its keys (at the cost model's default access
profile: the app's own would scale every rank's compute term alike).  Without measurements (death
before the first refresh) every key weighs the same and the plan
degrades to the DSL's own even contiguous deal.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..runtime.costmodel import CostModel
from ..runtime.machine import MachineSpec
from ..runtime.tracing import TaskCounters

__all__ = ["merge_rank_counters", "plan_recovery_ownership"]


def merge_rank_counters(
    counters: Mapping[Tuple[int, int], TaskCounters],
) -> Dict[int, TaskCounters]:
    """Fold per-(rank, thread) counters into one :class:`TaskCounters` per rank."""
    merged: Dict[int, TaskCounters] = {}
    for (rank, _thread), task_counters in counters.items():
        mine = merged.get(rank)
        if mine is None:
            mine = merged[rank] = TaskCounters()
        for name, value in task_counters.as_dict().items():
            setattr(mine, name, getattr(mine, name) + value)
    return merged


def _key_weights(
    keys: Sequence[Any],
    old_owner: Optional[Mapping[Any, int]],
    counters: Optional[Mapping[Tuple[int, int], TaskCounters]],
    machine: Optional[MachineSpec],
    omp_threads: int,
) -> List[float]:
    """Modelled seconds each key contributed to its old owner (1.0 fallback)."""
    if not counters or not old_owner:
        return [1.0] * len(keys)
    by_rank = merge_rank_counters(counters)
    if not by_rank:
        return [1.0] * len(keys)
    old_size = max(by_rank) + 1
    model = CostModel(machine) if machine is not None else CostModel()
    rank_cost: Dict[int, float] = {
        rank: model.task_time(c, mpi_size=old_size, omp_threads=omp_threads).total
        for rank, c in by_rank.items()
    }
    keys_per_rank: Dict[int, int] = {}
    for key in keys:
        rank = old_owner.get(key)
        if rank is not None:
            keys_per_rank[rank] = keys_per_rank.get(rank, 0) + 1
    mean = sum(rank_cost.values()) / max(len(rank_cost), 1)
    weights: List[float] = []
    for key in keys:
        rank = old_owner.get(key)
        if rank in rank_cost and keys_per_rank.get(rank):
            weights.append(rank_cost[rank] / keys_per_rank[rank])
        else:
            weights.append(mean / max(len(keys) / max(len(rank_cost), 1), 1.0))
    # Degenerate measurements (all-zero modelled time) → uniform deal.
    if sum(weights) <= 0.0:
        return [1.0] * len(keys)
    return weights


def plan_recovery_ownership(
    keys: Sequence[Any],
    new_size: int,
    *,
    old_owner: Optional[Mapping[Any, int]] = None,
    counters: Optional[Mapping[Tuple[int, int], TaskCounters]] = None,
    machine: Optional[MachineSpec] = None,
    omp_threads: int = 1,
) -> Dict[Any, int]:
    """Assign every logical key to one of ``new_size`` surviving ranks.

    ``keys`` must already be in the DSL's Z-order; the plan cuts that
    sequence into ``new_size`` contiguous runs whose summed weights are
    as balanced as the greedy ideal-boundary walk achieves, and every
    rank receives at least one key while keys remain (the DSL requires
    each world rank to own something for registration to make sense).
    """
    if new_size < 1:
        raise ValueError("cannot plan ownership for an empty world")
    keys = list(keys)
    if not keys:
        return {}
    if len(keys) <= new_size:
        return {key: index for index, key in enumerate(keys)}
    weights = _key_weights(keys, old_owner, counters, machine, omp_threads)
    total = sum(weights)
    ownership: Dict[Any, int] = {}
    rank = 0
    acc = 0.0
    boundary = total / new_size
    for index, key in enumerate(keys):
        remaining_keys = len(keys) - index
        remaining_ranks = new_size - rank
        # Advance to the next rank when the ideal boundary is crossed,
        # but never leave a later rank without keys, and never advance
        # past the last rank.
        if (
            rank < new_size - 1
            and acc >= boundary
            and remaining_keys > remaining_ranks - 1
        ):
            rank += 1
            boundary = total * (rank + 1) / new_size
        elif remaining_keys == remaining_ranks and rank < new_size - 1 and index > 0:
            rank += 1
            boundary = total * (rank + 1) / new_size
        ownership[key] = rank
        acc += weights[index]
    return ownership
