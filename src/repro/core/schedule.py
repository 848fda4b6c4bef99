"""Size-aware shard planning and work-stealing decomposition.

The paper's central measurement — scanner traffic is extremely
heavy-tailed — is also the parallel pipeline's scaling problem: static
contiguous shards (``np.array_split``) put one aggressive scanner's
entire workload on one worker while the others idle.  This module turns
per-item *cost predictions* (``Scanner.cost_estimate``, measured packet
counts, or uniform weights) into an explicit :class:`SchedulePlan`:
which items form which task, which logical shard each task belongs to,
and in what order tasks should be submitted to the pool.

Three planning shapes cover every parallel entry point:

* :func:`plan_static` — the legacy layout (``static`` mode): one
  zero-cost task per shard, items assigned by a given shard index
  (a source hash, or even ``array_split`` slices).

* :func:`plan_contiguous` — for stages whose merge is a concatenation
  in population order (flow synthesis): tasks must be contiguous index
  ranges.  ``packed`` cuts the population at cumulative-cost quantiles
  into exactly ``workers`` balanced slices; ``stealing``
  over-decomposes into cost-capped slices (a few per worker) so
  stragglers are drained by idle workers, and isolates any single item
  whose cost exceeds the cap in its own task.
* :func:`plan_grouped` — for stages whose merge is partition-
  independent (detection: all state is keyed per source): items are
  pre-grouped into indivisible units (same-source scanners, hash
  fine-shards) and the groups are LPT bin-packed into ``workers``
  logical shards; ``stealing`` additionally splits each shard's group
  list into cost-capped sub-tasks.

Scheduling never touches results.  Tasks carry their *logical* task
index, results merge in logical order regardless of execution order,
and :meth:`SchedulePlan.submit_order` only reorders the executor queue
(descending cost — longest-processing-time first, the classic greedy
that keeps the tail short).  The work-stealing queue itself is the
process pool's shared pending queue: with more tasks than workers, an
idle worker "steals" the next queued task the moment it finishes its
own (:func:`repro.core.faults.run_sharded` with ``submit_order``).

Everything here is deterministic: plans are pure functions of the cost
vector, the worker count and the mode, with explicit tie-breaking — a
resumed or retried run re-derives the identical plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

#: Recognized scheduling modes, in increasing order of machinery:
#: ``static`` — the legacy layout (contiguous ``array_split`` slices or
#: hash shards, :func:`plan_static`), no cost prediction; ``packed`` —
#: size-aware bin packing into exactly ``workers`` tasks; ``stealing``
#: — packed plus over-decomposition into stealable sub-tasks.
SCHEDULE_MODES = ("static", "packed", "stealing")

#: Target tasks per worker in ``stealing`` mode.  More tasks = finer
#: stealing granularity but more per-task overhead (pickling, pool
#: dispatch, checkpoint files); 4 keeps the straggler tail under a
#: quarter-worker of work without measurable dispatch cost.
DEFAULT_STEAL_FACTOR = 4


def validate_mode(mode: str) -> str:
    """Return ``mode`` or raise with the accepted set in the message."""
    if mode not in SCHEDULE_MODES:
        raise ValueError(
            f"schedule must be one of {SCHEDULE_MODES}, got {mode!r}"
        )
    return mode


@dataclass(frozen=True)
class TaskPlan:
    """One schedulable unit of work.

    Attributes:
        index: logical task index — the merge position.  Results are
            always folded in ascending ``index`` order, whatever order
            tasks executed in.
        shard: logical shard (0..workers-1) this task belongs to; the
            telemetry/checkpoint grouping, and the "home" worker a
            stolen task is accounted against.
        items: indices into the planner's input (scanner positions,
            fine-shard ids...), ascending.
        cost: predicted work, in the caller's cost unit.
    """

    index: int
    shard: int
    items: Tuple[int, ...]
    cost: float


@dataclass(frozen=True)
class SchedulePlan:
    """A complete task decomposition for one parallel stage."""

    mode: str
    workers: int
    tasks: Tuple[TaskPlan, ...]

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    def submit_order(self) -> List[int]:
        """Task indices in descending cost (ties broken by index).

        Submitting in this order makes the pool's shared queue a
        longest-processing-time scheduler: the heavy tasks start first
        and the cheap tail back-fills idle workers.
        """
        return sorted(
            range(len(self.tasks)),
            key=lambda i: (-self.tasks[i].cost, i),
        )

    def shard_tasks(self, shard: int) -> List[TaskPlan]:
        """This shard's tasks, in logical (merge) order."""
        return [task for task in self.tasks if task.shard == shard]

    def planned_cost(self, shard: int) -> float:
        """Total predicted work assigned to one logical shard."""
        return float(
            sum(task.cost for task in self.tasks if task.shard == shard)
        )

    def planned_spread(self) -> float:
        """max/min planned shard cost — the planner's own balance gauge.

        ``inf`` when some shard got (predicted) nothing; 1.0 is perfect.
        """
        loads = [self.planned_cost(shard) for shard in range(self.workers)]
        low = min(loads)
        if low <= 0.0:
            return float("inf")
        return max(loads) / low


def lpt_assign(costs: Sequence[float], bins: int) -> List[int]:
    """Longest-processing-time greedy assignment of items to bins.

    Items are visited in descending cost (ties: ascending item index)
    and each lands in the currently lightest bin (ties: lowest bin
    index) — the classic 4/3-approximation to makespan, fully
    deterministic.  Returns the bin index per item.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    order = sorted(range(len(costs)), key=lambda i: (-costs[i], i))
    loads = [0.0] * bins
    assignment = [0] * len(costs)
    for item in order:
        target = min(range(bins), key=lambda b: (loads[b], b))
        assignment[item] = target
        loads[target] += float(costs[item])
    return assignment


def _even_bounds(n: int, parts: int) -> List[int]:
    """Cut points of ``np.array_split(range(n), parts)`` (static twin)."""
    sizes = [len(part) for part in np.array_split(np.arange(n), parts)]
    bounds = [0]
    for size in sizes:
        bounds.append(bounds[-1] + size)
    return bounds


def _quantile_bounds(costs: np.ndarray, parts: int) -> List[int]:
    """Contiguous cut points at cumulative-cost quantiles.

    A single item heavier than ``total/parts`` swallows several
    quantiles, leaving the slices around it empty — which is exactly
    right: the heavy item is isolated and the remaining cost spreads
    over the other parts.
    """
    cum = np.cumsum(costs)
    total = float(cum[-1])
    if total <= 0.0:
        return _even_bounds(len(costs), parts)
    targets = total * np.arange(1, parts) / parts
    # cum is nondecreasing and targets are increasing, so the cut
    # sequence is already monotone; only clip to the index range.
    cuts = np.clip(
        np.searchsorted(cum, targets, side="left") + 1, 0, len(costs)
    )
    return [0] + [int(c) for c in cuts] + [len(costs)]


def _cap_bounds(costs: Sequence[float], cap: float) -> List[int]:
    """Greedy contiguous cuts so each slice's cost stays under ``cap``.

    An item heavier than the cap becomes its own singleton slice — the
    planner cannot split below one item (per-scanner RNG streams are
    the atomic unit), so it isolates instead.
    """
    bounds = [0]
    acc = 0.0
    for i, cost in enumerate(costs):
        if i > bounds[-1] and acc + float(cost) > cap:
            bounds.append(i)
            acc = 0.0
        acc += float(cost)
    bounds.append(len(costs))
    return bounds


def even_shards(n: int, workers: int) -> np.ndarray:
    """Shard index per item of ``np.array_split(range(n), workers)``."""
    return np.repeat(np.arange(workers), np.diff(_even_bounds(n, workers)))


def plan_static(shards: Sequence[int], workers: int) -> SchedulePlan:
    """The legacy layout as a plan: item ``i`` on shard ``shards[i]``.

    One task per shard, task index = shard index, items in ascending
    order — the hash layout (``shards`` from
    :func:`repro.parallel.shard_of`) or the contiguous ``array_split``
    one (:func:`even_shards`).  No cost was predicted, so every task
    costs 0.0: :meth:`SchedulePlan.submit_order` stays FIFO and
    ``planned_cost`` stays 0 in telemetry.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    shards = np.asarray(shards, dtype=np.int64)
    tasks = tuple(
        TaskPlan(
            index=shard,
            shard=shard,
            items=tuple(int(i) for i in np.flatnonzero(shards == shard)),
            cost=0.0,
        )
        for shard in range(workers)
    )
    return SchedulePlan(mode="static", workers=workers, tasks=tasks)


def _empty_plan(mode: str, workers: int) -> SchedulePlan:
    """One empty task per shard — the shape static sharding gives an
    empty population, so downstream merge/telemetry code sees the same
    arity in every mode."""
    tasks = tuple(
        TaskPlan(index=shard, shard=shard, items=(), cost=0.0)
        for shard in range(workers)
    )
    return SchedulePlan(mode=mode, workers=workers, tasks=tasks)


def plan_contiguous(
    costs: Sequence[float],
    workers: int,
    mode: str,
    *,
    steal_factor: int = DEFAULT_STEAL_FACTOR,
) -> SchedulePlan:
    """Plan a stage whose merge concatenates results in item order.

    Tasks are contiguous index ranges — the only decomposition whose
    in-order concat reproduces the serial output — so balance is
    limited by how evenly cost can be cut along the population.

    * ``static``: even *count* slices (``np.array_split`` twin), one
      task per shard.
    * ``packed``: cumulative-cost quantile slices, one task per shard.
    * ``stealing``: cost-capped slices (≈ ``workers * steal_factor``
      of them), LPT-assigned to logical shards, submitted heaviest
      first; a single item heavier than the cap is isolated in its own
      task.
    """
    validate_mode(mode)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if steal_factor < 1:
        raise ValueError("steal_factor must be >= 1")
    costs = np.asarray(
        [max(float(c), 0.0) for c in costs], dtype=np.float64
    )
    n = len(costs)
    if n == 0:
        return _empty_plan(mode, workers)
    total = float(costs.sum())
    if mode == "static" or total <= 0.0:
        bounds = _even_bounds(n, workers)
    elif mode == "packed":
        bounds = _quantile_bounds(costs, workers)
    else:
        cap = total / (workers * steal_factor)
        bounds = _cap_bounds(costs, cap)
    slices = list(zip(bounds[:-1], bounds[1:]))
    slice_costs = [float(costs[lo:hi].sum()) for lo, hi in slices]
    if mode == "stealing" and total > 0.0:
        shards = lpt_assign(slice_costs, workers)
    else:
        shards = list(range(len(slices)))
    tasks = tuple(
        TaskPlan(
            index=index,
            shard=shards[index],
            items=tuple(range(lo, hi)),
            cost=slice_costs[index],
        )
        for index, (lo, hi) in enumerate(slices)
    )
    return SchedulePlan(mode=mode, workers=workers, tasks=tasks)


def plan_grouped(
    costs: Sequence[float],
    groups: Sequence[Sequence[int]],
    workers: int,
    mode: str,
    *,
    steal_factor: int = DEFAULT_STEAL_FACTOR,
) -> SchedulePlan:
    """Plan a stage whose merge is partition-independent.

    ``groups`` are the indivisible units (all scanners sharing a source
    address, one hash fine-shard...) with one predicted cost each;
    results may be partitioned any way that keeps a group whole.

    * ``packed``: LPT bin-pack groups into exactly ``workers`` tasks
      (one per shard; a shard that packs empty still gets an empty
      task, so task arity equals ``workers`` like the static path).
    * ``stealing``: the same LPT shard assignment, then each shard's
      group list splits into cost-capped sub-tasks drained by whichever
      worker goes idle first.

    Within a task, item indices stay ascending (population order) — the
    tie-breaking contract shared with :func:`repro.parallel.shard_scanners`.
    """
    validate_mode(mode)
    if mode == "static":
        raise ValueError(
            "static scheduling keeps the legacy hash layout; "
            "build it with plan_static"
        )
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if steal_factor < 1:
        raise ValueError("steal_factor must be >= 1")
    if len(costs) != len(groups):
        raise ValueError("costs must align with groups")
    if not groups:
        return _empty_plan(mode, workers)
    costs = [max(float(c), 0.0) for c in costs]
    assignment = lpt_assign(costs, workers)
    total = sum(costs)
    tasks: List[TaskPlan] = []
    for shard in range(workers):
        members = [g for g in range(len(groups)) if assignment[g] == shard]
        if not members:
            tasks.append(
                TaskPlan(index=len(tasks), shard=shard, items=(), cost=0.0)
            )
            continue
        if mode == "packed" or total <= 0.0:
            segments = [members]
        else:
            cap = total / (workers * steal_factor)
            member_costs = [costs[g] for g in members]
            bounds = _cap_bounds(member_costs, cap)
            segments = [
                members[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])
            ]
        for segment in segments:
            items: List[int] = []
            for g in segment:
                items.extend(int(i) for i in groups[g])
            tasks.append(
                TaskPlan(
                    index=len(tasks),
                    shard=shard,
                    items=tuple(sorted(items)),
                    cost=float(sum(costs[g] for g in segment)),
                )
            )
    return SchedulePlan(mode=mode, workers=workers, tasks=tuple(tasks))
