"""Cost-capped work-stealing plans for flow synthesis.

The paper's central measurement — scanner traffic is extremely
heavy-tailed — is also flow synthesis's scaling problem: even-count
contiguous slices (``np.array_split``) put one aggressive scanner's
entire workload on one worker while the others idle.  This module turns
per-scanner *cost predictions* (``Scanner.cost_estimate``) into an
explicit :class:`SchedulePlan`: which items form which task, which
logical shard each task belongs to, and in what order tasks should be
submitted to the pool.

Flow synthesis merges by concatenation in population order, so tasks
must be contiguous index ranges.  :func:`plan_contiguous` over-decomposes
the population into cost-capped slices (a few per worker), isolates any
single item whose cost exceeds the cap in its own task, and assigns the
slices to logical shards by LPT bin packing.

Detection needs no plan: all of its state is keyed per source, so it
shards by source hash (:func:`repro.parallel.shard_of`), one task per
worker.

Scheduling never touches results.  Tasks carry their *logical* task
index, results merge in logical order regardless of execution order,
and :meth:`SchedulePlan.submit_order` only reorders the executor queue
(descending cost — longest-processing-time first, the classic greedy
that keeps the tail short).  The work-stealing queue itself is the
process pool's shared pending queue: with more tasks than workers, an
idle worker "steals" the next queued task the moment it finishes its
own (:func:`repro.core.faults.run_sharded` with ``submit_order``).

Everything here is deterministic: plans are pure functions of the cost
vector and the worker count, with explicit tie-breaking — a resumed or
retried run re-derives the identical plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

#: Target tasks per worker.  More tasks = finer stealing granularity but
#: more per-task overhead (pickling, pool dispatch, checkpoint files); 4
#: keeps the straggler tail under a quarter-worker of work without
#: measurable dispatch cost.
DEFAULT_STEAL_FACTOR = 4


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
        items: indices into the planner's input (scanner positions),
            ascending.
        cost: predicted work, in the caller's cost unit.
    """

    index: int
    shard: int
    items: Tuple[int, ...]
    cost: float


@dataclass(frozen=True)
class SchedulePlan:
    """A complete task decomposition for one parallel stage."""

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
    """Cut points of ``np.array_split(range(n), parts)``."""
    sizes = [len(part) for part in np.array_split(np.arange(n), parts)]
    bounds = [0]
    for size in sizes:
        bounds.append(bounds[-1] + size)
    return bounds


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


def plan_contiguous(costs: Sequence[float], workers: int) -> SchedulePlan:
    """Plan a stage whose merge concatenates results in item order.

    Tasks are contiguous index ranges — the only decomposition whose
    in-order concat reproduces the serial output.  The population is
    cut into cost-capped slices (≈ ``workers * DEFAULT_STEAL_FACTOR``
    of them), LPT-assigned to logical shards and submitted heaviest
    first; a single item heavier than the cap is isolated in its own
    task.  With no predicted cost at all (an empty population, or every
    cost 0) the plan is even *count* slices, one task per shard.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    costs = np.maximum(np.asarray(costs, dtype=np.float64), 0.0)
    total = float(costs.sum())
    if total <= 0.0:
        bounds = _even_bounds(len(costs), workers)
    else:
        bounds = _cap_bounds(costs, total / (workers * DEFAULT_STEAL_FACTOR))
    slices = list(zip(bounds[:-1], bounds[1:]))
    slice_costs = [float(costs[lo:hi].sum()) for lo, hi in slices]
    if total > 0.0:
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
    return SchedulePlan(workers=workers, tasks=tasks)
