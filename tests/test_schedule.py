"""Unit tests for the flow-synthesis planner (repro.core.schedule).

The planner's promises, pinned here:

* Plans are pure functions of (costs, workers) with explicit
  tie-breaking — identical inputs give identical plans.
* Every plan partitions the input: items appear exactly once, in
  ascending order within a task, and tasks are contiguous index ranges
  (the concat-merge requirement).
* A single dominant item is isolated in its own task instead of
  dragging neighbours onto its shard.
* ``submit_order`` is a permutation, heaviest first.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedule import (
    DEFAULT_STEAL_FACTOR,
    SchedulePlan,
    TaskPlan,
    lpt_assign,
    plan_contiguous,
)


def _covered_items(plan: SchedulePlan) -> list:
    items = []
    for task in plan.tasks:
        items.extend(task.items)
    return items


def _assert_partition(plan: SchedulePlan, n_items: int):
    items = _covered_items(plan)
    assert sorted(items) == list(range(n_items))
    for task in plan.tasks:
        assert list(task.items) == sorted(task.items)
        assert 0 <= task.shard < plan.workers
    assert [task.index for task in plan.tasks] == list(range(plan.n_tasks))


class TestLptAssign:
    def test_balances_equal_items(self):
        assignment = lpt_assign([1.0] * 8, 4)
        counts = np.bincount(assignment, minlength=4)
        assert counts.tolist() == [2, 2, 2, 2]

    def test_heavy_item_gets_own_bin(self):
        # One item worth more than everything else combined: LPT gives
        # it a bin to itself and spreads the rest over the other bins.
        assignment = lpt_assign([100.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0], 3)
        heavy_bin = assignment[0]
        assert all(a != heavy_bin for a in assignment[1:])

    def test_deterministic_ties(self):
        a = lpt_assign([2.0, 2.0, 2.0, 2.0], 2)
        b = lpt_assign([2.0, 2.0, 2.0, 2.0], 2)
        assert a == b

    def test_rejects_zero_bins(self):
        with pytest.raises(ValueError, match="bins"):
            lpt_assign([1.0], 0)


class TestPlanContiguous:
    def test_empty_population(self):
        plan = plan_contiguous([], 4)
        assert plan.n_tasks == 4
        assert all(task.items == () for task in plan.tasks)
        assert [task.shard for task in plan.tasks] == [0, 1, 2, 3]

    def test_workers_exceed_items(self):
        plan = plan_contiguous([5.0, 1.0], 6)
        _assert_partition(plan, 2)

    def test_stealing_isolates_dominant_item(self):
        # A single item holding ~all the work must land alone in its
        # own task (the per-item RNG stream is atomic — the planner
        # isolates what it cannot split).
        costs = [1.0, 1.0, 1000.0, 1.0, 1.0]
        plan = plan_contiguous(costs, 4)
        heavy_task = next(t for t in plan.tasks if 2 in t.items)
        assert heavy_task.items == (2,)
        # ...and no other task shares its shard.
        assert len(plan.shard_tasks(heavy_task.shard)) == 1

    def test_stealing_over_decomposes(self):
        plan = plan_contiguous([1.0] * 64, 4)
        assert plan.n_tasks > 4
        assert plan.n_tasks <= 4 * DEFAULT_STEAL_FACTOR + 1
        _assert_partition(plan, 64)

    def test_contiguous_tasks_are_ranges(self):
        costs = [float(c) for c in np.random.default_rng(3).integers(0, 50, 40)]
        plan = plan_contiguous(costs, 4)
        _assert_partition(plan, 40)
        for task in plan.tasks:
            if task.items:
                lo, hi = task.items[0], task.items[-1]
                assert task.items == tuple(range(lo, hi + 1))

    def test_zero_costs_fall_back_to_even(self):
        plan = plan_contiguous([0.0] * 9, 3)
        assert [len(t.items) for t in plan.tasks] == [3, 3, 3]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError, match="workers"):
            plan_contiguous([1.0], 0)


class TestSubmitOrder:
    def test_heaviest_first_permutation(self):
        plan = plan_contiguous([3.0, 1.0, 9.0, 2.0, 9.0, 5.0], 2)
        order = plan.submit_order()
        assert sorted(order) == list(range(plan.n_tasks))
        submitted_costs = [plan.tasks[i].cost for i in order]
        assert submitted_costs == sorted(submitted_costs, reverse=True)

    def test_tie_break_by_index(self):
        plan = SchedulePlan(
            workers=2,
            tasks=(
                TaskPlan(index=0, shard=0, items=(0,), cost=2.0),
                TaskPlan(index=1, shard=1, items=(1,), cost=2.0),
            ),
        )
        assert plan.submit_order() == [0, 1]


class TestPlanIntrospection:
    def test_planned_cost_sums_shard_tasks(self):
        plan = plan_contiguous([4.0, 4.0, 4.0, 4.0], 2)
        total = sum(plan.planned_cost(s) for s in range(2))
        assert total == pytest.approx(16.0)

    def test_planned_spread_perfect_balance(self):
        plan = plan_contiguous([1.0] * 8, 2)
        assert plan.planned_spread() == pytest.approx(1.0)

    def test_planned_spread_empty_shard_is_inf(self):
        plan = plan_contiguous([4.0], 3)
        assert plan.planned_spread() == float("inf")


# ----------------------------------------------------------------------
# Property: for any cost vector and worker count, the plan is a
# deterministic partition into contiguous index ranges.
# ----------------------------------------------------------------------


@given(
    costs=st.lists(
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        min_size=0,
        max_size=60,
    ),
    workers=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=120, deadline=None)
def test_plan_contiguous_is_deterministic_partition(costs, workers):
    plan = plan_contiguous(costs, workers)
    again = plan_contiguous(costs, workers)
    assert plan == again
    _assert_partition(plan, len(costs))
    if costs:
        for task in plan.tasks:
            if task.items:
                lo, hi = task.items[0], task.items[-1]
                assert task.items == tuple(range(lo, hi + 1))
