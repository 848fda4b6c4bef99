"""Unit tests for the size-aware shard planner (repro.core.schedule).

The planner's promises, pinned here:

* Plans are pure functions of (costs, workers, mode) with explicit
  tie-breaking — identical inputs give identical plans.
* ``static`` is the exact ``np.array_split`` layout the legacy path
  used, so disabling the planner is bit-for-bit backward compatible.
* Every plan partitions the input: items appear exactly once, in
  ascending order within a task, and contiguous plans keep tasks as
  contiguous index ranges (the concat-merge requirement).
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
    SCHEDULE_MODES,
    SchedulePlan,
    TaskPlan,
    even_shards,
    lpt_assign,
    plan_contiguous,
    plan_grouped,
    plan_static,
    validate_mode,
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


class TestValidateMode:
    def test_accepts_all_modes(self):
        for mode in SCHEDULE_MODES:
            assert validate_mode(mode) == mode

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="schedule must be one of"):
            validate_mode("adaptive")


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
    def test_static_matches_array_split(self):
        # Backward compatibility: disabling the planner reproduces the
        # legacy np.array_split shard layout exactly.
        for n, workers in [(10, 3), (7, 7), (24, 5), (3, 8)]:
            plan = plan_contiguous([1.0] * n, workers, "static")
            expected = [
                tuple(int(i) for i in part)
                for part in np.array_split(np.arange(n), workers)
            ]
            assert [task.items for task in plan.tasks] == expected
            assert plan.n_tasks == workers

    def test_empty_population(self):
        for mode in SCHEDULE_MODES:
            plan = plan_contiguous([], 4, mode)
            assert plan.n_tasks == 4
            assert all(task.items == () for task in plan.tasks)
            assert [task.shard for task in plan.tasks] == [0, 1, 2, 3]

    def test_workers_exceed_items(self):
        for mode in SCHEDULE_MODES:
            plan = plan_contiguous([5.0, 1.0], 6, mode)
            _assert_partition(plan, 2)

    def test_packed_balances_heavy_tail(self):
        # Geometric tail: static's even-count slices load shard 0 with
        # 12x shard 3's work; packed's quantile cuts get within 4x.
        costs = [16.0, 8.0, 4.0, 2.0, 1.0, 1.0, 1.0, 1.0]
        static = plan_contiguous(costs, 4, "static")
        packed = plan_contiguous(costs, 4, "packed")
        assert packed.planned_spread() < static.planned_spread()

    def test_packed_isolates_dominant_item(self):
        # 1 item with ~all the work: packed cannot split it (the
        # per-item RNG stream is atomic), so it gets a slice alone and
        # the makespan drops to that single item's cost.
        costs = [300.0] + [1.0] * 30
        static = plan_contiguous(costs, 4, "static")
        packed = plan_contiguous(costs, 4, "packed")
        heavy_task = next(t for t in packed.tasks if 0 in t.items)
        assert heavy_task.items == (0,)

        def makespan(plan):
            return max(plan.planned_cost(s) for s in range(plan.workers))

        assert makespan(packed) < makespan(static)

    def test_stealing_isolates_dominant_item(self):
        # A single item holding ~all the work must land alone in its
        # own task (the per-item RNG stream is atomic — the planner
        # isolates what it cannot split).
        costs = [1.0, 1.0, 1000.0, 1.0, 1.0]
        plan = plan_contiguous(costs, 4, "stealing")
        heavy_task = next(t for t in plan.tasks if 2 in t.items)
        assert heavy_task.items == (2,)
        # ...and no other task shares its shard.
        assert len(plan.shard_tasks(heavy_task.shard)) == 1

    def test_stealing_over_decomposes(self):
        plan = plan_contiguous([1.0] * 64, 4, "stealing")
        assert plan.n_tasks > 4
        assert plan.n_tasks <= 4 * DEFAULT_STEAL_FACTOR + 1
        _assert_partition(plan, 64)

    def test_contiguous_tasks_are_ranges(self):
        costs = [float(c) for c in np.random.default_rng(3).integers(0, 50, 40)]
        for mode in SCHEDULE_MODES:
            plan = plan_contiguous(costs, 4, mode)
            _assert_partition(plan, 40)
            for task in plan.tasks:
                if task.items:
                    lo, hi = task.items[0], task.items[-1]
                    assert task.items == tuple(range(lo, hi + 1))

    def test_zero_costs_fall_back_to_even(self):
        plan = plan_contiguous([0.0] * 9, 3, "packed")
        assert [len(t.items) for t in plan.tasks] == [3, 3, 3]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError, match="workers"):
            plan_contiguous([1.0], 0, "packed")
        with pytest.raises(ValueError, match="steal_factor"):
            plan_contiguous([1.0], 2, "stealing", steal_factor=0)
        with pytest.raises(ValueError, match="schedule"):
            plan_contiguous([1.0], 2, "magic")


class TestPlanStatic:
    def test_hash_layout_matches_shard_of(self):
        from repro.parallel import shard_of

        sources = np.arange(1, 300, 7, dtype=np.uint32)
        shards = shard_of(sources, 4)
        plan = plan_static(shards, 4)
        assert plan.mode == "static"
        assert [task.index for task in plan.tasks] == [0, 1, 2, 3]
        assert [task.shard for task in plan.tasks] == [0, 1, 2, 3]
        for task in plan.tasks:
            assert task.items == tuple(
                int(i) for i in np.flatnonzero(shards == task.index)
            )
        _assert_partition(plan, len(sources))

    def test_even_shards_match_array_split(self):
        for n, workers in [(10, 3), (7, 7), (24, 5), (3, 8), (0, 2)]:
            plan = plan_static(even_shards(n, workers), workers)
            legacy = plan_contiguous([1.0] * n, workers, "static")
            assert [t.items for t in plan.tasks] == [
                t.items for t in legacy.tasks
            ]

    def test_static_tasks_carry_no_cost(self):
        # No prediction was made: a static plan must keep the FIFO
        # submit order and report zero planned cost per shard, or the
        # telemetry rows would start claiming a plan.
        plan = plan_static([0, 2, 1, 0, 2, 2], 3)
        assert all(task.cost == 0.0 for task in plan.tasks)
        assert plan.submit_order() == [0, 1, 2]
        assert [plan.planned_cost(s) for s in range(3)] == [0.0] * 3

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers"):
            plan_static([], 0)


class TestPlanGrouped:
    def test_static_not_planned(self):
        with pytest.raises(ValueError, match="legacy hash layout"):
            plan_grouped([1.0], [[0]], 2, "static")

    def test_empty_groups(self):
        for mode in ("packed", "stealing"):
            plan = plan_grouped([], [], 3, mode)
            assert plan.n_tasks == 3
            assert all(task.items == () for task in plan.tasks)

    def test_groups_stay_whole(self):
        groups = [[0, 5], [1, 2], [3], [4, 6, 7]]
        costs = [10.0, 3.0, 1.0, 6.0]
        for mode in ("packed", "stealing"):
            plan = plan_grouped(costs, groups, 2, mode)
            _assert_partition(plan, 8)
            for group in groups:
                owners = {
                    task.index
                    for task in plan.tasks
                    if set(group) & set(task.items)
                }
                assert len(owners) == 1, group

    def test_packed_one_task_per_shard(self):
        plan = plan_grouped([1.0] * 6, [[i] for i in range(6)], 4, "packed")
        assert plan.n_tasks == 4
        assert [task.shard for task in plan.tasks] == [0, 1, 2, 3]

    def test_workers_exceed_groups(self):
        # 2 groups over 5 shards: empty shards still get an (empty)
        # task so downstream telemetry arity matches the worker count.
        plan = plan_grouped([4.0, 2.0], [[0], [1]], 5, "packed")
        assert plan.n_tasks == 5
        assert sorted(len(t.items) for t in plan.tasks) == [0, 0, 0, 1, 1]

    def test_dominant_group_isolated(self):
        costs = [500.0, 1.0, 1.0, 1.0]
        plan = plan_grouped(costs, [[0], [1], [2], [3]], 3, "stealing")
        heavy_task = next(t for t in plan.tasks if 0 in t.items)
        assert heavy_task.items == (0,)
        assert len(plan.shard_tasks(heavy_task.shard)) == 1

    def test_mismatched_costs_raise(self):
        with pytest.raises(ValueError, match="align"):
            plan_grouped([1.0, 2.0], [[0]], 2, "packed")


class TestSubmitOrder:
    def test_heaviest_first_permutation(self):
        plan = plan_contiguous(
            [3.0, 1.0, 9.0, 2.0, 9.0, 5.0], 2, "stealing", steal_factor=3
        )
        order = plan.submit_order()
        assert sorted(order) == list(range(plan.n_tasks))
        submitted_costs = [plan.tasks[i].cost for i in order]
        assert submitted_costs == sorted(submitted_costs, reverse=True)

    def test_tie_break_by_index(self):
        plan = SchedulePlan(
            mode="packed",
            workers=2,
            tasks=(
                TaskPlan(index=0, shard=0, items=(0,), cost=2.0),
                TaskPlan(index=1, shard=1, items=(1,), cost=2.0),
            ),
        )
        assert plan.submit_order() == [0, 1]


class TestPlanIntrospection:
    def test_planned_cost_sums_shard_tasks(self):
        plan = plan_contiguous([4.0, 4.0, 4.0, 4.0], 2, "stealing",
                               steal_factor=2)
        total = sum(plan.planned_cost(s) for s in range(2))
        assert total == pytest.approx(16.0)

    def test_planned_spread_perfect_balance(self):
        plan = plan_contiguous([1.0] * 8, 2, "packed")
        assert plan.planned_spread() == pytest.approx(1.0)

    def test_planned_spread_empty_shard_is_inf(self):
        plan = plan_grouped([4.0], [[0]], 3, "packed")
        assert plan.planned_spread() == float("inf")


# ----------------------------------------------------------------------
# Property: for any cost vector, worker count and mode, the plan is a
# deterministic partition whose packed/stealing planned spread never
# loses to the static split by more than float noise.
# ----------------------------------------------------------------------


@given(
    costs=st.lists(
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        min_size=0,
        max_size=60,
    ),
    workers=st.integers(min_value=1, max_value=8),
    mode=st.sampled_from(SCHEDULE_MODES),
)
@settings(max_examples=120, deadline=None)
def test_plan_contiguous_is_deterministic_partition(costs, workers, mode):
    plan = plan_contiguous(costs, workers, mode)
    again = plan_contiguous(costs, workers, mode)
    assert plan == again
    _assert_partition(plan, len(costs))
    if costs:
        for task in plan.tasks:
            if task.items:
                lo, hi = task.items[0], task.items[-1]
                assert task.items == tuple(range(lo, hi + 1))


@given(
    costs=st.lists(
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        min_size=0,
        max_size=40,
    ),
    workers=st.integers(min_value=1, max_value=6),
    mode=st.sampled_from(["packed", "stealing"]),
)
@settings(max_examples=120, deadline=None)
def test_plan_grouped_is_deterministic_partition(costs, workers, mode):
    groups = [[i] for i in range(len(costs))]
    plan = plan_grouped(costs, groups, workers, mode)
    again = plan_grouped(costs, groups, workers, mode)
    assert plan == again
    _assert_partition(plan, len(costs))
