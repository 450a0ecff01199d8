"""Prioritized planner: search determinism, constraints, conflict handling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import joint_makespan_oracle, random_planner_instance
from r2xsim.planner import (
    Conflict,
    Constraint,
    PlanConfig,
    PlanningError,
    PlanningInfeasible,
    ReservationTable,
    SpaceTimePath,
    _human_base_constraints,
    _human_reservations,
    _widen_conflict,
    default_horizon,
    detect_first_conflict,
    low_level_search,
    makespan,
    plan,
)
from r2xsim.world import GridWorld, RobotState


def world_of(w, h, blocked=()):
    return GridWorld(w, h, blocked=frozenset(blocked))


class TestConstraint:
    def test_factories(self):
        v = Constraint.vertex(1, (2, 3), 5)
        assert (v.kind, v.cell, v.step_lo, v.step_hi) == ("vertex", (2, 3), 5, 5)
        w = Constraint.window(1, (0, 0), 2, 6)
        assert (w.step_lo, w.step_hi) == (2, 6)
        e = Constraint.edge(2, (0, 0), (1, 0), 4)
        assert e.to_cell == (1, 0) and e.step_lo == e.step_hi == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            Constraint(1, "diagonal", (0, 0), 0, 0)
        with pytest.raises(ValueError):
            Constraint(1, "window", (0, 0), 3, 1)
        with pytest.raises(ValueError):
            Constraint(1, "vertex", (0, 0), -1, -1)
        with pytest.raises(ValueError):
            Constraint(1, "edge", (0, 0), 2, 2)  # missing to_cell


class TestSpaceTimePath:
    def test_parking_and_arrival(self):
        p = SpaceTimePath(1, ((0, 0), (1, 0), (1, 1)))
        assert p.arrival_step == 2
        assert p.at(0) == (0, 0)
        assert p.at(2) == (1, 1)
        assert p.at(99) == (1, 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SpaceTimePath(1, ())

    def test_validate_rejects_jump_and_blocked(self):
        w = world_of(3, 3, blocked={(1, 0)})
        SpaceTimePath(1, ((0, 0), (0, 1))).validate(w)
        with pytest.raises(ValueError):
            SpaceTimePath(1, ((0, 0), (1, 1))).validate(w)
        with pytest.raises(ValueError):
            SpaceTimePath(1, ((0, 0), (1, 0))).validate(w)


class TestLowLevelSearch:
    def test_tie_break_is_deterministic_north_first(self):
        w = world_of(3, 3)
        path = low_level_search(w, RobotState(1, (0, 0), (2, 2)))
        assert path.cells == ((0, 0), (0, 1), (0, 2), (1, 2), (2, 2))

    def test_vertex_constraint_forces_wait(self):
        w = world_of(3, 1)
        cons = [Constraint.vertex(1, (1, 0), 1)]
        path = low_level_search(w, RobotState(1, (0, 0), (2, 0)), cons)
        assert path.cells == ((0, 0), (0, 0), (1, 0), (2, 0))

    def test_edge_constraint_forces_wait(self):
        w = world_of(2, 1)
        cons = [Constraint.edge(1, (0, 0), (1, 0), 0)]
        path = low_level_search(w, RobotState(1, (0, 0), (1, 0)), cons)
        assert path.cells == ((0, 0), (0, 0), (1, 0))

    def test_goal_window_delays_arrival(self):
        w = world_of(3, 1)
        cons = [Constraint.window(1, (2, 0), 0, 4)]
        path = low_level_search(w, RobotState(1, (0, 0), (2, 0)), cons)
        assert path.arrival_step == 5
        assert path.cells[-1] == (2, 0)
        assert all(c != (2, 0) for c in path.cells[:5])

    def test_other_robots_constraints_ignored(self):
        w = world_of(3, 1)
        cons = [Constraint.vertex(2, (1, 0), 1)]
        path = low_level_search(w, RobotState(1, (0, 0), (2, 0)), cons)
        assert path.arrival_step == 2

    def test_blocked_start_step0_infeasible(self):
        w = world_of(3, 1)
        cons = [Constraint.vertex(1, (0, 0), 0)]
        with pytest.raises(PlanningInfeasible):
            low_level_search(w, RobotState(1, (0, 0), (2, 0)), cons)

    def test_unreachable_goal_infeasible(self):
        w = world_of(3, 1, blocked={(1, 0)})
        with pytest.raises(PlanningInfeasible):
            low_level_search(w, RobotState(1, (0, 0), (2, 0)))

    def test_horizon_too_small_infeasible(self):
        w = world_of(5, 1)
        with pytest.raises(PlanningInfeasible):
            low_level_search(w, RobotState(1, (0, 0), (4, 0)), horizon=3)

    def test_unpassable_endpoints_error(self):
        w = world_of(3, 1, blocked={(2, 0)})
        with pytest.raises(PlanningError):
            low_level_search(w, RobotState(1, (0, 0), (2, 0)))

    def test_infeasible_carries_context(self):
        w = world_of(3, 1)
        cons = [Constraint.vertex(7, (0, 0), 0)]
        with pytest.raises(PlanningInfeasible) as exc:
            low_level_search(w, RobotState(7, (0, 0), (2, 0)), cons, horizon=9)
        assert exc.value.robot_id == 7
        assert exc.value.horizon == 9
        assert len(exc.value.constraints) == 1

    def test_default_horizon(self):
        assert default_horizon(world_of(5, 5)) == 40
        assert default_horizon(world_of(12, 9)) == 84


class TestReservationTable:
    def test_index_keeps_own_constraints(self):
        cons = [
            Constraint.window(1, (1, 0), 2, 4),
            Constraint.vertex(2, (0, 0), 1),
            Constraint.edge(1, (0, 0), (1, 0), 3),
            Constraint.vertex(1, (1, 0), 6),
        ]
        table = ReservationTable.index(1, cons)
        assert table.cells == {(1, 0): {2, 3, 4, 6}}
        assert table.edges == {((0, 0), (1, 0), 3)}
        assert table.constraints() == [cons[0], cons[2], cons[3]]

    def test_copy_takes_constraints_without_changing_the_original(self):
        w = world_of(3, 3)
        pairs = [((1, 1), 2)]
        base = ReservationTable(1, {(1, 1): frozenset({2})}, (w, pairs, "makespan"))
        copy = base.copy()
        added = [Constraint.window(1, (1, 1), 5, 6), Constraint.edge(1, (0, 0), (0, 1), 0)]
        for c in added:
            copy.add(c)
        assert base.cells == {(1, 1): {2}} and not base.edges and not base.added
        assert copy.cells == {(1, 1): {2, 5, 6}} and copy.edges == {((0, 0), (0, 1), 0)}
        assert copy.constraints() == [Constraint.vertex(1, (1, 1), 2)] + added
        assert base.constraints() == [Constraint.vertex(1, (1, 1), 2)]

    @pytest.mark.parametrize("objective", ["makespan", "safety_first"])
    def test_forecast_table_indexes_the_forecast_constraints(self, objective):
        # forecasts on free, blocked and edge cells, at step 0, repeated
        w = world_of(4, 3, blocked={(1, 1), (2, 2)})
        rng = np.random.default_rng(11)
        for _ in range(30):
            pairs = [
                ((int(rng.integers(0, 4)), int(rng.integers(0, 3))), int(rng.integers(0, 4)))
                for _ in range(int(rng.integers(1, 8)))
            ]
            pairs += pairs[:2]
            expected = ReservationTable.index(3, _human_base_constraints(w, [3], pairs, objective)[3])
            assert _human_reservations(w, pairs, objective) == expected.cells

    def test_list_and_table_searches_agree(self):
        rng = np.random.default_rng(7)
        w = world_of(5, 5, blocked={(2, 2)})
        for _ in range(50):
            cons = [
                Constraint.window(1, tuple(rng.integers(0, 5, 2)), int(lo), int(lo) + int(rng.integers(0, 3)))
                for lo in rng.integers(1, 8, 6)
            ]
            cons = [c for c in cons if c.cell != (2, 2)]
            robot = RobotState(1, (0, 0), (4, 4))
            try:
                expected = low_level_search(w, robot, cons)
            except PlanningInfeasible:
                with pytest.raises(PlanningInfeasible):
                    low_level_search(w, robot, ReservationTable.index(1, cons))
                continue
            assert low_level_search(w, robot, ReservationTable.index(1, cons)) == expected

    def test_table_of_another_robot_rejected(self):
        with pytest.raises(ValueError):
            low_level_search(world_of(3, 1), RobotState(1, (0, 0), (2, 0)), ReservationTable(2, {}))


class TestDetectFirstConflict:
    def test_none_cases(self):
        p = SpaceTimePath(1, ((0, 0), (1, 0)))
        q = SpaceTimePath(2, ((0, 1), (1, 1)))
        assert detect_first_conflict([p]) is None
        assert detect_first_conflict([p, q]) is None

    def test_vertex_conflict(self):
        p = SpaceTimePath(1, ((0, 0), (0, 1)))
        q = SpaceTimePath(2, ((1, 1), (0, 1)))
        c = detect_first_conflict([p, q])
        assert c == Conflict("vertex", 1, 1, 2, (0, 1))

    def test_edge_conflict_reports_first_robot_direction(self):
        p = SpaceTimePath(1, ((0, 0), (1, 0)))
        q = SpaceTimePath(2, ((1, 0), (0, 0)))
        c = detect_first_conflict([p, q])
        assert c == Conflict("edge", 0, 1, 2, (0, 0), (1, 0))

    def test_vertex_beats_edge_at_same_step(self):
        # at step 1 robots 3/4 collide on (5,1) while robots 1/2 swap
        p1 = SpaceTimePath(1, ((0, 0), (0, 0), (1, 0)))
        p2 = SpaceTimePath(2, ((1, 0), (1, 0), (0, 0)))
        p3 = SpaceTimePath(3, ((5, 0), (5, 1)))
        p4 = SpaceTimePath(4, ((5, 2), (5, 1)))
        c = detect_first_conflict([p1, p2, p3, p4])
        assert (c.kind, c.step) == ("vertex", 1)
        assert (c.robot_a, c.robot_b) == (3, 4)

    def test_earliest_step_wins(self):
        p = SpaceTimePath(1, ((0, 0), (1, 0), (2, 0)))
        q = SpaceTimePath(2, ((2, 0), (1, 0), (2, 0)))
        c = detect_first_conflict([p, q])
        assert c.step == 1 and c.kind == "vertex" and c.cell == (1, 0)

    def test_parked_robot_conflicts(self):
        p = SpaceTimePath(1, ((0, 0), (1, 0)))  # parked on (1,0) from step 1
        q = SpaceTimePath(2, ((3, 0), (2, 0), (1, 0)))
        c = detect_first_conflict([p, q])
        assert c == Conflict("vertex", 2, 1, 2, (1, 0))


class TestHumanConstraints:
    def test_makespan_vertex_only(self):
        w = world_of(3, 3)
        out = _human_base_constraints(w, [1, 2], [((1, 1), 2)], "makespan")
        assert set(out) == {1, 2}
        assert out[1] == [Constraint.vertex(1, (1, 1), 2)]

    def test_safety_first_widens(self):
        w = world_of(3, 3)
        out = _human_base_constraints(w, [1], [((1, 1), 2)], "safety_first")
        cons = out[1]
        assert cons[0] == Constraint.window(1, (1, 1), 1, 3)
        ring = {(c.cell, c.step_lo) for c in cons[1:]}
        assert ring == {((1, 2), 2), ((2, 1), 2), ((1, 0), 2), ((0, 1), 2)}

    def test_safety_first_skips_blocked_neighbors_and_clamps(self):
        w = world_of(3, 3, blocked={(1, 2)})
        out = _human_base_constraints(w, [1], [((1, 1), 0)], "safety_first")
        cons = out[1]
        assert cons[0] == Constraint.window(1, (1, 1), 0, 1)
        ring = {c.cell for c in cons[1:]}
        assert ring == {(2, 1), (1, 0), (0, 1)}


class TestWidenConflict:
    def test_vertex_becomes_window(self):
        c = Conflict("vertex", 5, 1, 2, (3, 3))
        out = _widen_conflict(c, 2, 2)
        assert out == [Constraint.window(2, (3, 3), 3, 7)]

    def test_vertex_window_clamps_at_zero(self):
        c = Conflict("vertex", 1, 1, 2, (3, 3))
        out = _widen_conflict(c, 1, 3)
        assert out == [Constraint.window(1, (3, 3), 0, 4)]

    def test_edge_direction_per_robot(self):
        c = Conflict("edge", 5, 1, 2, (0, 0), (1, 0))
        for_a = _widen_conflict(c, 1, 1)
        assert for_a == [Constraint.edge(1, (0, 0), (1, 0), s) for s in (4, 5, 6)]
        for_b = _widen_conflict(c, 2, 1)
        assert for_b == [Constraint.edge(2, (1, 0), (0, 0), s) for s in (4, 5, 6)]


def assert_valid_plan(world, paths, robots, humans=()):
    assert detect_first_conflict(paths) is None
    by_id = {r.id: r for r in robots}
    for p in paths:
        p.validate(world)
        assert p.cells[0] == tuple(by_id[p.robot_id].cell)
        assert p.cells[-1] == tuple(by_id[p.robot_id].goal)
        for cell, step in humans:
            assert p.at(step) != tuple(cell)


class TestPlan:
    def crossing(self):
        w = world_of(3, 3)
        r1 = RobotState(1, (0, 1), (2, 1))
        r2 = RobotState(2, (1, 0), (1, 2))
        return w, [r1, r2]

    def test_single_robot_is_solo_path(self):
        w = world_of(3, 3)
        paths = plan(w, [RobotState(1, (0, 0), (2, 2))], [], PlanConfig())
        assert len(paths) == 1 and paths[0].arrival_step == 4

    def test_head_on_with_bay_resolves(self):
        w = world_of(3, 2)
        robots = [RobotState(1, (0, 0), (2, 0)), RobotState(2, (2, 0), (0, 0))]
        paths = plan(w, robots, [], PlanConfig())
        assert_valid_plan(w, paths, robots)
        assert makespan(paths) == 4

    def test_head_on_in_corridor_infeasible(self):
        w = world_of(3, 1)
        robots = [RobotState(1, (0, 0), (2, 0)), RobotState(2, (2, 0), (0, 0))]
        with pytest.raises(PlanningInfeasible):
            plan(w, robots, [], PlanConfig())

    def test_crossing_refinement_optimal(self):
        w, robots = self.crossing()
        paths = plan(w, robots, [], PlanConfig())
        assert_valid_plan(w, paths, robots)
        assert makespan(paths) == 3

    def test_priority_robot_keeps_solo_route(self):
        w, robots = self.crossing()
        for vip, other in ((1, 2), (2, 1)):
            paths = plan(w, robots, [], PlanConfig(priority_robot=vip))
            by_id = {p.robot_id: p for p in paths}
            assert by_id[vip].arrival_step == 2
            assert by_id[other].arrival_step == 3
            assert_valid_plan(w, paths, robots)

    def test_gap_separates_occupancy_times(self):
        # plus-shaped free space: (1,1) is the only crossing, no detours
        w = world_of(3, 3, blocked={(0, 0), (2, 0), (0, 2), (2, 2)})
        robots = [RobotState(1, (0, 1), (2, 1)), RobotState(2, (1, 0), (1, 2))]
        gap = 2
        paths = plan(
            w, robots, [], PlanConfig(priority_robot=1, min_time_gap_at_conflict=gap)
        )
        by_id = {p.robot_id: p for p in paths}
        assert by_id[1].arrival_step == 2
        assert by_id[2].arrival_step == 5
        t1 = [s for s in range(6) if by_id[1].at(s) == (1, 1)]
        t2 = [s for s in range(6) if by_id[2].at(s) == (1, 1)]
        assert t1 and t2
        assert min(abs(a - b) for a in t1 for b in t2) > gap

    def test_human_forecast_avoided_makespan(self):
        w = world_of(3, 3)
        robots = [RobotState(1, (0, 0), (2, 2))]
        humans = [((1, 1), 1)]
        paths = plan(w, robots, humans, PlanConfig(objective="makespan"))
        assert paths[0].at(1) != (1, 1)
        assert paths[0].arrival_step == 4

    def test_safety_first_widens_human_zone(self):
        w = world_of(3, 3)
        robots = [RobotState(1, (0, 0), (2, 2))]
        humans = [((1, 1), 1)]
        paths = plan(w, robots, humans, PlanConfig(objective="safety_first"))
        p = paths[0]
        assert p.arrival_step == 5  # one step slower than makespan's detour
        for s in (0, 1, 2):
            assert p.at(s) != (1, 1)
        for ncell in ((1, 2), (2, 1), (1, 0), (0, 1)):
            assert p.at(1) != ncell

    def test_safety_first_uses_id_order(self):
        w, robots = self.crossing()
        paths = plan(w, robots, [], PlanConfig(objective="safety_first"))
        by_id = {p.robot_id: p for p in paths}
        assert by_id[1].cells == ((0, 1), (1, 1), (2, 1))
        assert by_id[2].arrival_step == 3
        assert_valid_plan(w, paths, robots)

    def test_three_robot_makespan(self):
        w = world_of(4, 4)
        robots = [
            RobotState(1, (0, 0), (3, 3)),
            RobotState(2, (3, 0), (0, 3)),
            RobotState(3, (0, 3), (3, 0)),
        ]
        paths = plan(w, robots, [], PlanConfig())
        assert_valid_plan(w, paths, robots)
        assert makespan(paths) <= 8

    def test_plan_is_deterministic(self):
        w, robots = self.crossing()
        a = plan(w, robots, [], PlanConfig())
        b = plan(w, robots, [], PlanConfig())
        assert [p.cells for p in a] == [p.cells for p in b]

    @pytest.mark.parametrize("objective", ["makespan", "safety_first"])
    @pytest.mark.parametrize("n_robots", [1, 2])
    def test_infeasible_carries_forecast_constraints(self, objective, n_robots):
        # robot 1's start is ringed by forecast cells at every step
        w = world_of(5, 5)
        horizon = default_horizon(w)
        ring = ((2, 3), (3, 2), (2, 1), (1, 2))
        humans = [(c, s) for c in ring for s in range(1, horizon + 1)]
        robots = [RobotState(1, (2, 2), (4, 4)), RobotState(2, (0, 0), (0, 4))][:n_robots]
        with pytest.raises(PlanningInfeasible) as exc:
            plan(w, robots, humans, PlanConfig(objective=objective))
        rid = exc.value.robot_id
        assert list(exc.value.constraints) == _human_base_constraints(w, [rid], humans, objective)[rid]

    def test_input_validation(self):
        w = world_of(3, 3)
        dup = [RobotState(1, (0, 0), (1, 1)), RobotState(1, (2, 2), (0, 1))]
        with pytest.raises(PlanningError):
            plan(w, dup, [], PlanConfig())
        robots = [RobotState(1, (0, 0), (1, 1)), RobotState(2, (2, 2), (0, 1))]
        with pytest.raises(PlanningError):
            plan(w, robots, [], PlanConfig(priority_robot=9))
        same_start = [RobotState(1, (0, 0), (1, 1)), RobotState(2, (0, 0), (2, 2))]
        with pytest.raises(PlanningError):
            plan(w, same_start, [], PlanConfig())

    def test_matches_joint_oracle_on_random_instances(self):
        rng = np.random.default_rng(123)
        w = world_of(5, 5)
        horizon = default_horizon(w)
        checked = 0
        for _ in range(30):
            starts, goals, humans = random_planner_instance(rng)
            robots = [RobotState(1, starts[0], goals[0]), RobotState(2, starts[1], goals[1])]
            pairs = [(hc, s) for hc in humans for s in range(1, horizon + 1)]
            expected = joint_makespan_oracle(w, starts, goals, humans, horizon)
            try:
                paths = plan(w, robots, pairs, PlanConfig(objective="makespan"))
            except PlanningInfeasible:
                assert expected is None
                continue
            assert expected is not None
            assert_valid_plan(w, paths, robots, pairs)
            assert makespan(paths) == expected
            checked += 1
        assert checked >= 20  # nearly all random instances are feasible

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_instances_conflict_free(self, seed):
        rng = np.random.default_rng(seed)
        w = world_of(5, 5)
        starts, goals, humans = random_planner_instance(rng)
        robots = [RobotState(1, starts[0], goals[0]), RobotState(2, starts[1], goals[1])]
        pairs = [(hc, s) for hc in humans for s in range(1, 41)]
        objective = "safety_first" if seed % 2 else "makespan"
        try:
            paths = plan(w, robots, pairs, PlanConfig(objective=objective))
        except PlanningInfeasible:
            return
        assert detect_first_conflict(paths) is None
        human_cells = {tuple(h) for h in humans}
        for p in paths:
            p.validate(w)
            for s in range(1, makespan(paths) + 1):
                assert p.at(s) not in human_cells
