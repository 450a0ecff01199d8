"""Prioritized planner: search determinism, reservation tables, conflict handling."""

import heapq
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    ReferenceTable,
    forecast_reservations,
    joint_makespan_oracle,
    random_planner_instance,
    reference_human_reservations,
    reference_low_level_search,
    reference_makespan_plan,
    reference_moves,
    reference_plan,
    reference_prioritized_plan,
    reference_refinement_plan,
    reference_widen_conflict,
    node_ids,
    validate_path,
)
from r2xsim import planner
from r2xsim.planner import (
    Conflict,
    PlanConfig,
    PlanningError,
    PlanningInfeasible,
    ReservationTable,
    SpaceTimePath,
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


def ncell(world):
    return world.width * world.height


def edge_ids(world, edges):
    """``(cell, to_cell, step)`` moves as ``(id, to_id, step)``."""
    return {(world.cell_id(a), world.cell_id(b), step) for a, b, step in edges}


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

    def test_cells_kept_or_converted_to_tuples(self):
        cells = ((0, 0), (0, 1))
        kept = SpaceTimePath(1, cells)
        assert kept.cells is cells
        for given_cells in ([[0, 0], [0, 1]], ([0, 0], (0, 1))):
            converted = SpaceTimePath(1, given_cells)
            assert type(converted.cells) is tuple and all(type(c) is tuple for c in converted.cells)
            assert converted.cells == cells
            assert converted == kept and hash(converted) == hash(kept)

    def test_planner_paths_equal_checked_paths(self):
        """The planner's own paths, made from ``GridWorld.cells_of`` without
        ``__post_init__``'s type scan, equal the paths made through it."""
        rng = np.random.default_rng(36)
        world = world_of(7, 5)
        for _ in range(200):
            cells = world.cells_of(int(i) for i in rng.integers(0, 35, size=int(rng.integers(1, 12))))
            fast = planner._path(3, cells)
            checked = SpaceTimePath(3, [list(c) for c in cells])
            assert fast == checked and hash(fast) == hash(checked) and vars(fast) == vars(checked)
            assert fast.cells is cells and all(type(c) is tuple for c in fast.cells)
            assert (fast.arrival_step, fast.at(0), fast.at(99)) == (len(cells) - 1, cells[0], cells[-1])

    def test_planner_skips_the_type_scan(self, monkeypatch):
        """Searches and plans, the joint refinement's included, build no path
        through ``__post_init__``."""

        def refuse(path):
            raise AssertionError("the planner ran the type scan")

        w = world_of(4, 4)
        robots = [RobotState(1, (0, 0), (3, 3)), RobotState(2, (3, 3), (0, 0))]
        want = [plan(w, robots, [], PlanConfig(cfg)) for cfg in ("makespan", "safety_first")]
        monkeypatch.setattr(SpaceTimePath, "__post_init__", refuse)
        assert [plan(w, robots, [], PlanConfig(cfg)) for cfg in ("makespan", "safety_first")] == want
        assert low_level_search(w, robots[0]).cells[-1] == (3, 3)
        with pytest.raises(AssertionError, match="type scan"):
            SpaceTimePath(1, ((0, 0),))

    def test_validate_path_rejects_jump_and_blocked(self):
        w = world_of(3, 3, blocked={(1, 0)})
        validate_path(SpaceTimePath(1, ((0, 0), (0, 1))), w)
        with pytest.raises(ValueError, match="jumps"):
            validate_path(SpaceTimePath(1, ((0, 0), (1, 1))), w)
        with pytest.raises(ValueError, match="blocked cell"):
            validate_path(SpaceTimePath(1, ((0, 0), (1, 0))), w)


class TestLowLevelSearch:
    def test_tie_break_is_deterministic_north_first(self):
        w = world_of(3, 3)
        path = low_level_search(w, RobotState(1, (0, 0), (2, 2)))
        assert path.cells == ((0, 0), (0, 1), (0, 2), (1, 2), (2, 2))

    def test_vertex_constraint_forces_wait(self):
        w = world_of(3, 1)
        path = low_level_search(w, RobotState(1, (0, 0), (2, 0)), ReservationTable(1, node_ids(w, {(1, 0): {1}})))
        assert path.cells == ((0, 0), (0, 0), (1, 0), (2, 0))

    def test_edge_constraint_forces_wait(self):
        w = world_of(2, 1)
        table = ReservationTable(1)
        table.block_move(w.cell_id((0, 0)), w.cell_id((1, 0)), 0)
        path = low_level_search(w, RobotState(1, (0, 0), (1, 0)), table)
        assert path.cells == ((0, 0), (0, 0), (1, 0))

    def test_goal_window_delays_arrival(self):
        w = world_of(3, 1)
        table = ReservationTable(1, set())
        table.block_cell(w.cell_id((2, 0)), 0, 4, ncell(w))
        path = low_level_search(w, RobotState(1, (0, 0), (2, 0)), table)
        assert path.arrival_step == 5
        assert path.cells[-1] == (2, 0)
        assert all(c != (2, 0) for c in path.cells[:5])

    def test_blocked_start_step0_infeasible(self):
        w = world_of(3, 1)
        with pytest.raises(PlanningInfeasible):
            low_level_search(w, RobotState(1, (0, 0), (2, 0)), ReservationTable(1, node_ids(w, {(0, 0): {0}})))

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
        with pytest.raises(PlanningInfeasible) as exc:
            low_level_search(w, RobotState(7, (0, 0), (2, 0)), ReservationTable(7, node_ids(w, {(0, 0): {0}})), horizon=9)
        assert exc.value.robot_id == 7
        assert exc.value.horizon == 9

    def test_default_horizon(self):
        assert default_horizon(world_of(5, 5)) == 40
        assert default_horizon(world_of(12, 9)) == 84


def random_search_instance(rng):
    """One robot on a grid of at most 14x14 with random blocked cells, a
    reservation table of random cell windows and blocked moves (or none),
    as a :class:`ReservationTable` on ids and the same table on cells, and
    a horizon that is often too short; a start or goal is now and then
    blocked, or the two coincide."""
    width, height = int(rng.integers(1, 15)), int(rng.integers(1, 15))
    cells = [(x, y) for x in range(width) for y in range(height)]
    order = rng.permutation(len(cells))
    n_blocked = int(rng.integers(0, len(cells) // 3 + 1))
    world = world_of(width, height, [cells[i] for i in order[:n_blocked]])
    free = [cells[i] for i in order[n_blocked:]]
    start, goal = (free[int(rng.integers(len(free)))] for _ in range(2))
    if n_blocked and rng.random() < 0.03:
        start = cells[order[0]]
    rid = int(rng.integers(0, 5))
    robot = RobotState(rid, start, goal)
    span = width + height
    if rng.random() < 0.1:
        return world, robot, None, None, None
    table, ref = ReservationTable(rid, set()), ReferenceTable(rid, {})
    for _ in range(int(rng.integers(0, 16))):
        lo = int(rng.integers(0, span))
        cell, hi = free[int(rng.integers(len(free)))], lo + int(rng.integers(0, 4))
        table.block_cell(world.cell_id(cell), lo, hi, ncell(world))
        ref.block_cell(cell, lo, hi)
    for _ in range(int(rng.integers(0, 16))):
        cell = free[int(rng.integers(len(free)))]
        moves = reference_moves(world)[cell]
        to, step = moves[int(rng.integers(len(moves)))], int(rng.integers(0, span))
        table.block_move(world.cell_id(cell), world.cell_id(to), step)
        ref.block_move(cell, to, step)
    horizon = int(rng.integers(0, default_horizon(world) + 1)) if rng.random() < 0.8 else None
    return world, robot, table, ref, horizon


def search_outcome(search):
    """The searched cells, or the error's type and message."""
    try:
        return "ok", search().cells
    except PlanningError as exc:
        return type(exc).__name__, str(exc)


@pytest.fixture
def heap_pushes(monkeypatch):
    """The items pushed onto any heap while the test runs, in order."""
    pushed = []
    real = heapq.heappush

    def counted(heap, item):
        pushed.append(item)
        real(heap, item)

    monkeypatch.setattr(heapq, "heappush", counted)
    return pushed


class TestDeeperFirstTieBreak:
    def test_search_matches_first_in_first_out_search(self):
        """Breaking f-ties toward the deeper node gives the route, or the
        error, of the first-in-first-out search on every instance."""
        rng = np.random.default_rng(15)
        kinds = Counter()
        for _ in range(3000):
            world, robot, table, ref, horizon = random_search_instance(rng)
            got = search_outcome(lambda: low_level_search(world, robot, table, horizon))
            want = search_outcome(lambda: reference_low_level_search(world, robot, ref, horizon))
            assert got == want, (world, robot, ref and (ref.cells, ref.edges), horizon)
            kinds[got[0]] += 1
        assert kinds["ok"] >= 1500 and kinds["PlanningInfeasible"] >= 300 and kinds["PlanningError"] >= 10, kinds

    def test_open_grid_search_pushes_a_few_nodes_per_step(self, heap_pushes):
        """Corner to corner on an open 100x100 grid every node of the
        rectangle has the same f; first in, first out pushes nearly all of
        them, the deeper-first search at most five per step of the route.
        The free route's first node is barred, so that the heap search runs."""
        world, robot = world_of(100, 100), RobotState(1, (0, 0), (99, 99))
        table, ref = ReservationTable(1, node_ids(world, {(0, 1): {1}})), ReferenceTable(1, {(0, 1): {1}})
        path = low_level_search(world, robot, table)
        assert reference_low_level_search(world, robot, ref) == path
        pushes = Counter(len(item) for item in heap_pushes)  # 5 fields: low_level_search, 4: the reference
        assert path.arrival_step == 198 and 0 < pushes[5] <= 5 * path.arrival_step, pushes
        assert pushes[4] > 100 * path.arrival_step, pushes


class TestFreeRoute:
    """A search whose table blocks nothing on the greedy free route returns
    that route without touching the heap; any block on it, a goal barred at
    or after the arrival step or a short horizon falls back to the heap
    search. Both give the route or error of the reference search."""

    # On an open 4x4 grid, (0, 0) -> (3, 3) goes north first: the free route
    # is (0, 0), (0, 1), (0, 2), (0, 3), (1, 3), (2, 3), (3, 3), arriving at 6.
    WORLD = world_of(4, 4)
    FREE = ((0, 0), (0, 1), (0, 2), (0, 3), (1, 3), (2, 3), (3, 3))

    @staticmethod
    def tables(world, rid, cells=(), edges=()):
        """The same blocks as a table on ids and one on cells: ``cells`` as
        ``(cell, lo, hi)`` windows, ``edges`` as ``(cell, to_cell, step)``."""
        table, ref = ReservationTable(rid, set()), ReferenceTable(rid, {})
        for cell, lo, hi in cells:
            table.block_cell(world.cell_id(cell), lo, hi, ncell(world))
            ref.block_cell(cell, lo, hi)
        for a, b, step in edges:
            table.block_move(world.cell_id(a), world.cell_id(b), step)
            ref.block_move(a, b, step)
        return table, ref

    @pytest.mark.parametrize(
        "start,goal,cells,edges,horizon",
        [
            ((0, 0), (3, 3), (), (), None),
            ((0, 0), (3, 3), (((0, 1), 2, 9), ((0, 2), 0, 1), ((3, 3), 0, 5)), (), None),
            ((0, 0), (3, 3), (), (((0, 1), (0, 2), 0), ((0, 1), (0, 2), 2), ((0, 0), (1, 0), 0)), None),
            ((0, 0), (3, 3), (), (), 6),
            ((2, 1), (2, 1), (), (), 0),
        ],
        ids=["untabled", "blocks-off-the-route", "edges-off-the-route", "horizon-is-the-distance", "at-goal"],
    )
    def test_free_route_pushes_nothing(self, monkeypatch, start, goal, cells, edges, horizon):
        world, robot = self.WORLD, RobotState(1, start, goal)
        table, ref = self.tables(world, 1, cells, edges)
        want = search_outcome(lambda: reference_low_level_search(world, robot, ref, horizon))

        def refuse(heap, item):
            raise AssertionError("the free route pushed a node")

        monkeypatch.setattr(planner.heapq, "heappush", refuse)
        got = search_outcome(lambda: low_level_search(world, robot, table, horizon))
        assert got == want and got[0] == "ok", got
        assert got[1] == (self.FREE if start != goal else (start,))

    @pytest.mark.parametrize(
        "start,goal,cells,edges,horizon",
        [
            ((0, 0), (3, 3), (((0, 2), 2, 2),), (), None),  # one blocked node on the route
            ((0, 0), (3, 3), (), (((0, 2), (0, 3), 2),), None),  # one blocked move on it
            ((0, 0), (3, 3), (((3, 3), 6, 6),), (), None),  # the goal barred at the arrival step
            ((0, 0), (3, 3), (((3, 3), 9, 9),), (), None),  # the goal barred after it
            ((0, 0), (3, 3), (((0, 0), 0, 0),), (), None),  # the start barred at step 0
            ((2, 1), (2, 1), (((2, 1), 1, 2),), (), None),  # start equal to goal, barred later
            ((0, 0), (3, 3), (), (), 5),  # a horizon below the distance
        ],
        ids=["blocked-node", "blocked-edge", "goal-barred-at-arrival", "goal-barred-after", "start-barred",
             "start-is-goal", "short-horizon"],
    )
    def test_fallbacks_match_the_reference(self, heap_pushes, start, goal, cells, edges, horizon):
        world, robot = self.WORLD, RobotState(1, start, goal)
        table, ref = self.tables(world, 1, cells, edges)
        got = search_outcome(lambda: low_level_search(world, robot, table, horizon))
        assert got[0] != "ok" or heap_pushes, "a route came back without the heap search"
        assert got == search_outcome(lambda: reference_low_level_search(world, robot, ref, horizon))

    def test_tie_break_instances_often_take_the_shortcut(self, heap_pushes):
        """More than half of the routes the tie-break test's random
        instances find push no node, so that test checks the shortcut too."""
        rng = np.random.default_rng(15)
        free = found = 0
        for _ in range(3000):
            world, robot, table, _, horizon = random_search_instance(rng)
            heap_pushes.clear()
            if search_outcome(lambda: low_level_search(world, robot, table, horizon))[0] == "ok":
                found += 1
                free += not heap_pushes
        assert found >= 1500 and free >= found // 2, (free, found)


class TestReservationTable:
    def test_copy_takes_constraints_without_changing_the_original(self):
        """A table over a ``set`` copy of the shared human table's nodes
        takes blocks without changing that table."""
        w = world_of(2, 2)
        c = w.cell_id
        shared = node_ids(w, {(1, 1): {2}})  # the human table is shared by every robot's table
        table = ReservationTable(1, set(shared))
        table.block_cell(c((1, 1)), 5, 6, ncell(w))
        table.block_cell(c((1, 0)), 2, 4, ncell(w))
        table.block_cell(c((1, 0)), 6, 6, ncell(w))
        table.block_move(c((0, 0)), c((0, 1)), 0)
        assert shared == {2 * 4 + c((1, 1))} and type(shared) is frozenset
        assert table.nodes == node_ids(w, {(1, 1): {2, 5, 6}, (1, 0): {2, 3, 4, 6}})
        assert table.edges == {(c((0, 0)), c((0, 1)), 0)}

    def test_frozen_table_takes_no_blocks(self):
        """A table over the shared frozen human table cannot widen it."""
        w = world_of(2, 2)
        shared = node_ids(w, {(1, 1): {2}})
        with pytest.raises(AttributeError):
            ReservationTable(1, shared).block_cell(w.cell_id((1, 0)), 0, 1, ncell(w))
        assert shared == {2 * 4 + w.cell_id((1, 1))}

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
            assert _human_reservations(w, pairs, objective) == node_ids(w, forecast_reservations(w, pairs, objective))

    def test_table_of_another_robot_rejected(self):
        with pytest.raises(ValueError):
            low_level_search(world_of(3, 1), RobotState(1, (0, 0), (2, 0)), ReservationTable(2))


class TestNodeTable:
    """The human table is one frozen set of nodes ``step * ncell + cell``:
    the union of each forecast's footprint, made once per forecast when a
    footprint memo is given."""

    def test_table_matches_the_cell_table(self):
        """On random worlds under both objectives, the node table, with and
        without a footprint memo, is the cell table turned into node ids, and
        every cell's latest blocked step, probed from a step bound or found
        in one pass, is the cell table's."""
        rng = np.random.default_rng(36)
        seen = Counter()
        for _ in range(300):
            width, height = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            cells = [(x, y) for x in range(width) for y in range(height)]
            world = world_of(width, height, [c for c in cells if rng.random() < 0.25])
            ncell = width * height
            pairs = [
                ((int(rng.integers(-1, width + 1)), int(rng.integers(-1, height + 1))), int(rng.integers(0, 6)))
                for _ in range(int(rng.integers(0, 10)))
            ]
            pairs += pairs[: int(rng.integers(0, 3))]
            seen["step 0"] += any(step == 0 for _, step in pairs)
            seen["off the grid"] += any(not world.in_bounds(cell) for cell, _ in pairs)
            seen["on a blocked cell"] += any(cell in world.blocked for cell, _ in pairs)
            seen["repeated"] += len(set(pairs)) < len(pairs)
            for objective in ("makespan", "safety_first"):
                ref = reference_human_reservations(world, pairs, objective)
                want = node_ids(world, ref)
                footprints = {}
                assert _human_reservations(world, pairs, objective) == want
                assert _human_reservations(world, pairs, objective, footprints) == want
                kept = dict(footprints)
                assert set(kept) == set(pairs) and all(type(part) is frozenset for part in kept.values())
                assert _human_reservations(world, pairs[::-1], objective, footprints) == want
                assert footprints == kept and all(footprints[p] is kept[p] for p in kept)
                last = max((step for _, step in pairs), default=0) + 1
                for cell in cells:
                    latest = max(ref.get(cell, ()), default=-1)
                    for bound in (None, last, last + len(want)):
                        assert planner._latest_step(want, world.cell_id(cell), ncell, bound) == latest
        assert min(seen.values()) >= 30, seen

    def test_negative_step_is_refused(self):
        with pytest.raises(ValueError, match="negative"):
            _human_reservations(world_of(3, 3), [((1, 1), 2), ((0, 0), -1)], "safety_first")

    def test_far_steps_are_found_in_one_pass(self):
        """A step near the loader's bound (about 10^9) is found by one pass
        over the nodes, not by probing every step below it."""
        w = world_of(3, 3)
        table = _human_reservations(w, [((1, 1), 10**9), ((1, 1), 3)], "safety_first")
        assert planner._latest_step(table, w.cell_id((1, 1)), 9, 10**9 + 1) == 10**9 + 1
        assert planner._latest_step(table, w.cell_id((0, 1)), 9, 10**9 + 1) == 10**9
        assert planner._latest_step(table, w.cell_id((0, 0)), 9, 10**9 + 1) == -1


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
        assert _human_reservations(w, [((1, 1), 2)], "makespan") == node_ids(w, {(1, 1): {2}})

    def test_safety_first_widens(self):
        w = world_of(3, 3)
        assert _human_reservations(w, [((1, 1), 2)], "safety_first") == node_ids(w, {
            (1, 1): {1, 2, 3},
            (1, 2): {2},
            (2, 1): {2},
            (1, 0): {2},
            (0, 1): {2},
        })

    def test_safety_first_skips_blocked_neighbors_and_clamps(self):
        w = world_of(3, 3, blocked={(1, 2)})
        assert _human_reservations(w, [((1, 1), 0)], "safety_first") == node_ids(w, {
            (1, 1): {0, 1},
            (2, 1): {0},
            (1, 0): {0},
            (0, 1): {0},
        })


class TestWidenConflict:
    world = world_of(4, 4)

    def test_vertex_becomes_window(self):
        w, table = self.world, ReservationTable(2, set())
        assert _widen_conflict(w, Conflict("vertex", 5, 1, 2, (3, 3)), table, 2)
        assert table.nodes == node_ids(w, {(3, 3): {3, 4, 5, 6, 7}}) and not table.edges

    def test_vertex_window_clamps_at_zero(self):
        w, table = self.world, ReservationTable(1, set())
        assert _widen_conflict(w, Conflict("vertex", 1, 1, 2, (3, 3)), table, 3)
        assert table.nodes == node_ids(w, {(3, 3): {0, 1, 2, 3, 4}})

    def test_edge_direction_per_robot(self):
        w, c = self.world, Conflict("edge", 5, 1, 2, (0, 0), (1, 0))
        for_a = ReservationTable(1, set())
        assert _widen_conflict(w, c, for_a, 1)
        assert for_a.edges == edge_ids(w, {((0, 0), (1, 0), s) for s in (4, 5, 6)}) and not for_a.nodes
        for_b = ReservationTable(2, set())
        assert _widen_conflict(w, c, for_b, 1)
        assert for_b.edges == edge_ids(w, {((1, 0), (0, 0), s) for s in (4, 5, 6)})

    def test_conflict_already_barred_is_reported(self):
        w = self.world
        vertex = ReservationTable(2, set(node_ids(w, {(3, 3): {5}})))
        assert not _widen_conflict(w, Conflict("vertex", 5, 1, 2, (3, 3)), vertex, 0)
        edge = ReservationTable(2)
        edge.block_move(w.cell_id((1, 0)), w.cell_id((0, 0)), 5)
        assert not _widen_conflict(w, Conflict("edge", 5, 1, 2, (0, 0), (1, 0)), edge, 0)


def assert_valid_plan(world, paths, robots, humans=()):
    assert detect_first_conflict(paths) is None
    by_id = {r.id: r for r in robots}
    for p in paths:
        validate_path(p, world)
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

    def chokepoint(self):
        # (2, 0) is the one way between the halves and robot 1's goal, so
        # robot 2 must cross it before robot 1 parks there.
        w = world_of(5, 2, blocked={(2, 1)})
        return w, [RobotState(1, (0, 1), (2, 0)), RobotState(2, (4, 1), (0, 0))]

    @pytest.mark.parametrize("gap", [0, 3])
    def test_safety_first_plans_the_first_ordering_that_plans(self, gap):
        w, robots = self.chokepoint()
        by_id = {r.id: r for r in robots}
        human, horizon = reference_human_reservations(w, [], "safety_first"), default_horizon(w)
        with pytest.raises(PlanningInfeasible):
            oracles.reference_solve_ordering(w, by_id, [1, 2], human, gap, horizon)
        want = oracles.reference_solve_ordering(w, by_id, [2, 1], human, gap, horizon)
        paths = plan(w, robots, [], PlanConfig("safety_first", None, gap))
        assert paths == [want[1], want[2]]
        assert_valid_plan(w, paths, robots)

    def test_safety_first_keeps_the_priority_robot_first(self):
        w, robots = self.chokepoint()
        with pytest.raises(PlanningInfeasible):
            plan(w, robots, [], PlanConfig("safety_first", priority_robot=1))
        assert plan(w, robots, [], PlanConfig("safety_first", priority_robot=2)) == plan(
            w, robots, [], PlanConfig("safety_first"))

    def test_makespan_on_the_chokepoint_is_the_joint_plan(self):
        w, robots = self.chokepoint()
        paths = plan(w, robots, [], PlanConfig("makespan"))
        assert paths == reference_makespan_plan(w, robots, [], default_horizon(w))
        assert makespan(paths) == 6

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
    def test_infeasible_under_forecasts_carries_robot_and_horizon(self, objective, n_robots):
        # robot 1's start is ringed by forecast cells at every step
        w = world_of(5, 5)
        horizon = default_horizon(w)
        ring = ((2, 3), (3, 2), (2, 1), (1, 2))
        humans = [(c, s) for c in ring for s in range(1, horizon + 1)]
        robots = [RobotState(1, (2, 2), (4, 4)), RobotState(2, (0, 0), (0, 4))][:n_robots]
        with pytest.raises(PlanningInfeasible) as exc:
            plan(w, robots, humans, PlanConfig(objective=objective))
        assert exc.value.robot_id in {r.id for r in robots}
        assert exc.value.horizon == horizon

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
            validate_path(p, w)
            for s in range(1, makespan(paths) + 1):
                assert p.at(s) not in human_cells


def random_makespan_instance(rng):
    """Two robots with random distinct ids on a grid of at most 200 cells,
    with random blocked cells, human forecasts (possibly on a start or goal)
    and a horizon that is often too short."""
    width = int(rng.integers(2, 15))
    height = int(rng.integers(2, min(14, 200 // width) + 1))
    cells = [(x, y) for x in range(width) for y in range(height)]
    order = rng.permutation(len(cells))
    n_blocked = int(rng.integers(0, (len(cells) - 4) // 3 + 1))
    world = world_of(width, height, [cells[i] for i in order[:n_blocked]])
    free = [cells[i] for i in order[n_blocked:]]
    s1, s2, g1, g2 = free[:4]
    if rng.random() < 0.1:
        g1 = s1  # already at its goal
    forecasts = []
    for _ in range(int(rng.integers(0, 6))):
        cell = free[int(rng.integers(len(free)))]
        step = int(rng.integers(0, width + height))
        forecasts += [(cell, step + k) for k in range(int(rng.integers(1, 5)))]
    horizon = int(rng.integers(1, default_horizon(world) + 1))
    id1 = int(rng.integers(0, 5))
    id2 = id1 + int(rng.integers(1, 4))
    robots = [RobotState(id1, s1, g1), RobotState(id2, s2, g2)]
    if rng.random() < 0.5:
        robots.reverse()
    return world, robots, forecasts, horizon


def plan_outcome(solve):
    """The planned cells per robot, or the planning error's type and message."""
    try:
        return "ok", [(p.robot_id, p.cells) for p in solve()]
    except PlanningError as exc:
        return type(exc).__name__, str(exc)


class TestBoundedJointSearch:
    def test_plan_matches_unpruned_joint_search(self):
        """The bounded two-robot makespan search gives the unpruned search's
        paths, or its error, on every instance."""
        rng = np.random.default_rng(10)
        kinds = Counter()
        for _ in range(200):
            world, robots, forecasts, horizon = random_makespan_instance(rng)
            got = plan_outcome(lambda: plan(world, robots, forecasts, PlanConfig("makespan", None, 0), horizon))
            want = plan_outcome(lambda: reference_makespan_plan(world, robots, forecasts, horizon))
            assert got == want, (world, robots, forecasts, horizon)
            kinds[got[0]] += 1
        assert kinds["ok"] >= 100 and kinds["PlanningInfeasible"] >= 30, kinds

    def test_plan_matches_unskipped_refinement(self, monkeypatch):
        """Skipping an ordering whose bound lies below the larger solo
        arrival step gives the paths, or the error, of searching every
        ordering; the skip is taken on some instances."""
        calls = Counter()

        def counted(key, real):
            return lambda *args: calls.update([key]) or real(*args)

        monkeypatch.setattr(planner, "_joint_best_response", counted("plan", planner._joint_best_response))
        monkeypatch.setattr(
            oracles, "reference_bounded_joint_search", counted("reference", oracles.reference_bounded_joint_search)
        )
        rng = np.random.default_rng(12)
        kinds = Counter()
        for _ in range(400):
            world, robots, forecasts, horizon = random_makespan_instance(rng)
            got = plan_outcome(lambda: plan(world, robots, forecasts, PlanConfig("makespan", None, 0), horizon))
            want = plan_outcome(lambda: reference_refinement_plan(world, robots, forecasts, horizon))
            assert got == want, (world, robots, forecasts, horizon)
            kinds[got[0]] += 1
        assert kinds["ok"] >= 200 and kinds["PlanningInfeasible"] >= 50, kinds
        assert 0 < calls["plan"] < calls["reference"] - 50, calls

    def test_impassable_start_of_either_robot_is_a_planning_error(self):
        w = world_of(4, 4, blocked={(3, 3)})
        for starts in (((3, 3), (0, 0)), ((0, 0), (3, 3))):
            robots = [RobotState(1, starts[0], (2, 0)), RobotState(2, starts[1], (0, 3))]
            with pytest.raises(PlanningError, match=r"start \(3, 3\) or goal .* not passable"):
                plan(w, robots, [], PlanConfig("makespan"))


def random_prioritized_instance(rng):
    """One to four robots on a grid of at most 49 cells, with random blocked
    cells, human forecasts, gap, objective, priority robot and a horizon that
    is often too short."""
    width = int(rng.integers(2, 8))
    height = int(rng.integers(2, 8))
    cells = [(x, y) for x in range(width) for y in range(height)]
    n_robots = int(rng.integers(1, min(4, len(cells) // 2) + 1))
    order = rng.permutation(len(cells))
    n_blocked = int(rng.integers(0, (len(cells) - 2 * n_robots) // 3 + 1))
    world = world_of(width, height, [cells[i] for i in order[:n_blocked]])
    free = [cells[i] for i in order[n_blocked:]]
    ids = sorted(int(i) for i in rng.choice(10, size=n_robots, replace=False))
    robots = [RobotState(rid, free[2 * k], free[2 * k + 1]) for k, rid in enumerate(ids)]
    forecasts = []
    for _ in range(int(rng.integers(0, 5))):
        cell = free[int(rng.integers(len(free)))]
        step = int(rng.integers(0, width + height))
        forecasts += [(cell, step + k) for k in range(int(rng.integers(1, 4)))]
    cfg = PlanConfig(
        objective=str(rng.choice(["makespan", "safety_first"])),
        priority_robot=ids[int(rng.integers(n_robots))] if rng.random() < 0.3 else None,
        min_time_gap_at_conflict=int(rng.integers(0, 3)),
    )
    horizon = int(rng.integers(1, default_horizon(world) + 1))
    return world, robots, forecasts, cfg, horizon


class TestSharedSoloRoutes:
    def test_four_robot_plan_searches_each_solo_route_once(self, monkeypatch):
        """24 orderings of four robots crossing an empty 10x10 grid share 4
        solo searches; searching them per ordering made 158 calls."""
        calls = Counter()
        real = planner.low_level_search

        def counted(world, robot, *args):
            calls[robot.id] += 1
            return real(world, robot, *args)

        monkeypatch.setattr(planner, "low_level_search", counted)
        corners = [((0, 0), (9, 9)), ((9, 9), (0, 0)), ((0, 9), (9, 0)), ((9, 0), (0, 9))]
        robots = [RobotState(i + 1, start, goal) for i, (start, goal) in enumerate(corners)]
        world = world_of(10, 10)
        paths = plan(world, robots, [], PlanConfig("makespan"))
        assert sum(calls.values()) == 66
        assert paths == reference_prioritized_plan(world, robots, [], PlanConfig("makespan"), default_horizon(world))

    def test_kept_routes_are_not_searched_again(self, monkeypatch):
        """With ``routes`` filled by a first call, a second call with the
        same table searches none of the four solo routes."""
        calls = Counter()
        real = planner.low_level_search
        monkeypatch.setattr(planner, "low_level_search", lambda world, robot, *args: calls.update([robot.id])
                            or real(world, robot, *args))
        corners = [((0, 0), (9, 9)), ((9, 9), (0, 0)), ((0, 9), (9, 0)), ((9, 0), (0, 9))]
        robots = [RobotState(i + 1, start, goal) for i, (start, goal) in enumerate(corners)]
        world = world_of(10, 10)
        horizon = default_horizon(world)
        routes = {}
        first = plan(world, robots, frozenset(), PlanConfig("makespan"), routes=routes)
        assert sum(calls.values()) == 66
        assert routes == {(r.id, r.cell, r.goal, horizon): low_level_search(world, r) for r in robots}
        assert plan(world, robots, frozenset(), PlanConfig("makespan"), routes=routes) == first
        assert sum(calls.values()) == 66 + 62

    @pytest.mark.parametrize("kind", ["prioritized", "makespan"])
    def test_routes_change_no_plan(self, kind):
        """A plan given the routes of earlier plans under the same table
        gives the paths, or the error, of a plan without them; each route it
        keeps is the route searched afresh, also after a failed plan. No plan
        writes into the human table it is handed."""
        rng = np.random.default_rng(13)
        routes_seen = 0
        for _ in range(150):
            if kind == "prioritized":
                world, robots, forecasts, cfg, horizon = random_prioritized_instance(rng)
            else:
                world, robots, forecasts, horizon = random_makespan_instance(rng)
                cfg = PlanConfig("makespan", None, 0)
            human = _human_reservations(world, forecasts, cfg.objective)
            before = set(human)
            routes = {}
            # The same robots, then each alone and the pair reversed, share the table.
            for group in (robots, robots[:1], robots[::-1], robots):
                if cfg.priority_robot is not None and cfg.priority_robot not in {r.id for r in group}:
                    continue
                want = plan_outcome(lambda: plan(world, group, human, cfg, horizon))
                assert plan_outcome(lambda: plan(world, group, human, cfg, horizon, routes=routes)) == want
            assert human == before and type(human) is frozenset
            for (rid, start, goal, h), path in routes.items():
                assert path == low_level_search(world, RobotState(rid, start, goal), ReservationTable(rid, human), h)
            routes_seen += len(routes)
        assert routes_seen >= 150

    def test_plan_matches_per_ordering_search(self):
        """Sharing solo routes across orderings gives the per-ordering loop's
        paths, or its error, on every instance the joint refinement skips."""
        rng = np.random.default_rng(11)
        kinds = Counter()
        for _ in range(300):
            world, robots, forecasts, cfg, horizon = random_prioritized_instance(rng)
            if (len(robots) == 2 and cfg.objective == "makespan" and cfg.min_time_gap_at_conflict == 0
                    and cfg.priority_robot is None):
                continue
            got = plan_outcome(lambda: plan(world, robots, forecasts, cfg, horizon))
            want = plan_outcome(lambda: reference_prioritized_plan(world, robots, forecasts, cfg, horizon))
            assert got == want, (world, robots, forecasts, cfg, horizon)
            kinds[got[0]] += 1
        assert kinds["ok"] >= 100 and kinds["PlanningInfeasible"] >= 50, kinds


def random_id_instance(rng):
    """Two robots of ``random_planner_instance`` on a grid of 2x2 to 7x7,
    with some of the other cells blocked (a human's cell too, now and then)
    and forecasts of the human cells at random steps."""
    width, height = int(rng.integers(2, 8)), int(rng.integers(2, 8))
    starts, goals, humans = random_planner_instance(rng, width, height, min(3, width * height - 4))
    spare = [(x, y) for x in range(width) for y in range(height) if (x, y) not in set(starts) | set(goals)]
    order = rng.permutation(len(spare))
    world = world_of(width, height, [spare[i] for i in order[: int(rng.integers(0, len(spare) // 3 + 1))]])
    forecasts = [
        (tuple(cell), int(step)) for cell in humans
        for step in rng.integers(0, width + height, size=int(rng.integers(1, 5)))
    ]
    robots = [RobotState(1, starts[0], goals[0]), RobotState(2, starts[1], goals[1])]
    return world, robots, forecasts


def random_conflict(rng, world):
    """A vertex conflict on a free cell, or an edge conflict over one of its
    moves, at a random step, as either robot's."""
    moves = reference_moves(world)
    cells = sorted(moves)
    cell = cells[int(rng.integers(len(cells)))]
    step = int(rng.integers(0, world.width + world.height))
    if len(moves[cell]) == 1 or rng.random() < 0.5:
        return Conflict("vertex", step, 1, 2, cell)
    to = moves[cell][int(rng.integers(len(moves[cell]) - 1))]
    a, b = (1, 2) if rng.random() < 0.5 else (2, 1)
    return Conflict("edge", step, a, b, cell, to)


class TestIdsMatchCells:
    def test_tables_searches_and_plans_match_the_cell_planner(self):
        """On random worlds under both objectives, the planner on cell ids
        gives the human table, the conflict tables, the searches under them
        and the plans, or the errors, of the planner on (x, y) cells."""
        rng = np.random.default_rng(30)
        kinds = Counter()
        for _ in range(200):
            world, robots, forecasts = random_id_instance(rng)
            horizon = default_horizon(world)
            for objective in ("makespan", "safety_first"):
                human = _human_reservations(world, forecasts, objective)
                ref_human = reference_human_reservations(world, forecasts, objective)
                assert human == node_ids(world, ref_human)
                for cfg in (PlanConfig(objective), PlanConfig(objective, 2, int(rng.integers(0, 3)))):
                    got = plan_outcome(lambda: plan(world, robots, forecasts, cfg, horizon))
                    want = plan_outcome(lambda: reference_plan(world, robots, forecasts, cfg, horizon))
                    assert got == want, (world, robots, forecasts, cfg)
                    kinds["plan " + got[0]] += 1
                table, ref = ReservationTable(1, set(human)), ReferenceTable(1, dict(ref_human))
                for _ in range(int(rng.integers(1, 6))):
                    conflict, gap = random_conflict(rng, world), int(rng.integers(0, 3))
                    assert _widen_conflict(world, conflict, table, gap) == reference_widen_conflict(conflict, ref, gap)
                assert table.nodes == node_ids(world, ref.cells) and table.edges == edge_ids(world, ref.edges)
                got = search_outcome(lambda: low_level_search(world, robots[0], table, horizon))
                want = search_outcome(lambda: reference_low_level_search(world, robots[0], ref, horizon))
                assert got == want, (world, robots[0], ref.cells, ref.edges)
                kinds["search " + got[0]] += 1
        assert kinds["plan ok"] >= 500 and kinds["plan PlanningInfeasible"] >= 80, kinds
        assert kinds["search ok"] >= 250 and kinds["search PlanningInfeasible"] >= 25, kinds
