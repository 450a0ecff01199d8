"""Grid, robot-state and human-track behavior."""

import dataclasses

import numpy as np
import pytest

from conftest import BUNDLED_DIR, WAREHOUSE_IDS
from r2xsim.scenarios import load_scenario
from r2xsim.world import GridWorld, HumanTrack, RobotState, human_forecast


def open_world(w=3, h=3, **kw):
    return GridWorld(w, h, **kw)


class TestGridWorld:
    def test_bounds_and_passable(self):
        world = GridWorld(3, 2, blocked=frozenset({(1, 0)}))
        assert world.in_bounds((0, 0)) and world.in_bounds((2, 1))
        assert not world.in_bounds((3, 0))
        assert not world.in_bounds((0, -1))
        assert world.passable((0, 0))
        assert not world.passable((1, 0))
        assert not world.passable((5, 5))

    def test_blocked_coerced_to_tuples(self):
        world = GridWorld(2, 2, blocked=[[0, 1]])
        assert (0, 1) in world.blocked

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(width=0, height=3),
            dict(width=3, height=0),
            dict(width=2, height=2, cell_traverse_s=0.0),
            dict(width=2, height=2, frame_period_s=0.0),
            dict(width=2, height=2, cell_traverse_s=-1.0),
            dict(width=2, height=2, blocked=frozenset({(2, 0)})),
        ],
    )
    def test_invalid_construction(self, kwargs):
        with pytest.raises(ValueError):
            GridWorld(**kwargs)


def ids(world, cells):
    """The ids of ``cells``, in order."""
    return tuple(world.cell_id(c) for c in cells)


class TestCellIds:
    def test_ids_sort_as_cells_and_give_them_back(self):
        world = GridWorld(4, 3)
        cells = [(x, y) for x in range(4) for y in range(3)]
        assert [world.cell_id(c) for c in sorted(cells)] == list(range(12))
        assert world.cells_of(range(12)) == tuple(cells)
        assert world.cells_of([5])[0] is world.cells_of([7, 5])[1]
        assert all(divmod(world.cell_id(c), world.height) == c for c in cells)


class TestNeighbors:
    def test_order_is_nesw_then_wait(self):
        world = open_world()
        assert world.moves[world.cell_id((1, 1))] == ids(world, ((1, 2), (2, 1), (1, 0), (0, 1), (1, 1)))

    def test_corner(self):
        world = open_world()
        assert world.moves[world.cell_id((0, 0))] == ids(world, ((0, 1), (1, 0), (0, 0)))

    def test_blocked_excluded(self):
        world = GridWorld(3, 3, blocked=frozenset({(1, 0)}))
        assert world.moves[world.cell_id((0, 0))] == ids(world, ((0, 1), (0, 0)))

    def test_from_blocked_cell_raises(self):
        world = GridWorld(3, 3, blocked=frozenset({(1, 1)}))
        assert world.moves[world.cell_id((1, 1))] is None
        with pytest.raises(TypeError):
            world.moves[world.cell_id((1, 1))][0]


def scan_neighbors(world, cell):
    """Reference for the move table: a direct N, E, S, W, wait scan."""
    x, y = cell
    out = []
    for nxt in ((x, y + 1), (x + 1, y), (x, y - 1), (x - 1, y)):
        if 0 <= nxt[0] < world.width and 0 <= nxt[1] < world.height and nxt not in world.blocked:
            out.append(nxt)
    return tuple(out) + (cell,)


def random_parked(rng, world, k):
    """``k`` distinct free cells of ``world``, or fewer when it has fewer."""
    free = sorted({(x, y) for x in range(world.width) for y in range(world.height)} - world.blocked)
    return frozenset(free[i] for i in rng.permutation(len(free))[:k])


class TestNeighborTable:
    @pytest.mark.parametrize("park_goal", [False, True], ids=["open", "parked"])
    @pytest.mark.parametrize("sid", WAREHOUSE_IDS)
    def test_matches_scan_on_bundled_layouts(self, sid, park_goal):
        inputs = load_scenario(BUNDLED_DIR / f"{sid}.json").inputs
        world, robots = inputs.world, inputs.robots
        if park_goal:
            world = GridWorld(
                world.width, world.height, world.blocked | {robots[0].goal},
                world.frame_period_s, world.cell_traverse_s,
            )
        free = [
            (x, y) for x in range(world.width) for y in range(world.height)
            if (x, y) not in world.blocked
        ]
        for cell in free:
            assert world.moves[world.cell_id(cell)] == ids(world, scan_neighbors(world, cell))
        assert {c for c, moves in enumerate(world.moves) if moves is not None} == set(ids(world, free))
        if park_goal:
            assert world.moves[world.cell_id(robots[0].goal)] is None

    def test_goal_distances_are_bfs_and_cached(self):
        world = GridWorld(3, 3, blocked=frozenset({(1, 1), (1, 2)}))
        dist = world.goal_field(world.cell_id((2, 2)))
        want = {(2, 2): 0, (2, 1): 1, (2, 0): 2, (1, 0): 3, (0, 0): 4, (0, 1): 5, (0, 2): 6}
        assert dist == [want.get(cell) for cell in world.cells_of(range(9))]
        assert world.goal_field(world.cell_id((2, 2))) is dist
        with pytest.raises(ValueError):
            world.goal_field(world.cell_id((1, 1)))

    def test_caches_leave_equality_and_hash_alone(self):
        a = GridWorld(4, 3, blocked=frozenset({(1, 1)}))
        b = GridWorld(4, 3, blocked=frozenset({(1, 1)}))
        a.moves
        a.cells_of([0, 1])
        a.goal_field(a.cell_id((3, 2)))
        assert a == b and hash(a) == hash(b)
        assert {b: "b"}[a] == "b"
        assert repr(a) == repr(b)
        assert a != GridWorld(4, 3, blocked=frozenset({(1, 2)}))

    def test_parked_world_table_is_the_fresh_table(self):
        """A world with random free cells blocked, its move table derived
        from the base world's, has the move table and goal fields of the
        same world built afresh."""
        rng = np.random.default_rng(30)
        for _ in range(200):
            width, height = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            base = GridWorld(width, height, random_parked(rng, GridWorld(width, height), width * height // 4))
            base.moves
            parked = random_parked(rng, base, int(rng.integers(0, 5)))
            derived = base.blocking(parked)
            fresh = GridWorld(width, height, base.blocked | parked)
            assert derived == fresh and derived.moves == fresh.moves
            free = [c for c, moves in enumerate(fresh.moves) if moves is not None]
            for goal in free[:3]:
                assert derived.goal_field(goal) == fresh.goal_field(goal)
            assert base.moves == GridWorld(width, height, base.blocked).moves


class TestRobotState:
    def test_coercion(self):
        r = RobotState(1, [0, 0], [2, 2])
        assert r.cell == (0, 0) and r.goal == (2, 2)
        assert r == RobotState(1, (0, 0), (2, 2)) and {r: "r"}[RobotState(1, (0, 0), (2, 2))] == "r"
        for name, value in (("cell", (1, 1)), ("goal", (1, 1)), ("status", "arrived")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(r, name, value)


class TestHumanTrack:
    def test_position_clamps_past_end(self):
        t = HumanTrack([(0, 0), (0, 1), (1, 1)])
        assert t.position_at(0) == (0, 0)
        assert t.position_at(2) == (1, 1)
        assert t.position_at(99) == (1, 1)

    def test_negative_step_raises(self):
        with pytest.raises(ValueError):
            HumanTrack([(0, 0)]).position_at(-1)

    def test_standing_waypoints_allowed(self):
        t = HumanTrack([(2, 2), (2, 2), (2, 3)])
        assert t.position_at(1) == (2, 2)

    def test_nonadjacent_waypoints_rejected(self):
        with pytest.raises(ValueError):
            HumanTrack([(0, 0), (1, 1)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            HumanTrack([])

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError):
            HumanTrack([(0, 0)], horizon_frames=0)


class TestHumanForecast:
    def test_plain_forecast_steps(self):
        t = HumanTrack([(0, 0), (1, 0), (1, 1), (1, 2)], horizon_frames=3)
        assert human_forecast(t, 0) == [((1, 0), 1), ((1, 1), 2), ((1, 2), 3)]

    def test_extrapolates_stationary(self):
        t = HumanTrack([(0, 0), (1, 0)], horizon_frames=2)
        assert human_forecast(t, 5) == [((1, 0), 6), ((1, 0), 7)]
