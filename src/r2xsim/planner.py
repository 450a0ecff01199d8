"""Prioritized multi-robot path planning on the grid world.

Single-robot routes come from a space-time A* over ``(cell, step)`` nodes
with a wait action. Robot-robot conflicts are resolved one-sidedly: the
lower-priority robot is barred from the conflict, widened by a configurable
time-gap window, and replans. Human forecasts block cells at steps for every
robot.

Inside the planner a cell is its id ``x * height + y`` (``GridWorld.cell_id``):
the world's tables, the reservation tables and the search nodes are keyed by
ids, and ids sort as their cells do. Robots, paths and conflicts stay
``(x, y)`` cells; a path is turned from ids into cells only when it is
returned, and a conflict's cells into ids only when a table takes it.

As in Silver 2005 ("Cooperative Pathfinding", HCA*), what stays fixed is
computed once and what changes is kept in a reservation table:

- each ``GridWorld`` builds its move table and, per goal, the BFS distance
  field that serves as the A* heuristic, once, on first use;
- ``plan`` reads the human forecasts as one cell -> blocked-steps table,
  built per call or handed in ready-made with a memo of the solo routes
  searched under it (the warehouse engine keeps one pair per frame and set
  of parked robots). Solo routes and the joint refinement read that table
  itself, and each solo route is searched once per memo;
- a robot that a conflict constrains searches under its own
  :class:`ReservationTable`, the planner's only form of constraint, as a
  per-agent constraint set in Sharon et al. 2015 (CBS): a copy of the human
  table's dict, made on the robot's first conflict, into which its conflict
  windows and blocked moves are written as they arrive.

``low_level_search`` breaks ties on f toward the deeper node (Asai and
Fukunaga 2016, "Tiebreaking Strategies for A* Search"). With an exact
heuristic, as on an open grid, every node on a shortest route has the same
f, and first-in-first-out among them expands them all, breadth-first. The
rule returns the route and the error of the first-in-first-out search:

- a node is ``(cell, step)``; its parent is whichever of its predecessors is
  expanded first, and every predecessor has step ``step - 1``;
- nodes with the same step compare by ``(f, push order)`` under both rules,
  so, by induction on the step, they are pushed in the same relative order
  and get the same parents;
- a goal node has f equal to its step, so the first valid goal node popped
  is the same under both rules;
- an infeasible search exhausts the same set of nodes.

Under these rules a search whose table blocks nothing on the greedy free
route returns that route without a heap. With ``d`` the start's distance to
the goal, the greedy route takes, from each cell, the first move in the move
table that is one step nearer the goal, and reaches the goal at step ``d``.
When the goal is free from step ``d`` on, ``d`` is within the horizon, and no
node ``(cell, step)`` or move of the route is blocked, the search returns it
node for node:

- the heuristic is the exact static distance, so f never drops along a move,
  and ``d`` is the least f of any node; every node of the route has f ``d``;
- ties on f go to the deeper node, then to the earlier push;
- by induction on the step, the nodes popped so far are the route's first
  ``k`` nodes, every open node has step at most ``k``, and every open node
  of step ``k`` was pushed by the route's node ``k - 1`` in move order. The
  route's node ``k`` is the first of those with f ``d``, since the table
  does not block it, so it pops next: every other open node has a larger f,
  a smaller step or a later push;
- the route's node ``d`` is the goal, free at step ``d``, and no earlier pop
  is the goal, whose distance is 0.

The shortcut holds for any table: human tables, conflict tables and the
untabled solo routes of stop-and-go alike.

For two robots under the makespan objective with a zero gap, ``plan``
searches the joint state space of each ordering exactly, breadth-first, and
bounds each search by a step limit (Standley 2010: a cheap feasible plan
bounds an exact cooperative search). A follower move to cell ``n`` at step
``t`` is pruned when ``t`` plus the static distance from ``n`` to the
follower's goal exceeds the limit. That distance changes by at most one per
move, so a pruned state has no successor that reaches the joint goal by the
limit: it is neither on the returned path nor the parent of a state on it,
and the first goal state and every parent choice are those of the unbounded
search. The first ordering's limit is the makespan of its prioritized plan,
which lies in the joint search space; the second ordering's is one step
less than the first ordering's result, since it is kept only when strictly
better. An ordering whose limit is below either robot's solo arrival step
is not searched: the lead keeps to its optimal solo routes, and the
follower's part of a joint plan, cut at its last arrival at its goal, is a
route under its own table, so no joint plan finishes sooner.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

from .schema import _MAX_ID_DIGITS, bounded, check_bounds
from .world import Cell, GridWorld, RobotState

# The exact-makespan joint refinement for two robots is only attempted on
# grids up to this many cells; above it the prioritized loop alone is used.
_REFINE_CELL_CAP = 200

_MAX_RESOLUTION_ROUNDS = 1000


class PlanningError(Exception):
    """Planning failed for a structural reason (non-convergence, bad input)."""


class PlanningInfeasible(PlanningError):
    """No path exists for robot ``robot_id`` within ``horizon`` steps."""

    def __init__(self, robot_id: int, horizon: int):
        self.robot_id = robot_id
        self.horizon = horizon
        super().__init__(f"no feasible path for robot {robot_id} within horizon {horizon}")


@dataclass(frozen=True)
class SpaceTimePath:
    """One cell per time step, starting at step 0."""

    robot_id: int
    cells: Tuple[Cell, ...]

    def __post_init__(self):
        cells = self.cells
        if type(cells) is not tuple or not all(type(c) is tuple for c in cells):
            object.__setattr__(self, "cells", tuple(tuple(c) for c in cells))
        if not self.cells:
            raise ValueError("path must contain at least the start cell")

    @property
    def arrival_step(self) -> int:
        return len(self.cells) - 1

    def at(self, step: int) -> Cell:
        """Position at ``step``, parked at the final cell afterwards."""
        return self.cells[min(step, len(self.cells) - 1)]


@dataclass(frozen=True)
class Conflict:
    kind: str  # "vertex" | "edge"
    step: int
    robot_a: int
    robot_b: int
    cell: Cell  # vertex cell, or robot_a's from-cell for an edge conflict
    to_cell: Optional[Cell] = None  # robot_a's to-cell for an edge conflict


@dataclass(frozen=True)
class PlanConfig:
    objective: str = bounded("makespan", choices=("makespan", "safety_first"))
    priority_robot: Optional[int] = bounded(None, lo=0, hi=10**_MAX_ID_DIGITS - 1, integer=True)
    min_time_gap_at_conflict: int = bounded(0, lo=0, integer=True)

    __post_init__ = check_bounds


def default_horizon(world: GridWorld) -> int:
    return 4 * (world.width + world.height)


class ReservationTable:
    """One robot's reservation table: for each cell id the steps at which
    the robot may not occupy the cell, and the ``(id, to_id, step)`` moves
    it may not make.

    The step sets in ``cells`` may be shared with other tables:
    :meth:`block_cell` replaces a cell's step set instead of changing it, so
    a table over a copy of another's dict takes blocks without touching it.
    """

    __slots__ = ("robot_id", "cells", "edges")

    def __init__(self, robot_id: int, cells: Dict[int, AbstractSet[int]]):
        self.robot_id = robot_id
        self.cells = cells
        self.edges: Set[Tuple[int, int, int]] = set()

    def block_cell(self, cell: int, step_lo: int, step_hi: int) -> None:
        """Bar cell id ``cell`` at every step in [step_lo, step_hi]."""
        self.cells[cell] = self.cells.get(cell, frozenset()).union(range(step_lo, step_hi + 1))

    def block_move(self, cell: int, to_cell: int, step: int) -> None:
        """Bar the move ``cell -> to_cell`` (ids) from ``step`` to ``step + 1``."""
        self.edges.add((cell, to_cell, step))


def low_level_search(
    world: GridWorld,
    robot: RobotState,
    table: Optional[ReservationTable] = None,
    horizon: Optional[int] = None,
) -> SpaceTimePath:
    """Minimum-arrival-step route for one robot under its reservation table.

    Cost is the arrival step; the robot is considered parked at its goal
    afterwards, so the arrival step must clear every block on the goal
    cell. Expansion order makes the result deterministic: lowest f first,
    ties toward the deeper node, then first pushed first; a node's moves in
    N, E, S, W, wait order. The tie-break toward depth changes no result,
    and a free greedy route is returned without a heap search (see the
    module docstring).

    ``table`` is the robot's own :class:`ReservationTable`; without one the
    route is unconstrained. The search reads the world's move table and its
    cached BFS distance field to the goal, the admissible heuristic (Silver
    2005).
    """
    if horizon is None:
        horizon = default_horizon(world)
    if not world.passable(robot.cell) or not world.passable(robot.goal):
        raise PlanningError(f"robot {robot.id}: start {robot.cell} or goal {robot.goal} not passable")
    if table is None:
        table = ReservationTable(robot.id, {})
    elif table.robot_id != robot.id:
        raise ValueError(f"reservation table of robot {table.robot_id} given for robot {robot.id}")
    start, goal = world.cell_id(robot.cell), world.cell_id(robot.goal)
    cell_blocks, edge_blocks = table.cells, table.edges
    goal_latest = max(cell_blocks.get(goal, ()), default=-1)
    if 0 in cell_blocks.get(start, ()):
        raise PlanningInfeasible(robot.id, horizon)
    hfield = world.goal_field(goal)
    dist = hfield[start]
    if dist is None:
        raise PlanningInfeasible(robot.id, horizon)
    moves = world.moves

    # The free route: the search's result whenever the table blocks none of
    # its nodes and moves (see the module docstring).
    if goal_latest < dist <= horizon:
        cell, route = start, [start]
        for step in range(1, dist + 1):
            h = dist - step
            for nxt in moves[cell]:  # the first move one step nearer
                if hfield[nxt] == h:
                    break
            blocked = cell_blocks.get(nxt)
            if (blocked is not None and step in blocked) or (edge_blocks and (cell, nxt, step - 1) in edge_blocks):
                break
            route.append(nxt)
            cell = nxt
        else:
            return SpaceTimePath(robot.id, world.cells_of(route))

    # A node's f-value (step + distance to goal) is fixed, so its first push
    # is also the first of its copies to pop: a node is pushed only once,
    # and being in ``parent`` marks it as reached. A node is the int
    # ``step * ncell + cell``; the heap key is (f, -step, push order, step,
    # cell).
    ncell = len(moves)
    push, pop = heapq.heappush, heapq.heappop
    counter = itertools.count()
    heap = [(dist, 0, next(counter), 0, start)]
    parent: Dict[int, int] = {}
    while heap:
        _, _, _, step, cell = pop(heap)
        node = step * ncell + cell
        if cell == goal and step > goal_latest:
            cells = [cell]
            while node in parent:
                node = parent[node]
                cells.append(node % ncell)
            return SpaceTimePath(robot.id, world.cells_of(reversed(cells)))
        nstep = step + 1
        if nstep > horizon:
            continue
        base = nstep * ncell
        for nxt in moves[cell]:
            child = base + nxt
            if child in parent:
                continue
            blocked = cell_blocks.get(nxt)
            if blocked is not None and nstep in blocked:
                continue
            if edge_blocks and (cell, nxt, step) in edge_blocks:
                continue
            h = hfield[nxt]
            if h is None or nstep + h > horizon:
                continue
            parent[child] = node
            push(heap, (nstep + h, -nstep, next(counter), nstep, nxt))
    raise PlanningInfeasible(robot.id, horizon)


def detect_first_conflict(paths: Sequence[SpaceTimePath]) -> Optional[Conflict]:
    """Earliest conflict between any two goal-padded paths.

    At equal step a vertex conflict is reported before an edge conflict;
    among equal kinds the lowest path-index pair wins.
    """
    if len(paths) < 2:
        return None
    last = max(p.arrival_step for p in paths)
    cells = [p.cells + (p.cells[-1],) * (last - p.arrival_step) for p in paths]
    n = len(paths)
    for t in range(last + 1):
        for i in range(n):
            here = cells[i][t]
            for j in range(i + 1, n):
                if here == cells[j][t]:
                    return Conflict("vertex", t, paths[i].robot_id, paths[j].robot_id, here)
        if t == last:
            break
        for i in range(n):
            a0, a1 = cells[i][t], cells[i][t + 1]
            if a0 == a1:
                continue
            for j in range(i + 1, n):
                if a0 == cells[j][t + 1] and a1 == cells[j][t]:
                    return Conflict("edge", t, paths[i].robot_id, paths[j].robot_id, a0, a1)
    return None


def makespan(paths: Iterable[SpaceTimePath]) -> int:
    return max(p.arrival_step for p in paths)


def _human_reservations(
    world: GridWorld, pairs: Sequence[Tuple[Cell, int]], objective: str
) -> Dict[int, FrozenSet[int]]:
    """The cells and steps the human forecasts block for every robot, as one
    cell id -> steps table. Its step sets are frozen, so that the table can
    be shared by every search that reads it.

    A forecast ``(cell, step)`` blocks its cell at its step. Under
    ``safety_first`` it blocks the cell over steps ``step - 1 .. step + 1``
    (from 0) and each free 4-neighbour at the step. A forecast outside the
    grid blocks no cell of its own.
    """
    width, height, moves = world.width, world.height, world.moves
    safety = objective == "safety_first"
    blocks: Dict[int, set] = defaultdict(set)
    for (x, y), step in set(pairs):  # forecasts repeat a (cell, step) often
        if step < 0:
            raise ValueError(f"forecast step {step} is negative")
        inside = 0 <= x < width and 0 <= y < height
        if inside:
            blocks[x * height + y].update(((step - 1, step, step + 1) if step else (0, 1)) if safety else (step,))
        if not safety:
            continue
        ring = moves[x * height + y] if inside else None
        if ring is not None:  # a free cell's free 4-neighbours, then the cell
            for n in ring[:-1]:
                blocks[n].add(step)
        else:  # a forecast on a blocked cell still rings its free neighbours
            for nx, ny in ((x, y + 1), (x + 1, y), (x, y - 1), (x - 1, y)):
                if 0 <= nx < width and 0 <= ny < height and moves[nx * height + ny] is not None:
                    blocks[nx * height + ny].add(step)
    return {cell: frozenset(steps) for cell, steps in blocks.items()}


def _widen_conflict(world: GridWorld, conflict: Conflict, table: ReservationTable, gap: int) -> bool:
    """Bar the table's robot from the conflict on ``world`` over ``gap``
    steps either side: the vertex cell over the window, or the robot's own
    move of an edge conflict at each step of it. False when the table
    already barred the conflict's own cell-step or move, so that replanning
    cannot help.
    """
    lo, hi = max(0, conflict.step - gap), conflict.step + gap
    if conflict.kind == "vertex":
        cell = world.cell_id(conflict.cell)
        fresh = conflict.step not in table.cells.get(cell, ())
        table.block_cell(cell, lo, hi)
        return fresh
    if table.robot_id == conflict.robot_a:
        frm, to = conflict.cell, conflict.to_cell
    else:
        frm, to = conflict.to_cell, conflict.cell
    frm, to = world.cell_id(frm), world.cell_id(to)
    fresh = (frm, to, conflict.step) not in table.edges
    for s in range(lo, hi + 1):
        table.block_move(frm, to, s)
    return fresh


def _solo_route(
    world: GridWorld, robot: RobotState, human: Dict[int, FrozenSet[int]], horizon: int,
    routes: Dict[Tuple[int, Cell, Cell, int], SpaceTimePath],
) -> SpaceTimePath:
    """``robot``'s route under ``human`` alone, searched once per key
    ``(id, start, goal, horizon)`` of ``routes``; a failed search raises and
    is not kept, so a later need meets the same error."""
    key = (robot.id, robot.cell, robot.goal, horizon)
    path = routes.get(key)
    if path is None:
        path = routes[key] = low_level_search(world, robot, ReservationTable(robot.id, human), horizon)
    return path


def _solve_ordering(
    world: GridWorld,
    robots: Dict[int, RobotState],
    order: Sequence[int],
    human: Dict[int, FrozenSet[int]],
    gap: int,
    horizon: int,
    routes: Dict[Tuple[int, Cell, Cell, int], SpaceTimePath],
) -> Dict[int, SpaceTimePath]:
    """Paths for ``order`` by priority, starting from each robot's solo
    route in ``routes`` (searched, in ``order``, on first need). A robot's
    first conflict gives it a table over its own copy of ``human``."""
    paths = {rid: _solo_route(world, robots[rid], human, horizon, routes) for rid in order}
    # Exact: a conflict step is at most the horizon and no search reads a step
    # past it; without the clip each window materialises 2 * gap + 1 steps.
    gap = min(gap, horizon)
    rank = {rid: i for i, rid in enumerate(order)}
    tables: Dict[int, ReservationTable] = {}
    for _ in range(_MAX_RESOLUTION_ROUNDS):
        conflict = detect_first_conflict([paths[rid] for rid in order])
        if conflict is None:
            return paths
        lower = conflict.robot_a if rank[conflict.robot_a] > rank[conflict.robot_b] else conflict.robot_b
        if lower not in tables:
            tables[lower] = ReservationTable(lower, dict(human))
        # The lower robot's path was searched under its table, so the table
        # cannot bar the conflict itself unless the search is wrong.
        if not _widen_conflict(world, conflict, tables[lower], gap):
            raise PlanningError(f"conflict {conflict} is already barred for robot {lower}")
        paths[lower] = low_level_search(world, robots[lower], tables[lower], horizon)
    raise PlanningError("conflict resolution did not converge")


def _time_expanded_layers(
    world: GridWorld,
    start: int,
    goal: int,
    arrival: int,
    human: Dict[int, FrozenSet[int]],
) -> List[Set[int]]:
    """Cell ids the lead robot may occupy at each step on some optimal route.

    The forward sweep keeps only cells from which the goal is still within
    reach by ``arrival`` (by the static distance field); no cell of a route
    that arrives then is left out.
    """
    moves = world.moves
    hfield = world.goal_field(goal)
    fwd = [set() for _ in range(arrival + 1)]
    fwd[0].add(start)
    for t in range(arrival):
        left = arrival - t - 1
        for cell in fwd[t]:
            for nxt in moves[cell]:
                h = hfield[nxt]
                if h is None or h > left:
                    continue
                if (t + 1) in human.get(nxt, ()):
                    continue
                fwd[t + 1].add(nxt)
    bwd = [set() for _ in range(arrival + 1)]
    bwd[arrival].add(goal)
    for t in range(arrival - 1, -1, -1):
        for cell in fwd[t]:
            for nxt in moves[cell]:
                if nxt in bwd[t + 1] and (t + 1) not in human.get(nxt, ()):
                    bwd[t].add(cell)
                    break
    return [fwd[t] & bwd[t] for t in range(arrival + 1)]


def _joint_best_response(
    world: GridWorld,
    lead: RobotState,
    follow: RobotState,
    human: Dict[int, FrozenSet[int]],
    solo: SpaceTimePath,
    limit: int,
) -> Optional[Tuple[int, SpaceTimePath, SpaceTimePath]]:
    """Exact best makespan when ``lead`` plans first and ``follow`` responds,
    if it is at most ``limit``; ``solo`` is the lead's route under ``human``,
    the table both robots search under.

    The lead may take any of its optimal solo routes; a breadth-first search
    over the joint state space, with the lead restricted to those routes,
    finds the follower response minimizing the makespan. A joint state is
    the int ``lead id * ncell + follower id``, which sorts as the pair of
    cells does. Each layer is expanded in sorted order and a state's parent
    is the first state to reach it. A follower move is pruned when the goal
    is out of reach by ``limit`` even on an empty grid. Only used for the
    two-robot makespan objective with a zero gap window.
    """
    t1 = solo.arrival_step
    if t1 > limit:
        return None
    moves = world.moves
    ncell = len(moves)
    goal1, goal2 = world.cell_id(lead.goal), world.cell_id(follow.goal)
    layers = _time_expanded_layers(world, world.cell_id(lead.cell), goal1, t1, human)
    fol_goal_latest = max(human.get(goal2, ()), default=-1)
    hfield = world.goal_field(goal2)
    parked = [goal1]

    start_state = world.cell_id(lead.cell) * ncell + world.cell_id(follow.cell)
    goal_state = goal1 * ncell + goal2
    frontier = [start_state]
    parents: List[Dict[int, Optional[int]]] = [{start_state: None}]
    t = 0
    while True:
        if t >= t1 and t > fol_goal_latest and goal_state in parents[t]:
            cells1, cells2 = [], []
            state, step = goal_state, t
            while state is not None:
                c1, c2 = divmod(state, ncell)
                cells1.append(c1)
                cells2.append(c2)
                state = parents[step][state]
                step -= 1
            cells1.reverse()
            cells2.reverse()
            cells1 = cells1[: t1 + 1]
            while len(cells2) >= 2 and cells2[-1] == goal2 and cells2[-2] == goal2:
                cells2.pop()
            return t, SpaceTimePath(lead.id, world.cells_of(cells1)), SpaceTimePath(follow.id, world.cells_of(cells2))
        if t == limit:
            return None
        nstep = t + 1
        slack = limit - nstep
        # Each robot's moves depend only on its own cell within a layer.
        lead_moves: Dict[int, List[int]] = {}
        if nstep <= t1:
            lead_layer = layers[nstep]
            for state in frontier:
                c1 = state // ncell
                if c1 not in lead_moves:
                    lead_moves[c1] = [n for n in moves[c1] if n in lead_layer]
        fol_moves: Dict[int, List[int]] = {}
        nxt_parents: Dict[int, Optional[int]] = {}
        for state in frontier:
            c1, c2 = divmod(state, ncell)
            moves1 = lead_moves.get(c1, parked)
            moves2 = fol_moves.get(c2)
            if moves2 is None:
                moves2 = fol_moves[c2] = []
                for n in moves[c2]:
                    d = hfield[n]
                    if d is None or d > slack:
                        continue
                    if nstep in human.get(n, ()):
                        continue
                    moves2.append(n)
            for n1 in moves1:
                base = n1 * ncell
                for n2 in moves2:
                    if n1 == n2 or (n1 == c2 and n2 == c1):
                        continue
                    child = base + n2
                    if child not in nxt_parents:
                        nxt_parents[child] = state
        if not nxt_parents:
            return None
        frontier = sorted(nxt_parents)
        parents.append(nxt_parents)
        t = nstep


def plan(
    world: GridWorld,
    robots: Sequence[RobotState],
    human_forecasts: Union[Iterable[Tuple[Cell, int]], Dict[int, FrozenSet[int]]],
    cfg: PlanConfig,
    horizon: Optional[int] = None,
    routes: Optional[Dict[Tuple[int, Cell, Cell, int], SpaceTimePath]] = None,
) -> List[SpaceTimePath]:
    """Conflict-free paths for all robots.

    ``human_forecasts`` is the humans' ``(cell, step)`` forecasts, or, as a
    dict, the cell id -> steps table ``_human_reservations`` made of them on
    ``world`` under ``cfg.objective``; such a table is read as it is and
    never changed.

    ``routes`` holds solo routes already searched on ``world`` under that
    same table, keyed by ``(robot id, start, goal, horizon)``: a robot's
    route found there is not searched again, and every solo route this call
    searches is added to it as it is found, also when the call raises. The
    call writes nothing into the human table.

    One list of priority orderings serves both objectives: a configured
    ``cfg.priority_robot`` first, then the other ids in every order for up
    to 4 robots, else ascending; the first ordering has them ascending.
    Within an ordering the lower-priority robot of each conflict is
    constrained and replans. Safety-first keeps the first ordering that
    plans, makespan the one with the smallest makespan (the earlier on a
    tie); when none plans, the last one's ``PlanningInfeasible`` is raised.
    For two robots under makespan with a zero gap and no priority robot, the
    exact joint refinement searches the same orderings instead.
    """
    if horizon is None:
        horizon = default_horizon(world)
    ids = [r.id for r in robots]
    if len(set(ids)) != len(ids):
        raise PlanningError("duplicate robot ids")
    by_id = {r.id: r for r in robots}
    if cfg.priority_robot is not None and cfg.priority_robot not in by_id:
        raise PlanningError(f"priority robot {cfg.priority_robot} not present")
    starts = [r.cell for r in robots]
    goals = [r.goal for r in robots]
    if len(set(starts)) != len(starts) or len(set(goals)) != len(goals):
        raise PlanningError("robot starts and goals must be pairwise distinct")

    if isinstance(human_forecasts, dict):
        human = human_forecasts
    else:
        human = _human_reservations(world, [(tuple(c), int(s)) for c, s in human_forecasts], cfg.objective)
    if routes is None:
        routes = {}

    head = [] if cfg.priority_robot is None else [cfg.priority_robot]
    rest = sorted(i for i in ids if i != cfg.priority_robot)
    tails = itertools.permutations(rest) if len(robots) <= 4 else [rest]
    orderings = [head + list(tail) for tail in tails]

    gap = cfg.min_time_gap_at_conflict
    use_refinement = (
        cfg.objective == "makespan"
        and len(robots) == 2
        and gap == 0
        and cfg.priority_robot is None
        and world.width * world.height <= _REFINE_CELL_CAP
    )
    if use_refinement:
        # The prioritized plan of the first ordering lies in that ordering's
        # joint search space, so its makespan bounds the search, which then
        # always finds a plan; without a prioritized plan the bound is the
        # horizon. The second ordering is kept only when strictly better than
        # the first. A joint plan's makespan is at least either robot's solo
        # arrival step, so an ordering whose bound is below the larger one
        # cannot find a plan and is not searched.
        solo: Dict[int, SpaceTimePath] = {}
        for rid in orderings[0]:
            try:
                solo[rid] = _solo_route(world, by_id[rid], human, horizon, routes)
            except PlanningInfeasible:
                pass
        limit = horizon
        if len(solo) == 2:
            try:
                limit = makespan(_solve_ordering(world, by_id, orderings[0], human, 0, horizon, routes).values())
            except PlanningError:
                pass
        floor = max((p.arrival_step for p in solo.values()), default=0)
        best = None
        for lead_id, follow_id in orderings:
            if lead_id in solo and limit >= floor:
                res = _joint_best_response(world, by_id[lead_id], by_id[follow_id], human, solo[lead_id], limit)
                if res is not None:
                    best, limit = res, res[0] - 1
        if best is None:
            raise PlanningInfeasible(orderings[0][-1], horizon)
        solved = {best[1].robot_id: best[1], best[2].robot_id: best[2]}
        return [solved[r.id] for r in robots]

    best_paths = best_span = failure = None
    for cand in orderings:
        try:
            paths = _solve_ordering(world, by_id, cand, human, gap, horizon, routes)
        except PlanningInfeasible as exc:
            failure = exc
            continue
        if cfg.objective == "safety_first":
            return [paths[r.id] for r in robots]
        span = makespan(paths.values())
        if best_span is None or span < best_span:
            best_paths, best_span = paths, span
    if best_paths is None:
        assert failure is not None
        raise failure
    return [best_paths[r.id] for r in robots]
