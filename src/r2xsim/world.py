"""Grid world primitives: cells, robots and scripted human tracks.

The world is a rectangular grid of square cells. Coordinates are ``(x, y)``
with ``x`` growing east and ``y`` growing north. Time advances in fixed
frames; robots traverse one cell per ``cell_traverse_s`` seconds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import cached_property
from typing import AbstractSet, Dict, Iterable, List, Optional, Tuple

from .schema import _MAX_HORIZON_FRAMES, bounded, check_bounds

Cell = Tuple[int, int]


@dataclass(frozen=True)
class GridWorld:
    """Immutable occupancy grid.

    ``blocked`` holds cells that can never be entered (racks, walls).

    Tables derived from the grid (the move table and the goal distance
    fields) are flat lists indexed by cell id (:meth:`cell_id`), built on
    first use and kept on the instance; they take no part in equality or
    hashing.
    """

    width: int = bounded(lo=1, integer=True)
    height: int = bounded(lo=1, integer=True)
    blocked: frozenset = field(default_factory=frozenset)
    frame_period_s: float = bounded(0.5, gt=0.0)
    cell_traverse_s: float = bounded(1.4, gt=0.0)

    def __post_init__(self):
        check_bounds(self)
        object.__setattr__(self, "blocked", frozenset(tuple(c) for c in self.blocked))
        for c in self.blocked:
            if not self.in_bounds(c):
                raise ValueError(f"blocked cell {c} outside {self.width}x{self.height} grid")

    def in_bounds(self, cell: Cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    def passable(self, cell: Cell) -> bool:
        return self.in_bounds(cell) and cell not in self.blocked

    def cell_id(self, cell: Cell) -> int:
        """The id ``x * height + y`` of an in-bounds cell. Ids sort as their
        cells do, and ``divmod(id, height)`` is the cell again."""
        return cell[0] * self.height + cell[1]

    @cached_property
    def moves(self) -> List[Optional[Tuple[int, ...]]]:
        """The move table, indexed by cell id: for a passable cell the ids of
        its in-bounds, unblocked moves in N, E, S, W order, then the wait
        move (the cell itself); None for a blocked cell."""
        width, height = self.width, self.height
        ids = list(range(width * height))  # entries share these int objects
        free = [True] * len(ids)
        for x, y in self.blocked:
            free[x * height + y] = False
        moves: List[Optional[Tuple[int, ...]]] = [None] * len(ids)
        for c in ids:
            if not free[c]:
                continue
            x, y = divmod(c, height)
            row = []
            if y + 1 < height and free[c + 1]:
                row.append(ids[c + 1])
            if x + 1 < width and free[c + height]:
                row.append(ids[c + height])
            if y and free[c - 1]:
                row.append(ids[c - 1])
            if x and free[c - height]:
                row.append(ids[c - height])
            row.append(c)
            moves[c] = tuple(row)
        return moves

    @cached_property
    def _cells(self) -> Dict[int, Cell]:
        return {}

    def cells_of(self, ids: Iterable[int]) -> Tuple[Cell, ...]:
        """The cells with ``ids``. Each cell is made once, on first need, and
        shared by every path on this world and on the worlds derived from it."""
        memo, height = self._cells, self.height
        out = []
        for c in ids:
            cell = memo.get(c)
            if cell is None:
                cell = memo[c] = divmod(c, height)
            out.append(cell)
        return tuple(out)

    def blocking(self, cells: AbstractSet[Cell]) -> GridWorld:
        """This world with ``cells`` blocked as well. Its move table is
        derived from this one's: only the entries of ``cells`` and of their
        neighbours are rewritten."""
        world = dataclasses.replace(self, blocked=self.blocked | cells)
        base = self.moves
        moves = list(base)
        gone = {self.cell_id(c) for c in cells}
        touched = set()
        for c in gone:
            if base[c] is not None:
                touched.update(base[c])
            moves[c] = None
        for c in touched - gone:
            moves[c] = tuple(n for n in base[c] if n not in gone)
        world.__dict__["moves"] = moves
        world.__dict__["_cells"] = self._cells
        return world

    @cached_property
    def _goal_fields(self) -> Dict[int, List[Optional[int]]]:
        return {}

    def goal_field(self, goal: int) -> List[Optional[int]]:
        """Step distance to the cell with id ``goal`` from every cell, by id,
        None where the goal cannot be reached (a breadth-first search from a
        passable ``goal``), computed once per goal. The returned list is
        shared between callers and must not be changed."""
        dist = self._goal_fields.get(goal)
        if dist is None:
            moves = self.moves
            if moves[goal] is None:
                raise ValueError(f"cell {divmod(goal, self.height)} is blocked")
            dist = [None] * len(moves)
            dist[goal] = 0
            layer, d = [goal], 0
            while layer:
                d += 1
                nxt = []
                for cur in layer:
                    for n in moves[cur]:
                        if dist[n] is None:
                            dist[n] = d
                            nxt.append(n)
                layer = nxt
            self._goal_fields[goal] = dist
        return dist


@dataclass(frozen=True)
class RobotState:
    """A robot to route: its id, start cell and goal, both made tuples."""

    id: int
    cell: Cell
    goal: Cell

    def __post_init__(self):
        object.__setattr__(self, "cell", tuple(self.cell))
        object.__setattr__(self, "goal", tuple(self.goal))


@dataclass(frozen=True)
class HumanTrack:
    """Scripted human trajectory, one waypoint per frame.

    Consecutive waypoints must be identical (standing) or 4-adjacent.
    Past the last waypoint the human is assumed stationary.
    """

    waypoints: Tuple[Cell, ...]
    horizon_frames: int = bounded(3, lo=1, hi=_MAX_HORIZON_FRAMES, integer=True)

    def __post_init__(self):
        wps = tuple(tuple(w) for w in self.waypoints)
        object.__setattr__(self, "waypoints", wps)
        if not wps:
            raise ValueError("track needs at least one waypoint")
        check_bounds(self)
        for a, b in zip(wps, wps[1:]):
            if abs(a[0] - b[0]) + abs(a[1] - b[1]) > 1:
                raise ValueError(f"waypoints {a} -> {b} are not adjacent or identical")

    def position_at(self, step: int) -> Cell:
        if step < 0:
            raise ValueError("step must be nonnegative")
        if step >= len(self.waypoints):
            return self.waypoints[-1]
        return self.waypoints[step]


def human_forecast(track: HumanTrack, step: int) -> List[Tuple[Cell, int]]:
    """Forecast cells for the next ``track.horizon_frames`` frames after ``step``.

    Returns ``[(cell, step+1), ..., (cell, step+horizon)]``; the track is
    extrapolated as stationary past its end.
    """
    return [(track.position_at(step + i), step + i) for i in range(1, track.horizon_frames + 1)]
