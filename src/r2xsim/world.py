"""Grid world primitives: cells, robots and scripted human tracks.

The world is a rectangular grid of square cells. Coordinates are ``(x, y)``
with ``x`` growing east and ``y`` growing north. Time advances in fixed
frames; robots traverse one cell per ``cell_traverse_s`` seconds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Tuple

from .schema import _MAX_HORIZON_FRAMES, bounded, check_bounds

Cell = Tuple[int, int]

# Neighbor offsets in deterministic order: north, east, south, west.
_NESW = ((0, 1), (1, 0), (0, -1), (-1, 0))


@dataclass(frozen=True)
class GridWorld:
    """Immutable occupancy grid.

    ``blocked`` holds cells that can never be entered (racks, walls).

    Tables derived from the grid (the neighbour table and the goal distance
    fields) are built on first use and kept on the instance; they take no
    part in equality or hashing.
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

    @cached_property
    def neighbor_table(self) -> Dict[Cell, Tuple[Cell, ...]]:
        """``{cell: moves}`` for every passable cell: the in-bounds, unblocked
        moves in N, E, S, W order, then the wait move (the cell itself).
        Its keys are exactly the passable cells."""
        width, height, blocked = self.width, self.height, self.blocked
        table = {}
        for x in range(width):
            for y in range(height):
                cell = (x, y)
                if cell in blocked:
                    continue
                moves = [(x + dx, y + dy) for dx, dy in _NESW]
                table[cell] = tuple(
                    c for c in moves if 0 <= c[0] < width and 0 <= c[1] < height and c not in blocked
                ) + (cell,)
        return table

    @cached_property
    def _goal_fields(self) -> Dict[Cell, Dict[Cell, int]]:
        return {}

    def goal_distances(self, goal: Cell) -> Dict[Cell, int]:
        """Step distance to ``goal`` from every cell that can reach it (a
        breadth-first search from a passable ``goal``), computed once per goal.
        The returned dict is shared between callers and must not be changed."""
        dist = self._goal_fields.get(goal)
        if dist is None:
            table = self.neighbor_table
            if goal not in table:
                raise ValueError(f"cell {goal} is blocked or out of bounds")
            dist = {goal: 0}
            queue = deque([goal])
            while queue:
                cur = queue.popleft()
                d = dist[cur] + 1
                for nxt in table[cur]:
                    if nxt not in dist:
                        dist[nxt] = d
                        queue.append(nxt)
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
