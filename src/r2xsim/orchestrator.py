"""Intent-to-configuration orchestration and the closed-loop warehouse engine.

An operator intent (free text) is turned into a strict configuration message
(planning objective, radio fairness), validated, and corrected or replaced by
a conservative fallback. The warehouse engine executes the resulting
configuration: robots uplink sensing payloads, a central planner replans
every cell transition, and robots wait whenever the control loop has not
closed in time.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import heapq
import math
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from .metrics import tail_stats
from .planner import (
    PlanConfig,
    PlanningError,
    SpaceTimePath,
    _human_reservations,
    low_level_search,
    plan,
)
from .radio import (
    HarqStream,
    McsTable,
    PathGainMap,
    RadioConfig,
    allocate,
    ar1_blocks,
    draw_blocks,
    required_power,
    select_mcs,
    simulate_transmission,
    weight_errors,
)
from .schema import _MAX_DELAY_S, _MAX_ID_DIGITS, _Checker, _echo, bounded, check_bounds
from .sensing import SenseConfig
from .world import Cell, GridWorld, HumanTrack, RobotState, human_forecast

WAREHOUSE_METHODS = ("stop_and_go", "lorc_p", "lorc_sc", "lorc_sc_p")


@dataclass(frozen=True)
class OrchestratorConfig:
    pp: PlanConfig
    ra: RadioConfig
    fallback: bool = False


@dataclass(frozen=True)
class LoopBudget:
    """Fixed per-loop latency components, in seconds. The loop's deadline is
    the cell transition, ``GridWorld.cell_traverse_s`` (see ``_decide``)."""

    detection_s: float = bounded(lo=0.0, hi=_MAX_DELAY_S)
    encode_s: float = bounded(lo=0.0, hi=_MAX_DELAY_S)
    link_context_s: float = bounded(lo=0.0, hi=_MAX_DELAY_S)
    orchestration_s: float = bounded(lo=0.0, hi=_MAX_DELAY_S)

    __post_init__ = check_bounds

    @property
    def total_s(self) -> float:
        return self.detection_s + self.encode_s + self.link_context_s + self.orchestration_s


# The sensing modes by name, each one frozen configuration built once: the
# RSSI ladder's five rungs and one JPEG rung above them.
SENSE_MODES = {
    **{f"jpeg_q{q}": SenseConfig(mode="jpeg", jpeg_quality=q, qos="reliable") for q in (95, 80, 60)},
    **{f"vq_1x{n}": SenseConfig(mode="vq", vit_grid=(1, n), qos="best_effort") for n in (1, 2, 3)},
}


def select_sense_mode(rssi_dbm: float) -> SenseConfig:
    """Payload ladder driven by measured RSSI.

    Strong links carry JPEG previews on the reliable class; as RSSI drops
    the payload steps down through token grids on best-effort, clamping at
    the single-tile token payload.
    """
    if rssi_dbm >= -39:
        return SENSE_MODES["jpeg_q80"]
    if rssi_dbm >= -41:
        return SENSE_MODES["jpeg_q60"]
    if rssi_dbm >= -43:
        return SENSE_MODES["vq_1x3"]
    if rssi_dbm >= -45:
        return SENSE_MODES["vq_1x2"]
    return SENSE_MODES["vq_1x1"]


# --------------------------------------------------------------------------
# configuration message schema


def fallback_message(robot_ids: Sequence[int]) -> dict:
    """Conservative configuration used when intent resolution fails."""
    n = max(1, len(robot_ids))
    return {
        "pp_config": {
            "objective": "safety_first",
            "priority_robot": "none",
            "min_time_gap_at_conflict": 1,
        },
        "ra_config": {"fairness": "max_min", "priority_weights": [1.0 / n] * n},
    }


_PRIORITY_ROBOT_RE = re.compile(rf"robot_(\d{{1,{_MAX_ID_DIGITS}}})")
_ROBOT_MENTION_RE = re.compile(rf"robot[\s_]*(\d{{1,{_MAX_ID_DIGITS}}})(?!\d)")
_GAP_RE = re.compile(rf"gap\s+(\d{{1,{_MAX_ID_DIGITS}}})(?!\d)")


def validate(
    message: dict, robot_ids: Optional[Sequence[int]] = None
) -> Tuple[Optional[OrchestratorConfig], List[str]]:
    """Check a raw configuration message against the exact schema.

    Returns ``(config, [])`` on success or ``(None, errors)`` where every
    error names the offending field and the allowed domain. The message has
    exactly the two sections a run reads, ``pp_config`` and ``ra_config``;
    unknown fields are errors at every level.
    """
    ck = _Checker()
    if ck.obj(message, "message", (), ("pp_config", "ra_config")) is None:
        return None, ck.errors

    pp = ck.obj(message.get("pp_config"), "pp_config", ("objective", "priority_robot", "min_time_gap_at_conflict"))
    if pp is not None:
        objective = ck.declared(pp, "pp_config", PlanConfig, "objective")
        raw = pp.get("priority_robot", "none")
        m = _PRIORITY_ROBOT_RE.fullmatch(raw) if isinstance(raw, str) else None
        priority = int(m.group(1)) if m else None
        if m is None and raw != "none":
            ck.fail(
                "pp_config.priority_robot",
                f"{_echo(raw)} must be 'none' or 'robot_<id>' with at most {_MAX_ID_DIGITS} digits",
            )
        elif m and robot_ids is not None and priority not in robot_ids:
            ck.fail("pp_config.priority_robot", f"robot_{priority} not among robots {sorted(robot_ids)}")
        gap = ck.declared(pp, "pp_config", PlanConfig, "min_time_gap_at_conflict")

    ra = ck.obj(message.get("ra_config"), "ra_config", ("fairness", "priority_weights"))
    if ra is not None:
        fairness = ck.declared(ra, "ra_config", RadioConfig, "fairness")
        weights = ra.get("priority_weights")
        if "priority_weights" in ra:
            for why in weight_errors(weights, None if robot_ids is None else len(robot_ids)):
                ck.fail("ra_config.priority_weights", why)

    if ck.errors:
        return None, ck.errors
    cfg = OrchestratorConfig(
        pp=PlanConfig(objective=objective, priority_robot=priority, min_time_gap_at_conflict=gap),
        ra=RadioConfig(fairness=fairness, priority_weights=weights),
    )
    return cfg, []


# --------------------------------------------------------------------------
# intent engines


class IntentEngine(Protocol):
    def propose(self, intent_text: str, context: dict, errors: Optional[List[str]] = None) -> dict:
        ...


_IMPORTANCE_WORDS = ("important", "priority", "critical", "urgent")


def _favored_robot(text: str, robot_ids: Sequence[int]) -> Optional[int]:
    """Robot named closest before an importance keyword, by majority vote;
    each keyword's last earlier mention is found by bisection."""
    mentions = [(m.start(), int(m.group(1))) for m in _ROBOT_MENTION_RE.finditer(text)]
    mentions = [(pos, rid) for pos, rid in mentions if rid in robot_ids]
    if not mentions:
        return None
    starts = [pos for pos, _ in mentions]
    votes: Dict[int, int] = {}
    for word in _IMPORTANCE_WORDS:
        for m in re.finditer(word, text):
            i = bisect.bisect_left(starts, m.start())
            if i:
                votes[mentions[i - 1][1]] = votes.get(mentions[i - 1][1], 0) + 1
    if not votes:
        return None
    best = max(votes.values())
    return min(rid for rid, v in votes.items() if v == best)


def rule_intent(intent_text: str, robot_ids: Sequence[int]) -> dict:
    """Deterministic keyword rules mapping operator text to a raw
    configuration message.

    Safety wording selects the safety-first objective; "very safe" phrasing
    additionally widens the conflict gap to 3 steps unless an explicit
    "gap N" is given. Guaranteed-minimum-quality or worst-case wording
    selects max-min fairness. A robot named before importance keywords
    becomes the priority robot and receives 70% of the priority weight
    (all of it when it is the only robot).
    """
    ids = sorted(robot_ids)
    if not intent_text or not intent_text.strip():
        return fallback_message(ids)
    text = intent_text.lower()

    safety = "safe" in text
    objective = "safety_first" if safety else "makespan"

    gap_match = _GAP_RE.search(text)
    if gap_match:
        gap = int(gap_match.group(1))
    elif re.search(r"very\s+safe", text):
        gap = 3
    elif safety:
        gap = 1
    else:
        gap = 0

    favored = _favored_robot(text, ids)
    if favored is None:
        weights = [1.0 / len(ids)] * len(ids)
        priority = "none"
    else:
        top, rest = (0.7, 0.3 / (len(ids) - 1)) if len(ids) > 1 else (1.0, 0.0)
        weights = [top if rid == favored else rest for rid in ids]
        priority = f"robot_{favored}"

    max_min = ("minimum quality" in text and "guarantee" in text) or "worst" in text
    fairness = "max_min" if max_min else "proportional"

    return {
        "pp_config": {
            "objective": objective,
            "priority_robot": priority,
            "min_time_gap_at_conflict": gap,
        },
        "ra_config": {"fairness": fairness, "priority_weights": weights},
    }


class RuleIntentEngine:
    """Offline engine backed by the deterministic keyword rules."""

    def propose(self, intent_text: str, context: dict, errors: Optional[List[str]] = None) -> dict:
        return rule_intent(intent_text, context["robot_ids"])


@dataclass
class IntentResolution:
    config: OrchestratorConfig
    attempts: int
    fallback: bool
    error_history: List[List[str]] = field(default_factory=list)


def correct_loop(
    engine: IntentEngine,
    intent_text: str,
    context: dict,
    max_attempts: int = 3,
) -> IntentResolution:
    """Propose, validate, and re-prompt with the validation errors.

    ``context["robot_ids"]`` is the fleet the configuration is for. An
    engine runs in-process and is trusted: an exception it raises, or a
    message ``validate`` rejects, counts as a failed attempt, and its running
    time is not bounded. After ``max_attempts`` failed attempts the
    conservative fallback configuration is returned with the ``fallback``
    flag set.
    """
    context = dict(context)
    robot_ids = context["robot_ids"]
    history: List[List[str]] = []
    last_errors: Optional[List[str]] = None
    for attempt in range(1, max_attempts + 1):
        try:
            message = engine.propose(intent_text, context, errors=last_errors)
        except Exception as exc:  # engine failures must not escape the loop
            last_errors = [f"engine: {exc}"]
            history.append(last_errors)
            continue
        try:
            cfg, errors = validate(message, robot_ids)
        except Exception as exc:  # a message the schema did not foresee is a failed attempt too
            cfg, errors = None, [f"message: {type(exc).__name__}: {exc}"]
        if cfg is not None:
            return IntentResolution(cfg, attempt, False, history)
        last_errors = errors
        history.append(errors)
    cfg, errors = validate(fallback_message(robot_ids), robot_ids)
    assert cfg is not None, f"fallback configuration failed validation: {errors}"
    return IntentResolution(dataclasses.replace(cfg, fallback=True), max_attempts, True, history)


# --------------------------------------------------------------------------
# warehouse closed-loop engine


# A HumanReservations memo holds at most _MAX_HUMAN_TABLES entries,
# _MAX_PARKED_WORLDS parked worlds, _MAX_FRAME_TABLES frame tables and
# _MAX_FOOTPRINTS footprints (checked before a frame table is built, so one
# build may pass it by that frame's forecasts), and each entry at most
# _MAX_PER_TABLE solo routes and _MAX_PER_TABLE replans; when one is full it
# starts again empty. The 20 seeds of a pinned warehouse file (a bundled
# file or its makespan copy) need 26 to 49 entries, 2 or 3 worlds (none
# parked, one robot parked), 26 to 47 frame tables of at most 157 nodes,
# 88 to 264 footprints, and at most 24 routes and 32 replans in one entry.
_MAX_HUMAN_TABLES = 4096
_MAX_PARKED_WORLDS = 16
_MAX_FRAME_TABLES = 4096
_MAX_FOOTPRINTS = 16384
_MAX_PER_TABLE = 64


class HumanReservations:
    """What the humans block at each replan of one loaded warehouse
    scenario, and the replans made under it, shared by all its runs.

    A replan at ``frame``, with the goal cells of the arrived robots
    ``parked``, plans on the world with those cells blocked and reads the
    humans' forecasts as the node table ``_human_reservations`` makes of
    them on the base world. Both depend only on the world, the tracks, the
    objective, ``parked`` and ``frame``, not on the seed or the method, so
    each is built on first use and kept: a parked world once per
    ``parked``, its move table derived from the base world's, and a table
    once per frame, shared by every ``parked``. The tables are frozen sets,
    and the planner writes only into copies.

    Sharing is exact: a table made on the parked world differs from the
    base world's only at parked cells, and no search reads a parked cell,
    because starts and goals are checked passable and every move comes
    from the parked world's move table. A table is the union of its
    forecasts' footprints (``planner._footprint``), each made once per
    ``(cell, step)`` and kept for the loaded file. No table blocks a step
    past the last forecast step plus one, which ``plan`` reads as its
    ``last_step``.

    From frame ``F = max(len(waypoints)) - 2`` (at least 0) on, every
    forecast cell is a track's last waypoint and every forecast step is
    the same, so a later frame reads the table of frame ``F``: tables are
    keyed by ``min(frame, F)`` and entries by ``(parked, min(frame, F))``.

    Each entry carries the solo routes ``plan`` has searched under its
    table, and the outcome of each replan made under it, keyed by every
    active robot's ``(id, cell, goal)`` and the plan configuration: with the
    entry's key, all that ``plan`` reads (Silver 2005: what stays fixed is
    computed once). A replan whose key was seen before builds no table and
    calls no planner.

    Each track's forecast steps, which depend only on the frame period and
    the cell move, are computed once; stop-and-go's per-frame set of human
    cells (:meth:`human_cells`) is kept here too.
    """

    __slots__ = (
        "world", "tracks", "objective", "_last_frame", "_offsets", "_last_step", "_worlds", "_frames", "_footprints",
        "_tables", "_cells_at",
    )

    def __init__(self, world: GridWorld, tracks: Sequence[HumanTrack], objective: str):
        self.world = world
        self.tracks = tuple(tracks)
        self.objective = objective
        longest = max((len(track.waypoints) for track in self.tracks), default=0)
        self._last_frame = max(0, longest - 2)
        # A forecast ``i`` frames ahead becomes the first planner step at or
        # after it, and at least step 1: one list of steps per track.
        ratio = world.frame_period_s / world.cell_traverse_s
        self._offsets = [
            [max(1, math.ceil(i * ratio)) for i in range(1, track.horizon_frames + 1)] for track in self.tracks
        ]
        self._last_step = max((offsets[-1] for offsets in self._offsets), default=0) + 1
        self._worlds: Dict[frozenset, GridWorld] = {}
        self._frames: Dict[int, FrozenSet[int]] = {}
        self._footprints: Dict[Tuple[Cell, int], FrozenSet[int]] = {}
        self._tables: Dict[Tuple[frozenset, int], Tuple[GridWorld, FrozenSet[int], dict, dict]] = {}
        self._cells_at: Dict[int, FrozenSet[Cell]] = {}

    def at(self, parked: frozenset, frame: int) -> Tuple[GridWorld, FrozenSet[int], dict, dict]:
        """The world with ``parked`` blocked, the humans' reservation table
        for a replan at ``frame``, and the solo routes (as ``plan``'s
        ``routes``) and replans (as ``next_cells``'s) made on that world
        under that table."""
        frame = min(frame, self._last_frame)
        key = (parked, frame)
        found = self._tables.get(key)
        if found is not None:
            return found
        world = self._worlds.get(parked)
        if world is None:
            if len(self._worlds) >= _MAX_PARKED_WORLDS:
                self._worlds.clear()
                self._tables.clear()  # its entries hold the worlds
            world = self.world.blocking(parked) if parked else self.world
            self._worlds[parked] = world
        if len(self._tables) >= _MAX_HUMAN_TABLES:
            self._tables.clear()
        table = self._frames.get(frame)
        if table is None:
            if len(self._frames) >= _MAX_FRAME_TABLES:
                self._frames.clear()
            if len(self._footprints) >= _MAX_FOOTPRINTS:
                self._footprints.clear()
            # The forecast of each track at ``frame``: its waypoints after
            # ``frame``, then its last waypoint, one per offset.
            pairs = []
            for track, offsets in zip(self.tracks, self._offsets):
                wps = track.waypoints
                ahead = wps[frame + 1:frame + 1 + len(offsets)]
                pairs += zip(ahead + (wps[-1],) * (len(offsets) - len(ahead)), offsets)
            table = self._frames[frame] = _human_reservations(self.world, pairs, self.objective, self._footprints)
        found = self._tables[key] = (world, table, {}, {})
        return found

    def human_cells(self, frame: int) -> FrozenSet[Cell]:
        """The cells the humans stand on at ``frame`` or are forecast on
        after it, as stop-and-go reads them, made once per frame. From frame
        ``F + 1`` on every human stands on its last waypoint, so a later
        frame reads the set of frame ``F + 1``."""
        frame = min(frame, self._last_frame + 1)
        found = self._cells_at.get(frame)
        if found is None:
            found = self._cells_at[frame] = frozenset(
                cell
                for track in self.tracks
                for cell in (track.position_at(frame), *(cell for cell, _ in human_forecast(track, frame)))
            )
        return found

    def next_cells(
        self, parked: frozenset, frame: int, robots: Tuple[Tuple[int, Cell, Cell], ...], pp: PlanConfig
    ) -> Dict[int, Cell]:
        """Each robot's cell at step 1 of the plan for ``robots``, given as
        ``(id, cell, goal)``, at a replan at ``frame`` with ``parked``
        blocked; empty when planning fails. The dict is shared by every
        replan with the same key and must not be changed."""
        world, human, routes, replans = self.at(parked, frame)
        found = replans.get((robots, pp))
        if found is not None:
            return found
        if len(routes) >= _MAX_PER_TABLE:
            routes.clear()
        states = [RobotState(rid, cell, goal) for rid, cell, goal in robots]
        try:
            paths = plan(world, states, human, pp, routes=routes, last_step=self._last_step)
            found = {p.robot_id: p.at(1) for p in paths}
        except PlanningError:
            found = {}
        if len(replans) >= _MAX_PER_TABLE:
            replans.clear()
        replans[robots, pp] = found
        return found


@dataclass(frozen=True)
class WarehouseInputs:
    """What every run of a warehouse scenario starts from. ``human`` is its
    :class:`HumanReservations` memo, made on first use for ``world``,
    ``tracks`` and ``cfg.pp.objective``; ``dataclasses.replace`` starts anew."""

    world: GridWorld
    robots: List[RobotState]
    tracks: List[HumanTrack]
    gain_map: PathGainMap
    table: McsTable
    cfg: OrchestratorConfig
    budget: LoopBudget
    payloads: Dict[str, int]
    max_sim_time_s: float

    @functools.cached_property
    def human(self) -> HumanReservations:
        return HumanReservations(self.world, self.tracks, self.cfg.pp.objective)


def _seconds(t: float) -> str:
    """An event time for a message: one decimal, or ``:g`` from 10^12 s on,
    where fixed point would print up to 309 digits."""
    return f"{t:.1f}" if abs(t) < 1e12 else f"{t:g}"


class UnfinishedRun(RuntimeError):
    """A warehouse run did not finish within its ``max_sim_time_s``."""

    def __init__(self, method: str, seed: int, max_sim_time_s: float, reason: str):
        # All four in args, so that the error pickles across worker processes.
        super().__init__(method, seed, max_sim_time_s, reason)
        self.method, self.seed, self.max_sim_time_s, self.reason = self.args

    def __str__(self) -> str:
        return (f"method {self.method} seed {self.seed} did not finish within "
                f"{self.max_sim_time_s} s ({self.reason})")


@dataclass(eq=False)
class _RobotRuntime:
    """One robot of a warehouse run, with its own shadowing and HARQ streams
    and, under stop-and-go, its solo route; compared by identity."""

    id: int
    cell: Cell
    goal: Cell
    weight: float
    shadow_blocks: Iterator[List[float]]
    harq: HarqStream
    executed: List[Cell]
    last_rate: float
    shadow: List[float] = field(default_factory=list)
    arrived: bool = False
    halt_s: float = 0.0
    stop_events: int = 0
    last_measured_gain_db: Optional[float] = None
    pending_target: Optional[Cell] = None
    solo_path: Optional[SpaceTimePath] = None


class WarehouseSimulation:
    """Executes one warehouse run for one method and seed.

    Methods:
      stop_and_go -- no uplink; solo shortest routes with reactive halting
                     whenever a human forecast or another robot occupies the
                     next cell
      lorc_p      -- raw-frame uplink, map-predictive power, central replan
      lorc_sc     -- compact semantic uplink, reactive power (previous
                     measured gain), central replan
      lorc_sc_p   -- compact semantic uplink, map-predictive power, central
                     replan

    Each robot is one record in ``robots``, by id in file order. The run is
    event-scheduled: one method ``_<kind>`` per event kind, called with the
    robot's record; events are ordered by ``(time, robot id, push order)``.

      decide -- a replanning robot's next command is ready and its last
                step has finished: plan, then start the step and the loop
                for the following command, or wait one frame in place
      land   -- a robot reaches its next cell (both modes); a stop-and-go
                robot then tries its following step in the same event
      try    -- one stop-and-go step: go, or halt one transition

    Replanning robots never execute a command before it has arrived: when
    the loop round trip outlasts the cell transition, the robot waits in
    place and the wait is logged as a stop event.
    """

    def __init__(self, inputs: WarehouseInputs, method: str, seed: int):
        if method not in WAREHOUSE_METHODS:
            raise ValueError(f"method {method!r} not in {WAREHOUSE_METHODS}")
        world, gain_map, cfg = inputs.world, inputs.gain_map, inputs.cfg
        if gain_map.width != world.width or gain_map.height != world.height:
            raise ValueError("gain map dimensions must match the world")
        ids = sorted(r.id for r in inputs.robots)
        if len(cfg.ra.priority_weights) != len(ids):
            raise ValueError("priority weights must match the robot count")
        self.world = world
        self.tracks = inputs.tracks
        self.gain_map = gain_map
        self.table = inputs.table
        self.cfg = cfg
        self.budget = inputs.budget
        self.method = method
        self.seed = seed
        self.max_sim_time_s = inputs.max_sim_time_s
        self._payload_bytes = int(inputs.payloads["raw" if method == "lorc_p" else "semantic_feature"])
        weight_of = dict(zip(ids, cfg.ra.priority_weights))
        # The plan configuration once the priority robot has arrived.
        self._pp_without_priority = dataclasses.replace(cfg.pp, priority_robot=None)

        # Every robot's first rate is the entry chosen at the target SNR.
        first_rate = self.table.entries[select_mcs(self.table, cfg.ra.target_snr_db)].rate_bps_per_hz
        # A loop starts at or before max_sim_time_s and tries the uplink in at
        # most _loop_frames frames. Each robot's shadowing frames are drawn
        # block by block as far as the run reads them, up to n_frames: past
        # the last frame a loop can read, with 8 to spare for index rounding.
        self._loop_frames = int(self.max_sim_time_s / world.frame_period_s)
        n_frames = int(math.ceil(self.max_sim_time_s / world.frame_period_s)) + self._loop_frames + 8
        # One record per robot, in file order, its streams seeded by its id.
        rho, sigma = gain_map.shadowing_rho, gain_map.shadowing_sigma_db
        self.robots: Dict[int, _RobotRuntime] = {
            r.id: _RobotRuntime(
                r.id, r.cell, r.goal, weight_of[r.id],
                ar1_blocks(np.random.default_rng([seed, r.id, 7]), n_frames, rho, sigma),
                HarqStream(draw_blocks(np.random.default_rng([seed, r.id, 101]))), [r.cell], first_rate,
            )
            for r in inputs.robots
        }
        self.rtt_samples: List[float] = []
        self._events: List[Tuple[float, int, int, str, Optional[Cell]]] = []
        self._event_seq = 0
        self._human = inputs.human

    # -- helpers ----------------------------------------------------------

    def _frame(self, t: float) -> int:
        return int(t / self.world.frame_period_s + 1e-9)

    def _shadow_at(self, rt: _RobotRuntime, frame: int) -> float:
        """The robot's shadowing in ``frame``; IndexError past n_frames."""
        while len(rt.shadow) <= frame and (block := next(rt.shadow_blocks, None)) is not None:
            rt.shadow += block
        return rt.shadow[frame]

    def _push(self, t: float, rid: int, kind: str, target: Optional[Cell] = None) -> None:
        self._event_seq += 1
        heapq.heappush(self._events, (t, rid, self._event_seq, kind, target))

    def _active(self) -> List[_RobotRuntime]:  # by ascending id
        return [rt for _, rt in sorted(self.robots.items()) if not rt.arrived]

    def _unfinished(self, reason: str) -> UnfinishedRun:
        return UnfinishedRun(self.method, self.seed, self.max_sim_time_s, reason)

    def _occupied_next(self, rt: _RobotRuntime, target: Cell) -> bool:
        """True when ``target`` is the cell another active robot holds or is
        currently flying into.  Plans are recomputed per robot, so a stalled
        neighbour can invalidate the departure this robot's plan assumed;
        this interlock keeps two robots from ever sharing a cell."""
        return any(
            (other.pending_target or other.cell) == target
            for other in self.robots.values()
            if other is not rt and not other.arrived
        )

    # -- the control loop -------------------------------------------------

    def _run_loop(self, rt: _RobotRuntime, start_t: float, at_cell: Cell) -> float:
        """Simulate one sensing-uplink-orchestration loop started at
        ``start_t`` while the robot heads for ``at_cell``; returns the time
        the next command is ready."""
        ra = self.cfg.ra
        cell_gain = self.gain_map.gain_at(at_cell)
        # No robot lands while the loop runs, so the uplink shares the
        # bandwidth with the same robots, under the same weights, throughout.
        active = self._active()
        index = active.index(rt)
        total = sum(other.weight for other in active)
        weights = [other.weight / total for other in active]
        t = start_t
        for _ in range(self._loop_frames):
            if self.method == "lorc_sc" and rt.last_measured_gain_db is not None:
                gain_ref = rt.last_measured_gain_db
            else:
                gain_ref = cell_gain
            power = required_power(gain_ref, ra.target_snr_db, ra.noise_dbm, ra.max_power_dbm)
            est_snr = power + gain_ref - ra.noise_dbm
            true_gain = cell_gain + self._shadow_at(rt, self._frame(t))
            true_snr = power + true_gain - ra.noise_dbm
            entry = self.table.entries[select_mcs(self.table, est_snr)]
            rt.last_rate = entry.rate_bps_per_hz
            share = allocate([other.last_rate for other in active], weights, ra.fairness)[index]
            result = simulate_transmission(
                self._payload_bytes, entry, true_snr, self.table.bandwidth_hz * share, self.table.slot_s,
                rt.harq, ra.max_retx,
            )
            rt.last_measured_gain_db = true_gain
            if result.success:
                ready = t + result.latency_s + self.budget.total_s
                self.rtt_samples.append(ready - start_t)
                return ready
            t += self.world.frame_period_s
        raise self._unfinished(f"robot {rt.id}: uplink never succeeded after {_seconds(start_t)} s")

    def _plan_next(self, rt: _RobotRuntime, plan_time: float) -> Optional[Cell]:
        """Central replan at ``plan_time``: the robot's next cell, or None when
        planning is infeasible right now (as when two robots share a start)."""
        active = self._active()
        robots = tuple((other.id, other.pending_target or other.cell, other.goal) for other in active)
        parked = frozenset(other.goal for other in self.robots.values() if other.arrived)
        pp = self.cfg.pp if any(o.id == self.cfg.pp.priority_robot for o in active) else self._pp_without_priority
        return self._human.next_cells(parked, self._frame(plan_time), robots, pp).get(rt.id)

    # -- event handlers: one per kind, each called as (t, robot, target) --

    def _decide(self, t: float, rt: _RobotRuntime, target: Optional[Cell]) -> None:
        nxt = self._plan_next(rt, t)
        if nxt is not None and nxt != rt.cell and self._occupied_next(rt, nxt):
            nxt = None
        if nxt is None:
            rt.halt_s += self.world.frame_period_s
            rt.stop_events += 1
            self._push(t + self.world.frame_period_s, rt.id, "decide")
            return
        land_t = t + self.world.cell_traverse_s
        rt.pending_target = nxt
        self._push(land_t, rt.id, "land", nxt)
        ready = self._run_loop(rt, t, nxt)
        if nxt != rt.goal:
            resume = max(ready, land_t)  # the step has landed and the command arrived
            if resume - land_t > 1e-9:  # the command came late: a stall
                rt.halt_s += resume - land_t
                rt.stop_events += 1
            self._push(resume, rt.id, "decide")

    def _land(self, t: float, rt: _RobotRuntime, target: Cell) -> None:
        rt.cell = target
        rt.pending_target = None
        rt.executed.append(target)
        if target == rt.goal:
            rt.arrived = True
        elif self.method == "stop_and_go":
            self._try(t, rt, None)

    def _try(self, t: float, rt: _RobotRuntime, target: Optional[Cell]) -> None:
        nxt = rt.solo_path.at(len(rt.executed))
        blocked = nxt != rt.cell and (
            self._occupied_next(rt, nxt) or nxt in self._human.human_cells(self._frame(t))
        )
        if blocked:
            rt.halt_s += self.world.cell_traverse_s
            rt.stop_events += 1
            self._push(t + self.world.cell_traverse_s, rt.id, "try")
            return
        self._push(t + self.world.cell_traverse_s, rt.id, "land", nxt)

    # -- public API -------------------------------------------------------

    def decision_step(self) -> Optional[Tuple[float, int, str]]:
        """Process the next pending event; returns ``(time, robot, kind)`` or
        None when the run is complete."""
        if not self._events:
            return None
        t, rid, _, kind, target = heapq.heappop(self._events)
        if t > self.max_sim_time_s:
            raise self._unfinished(f"an event fell due at {_seconds(t)} s")
        getattr(self, "_" + kind)(t, self.robots[rid], target)
        return t, rid, kind

    def run(self) -> Dict[str, float]:
        """Run to the end; returns the record's metrics, with the RTT mean and
        95th percentile only when a loop ran (``stop_and_go`` runs none)."""
        if self.method == "stop_and_go":
            for rt in self.robots.values():
                rt.solo_path = low_level_search(self.world, RobotState(rt.id, rt.cell, rt.goal))
                self._push(0.0, rt.id, "try")
        else:
            for _, rt in sorted(self.robots.items()):
                # initial synchronization: first command fetched before moving
                ready = self._run_loop(rt, 0.0, rt.cell)
                self._push(ready, rt.id, "decide")
        while self._events:
            self.decision_step()
        unfinished = [rid for rid, rt in self.robots.items() if not rt.arrived]
        if unfinished:
            raise self._unfinished(f"robots {unfinished} never arrived")
        # Every executed step, moves and commanded waits alike, takes one
        # cell-traverse interval; the last robot done sets the time.
        out = {
            "completion_time_s": float(
                max((len(rt.executed) - 1) * self.world.cell_traverse_s + rt.halt_s for rt in self.robots.values())
            ),
            "stop_events": float(sum(rt.stop_events for rt in self.robots.values())),
            "halt_s": float(sum(rt.halt_s for rt in self.robots.values())),
        }
        if self.rtt_samples:
            out["rtt_mean_s"], out["rtt_p95_s"] = tail_stats(self.rtt_samples)
        return out
