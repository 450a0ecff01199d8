"""Scenario files and the runners for the three demo families.

A scenario is a strict JSON document (``schema_version`` 1). Unknown fields
are rejected at every level, mirroring the orchestrator's configuration
strictness, and every validation error names the offending field. Each
kind's section is checked and built once, when the file is loaded, by its
``build_<kind>`` function; every run of the file reads those inputs.

Three kinds are supported:

  warehouse -- multi-robot navigation with scripted humans, a path-gain map,
               and the four baseline methods executed by the closed-loop
               engine
  mcs       -- link-adaptation policies replayed over AR(1) shadowing traces
               on a synthetic corridor
  followme  -- person-following trace replay where the sensing mode is fixed
               or driven by the RSSI ladder, scored with CTA and UTFR
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .linkadapt import LinkTable, PolicySpec, run_policy
from .metrics import tail_stats, utfr
from .orchestrator import (
    SENSE_MODES,
    WAREHOUSE_METHODS,
    LoopBudget,
    RuleIntentEngine,
    WarehouseInputs,
    WarehouseSimulation,
    correct_loop,
    select_sense_mode,
)
from .planner import default_horizon
from .radio import (
    HarqStream, McsTable, PathGainMap, RadioConfig, ar1_series, default_mcs_table, draw_blocks, sample_trace,
)
from .schema import (
    _BLER_TARGET,
    _MAX_DB,
    _MAX_DELAY_S,
    _MAX_ID_DIGITS,
    _MAX_RETRIES,
    _MAX_STEPS,
    _MIN_THROUGHPUT_BPS,
    _PAYLOAD_BYTES,
    _Checker,
    _echo,
    _is_choice,
    _is_number,
    _unique_keys,
)
from .world import GridWorld, HumanTrack, RobotState

_FOLLOWME_MODE_NAMES = {cfg: name for name, cfg in SENSE_MODES.items()}
FOLLOWME_METHODS = (*SENSE_MODES, "orchestrated")
# Matched whole (fullmatch); groups: policy kind and delay of a delayed method,
# at most _MAX_ID_DIGITS digits so that int() never meets its digit limit, and
# no leading zero, so that one policy has one name.
_MCS_METHOD_RE = re.compile(rf"oracle|ideal|(delayed|predictive)_(0|[1-9]\d{{0,{_MAX_ID_DIGITS - 1}}})")

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Raised when a scenario file fails validation."""

    def __init__(self, errors: Sequence[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


# --------------------------------------------------------------------------
# scenario document


@dataclass
class Scenario:
    id: str
    kind: str
    seeds: Tuple[int, ...]
    methods: Tuple[str, ...]
    params: dict
    # What the kind's builder made of ``params`` at load: read, never
    # changed, by every run of this scenario and of its with_overrides copies.
    inputs: Union[WarehouseInputs, McsInputs, FollowmeInputs] = field(repr=False, compare=False)
    # (seed, table) of the last seed run, the table being what the kind's
    # ``prepare`` function made of that seed; a copy made by with_overrides
    # starts empty, but shares the warehouse inputs' HumanReservations memo.
    _seed_table: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def with_overrides(
        self,
        seeds: Optional[Sequence[int]] = None,
        methods: Optional[Sequence[str]] = None,
    ) -> "Scenario":
        out = dataclasses.replace(self)
        if seeds is not None:
            out = dataclasses.replace(out, seeds=tuple(seeds))
        if methods is not None:
            ck = _Checker()
            for m in methods:
                if m not in self.methods:
                    ck.fail("methods", f"{_echo(m)} not offered by scenario {_echo(self.id)} "
                            f"(available: {list(self.methods)})")
            ck.distinct(methods, "methods", "methods")
            if ck.errors:
                raise ScenarioError(ck.errors)
            out = dataclasses.replace(out, methods=tuple(methods))
        return out


class _Kind(NamedTuple):
    """How one scenario kind is checked and built, prepared for a seed, and
    run.

    ``build``, ``prepare`` and ``run`` name functions of this module and are
    looked up when called, so a wrapper set on the module attribute sees
    every call. ``prepare(inputs, seed)`` computes what the seed alone
    determines, once for every method of that seed (see ``_seed_table``).
    """

    methods: Optional[Tuple[str, ...]]  # None: mcs names, matched by _MCS_METHOD_RE
    build: str
    prepare: Optional[str]  # None: every run draws its own
    run: str


_KINDS = {
    "warehouse": _Kind(WAREHOUSE_METHODS, "build_warehouse", None, "run_warehouse"),
    "mcs": _Kind(None, "build_mcs_corridor", "prepare_mcs", "run_mcs"),
    "followme": _Kind(FOLLOWME_METHODS, "build_followme", "prepare_followme", "run_followme"),
}


def _seed_table(scn: Scenario, seed: int):
    """What ``seed`` alone determines for every method of ``scn``: built by
    the kind's ``prepare`` on the first run of that seed, inside that run,
    and kept on ``scn`` until a run asks for another seed."""
    if scn._seed_table is None or scn._seed_table[0] != seed:
        scn._seed_table = (seed, globals()[_KINDS[scn.kind].prepare](scn.inputs, seed))
    return scn._seed_table[1]


def parse_scenario(data) -> Scenario:
    """Check a parsed scenario document and build its section's run inputs,
    once; raises ScenarioError with every violation."""
    ck = _Checker()
    top = ck.obj(data, "scenario", ("schema_version", "id", "kind", "seeds", "methods"), ("description", *_KINDS))
    if top is None:
        raise ScenarioError(ck.errors)
    version = data.get("schema_version")
    if not _is_choice(version, SCHEMA_VERSION):
        ck.fail("scenario.schema_version", f"{_echo(version)} is not the supported version {SCHEMA_VERSION}")
    sid = data.get("id")
    if not isinstance(sid, str) or not sid:
        ck.fail("scenario.id", f"{_echo(sid)} must be a nonempty string")
    if not isinstance(data.get("description", ""), str):
        ck.fail("scenario.description", f"{_echo(data['description'])} must be a string")
    kind = ck.one_of(data.get("kind"), "scenario.kind", tuple(_KINDS))
    if kind is None:
        raise ScenarioError(ck.errors)
    spec = _KINDS[kind]
    seeds = data.get("seeds")
    ck.seeds(seeds, "scenario.seeds")
    methods = data.get("methods")
    if not isinstance(methods, list) or not methods or not all(isinstance(m, str) for m in methods):
        ck.fail("scenario.methods", "must be a nonempty list of method names")
    else:
        for m in methods:
            if spec.methods is not None:
                ck.one_of(m, "scenario.methods", spec.methods)
            elif not _MCS_METHOD_RE.fullmatch(m):
                ck.fail(
                    "scenario.methods",
                    f"{_echo(m)} must be 'oracle', 'ideal', 'delayed_<d>' or 'predictive_<d>' (<d> without leading zeros)",
                )
        ck.distinct(methods, "scenario.methods", "methods")
    for other in _KINDS:
        if other != kind and other in data:
            ck.fail(f"scenario.{other}", f"section not allowed for kind {_echo(kind)}")
    section = data.get(kind)
    if section is None:
        ck.fail(f"scenario.{kind}", "required section missing")
        raise ScenarioError(ck.errors)
    try:
        inputs = globals()[spec.build](ck, section, methods)
    except ValueError as exc:
        # A safety net: the checker reads the bounds the model constructors
        # hold, so a document it accepts builds, and if one ever does not,
        # the error is still reported against the section.
        ck.fail(f"scenario.{kind}", str(exc))
    if ck.errors:
        raise ScenarioError(ck.errors)
    return Scenario(sid, kind, tuple(seeds), tuple(methods), section, inputs)


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError([f"{path}: cannot read: {exc}"]) from exc
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"{path}:{exc.lineno}: invalid JSON: {exc.msg}"]) from exc
    except ValueError as exc:  # a repeated key, or an integer literal too long for int()
        raise ScenarioError([f"{path}: invalid JSON: {exc}"]) from exc
    try:
        return parse_scenario(data)
    except ScenarioError as exc:
        raise ScenarioError([f"{path}: {e}" for e in exc.errors]) from exc


def _radio(ck: _Checker, sec: dict, path: str, keys: Tuple[str, ...]) -> Tuple[dict, McsTable]:
    """A section's optional ``radio`` object: the ``RadioConfig`` fields
    ``keys`` its kind reads, and the default MCS table with its bandwidth and
    slot; an absent field takes its declared default."""
    path = f"{path}.radio"
    robj = ck.obj(sec["radio"], path, (), (*keys, "bandwidth_hz", "slot_s")) if "radio" in sec else {}
    robj = robj or {}  # not an object: already an error, and read as empty
    radio = {key: ck.declared(robj, path, RadioConfig, key) for key in keys}
    return radio, default_mcs_table(*(ck.declared(robj, path, McsTable, key) for key in ("bandwidth_hz", "slot_s")))


# --------------------------------------------------------------------------
# warehouse family


def build_warehouse(ck: _Checker, sec, methods) -> Optional[WarehouseInputs]:
    """Check a warehouse section field by field, then build its world, robots,
    tracks, gain map, MCS table, resolved configuration and ``LoopBudget``;
    refuse a goal out of reach within ``default_horizon`` of its start."""
    p = "scenario.warehouse"
    sec = ck.obj(
        sec, p, ("world", "robots", "gain", "budget", "payloads", "intent_text"), ("humans", "radio", "max_sim_time_s")
    )
    if sec is None:
        return None
    world = ck.obj(
        sec.get("world"), f"{p}.world",
        ("width", "height"), ("frame_period_s", "cell_traverse_s", "blocked", "blocked_rects"),
    ) or {}  # not an object: already an error, and read as empty
    width = ck.declared(world, f"{p}.world", GridWorld, "width")
    height = ck.declared(world, f"{p}.world", GridWorld, "height")
    # Checked before anything of world size is allocated.
    if width is not None and height is not None and width * height > _MAX_STEPS:
        ck.fail(f"{p}.world", f"{_echo(width)}x{_echo(height)} is more than {_MAX_STEPS} cells")
        width = height = None
    # A cell is checked against the world only when both sizes are valid.
    sized = width is not None and height is not None
    blocked: set = set()

    def placed(path: str, found, blockable: bool = False) -> bool:
        """Whether ``found``, a cell or a rect by its two corners, lies in a world
        of known size and, if ``blockable``, on no blocked cell; else one error
        at ``path``, but none for an unknown size or a None (refused) ``found``."""
        if found is None or not sized:
            return False
        if not all(0 <= x < width and 0 <= y < height for x, y in (found[:2], found[-2:])):
            shown = f"cell {_echo(found)}" if len(found) == 2 else _echo(list(found))
            ck.fail(path, f"{shown} outside {_echo(width)}x{_echo(height)} world")
            return False
        if blockable and found in blocked:
            ck.fail(path, f"cell {_echo(found)} is blocked")
            return False
        return True

    frame_period_s = ck.declared(world, f"{p}.world", GridWorld, "frame_period_s")
    cell_traverse_s = ck.declared(world, f"{p}.world", GridWorld, "cell_traverse_s")
    # A rect is placed before it is expanded into cells, so that a huge one
    # is refused first.
    for key, parse in (("blocked", ck.cell), ("blocked_rects", ck.rect)):
        for i, raw in enumerate(ck.items(world, f"{p}.world", key)):
            bp = f"{p}.world.{key}[{i}]"
            found = parse(raw, bp)
            if not placed(bp, found):
                continue
            if key == "blocked":
                blocked.add(found)
            else:
                x0, y0, x1, y1 = found
                blocked.update((x, y) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1))

    robots = sec.get("robots")
    seen_ids = set()
    ids = []
    starts = []
    goals = []
    if not isinstance(robots, list) or not robots:
        ck.fail(f"{p}.robots", "must be a nonempty list")
    else:
        for i, raw in enumerate(robots):
            rp = f"{p}.robots[{i}]"
            robj = ck.obj(raw, rp, ("id", "start", "goal"))
            if robj is None:
                continue
            rid = ck.num(robj, rp, "id", lo=0, integer=True)
            if rid is not None and rid >= 10**_MAX_ID_DIGITS:
                ck.fail(f"{rp}.id", f"{_echo(rid)} must have at most {_MAX_ID_DIGITS} digits")
            if rid in seen_ids:
                ck.fail(f"{rp}.id", f"duplicate robot id {_echo(rid)}")
            seen_ids.add(rid)
            ids.append(rid)
            for key, bucket in (("start", starts), ("goal", goals)):
                cell = ck.cell(robj.get(key), f"{rp}.{key}")
                if cell is not None:
                    bucket.append(cell)
                    placed(f"{rp}.{key}", cell, blockable=True)
        ck.distinct(starts, f"{p}.robots", "robot starts")
        ck.distinct(goals, f"{p}.robots", "robot goals")

    tracks = []
    for i, raw in enumerate(ck.items(sec, p, "humans")):
        hp = f"{p}.humans[{i}]"
        hobj = ck.obj(raw, hp, ("waypoints",), ("horizon_frames",))
        if hobj is None:
            continue
        horizon = ck.declared(hobj, hp, HumanTrack, "horizon_frames")
        wps = hobj.get("waypoints")
        if not isinstance(wps, list) or not wps:
            ck.fail(f"{hp}.waypoints", "must be a nonempty list of cells")
            continue
        cells = []
        for j, wraw in enumerate(wps):
            cell = ck.cell(wraw, f"{hp}.waypoints[{j}]")
            if cell is None:
                break
            placed(f"{hp}.waypoints[{j}]", cell, blockable=True)
            if cells and abs(cell[0] - cells[-1][0]) + abs(cell[1] - cells[-1][1]) > 1:
                ck.fail(f"{hp}.waypoints[{j}]", f"{_echo(cells[-1])} -> {_echo(cell)} is not a stand or 4-neighbor move")
            cells.append(cell)
        tracks.append((tuple(cells), horizon))

    gain = ck.obj(
        sec.get("gain"), f"{p}.gain",
        ("base_gain_db", "ap", "slope_db_per_cell"), ("dead_zones", "shadowing_rho", "shadowing_sigma_db"),
    )
    zones = []
    if gain is not None:
        base_gain = ck.num(gain, f"{p}.gain", "base_gain_db", lo=-_MAX_DB, hi=_MAX_DB)
        slope = ck.num(gain, f"{p}.gain", "slope_db_per_cell", lo=0.0, hi=_MAX_DB)
        rho = ck.declared(gain, f"{p}.gain", PathGainMap, "shadowing_rho")
        sigma = ck.declared(gain, f"{p}.gain", PathGainMap, "shadowing_sigma_db")
        ap = ck.cell(gain.get("ap"), f"{p}.gain.ap")
        placed(f"{p}.gain.ap", ap)
        for i, raw in enumerate(ck.items(gain, f"{p}.gain", "dead_zones")):
            zp = f"{p}.gain.dead_zones[{i}]"
            zobj = ck.obj(raw, zp, ("rect", "extra_loss_db"))
            if zobj is None:
                continue
            rect = ck.rect(zobj.get("rect"), f"{zp}.rect")
            placed(f"{zp}.rect", rect)
            zones.append((rect, ck.num(zobj, zp, "extra_loss_db", lo=0.0, hi=_MAX_DB)))

    radio, table = _radio(ck, sec, p, ("target_snr_db", "max_power_dbm", "max_retx", "noise_dbm"))

    keys = tuple(LoopBudget.__dataclass_fields__)
    budget = ck.obj(sec.get("budget"), f"{p}.budget", keys) or {}
    times = {key: ck.declared(budget, f"{p}.budget", LoopBudget, key) for key in keys}

    payloads = ck.obj(sec.get("payloads"), f"{p}.payloads", ("raw", "semantic_feature")) or {}
    payloads = {key: ck.num(payloads, f"{p}.payloads", key, **_PAYLOAD_BYTES) for key in ("raw", "semantic_feature")}

    if not isinstance(sec.get("intent_text"), str):
        ck.fail(f"{p}.intent_text", "must be a string")
    max_sim_time_s = ck.num(sec, p, "max_sim_time_s", 3600.0, lo=1.0)
    if ck.errors:
        return None
    frames, moves = max_sim_time_s / frame_period_s, frame_period_s / cell_traverse_s
    if frames > _MAX_STEPS:
        ck.fail(p, f"max_sim_time_s / world.frame_period_s is {frames:g} frames, more than {_MAX_STEPS}")
    if moves > _MAX_STEPS:
        ck.fail(f"{p}.world", f"frame_period_s / cell_traverse_s is {moves:g} cell moves, more than {_MAX_STEPS}")
    if ck.errors:
        return None

    grid = GridWorld(width, height, frozenset(blocked), frame_period_s, cell_traverse_s)
    # Exactly the robots stop-and-go's unconstrained search can route, and
    # no constrained replan does better; the distance fields stay cached.
    horizon = default_horizon(grid)
    for i, (start, goal) in enumerate(zip(starts, goals)):
        steps = grid.goal_field(grid.cell_id(goal))[grid.cell_id(start)]
        if steps is None or steps > horizon:
            why = f"cell {_echo(goal)} cannot be reached from start {_echo(start)} within {horizon} steps"
            ck.fail(f"{p}.robots[{i}].goal", why)
    if ck.errors:
        return None

    # Distance falloff from the access point, less each dead zone's loss.
    ys, xs = np.mgrid[0:height, 0:width]
    gains = base_gain - slope * np.hypot(xs - ap[0], ys - ap[1])
    for (x0, y0, x1, y1), loss in zones:
        gains[y0 : y1 + 1, x0 : x1 + 1] -= loss
    cfg = correct_loop(RuleIntentEngine(), sec["intent_text"], {"robot_ids": sorted(ids)}).config
    return WarehouseInputs(
        world=grid,
        robots=[RobotState(*robot) for robot in zip(ids, starts, goals)],
        tracks=[HumanTrack(*track) for track in tracks],
        gain_map=PathGainMap(gains, rho, sigma),
        table=table,
        cfg=dataclasses.replace(cfg, ra=dataclasses.replace(cfg.ra, **radio)),
        budget=LoopBudget(**times),
        payloads=payloads,
        max_sim_time_s=max_sim_time_s,
    )


def run_warehouse(scn: Scenario, method: str, seed: int) -> Dict[str, float]:
    return WarehouseSimulation(scn.inputs, method, seed).run()


# --------------------------------------------------------------------------
# mcs family


class McsInputs(NamedTuple):
    """What every run of an mcs scenario starts from: the corridor, its
    per-step cells, the radio and each method's policy."""

    gain_map: PathGainMap
    cells: List[Tuple[int, int]]
    cfg: RadioConfig
    table: McsTable
    bler_target: float
    payload_bytes: int
    policies: Dict[str, PolicySpec]


def build_mcs_corridor(ck: _Checker, sec, methods) -> Optional[McsInputs]:
    """Check an mcs section field by field, then build its corridor."""
    p = "scenario.mcs"
    sec = ck.obj(
        sec, p,
        ("steps", "corridor_cells", "gain_profile", "shadowing_rho", "shadowing_sigma_db", "payload_bytes"),
        ("bler_target", "radio"),
    )
    if sec is None:
        return None
    steps = ck.num(sec, p, "steps", lo=1, hi=_MAX_STEPS, integer=True)
    policies = {}
    for m in methods if isinstance(methods, list) else ():
        match = isinstance(m, str) and _MCS_METHOD_RE.fullmatch(m)
        if not match:  # already a scenario.methods error
            continue
        policies[m] = PolicySpec(kind=match.group(1) or m, delay=int(match.group(2) or 0))
        if steps is not None and policies[m].delay >= steps:
            ck.fail(f"{p}.steps", f"{_echo(steps)} must exceed the delay of method {_echo(m)}")
    n = ck.num(sec, p, "corridor_cells", lo=2, hi=_MAX_STEPS, integer=True)
    prof = ck.obj(sec.get("gain_profile"), f"{p}.gain_profile", ("base_db", "amplitude_db", "period_cells")) or {}
    base = ck.num(prof, f"{p}.gain_profile", "base_db", lo=-_MAX_DB, hi=_MAX_DB)
    amplitude = ck.num(prof, f"{p}.gain_profile", "amplitude_db", lo=0.0, hi=_MAX_DB)
    period = ck.num(prof, f"{p}.gain_profile", "period_cells", lo=1.0)
    rho = ck.declared(sec, p, PathGainMap, "shadowing_rho")
    sigma = ck.declared(sec, p, PathGainMap, "shadowing_sigma_db")
    payload_bytes = ck.num(sec, p, "payload_bytes", **_PAYLOAD_BYTES)
    target = ck.num(sec, p, "bler_target", 0.1, **_BLER_TARGET)
    radio, table = _radio(ck, sec, p, ("max_power_dbm", "max_retx", "noise_dbm"))
    if ck.errors:
        return None

    row = base + amplitude * np.sin(2 * math.pi * np.arange(n) / period)
    forward = list(range(n)) + list(range(n - 2, 0, -1))
    return McsInputs(
        gain_map=PathGainMap(gains=row[np.newaxis, :], shadowing_rho=rho, shadowing_sigma_db=sigma),
        cells=[(forward[t % len(forward)], 0) for t in range(steps)],
        cfg=RadioConfig(**radio),
        table=table,
        bler_target=target,
        payload_bytes=payload_bytes,
        policies=policies,
    )


def prepare_mcs(c: McsInputs, seed: int) -> LinkTable:
    """The seed's link table, read by every policy."""
    true_snr, map_snr = sample_trace(c.gain_map, c.cells, c.cfg, seed)
    return LinkTable(true_snr, c.table, c.bler_target, map_snr)


def run_mcs(scn: Scenario, method: str, seed: int) -> Dict[str, float]:
    link = _seed_table(scn, seed)
    series = run_policy(
        link,
        scn.inputs.policies[method],
        scn.inputs.payload_bytes,
        seed=seed,
        max_retx=scn.inputs.cfg.max_retx,
    )
    return {
        "throughput_mean_bps": series.mean_throughput_bps,
        "latency_mean_s": series.mean_latency_s,
        "success_rate": float(np.mean(series.success)),
        "bler_mass_le_target": series.bler_mass_at_or_below(link.bler_target),
    }


# --------------------------------------------------------------------------
# followme family


class FollowmeInputs(NamedTuple):
    """What every run of a followme scenario starts from. Each curve is the
    ``(x, y)`` arrays ``np.interp`` reads; ``y`` is ``log10`` of the curve for
    the two interpolated on a log scale."""

    total_steps: int
    noise: Tuple[float, float]  # AR(1) rho and sigma_db of the RSSI noise
    distance: Tuple[np.ndarray, np.ndarray]
    rssi: Tuple[np.ndarray, np.ndarray]
    log_throughput: Tuple[np.ndarray, np.ndarray]
    log_bit_error: Tuple[np.ndarray, np.ndarray]
    codec_s: Dict[str, Tuple[float, float]]
    payload_bytes: Dict[str, int]
    perception: Dict[str, Dict[str, float]]
    cta_useful_s: float
    loss_threshold_steps: int
    max_attempts: int
    slot_s: float


def _curve(pts: List[Tuple[float, float]], log: bool = False) -> Tuple[np.ndarray, np.ndarray]:
    return np.array([x for x, _ in pts]), np.array([math.log10(y) if log else y for _, y in pts])


def build_followme(ck: _Checker, sec, methods) -> Optional[FollowmeInputs]:
    """Check a followme section field by field, then parse its curves."""
    p = "scenario.followme"
    sec = ck.obj(
        sec, p,
        ("total_steps", "distance_profile", "rssi_curve", "noise",
         "throughput_curve", "bit_error_curve", "codec_s", "payload_bytes", "perception",
         "cta_useful_s", "loss_threshold_steps"),
        ("max_attempts", "slot_s"),
    )
    if sec is None:
        return None
    total = ck.num(sec, p, "total_steps", lo=1, hi=_MAX_STEPS, integer=True)
    distance = ck.curve(sec, p, "distance_profile")
    rssi = ck.curve(sec, p, "rssi_curve")
    noise = ck.obj(sec.get("noise"), f"{p}.noise", ("rho", "sigma_db")) or {}
    noise = (
        ck.declared(noise, f"{p}.noise", PathGainMap, "shadowing_rho", "rho"),
        ck.declared(noise, f"{p}.noise", PathGainMap, "shadowing_sigma_db", "sigma_db"),
    )
    thr = ck.curve(sec, p, "throughput_curve")
    for i, (_, y) in enumerate(thr or ()):
        if y < _MIN_THROUGHPUT_BPS:
            ck.fail(f"{p}.throughput_curve[{i}]", f"throughput {_echo(y)} must be >= {_MIN_THROUGHPUT_BPS} b/s")
    ber = ck.curve(sec, p, "bit_error_curve")
    if ber is not None and any(not (0.0 < y < 1.0) for _, y in ber):
        ck.fail(f"{p}.bit_error_curve", "bit error probabilities must be in (0, 1)")
    codec = ck.obj(sec.get("codec_s"), f"{p}.codec_s", ("jpeg", "vq"))
    if codec is not None:
        for key in ("jpeg", "vq"):
            pair = codec.get(key)
            if not (
                isinstance(pair, (list, tuple))
                and len(pair) == 2
                and all(_is_number(c) and 0 <= c <= _MAX_DELAY_S for c in pair)
            ):
                ck.fail(f"{p}.codec_s.{key}",
                        f"{_echo(pair)} must be [encode_s, decode_s], each in [0, {_MAX_DELAY_S}]")
    modes = SENSE_MODES
    payloads = ck.obj(sec.get("payload_bytes"), f"{p}.payload_bytes", modes) or {}
    payloads = {key: ck.num(payloads, f"{p}.payload_bytes", key, **_PAYLOAD_BYTES) for key in modes}
    perc = ck.obj(
        sec.get("perception"), f"{p}.perception", ("lose_prob", "far_lose_prob", "far_distance_m", "reacquire_prob")
    )
    perception = {}
    if perc is not None:
        for key, must_prob in (
            ("lose_prob", True), ("far_lose_prob", True),
            ("far_distance_m", False), ("reacquire_prob", True),
        ):
            table = ck.obj(perc.get(key), f"{p}.perception.{key}", modes)
            if table is None:
                continue
            perception[key] = {}
            for mode in modes:
                v = perception[key][mode] = ck.num(table, f"{p}.perception.{key}", mode, lo=0.0)
                if must_prob and v is not None and v > 1.0:
                    ck.fail(f"{p}.perception.{key}.{mode}", f"{_echo(v)} must be in [0, 1]")
    cta_useful_s = ck.num(sec, p, "cta_useful_s", lo=0.0)
    loss_threshold_steps = ck.num(sec, p, "loss_threshold_steps", lo=0, integer=True)
    max_attempts = ck.num(sec, p, "max_attempts", 4, lo=1, hi=_MAX_RETRIES, integer=True)
    slot_s = ck.num(sec, p, "slot_s", 0.001, lo=0.0, hi=_MAX_DELAY_S)
    if ck.errors:
        return None
    return FollowmeInputs(
        total, noise, _curve(distance), _curve(rssi), _curve(thr, log=True), _curve(ber, log=True),
        {key: tuple(pair) for key, pair in codec.items()}, payloads, perception,
        cta_useful_s, loss_threshold_steps, max_attempts, slot_s,
    )


class FollowmeFrames(NamedTuple):
    """Per-frame values of one followme seed, the same for every method:
    the user distance, the RSSI (curve plus AR(1) noise), the link
    throughput at that RSSI, and ``log1p(-p_bit)`` of the per-bit error
    probability ``p_bit`` at that RSSI, the exponent a frame's loss
    probability is computed from."""

    distance: List[float]
    rssi: List[float]
    throughput: List[float]
    log_bit_ok: List[float]
    # The random() draws of the generator seeded [seed, 23], one per frame:
    # a run consumes at most one per frame, in order.
    perception_draws: List[float]


def prepare_followme(fm: FollowmeInputs, seed: int) -> FollowmeFrames:
    """The seed's frames. The curves are read with array ``np.interp``,
    which equals one scalar call per frame; ``10.0 ** x`` is taken on Python
    floats, because numpy's power may differ in the last bit."""
    noise = ar1_series(np.random.default_rng([seed, 21]), fm.total_steps, *fm.noise)
    distance = np.interp(np.arange(fm.total_steps), *fm.distance)
    rssi = np.interp(distance, *fm.rssi) + noise
    return FollowmeFrames(
        distance.tolist(),
        rssi.tolist(),
        [10.0 ** x for x in np.interp(rssi, *fm.log_throughput).tolist()],
        [math.log1p(-(10.0 ** x)) for x in np.interp(rssi, *fm.log_bit_error).tolist()],
        np.random.default_rng([seed, 23]).random(fm.total_steps).tolist(),
    )


def run_followme(scn: Scenario, method: str, seed: int) -> Dict[str, float]:
    """Replay the corridor trace under one sensing policy.

    Per frame: the user distance sets the mean RSSI (plus AR(1) noise), the
    RSSI sets link throughput and per-bit loss, and the method picks the
    sensing mode: a fixed mode every frame, ``orchestrated`` the rung
    ``select_sense_mode`` gives at the frame's RSSI. Every attempt draws from
    the run's one ``HarqStream``: reliable modes make up to ``max_attempts``
    attempts at a frame, best-effort modes one. A frame counts as a
    tracking arrival when it was delivered, its command-to-action latency is
    within ``cta_useful_s``, and the perception tracker holds (or regains)
    lock on it.

    The frames are replayed in maximal stretches of one mode, each reading
    its mode's constants once and running the HARQ stream once. The
    stream's draw position, the lock and the perception draws carry across
    stretches, so the records are those of one pass per frame.
    """
    fm = scn.inputs
    frames = _seed_table(scn, seed)
    fixed = SENSE_MODES.get(method)
    picks = [fixed] * fm.total_steps if fixed is not None else [select_sense_mode(rssi) for rssi in frames.rssi]
    harq = HarqStream(draw_blocks(np.random.default_rng([seed, 22])))
    draws = iter(frames.perception_draws)
    perc = fm.perception
    useful_s, slot_s = fm.cta_useful_s, fm.slot_s
    locked = True
    arrivals: List[int] = []
    cta_samples: List[float] = []
    start = 0
    # The rungs are grouped by identity, as each is one frozen object:
    # hashing one per frame would cost more than the ladder itself.
    for _, group in itertools.groupby(picks, key=id):
        group = list(group)
        cfg, stop = group[0], start + len(group)
        mode = _FOLLOWME_MODE_NAMES[cfg]
        bits = fm.payload_bytes[mode] * 8
        enc, dec = fm.codec_s[cfg.mode]
        far_m, far_p, near_p, reacquire = (
            perc[key][mode] for key in ("far_distance_m", "far_lose_prob", "lose_prob", "reacquire_prob")
        )
        attempts, delivered = harq.run(
            [-math.expm1(bits * log_ok) for log_ok in frames.log_bit_ok[start:stop]],
            fm.max_attempts - 1 if cfg.qos == "reliable" else 0,
        )
        for t, ok, a, throughput, distance in zip(
            range(start, stop), delivered, attempts, frames.throughput[start:stop], frames.distance[start:stop]
        ):
            useful = False
            if ok:
                cta = enc + a * (bits / throughput + slot_s) + dec
                cta_samples.append(cta)
                useful = cta <= useful_s
            if locked:
                if next(draws) < (far_p if distance > far_m else near_p):
                    locked = False
            elif useful:
                if next(draws) < reacquire:
                    locked = True
            if useful and locked:
                arrivals.append(t)
        start = stop

    metrics: Dict[str, float] = {
        "utfr_pct": utfr(arrivals, fm.total_steps, fm.loss_threshold_steps),
        "delivered_frames": float(len(cta_samples)),
        "arrival_frames": float(len(arrivals)),
    }
    if cta_samples:
        mean, p95 = tail_stats(cta_samples)
        metrics["cta_mean_s"] = mean
        metrics["cta_p95_s"] = p95
    return metrics


# --------------------------------------------------------------------------


def run_one(scn: Scenario, method: str, seed: int) -> dict:
    if method not in scn.methods:
        raise ScenarioError(
            [f"methods: {_echo(method)} not offered by scenario {_echo(scn.id)}"]
        )
    metrics = globals()[_KINDS[scn.kind].run](scn, method, seed)
    return {"scenario_id": scn.id, "kind": scn.kind, "method": method, "seed": seed, "metrics": metrics}


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario shipped with the package (name without .json)."""
    here = Path(__file__).parent / "scenarios"
    path = here / f"{name}.json"
    if not path.exists():
        available = sorted(p.stem for p in here.glob("*.json"))
        raise FileNotFoundError(f"no bundled scenario {name!r}; available: {available}")
    return path
