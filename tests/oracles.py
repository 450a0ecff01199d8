"""Independent reference implementations used to cross-check the planner
and the link-adaptation kernel.

The joint-makespan oracle answers: for two robots on a small grid with
static humans, what is the best makespan achievable when one robot is
given the right of way?  For each ordering it enumerates every
shortest-length route of the leading robot, computes the trailing
robot's best response against each by breadth-first search over
space-time, and keeps the minimum.  The overall optimum is the better of
the two orderings.  This is deliberately brute force and shares no code
with the production planner.

The planner's references work on ``(x, y)`` cells, as the planner did
before cells became ids, and share no table or search with it:
``reference_moves`` and ``reference_goal_distances`` are the world's move
table and goal distance fields as cell-keyed dicts,
``reference_human_reservations`` and :class:`ReferenceTable` the human and
per-robot reservation tables keyed by cells, ``reference_widen_conflict``
the conflict window, ``reference_layers`` and
``reference_bounded_joint_search`` the lead's layers and the bounded joint
search over pairs of cells, and ``reference_plan`` picks the plan reference
that ``plan``'s rules pick. ``node_ids`` turns a cell-keyed table into the
set of node ids ``step * ncell + cell id`` the planner reads.

``reference_makespan_plan`` is the two-robot makespan refinement as it was
before its joint search was bounded: ``reference_joint_best_response`` is
the unpruned breadth-first search, kept to check that the bound changes no
plan and no error.

``reference_refinement_plan`` is the bounded two-robot refinement as it
was before an ordering whose bound lies below the larger solo arrival step
was skipped: every ordering whose lead has a solo route is searched.

``reference_plan_next`` is the warehouse replan as it was before the plan
and route memos and the clamped frame: every replan builds its world and
human table afresh at its own frame (``reference_human_table``) and calls
``plan``.

``reference_low_level_search`` is the space-time A* as it was before ties
on f went to the deeper node: first in, first out among equal f-values. It
is kept to check that the tie-break changes no route and no error.

``reference_prioritized_plan`` is ``plan``'s prioritized loop as it was
before solo routes were shared across orderings: every ordering searches
every robot's solo route again, and one robot is planned by a single
search. It is kept to check that sharing changes no plan and no error. It
takes ``plan``'s one ordering rule: up to 4 robots are permuted under both
objectives, and safety-first keeps the first ordering that plans.

``MapAwarePredictor`` and ``reference_predict`` are the map-aware SNR
predictor as it was before its residual statistics were shared across
delays: each delay replays every residual through its own predictor.
``reference_residual_stats`` is the shared statistics as the scalar
running-sum loop they were before they became array code.
``reference_run_followme`` is the followme runner as it was before the
per-frame values were computed once per seed: every method recomputes each
frame's distance, RSSI, throughput and bit error with scalar ``np.interp``,
and takes each HARQ attempt's and perception event's draw with its own
scalar ``rng.random()`` call.

``reference_warehouse_metrics`` is a warehouse run's metrics as the record
type ``WarehouseSimulation.run`` returned before it returned the metrics
dict built them.

``reference_run_summary`` is ``metrics.run_summary`` as it was before rows
with the same number of values were summarized together: one
``np.percentile`` and one ``np.median`` call per (method, metric).
``reference_utfr`` is ``metrics.utfr`` as it was before its gaps were
summed in one pass: the arrivals are walked once to range-check them, once
to list the gaps and once to sum what each gap loses.

``reference_favored_robot`` is the intent rule's priority robot as it was
before the last mention before each keyword was found by bisection: every
keyword lists all earlier mentions again, so its time is quadratic in the
text.

``validate_path`` is the check a planned path must pass: every cell
passable and every step a move to a neighbouring cell or a wait.

The link layer's references are its scalar forms before the warehouse and
the corridor shared one model: ``reference_bler`` is the one-SNR BLER
formula as it was before ``radio.bler_curve`` filled a whole column, with
its ``min``/``max`` clamp; ``reference_select_mcs`` scans the entries'
BLERs from the top, ``reference_harq`` and ``reference_transmission`` draw
one scalar ``rng.random()`` per HARQ attempt, ``reference_sample_trace`` walks the
route one link snapshot at a time, and ``reference_run_policy`` is the
per-step policy loop over them. ``reference_cutoff`` is an entry's SNR
cut-off as it was before its bisection started from a bracket around the
curve's crossing: a bisection over every float. ``ReferenceHarqStream``
is ``radio.HarqStream`` as it was before its first attempts were compared
in C: it owns its generator, keeps one block of draws and a position in
it, and walks every attempt of every step in Python.

``reference_human_cells`` is stop-and-go's human test as it was before the
human cells were kept once per frame: every try scans each track's
position and forecast.
"""

import dataclasses
import functools
import heapq
import itertools
import math
import re
from collections import deque
from typing import Dict, List

import numpy as np

from r2xsim.linkadapt import _MAP_AWARE_MIN_SAMPLES, PolicyTimeSeries
from r2xsim.metrics import tail_stats
from r2xsim.orchestrator import _IMPORTANCE_WORDS, _ROBOT_MENTION_RE, SENSE_MODES, select_sense_mode
from r2xsim.planner import (
    _MAX_RESOLUTION_ROUNDS,
    PlanningError,
    PlanningInfeasible,
    SpaceTimePath,
    default_horizon,
    detect_first_conflict,
    makespan,
    plan,
)
from r2xsim.radio import (
    _DRAW_BLOCK, _FIRST_DRAW_BLOCK, TransmissionResult, _float_key, _key_float, ar1_series, bler, serialization_time_s,
)
from r2xsim.world import RobotState, human_forecast


def bfs_dist_field(world, goal, banned):
    """Distance-to-goal for every reachable cell, treating `banned` cells
    as walls. Returns a dict; missing keys are unreachable."""
    if goal in banned:
        return {}
    dist = {goal: 0}
    q = deque([goal])
    while q:
        cell = q.popleft()
        x, y = cell
        for nxt in ((x, y + 1), (x + 1, y), (x, y - 1), (x - 1, y)):
            if not world.passable(nxt):
                continue
            if nxt in banned or nxt in dist:
                continue
            dist[nxt] = dist[cell] + 1
            q.append(nxt)
    return dist


def enumerate_shortest_routes(world, start, goal, banned, cap=20000):
    """All minimum-length routes start->goal avoiding `banned`, as tuples
    of cells (length = distance + 1). Empty list if unreachable."""
    dist = bfs_dist_field(world, goal, banned)
    if start not in dist:
        return []
    routes = []
    stack = [(start,)]
    while stack:
        prefix = stack.pop()
        cell = prefix[-1]
        if cell == goal:
            routes.append(prefix)
            if len(routes) > cap:
                raise RuntimeError("route enumeration blew the cap")
            continue
        x, y = cell
        want = dist[cell] - 1
        for nxt in ((x, y + 1), (x + 1, y), (x, y - 1), (x - 1, y)):
            if dist.get(nxt) == want:
                stack.append(prefix + (nxt,))
    return routes


def _best_response(world, start, goal, banned, lead_route, horizon):
    """Earliest arrival step for the trailing robot against a fixed lead
    trajectory, or None. The lead parks on its goal after finishing; the
    trailer parks on its own goal after arriving."""
    t1 = len(lead_route) - 1

    def lead_pos(step):
        return lead_route[min(step, t1)]

    def goal_clear_from(step):
        return all(lead_pos(s) != goal for s in range(step, t1 + 1))

    if start == goal and goal_clear_from(0):
        return 0
    seen = {(start, 0)}
    q = deque([(start, 0)])
    while q:
        cell, t = q.popleft()
        if t >= horizon:
            continue
        x, y = cell
        for nxt in ((x, y + 1), (x + 1, y), (x, y - 1), (x - 1, y), (x, y)):
            if not world.passable(nxt):
                continue
            if nxt in banned:
                continue
            if nxt == lead_pos(t + 1):
                continue
            if nxt == lead_pos(t) and lead_pos(t + 1) == cell:
                continue
            if nxt == goal and goal_clear_from(t + 1):
                return t + 1
            if (nxt, t + 1) not in seen:
                seen.add((nxt, t + 1))
                q.append((nxt, t + 1))
    return None


def joint_makespan_oracle(world, starts, goals, humans, horizon=40):
    """Best makespan over the two priority orderings for a 2-robot
    instance with static humans, or None if neither ordering works."""
    assert len(starts) == 2 and len(goals) == 2
    banned = set(humans)
    best = None
    for lead, trail in ((0, 1), (1, 0)):
        routes = enumerate_shortest_routes(world, starts[lead], goals[lead], banned)
        for route in routes:
            t1 = len(route) - 1
            t2 = _best_response(
                world, starts[trail], goals[trail], banned, route, horizon
            )
            if t2 is None:
                continue
            makespan = max(t1, t2)
            if best is None or makespan < best:
                best = makespan
    return best


def forecast_reservations(world, forecasts, objective):
    """Cell -> steps that human forecasts bar every robot from, one forecast
    at a time: the forecast cell at its step, or under safety_first the cell
    over step - 1 .. step + 1 (from 0) and each passable 4-neighbour at the
    step."""
    barred = {}
    for (x, y), step in forecasts:
        if objective == "safety_first":
            barred.setdefault((x, y), set()).update(range(max(0, step - 1), step + 2))
            for nxt in ((x, y + 1), (x + 1, y), (x, y - 1), (x - 1, y)):
                if world.passable(nxt):
                    barred.setdefault(nxt, set()).add(step)
        else:
            barred.setdefault((x, y), set()).add(step)
    return barred


def random_planner_instance(rng, width=5, height=5, max_humans=2):
    """Starts/goals for two robots plus 0..max_humans static human cells,
    all distinct, humans never on a start or goal."""
    cells = [(x, y) for x in range(width) for y in range(height)]
    n_humans = int(rng.integers(0, max_humans + 1))
    picks = rng.choice(len(cells), size=4 + n_humans, replace=False)
    chosen = [cells[i] for i in picks]
    starts = [chosen[0], chosen[1]]
    goals = [chosen[2], chosen[3]]
    humans = chosen[4:]
    return starts, goals, humans


class MapAwarePredictor:
    """Predicts SNR as map gain at the target cell plus a decayed shadowing
    residual, backed off by the residual's conditional spread.

    The residual process statistics (lag-1 correlation and spread) are
    estimated online from the residuals observed so far, so the predictor
    only ever uses information available at feedback time.
    """

    def __init__(self):
        self._n = 0
        self._s1 = 0.0
        self._s2 = 0.0
        self._sx = 0.0
        self._last = 0.0

    def observe(self, residual: float) -> None:
        if self._n >= 1:
            self._sx += residual * self._last
        self._n += 1
        self._s1 += residual
        self._s2 += residual * residual
        self._last = residual

    def predict(self, map_snr_target: float, delay: int) -> float:
        if self._n == 0:
            return map_snr_target
        if self._n < _MAP_AWARE_MIN_SAMPLES:
            return map_snr_target + self._last
        rho = min(max(self._sx / self._s2, 0.0), 0.9999) if self._s2 > 0 else 0.0
        var = self._s2 / self._n - (self._s1 / self._n) ** 2
        sigma = math.sqrt(max(var, 0.0))
        decay = rho**delay
        spread = sigma * math.sqrt(max(1.0 - decay * decay, 0.0))
        return map_snr_target + decay * self._last - spread


def reference_residual_stats(link):
    """``LinkTable._residual_stats`` as the scalar running-sum loop it was
    before it became array code: the last residual, ``rho`` and ``sigma``
    after each number of observed residuals, as three lists."""
    last, rhos, sigmas = [], [], []
    n = 0
    s1 = s2 = sx = prev = 0.0
    for true, mapped in zip(link.true_snr, link.map_snr):
        r = true - mapped
        if n >= 1:
            sx += r * prev
        n += 1
        s1 += r
        s2 += r * r
        prev = r
        last.append(r)
        rhos.append(min(max(sx / s2, 0.0), 0.9999) if s2 > 0 else 0.0)
        sigmas.append(math.sqrt(max(s2 / n - (s1 / n) ** 2, 0.0)))
    return last, rhos, sigmas


def reference_predict(link, delay):
    """``LinkTable.predict`` as one ``MapAwarePredictor`` per delay: step
    ``t`` has observed the residuals up to ``t - delay``."""
    model = MapAwarePredictor()
    estimates = link.map_snr[:delay]
    for t in range(delay, len(link)):
        model.observe(link.true_snr[t - delay] - link.map_snr[t - delay])
        estimates.append(model.predict(link.map_snr[t], delay))
    return estimates


def _mode_name(cfg) -> str:
    if cfg.mode == "jpeg":
        return f"jpeg_q{cfg.jpeg_quality}"
    return f"vq_{cfg.vit_grid[0]}x{cfg.vit_grid[1]}"


def reference_run_followme(scn, method: str, seed: int) -> Dict[str, float]:
    """``scenarios.run_followme`` with every frame's values computed in the
    run, from scalar ``np.interp`` calls."""
    fm = scn.inputs
    total = fm.total_steps
    noise = ar1_series(np.random.default_rng([seed, 21]), total, *fm.noise)
    rng_loss = np.random.default_rng([seed, 22])
    rng_perc = np.random.default_rng([seed, 23])

    perc = fm.perception
    fixed_cfg = SENSE_MODES.get(method)
    locked = True
    arrivals: List[int] = []
    cta_samples: List[float] = []
    delivered_count = 0
    for t in range(total):
        distance = float(np.interp(t, *fm.distance))
        rssi = float(np.interp(distance, *fm.rssi)) + noise[t]
        cfg = fixed_cfg if fixed_cfg is not None else select_sense_mode(rssi)
        mode = _mode_name(cfg)
        bits = fm.payload_bytes[mode] * 8
        throughput = 10.0 ** float(np.interp(rssi, *fm.log_throughput))
        p_bit = 10.0 ** float(np.interp(rssi, *fm.log_bit_error))
        p_loss = -math.expm1(bits * math.log1p(-p_bit))
        attempts_allowed = fm.max_attempts if cfg.qos == "reliable" else 1
        attempts = 0
        delivered = False
        for _ in range(attempts_allowed):
            attempts += 1
            if rng_loss.random() >= p_loss:
                delivered = True
                break
        useful = False
        if delivered:
            delivered_count += 1
            enc, dec = fm.codec_s[cfg.mode]
            cta = enc + attempts * (bits / throughput + fm.slot_s) + dec
            cta_samples.append(cta)
            useful = cta <= fm.cta_useful_s
        if locked:
            far = distance > perc["far_distance_m"][mode]
            lose_p = perc["far_lose_prob"][mode] if far else perc["lose_prob"][mode]
            if rng_perc.random() < lose_p:
                locked = False
        elif delivered and useful:
            if rng_perc.random() < perc["reacquire_prob"][mode]:
                locked = True
        if delivered and useful and locked:
            arrivals.append(t)

    metrics: Dict[str, float] = {
        "utfr_pct": reference_utfr(arrivals, total, fm.loss_threshold_steps),
        "delivered_frames": float(delivered_count),
        "arrival_frames": float(len(arrivals)),
    }
    if cta_samples:
        mean, p95 = tail_stats(cta_samples)
        metrics["cta_mean_s"] = mean
        metrics["cta_p95_s"] = p95
    return metrics


def reference_warehouse_metrics(sim) -> Dict[str, float]:
    """The metrics of a finished ``WarehouseSimulation`` as the record type
    that ``run`` used to return built them: completion time, stop events,
    halt seconds and a copy of the RTT samples, read off ``sim.robots`` and
    ``sim.rtt_samples``, each then converted with ``float()``, and the RTT
    mean and 95th percentile only when there are samples."""
    robots = sim.robots.values()
    completion_time_s = max((len(rt.executed) - 1) * sim.world.cell_traverse_s + rt.halt_s for rt in robots)
    stop_events = sum(rt.stop_events for rt in robots)
    halt_s = sum(rt.halt_s for rt in robots)
    rtt_samples_s = list(sim.rtt_samples)
    out = {"completion_time_s": float(completion_time_s), "stop_events": float(stop_events), "halt_s": float(halt_s)}
    if rtt_samples_s:
        mean, p95 = tail_stats(rtt_samples_s)
        out["rtt_mean_s"] = mean
        out["rtt_p95_s"] = p95
    return out


def reference_run_summary(records) -> List[Dict]:
    """Median and interquartile range per (scenario, method, metric), one
    row at a time."""
    grouped: Dict[tuple, Dict[str, List[float]]] = {}
    for rec in records:
        key = (rec["scenario_id"], rec["method"])
        bucket = grouped.setdefault(key, {})
        for name, value in rec["metrics"].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                bucket.setdefault(name, []).append(float(value))
    rows = []
    for (scenario_id, method) in sorted(grouped):
        for metric in sorted(grouped[(scenario_id, method)]):
            vals = np.asarray(grouped[(scenario_id, method)][metric], dtype=float)
            q25, q75 = np.percentile(vals, [25, 75])
            rows.append(
                {
                    "scenario_id": scenario_id,
                    "method": method,
                    "metric": metric,
                    "median": float(np.median(vals)),
                    "iqr": float(q75 - q25),
                    "n": int(vals.size),
                }
            )
    return rows


def reference_utfr(frame_arrival_steps, total_steps, loss_threshold_steps) -> float:
    """User-tracking failure rate in percent, from the list of every gap."""
    if total_steps <= 0:
        raise ValueError("total_steps must be positive")
    if loss_threshold_steps < 0:
        raise ValueError("loss_threshold_steps must be nonnegative")
    arrivals = sorted(int(s) for s in frame_arrival_steps)
    for s in arrivals:
        if s < 0 or s > total_steps:
            raise ValueError(f"arrival step {s} outside [0, {total_steps}]")
    if not arrivals:
        gaps = [total_steps]
    else:
        gaps = [arrivals[0]]
        gaps.extend(b - a for a, b in zip(arrivals, arrivals[1:]))
        gaps.append(total_steps - arrivals[-1])
    lost = sum(max(0, g - loss_threshold_steps) for g in gaps)
    return 100.0 * lost / total_steps


def reference_favored_robot(text, robot_ids):
    """``orchestrator._favored_robot`` with a scan of all earlier mentions
    for every importance keyword."""
    mentions = [(m.start(), int(m.group(1))) for m in _ROBOT_MENTION_RE.finditer(text)]
    mentions = [(pos, rid) for pos, rid in mentions if rid in robot_ids]
    if not mentions:
        return None
    votes = {}
    for word in _IMPORTANCE_WORDS:
        for m in re.finditer(word, text):
            before = [(pos, rid) for pos, rid in mentions if pos < m.start()]
            if before:
                votes[before[-1][1]] = votes.get(before[-1][1], 0) + 1
    if not votes:
        return None
    best = max(votes.values())
    return min(rid for rid, v in votes.items() if v == best)


def validate_path(path, world) -> None:
    """Raise ValueError unless every cell of ``path`` is passable in
    ``world`` and each step moves at most one cell."""
    for c in path.cells:
        if not world.passable(c):
            raise ValueError(f"path of robot {path.robot_id} uses blocked cell {c}")
    for a, b in zip(path.cells, path.cells[1:]):
        if abs(a[0] - b[0]) + abs(a[1] - b[1]) > 1:
            raise ValueError(f"path of robot {path.robot_id} jumps {a} -> {b}")


def reference_bler(entry, snr_db):
    """Logistic block-error probability, 0.5 exactly at the threshold, one
    SNR at a time."""
    if math.isinf(entry.slope_per_db):
        if snr_db > entry.snr_threshold_db:
            return 0.0
        if snr_db < entry.snr_threshold_db:
            return 1.0
        return 0.5
    x = entry.slope_per_db * (snr_db - entry.snr_threshold_db)
    x = min(700.0, max(-700.0, x))
    return 1.0 / (1.0 + math.exp(x))


def reference_select_mcs(table, snr_db, bler_target=0.1):
    """Index of the highest-rate entry whose BLER at ``snr_db`` meets the
    target, by scanning every entry's BLER from the top; 0 when none does."""
    if not 0.0 < bler_target < 1.0:
        raise ValueError("bler_target must be in (0, 1)")
    for entry in reversed(table.entries):
        if reference_bler(entry, snr_db) <= bler_target:
            return entry.index
    return 0


def reference_cutoff(entry, target):
    """Bisection over every float for the least ``x`` with
    ``bler(entry, x) <= target``; NaN when there is none."""
    if bler(entry, -math.inf) <= target:
        return -math.inf
    if not bler(entry, math.inf) <= target:
        return math.nan
    lo, hi = _float_key(-math.inf), _float_key(math.inf)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bler(entry, _key_float(mid)) <= target:
            hi = mid
        else:
            lo = mid
    return _key_float(hi)


def reference_harq(rng, p_fail, max_retx):
    """Attempts and success per step, one scalar ``rng.random()`` per
    attempt: an attempt fails when its draw is below the step's ``p_fail``,
    and a step stops at its first success or after ``max_retx + 1``
    attempts."""
    attempts, success = [], []
    for p in p_fail:
        a, ok = 0, False
        while a <= max_retx and not ok:
            a += 1
            ok = rng.random() >= p
        attempts.append(a)
        success.append(ok)
    return attempts, success


class ReferenceHarqStream:
    """HARQ attempts drawn from one generator in blocks of
    ``_FIRST_DRAW_BLOCK`` doubling to ``_DRAW_BLOCK``, a block drawn when the
    last one is read to the end and an attempt needs a draw."""

    def __init__(self, rng):
        self._rng = rng
        self._draws = []
        self._pos = 0
        self._block = _FIRST_DRAW_BLOCK

    def run(self, p_fail, max_retx):
        attempts = [0] * len(p_fail)
        success = [False] * len(p_fail)
        draws, pos = self._draws, self._pos
        end, limit = len(draws), max_retx + 1
        for t, p in enumerate(p_fail):
            a = 0
            while a < limit:
                if pos == end:
                    draws = self._rng.random(self._block).tolist()
                    self._block = min(2 * self._block, _DRAW_BLOCK)
                    pos, end = 0, len(draws)
                a += 1
                pos += 1
                if draws[pos - 1] >= p:
                    success[t] = True
                    break
            attempts[t] = a
        self._draws, self._pos = draws, pos
        return attempts, success


def reference_transmission(payload_bytes, entry, snr_db, bandwidth_hz, slot_s, rng, max_retx=4):
    """One HARQ transmission at ``snr_db`` by ``reference_harq``."""
    (attempts,), (success,) = reference_harq(rng, [reference_bler(entry, snr_db)], max_retx)
    per_attempt = serialization_time_s(payload_bytes, entry, bandwidth_hz) + slot_s
    return TransmissionResult(attempts * per_attempt, success, attempts)


def reference_sample_trace(gain_map, cells, cfg, seed):
    """``radio.sample_trace`` as a walk over link snapshots: per step, the
    cell's gain plus shadowing, then the SNR of that gain at full power, and
    the map SNR from the cell's gain looked up again."""
    shadow = ar1_series(
        np.random.default_rng(seed), len(cells), gain_map.shadowing_rho, gain_map.shadowing_sigma_db
    ).tolist()
    true_snr, map_snr = [], []
    for cell, s in zip(cells, shadow):
        gain_db = gain_map.gain_at(cell) + s
        true_snr.append(cfg.max_power_dbm + gain_db - cfg.noise_dbm)
        map_snr.append(cfg.max_power_dbm + gain_map.gain_at(cell) - cfg.noise_dbm)
    return true_snr, map_snr


def reference_run_policy(
    true_snr, spec, table, payload_bytes_per_step, bler_target=0.1, *,
    seed=0, map_snr=None, max_retx=4,
):
    """Walk the per-step SNRs one step at a time: ``reference_select_mcs`` on
    the policy's estimate, then ``reference_transmission`` at the true SNR,
    all attempts drawing scalars from one ``default_rng(seed)``. This is the
    per-step loop ``linkadapt.run_policy`` replaced with per-seed tables."""
    n = len(true_snr)
    if spec.kind == "predictive":
        model = MapAwarePredictor()
        observed_up_to = -1

    rng = np.random.default_rng(seed)
    mcs = np.zeros(n, dtype=int)
    tput = np.zeros(n)
    lat = np.zeros(n)
    blr = np.zeros(n)
    succ = np.zeros(n, dtype=bool)

    for t in range(n):
        if spec.kind in ("oracle", "ideal"):
            estimate = true_snr[t]
        elif spec.kind == "delayed":
            estimate = true_snr[max(0, t - spec.delay)]
        else:
            feedback_at = t - spec.delay
            while observed_up_to < feedback_at:
                observed_up_to += 1
                model.observe(true_snr[observed_up_to] - map_snr[observed_up_to])
            estimate = model.predict(map_snr[t], spec.delay)

        entry = table.entries[reference_select_mcs(table, estimate, bler_target)]
        result = reference_transmission(
            payload_bytes_per_step, entry, true_snr[t], table.bandwidth_hz, table.slot_s, rng, max_retx
        )
        mcs[t] = entry.index
        lat[t] = result.latency_s
        succ[t] = result.success
        blr[t] = reference_bler(entry, true_snr[t])
        if result.success and result.latency_s > 0:
            tput[t] = payload_bytes_per_step * 8.0 / result.latency_s
    return PolicyTimeSeries(spec, mcs, tput, lat, blr, succ)


# --------------------------------------------------------------------------
# The planner on (x, y) cells, as it was before cells became ids


@functools.lru_cache(maxsize=64)
def reference_moves(world):
    """``{cell: moves}`` for every passable cell: the in-bounds, unblocked
    moves in N, E, S, W order, then the wait move (the cell itself)."""
    table = {}
    for x in range(world.width):
        for y in range(world.height):
            cell = (x, y)
            if cell in world.blocked:
                continue
            moves = [(x, y + 1), (x + 1, y), (x, y - 1), (x - 1, y)]
            table[cell] = tuple(c for c in moves if world.passable(c)) + (cell,)
    return table


@functools.lru_cache(maxsize=256)
def reference_goal_distances(world, goal):
    """Step distance to ``goal`` from every cell that can reach it."""
    table = reference_moves(world)
    if goal not in table:
        raise ValueError(f"cell {goal} is blocked or out of bounds")
    dist = {goal: 0}
    queue = deque([goal])
    while queue:
        cur = queue.popleft()
        for nxt in table[cur]:
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    return dist


def node_ids(world, table):
    """A cell -> steps table as the frozen set of its nodes ``step * ncell
    + cell id``, ``ncell = width * height``, without the cells outside
    ``world``."""
    ncell = world.width * world.height
    return frozenset(
        step * ncell + world.cell_id(cell) for cell, steps in table.items() if world.in_bounds(cell) for step in steps
    )


class ReferenceTable:
    """One robot's reservation table on cells: for each cell the steps it is
    barred at, and the ``(cell, to_cell, step)`` moves it may not make."""

    def __init__(self, robot_id, cells):
        self.robot_id = robot_id
        self.cells = cells
        self.edges = set()

    def block_cell(self, cell, step_lo, step_hi):
        self.cells[cell] = self.cells.get(cell, frozenset()).union(range(step_lo, step_hi + 1))

    def block_move(self, cell, to_cell, step):
        self.edges.add((cell, to_cell, step))


def reference_human_reservations(world, pairs, objective):
    """``forecast_reservations`` as the planner's cell-keyed table was: its
    step sets frozen, and a negative forecast step refused."""
    for _, step in pairs:
        if step < 0:
            raise ValueError(f"forecast step {step} is negative")
    return {cell: frozenset(steps) for cell, steps in forecast_reservations(world, pairs, objective).items()}


def reference_widen_conflict(conflict, table, gap):
    """Bar ``table``'s robot from ``conflict`` over ``gap`` steps either
    side; False when the conflict's own cell-step or move was barred."""
    lo, hi = max(0, conflict.step - gap), conflict.step + gap
    if conflict.kind == "vertex":
        fresh = conflict.step not in table.cells.get(conflict.cell, ())
        table.block_cell(conflict.cell, lo, hi)
        return fresh
    if table.robot_id == conflict.robot_a:
        frm, to = conflict.cell, conflict.to_cell
    else:
        frm, to = conflict.to_cell, conflict.cell
    fresh = (frm, to, conflict.step) not in table.edges
    for s in range(lo, hi + 1):
        table.block_move(frm, to, s)
    return fresh


def reference_low_level_search(world, robot, table=None, horizon=None):
    """``low_level_search`` on cells under a :class:`ReferenceTable`, with
    first-in-first-out order among equal f-values: the heap key is ``(f,
    push order, step, cell)``."""
    if horizon is None:
        horizon = default_horizon(world)
    start, goal = tuple(robot.cell), tuple(robot.goal)
    if not world.passable(start) or not world.passable(goal):
        raise PlanningError(f"robot {robot.id}: start {start} or goal {goal} not passable")
    if table is None:
        table = ReferenceTable(robot.id, {})
    elif table.robot_id != robot.id:
        raise ValueError(f"reservation table of robot {table.robot_id} given for robot {robot.id}")
    cell_blocks, edge_blocks = table.cells, table.edges
    goal_latest = max(cell_blocks.get(goal, ()), default=-1)
    if 0 in cell_blocks.get(start, ()):
        raise PlanningInfeasible(robot.id, horizon)
    hfield = reference_goal_distances(world, goal)
    if start not in hfield:
        raise PlanningInfeasible(robot.id, horizon)
    moves = reference_moves(world)
    counter = itertools.count()
    heap = [(hfield[start], next(counter), 0, start)]
    parent = {}
    while heap:
        _, _, step, cell = heapq.heappop(heap)
        node = (cell, step)
        if cell == goal and step > goal_latest:
            cells = [cell]
            key = node
            while key in parent:
                key = parent[key]
                cells.append(key[0])
            cells.reverse()
            return SpaceTimePath(robot.id, tuple(cells))
        nstep = step + 1
        if nstep > horizon:
            continue
        for nxt in moves[cell]:
            child = (nxt, nstep)
            if child in parent:
                continue
            blocked = cell_blocks.get(nxt)
            if blocked is not None and nstep in blocked:
                continue
            if edge_blocks and (cell, nxt, step) in edge_blocks:
                continue
            h = hfield.get(nxt)
            if h is None or nstep + h > horizon:
                continue
            parent[child] = node
            heapq.heappush(heap, (nstep + h, next(counter), nstep, nxt))
    raise PlanningInfeasible(robot.id, horizon)


def reference_layers(world, start, goal, arrival, human):
    """The cells the lead robot may occupy at each step on some route that
    reaches ``goal`` at ``arrival`` under the cell -> steps table ``human``,
    each step's cells sorted."""
    moves = reference_moves(world)
    hfield = reference_goal_distances(world, goal)
    fwd = [set() for _ in range(arrival + 1)]
    fwd[0].add(start)
    for t in range(arrival):
        left = arrival - t - 1
        for cell in fwd[t]:
            for nxt in moves[cell]:
                h = hfield.get(nxt)
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
    return [sorted(fwd[t] & bwd[t]) for t in range(arrival + 1)]


def reference_bounded_joint_search(world, lead, follow, human, solo, limit):
    """``planner._joint_best_response`` on cells: the bounded joint search
    of one ordering, its states ``(lead cell, follower cell)`` pairs."""
    t1 = solo.arrival_step
    if t1 > limit:
        return None
    layers = reference_layers(world, lead.cell, lead.goal, t1, human)
    goal1, goal2 = lead.goal, follow.goal
    fol_goal_latest = max(human.get(goal2, ()), default=-1)
    moves = reference_moves(world)
    hfield = reference_goal_distances(world, goal2)
    start_state = (lead.cell, follow.cell)
    goal_state = (goal1, goal2)
    frontier = [start_state]
    parents = [{start_state: None}]
    t = 0
    while True:
        if t >= t1 and t > fol_goal_latest and goal_state in parents[t]:
            cells1, cells2 = [], []
            state, step = goal_state, t
            while state is not None:
                cells1.append(state[0])
                cells2.append(state[1])
                state = parents[step][state]
                step -= 1
            cells1.reverse()
            cells2.reverse()
            cells1 = cells1[: t1 + 1]
            while len(cells2) >= 2 and cells2[-1] == goal2 and cells2[-2] == goal2:
                cells2.pop()
            return t, SpaceTimePath(lead.id, tuple(cells1)), SpaceTimePath(follow.id, tuple(cells2))
        if t == limit:
            return None
        nstep = t + 1
        slack = limit - nstep
        lead_layer = set(layers[nstep]) if nstep <= t1 else {goal1}
        nxt_parents = {}
        for state in frontier:
            c1, c2 = state
            moves1 = [n for n in moves[c1] if n in lead_layer] if nstep <= t1 else [goal1]
            moves2 = [
                n for n in moves[c2]
                if hfield.get(n) is not None and hfield[n] <= slack and nstep not in human.get(n, ())
            ]
            for n1 in moves1:
                for n2 in moves2:
                    if n1 == n2 or (n1 == c2 and n2 == c1):
                        continue
                    if (n1, n2) not in nxt_parents:
                        nxt_parents[(n1, n2)] = state
        if not nxt_parents:
            return None
        frontier = sorted(nxt_parents)
        parents.append(nxt_parents)
        t = nstep


def reference_joint_best_response(world, lead, follow, base, horizon):
    """Best makespan when ``lead`` plans first and ``follow`` responds, by a
    breadth-first search over both robots' states with no pruning: the lead
    on any of its optimal solo routes, the follower anywhere its table
    allows, every layer sorted and each state's parent the first state in
    that order to reach it."""
    lead_table, fol_table = base[lead.id], base[follow.id]
    lead_eb = lead_table.edges
    fol_cb, fol_eb = fol_table.cells, fol_table.edges
    try:
        solo = reference_low_level_search(world, lead, lead_table, horizon)
    except PlanningInfeasible:
        return None
    t1 = solo.arrival_step
    layers = reference_layers(world, tuple(lead.cell), tuple(lead.goal), t1, lead_table.cells)
    goal1, goal2 = tuple(lead.goal), tuple(follow.goal)
    fol_goal_latest = max(fol_cb.get(goal2, ()), default=-1)
    moves = reference_moves(world)

    start_state = (tuple(lead.cell), tuple(follow.cell))
    frontier = {start_state}
    parents = [{start_state: None}]
    t = 0
    while t <= horizon:
        if t >= t1 and t > fol_goal_latest:
            for c1, c2 in sorted(frontier):
                if c1 == goal1 and c2 == goal2:
                    cells1, cells2 = [], []
                    state, step = (c1, c2), t
                    while state is not None:
                        cells1.append(state[0])
                        cells2.append(state[1])
                        state = parents[step][state]
                        step -= 1
                    cells1.reverse()
                    cells2.reverse()
                    cells1 = cells1[: t1 + 1]
                    while len(cells2) >= 2 and cells2[-1] == goal2 and cells2[-2] == goal2:
                        cells2.pop()
                    return t, SpaceTimePath(lead.id, tuple(cells1)), SpaceTimePath(follow.id, tuple(cells2))
        if t == horizon:
            break
        nxt_frontier = set()
        nxt_parents = {}
        lead_layer = set(layers[t + 1]) if t + 1 <= t1 else {goal1}
        for c1, c2 in sorted(frontier):
            if t + 1 <= t1:
                moves1 = [n for n in moves[c1] if n in lead_layer and (c1, n, t) not in lead_eb]
            else:
                moves1 = [goal1]
            moves2 = []
            for n in moves[c2]:
                if (t + 1) in fol_cb.get(n, ()):
                    continue
                if (c2, n, t) in fol_eb:
                    continue
                moves2.append(n)
            for n1 in moves1:
                for n2 in moves2:
                    if n1 == n2 or (n1 == c2 and n2 == c1):
                        continue
                    state = (n1, n2)
                    if state not in nxt_parents:
                        nxt_parents[state] = (c1, c2)
                        nxt_frontier.add(state)
        if not nxt_frontier:
            return None
        frontier = nxt_frontier
        parents.append(nxt_parents)
        t += 1
    return None


def reference_makespan_plan(world, robots, forecasts, horizon):
    """``plan(world, robots, forecasts, PlanConfig("makespan", None, 0),
    horizon)`` for two robots on a grid of at most 200 cells: the better of
    the two orderings' unpruned joint searches, the first on a tie."""
    pairs = [(tuple(c), int(s)) for c, s in forecasts]
    human = reference_human_reservations(world, pairs, "makespan")
    by_id = {r.id: r for r in robots}
    base = {rid: ReferenceTable(rid, human) for rid in by_id}
    order = sorted(by_id)
    best = None
    for lead_id, follow_id in (order, order[::-1]):
        res = reference_joint_best_response(world, by_id[lead_id], by_id[follow_id], base, horizon)
        if res is not None and (best is None or res[0] < best[0]):
            best = res
    if best is None:
        raise PlanningInfeasible(order[-1], horizon)
    solved = {best[1].robot_id: best[1], best[2].robot_id: best[2]}
    return [solved[r.id] for r in robots]


def reference_refinement_plan(world, robots, forecasts, horizon):
    """``plan(world, robots, forecasts, PlanConfig("makespan", None, 0),
    horizon)`` for two robots on a grid of at most 200 cells: the bounded
    joint search of each ordering whose lead has a solo route, the second
    kept only when strictly better, with no ordering skipped."""
    pairs = [(tuple(c), int(s)) for c, s in forecasts]
    human = reference_human_reservations(world, pairs, "makespan")
    by_id = {r.id: r for r in robots}
    order = sorted(by_id)
    solo = {}
    for rid in order:
        try:
            solo[rid] = reference_low_level_search(world, by_id[rid], ReferenceTable(rid, human), horizon)
        except PlanningInfeasible:
            pass
    limit = horizon
    if len(solo) == 2:
        try:
            limit = makespan(reference_solve_ordering(world, by_id, order, human, 0, horizon).values())
        except PlanningError:
            pass
    best = None
    for lead_id, follow_id in (order, order[::-1]):
        if lead_id in solo:
            res = reference_bounded_joint_search(world, by_id[lead_id], by_id[follow_id], human, solo[lead_id], limit)
            if res is not None:
                best, limit = res, res[0] - 1
    if best is None:
        raise PlanningInfeasible(order[-1], horizon)
    solved = {best[1].robot_id: best[1], best[2].robot_id: best[2]}
    return [solved[r.id] for r in robots]


def reference_solve_ordering(world, robots, order, human, gap, horizon):
    """Paths for ``order`` by priority under the cell -> steps table
    ``human``, every solo route searched afresh."""
    gap = min(gap, horizon)
    rank = {rid: i for i, rid in enumerate(order)}
    tables = {rid: ReferenceTable(rid, dict(human)) for rid in order}
    paths = {rid: reference_low_level_search(world, robots[rid], tables[rid], horizon) for rid in order}
    for _ in range(_MAX_RESOLUTION_ROUNDS):
        conflict = detect_first_conflict([paths[rid] for rid in order])
        if conflict is None:
            return paths
        lower = conflict.robot_a if rank[conflict.robot_a] > rank[conflict.robot_b] else conflict.robot_b
        if not reference_widen_conflict(conflict, tables[lower], gap):
            raise PlanningError(f"conflict {conflict} is already barred for robot {lower}")
        paths[lower] = reference_low_level_search(world, robots[lower], tables[lower], horizon)
    raise PlanningError("conflict resolution did not converge")


def reference_prioritized_plan(world, robots, forecasts, cfg, horizon):
    """``plan(world, robots, forecasts, cfg, horizon)`` when it does not use
    the two-robot joint refinement, with one search per robot and ordering."""
    ids = [r.id for r in robots]
    if len(set(ids)) != len(ids):
        raise PlanningError("duplicate robot ids")
    by_id = {r.id: r for r in robots}
    if cfg.priority_robot is not None and cfg.priority_robot not in by_id:
        raise PlanningError(f"priority robot {cfg.priority_robot} not present")
    starts = [tuple(r.cell) for r in robots]
    goals = [tuple(r.goal) for r in robots]
    if len(set(starts)) != len(starts) or len(set(goals)) != len(goals):
        raise PlanningError("robot starts and goals must be pairwise distinct")
    pairs = [(tuple(c), int(s)) for c, s in forecasts]
    human = reference_human_reservations(world, pairs, cfg.objective)
    if cfg.priority_robot is not None:
        order = [cfg.priority_robot] + sorted(i for i in ids if i != cfg.priority_robot)
    else:
        order = sorted(ids)
    if len(robots) == 1:
        return [reference_low_level_search(world, robots[0], ReferenceTable(ids[0], human), horizon)]
    if len(robots) <= 4:
        if cfg.priority_robot is not None:
            rest = [i for i in order if i != cfg.priority_robot]
            orderings = [[cfg.priority_robot] + list(p) for p in itertools.permutations(rest)]
        else:
            orderings = [list(p) for p in itertools.permutations(order)]
    else:
        orderings = [order]
    best_paths = None
    best_span = None
    failure = None
    for cand in orderings:
        try:
            paths = reference_solve_ordering(world, by_id, cand, human, cfg.min_time_gap_at_conflict, horizon)
        except PlanningInfeasible as exc:
            failure = exc
            continue
        if cfg.objective == "safety_first":
            return [paths[r.id] for r in robots]
        span = makespan(paths.values())
        if best_span is None or span < best_span:
            best_span = span
            best_paths = paths
    if best_paths is None:
        raise failure
    return [best_paths[r.id] for r in robots]


def reference_plan(world, robots, forecasts, cfg, horizon):
    """``plan(world, robots, forecasts, cfg, horizon)`` on cells, for robots
    with distinct ids, starts and goals: the refinement for two robots under
    makespan with a zero gap and no priority robot on a grid of at most 200
    cells, else the prioritized loop."""
    if (cfg.objective == "makespan" and len(robots) == 2 and cfg.min_time_gap_at_conflict == 0
            and cfg.priority_robot is None and world.width * world.height <= 200):
        return reference_refinement_plan(world, robots, forecasts, horizon)
    return reference_prioritized_plan(world, robots, forecasts, cfg, horizon)


def reference_human_table(inputs, parked, frame):
    """The world and the cell -> steps human reservation table of a
    warehouse replan at ``frame`` with ``parked`` blocked, built afresh from
    ``inputs``: a ``WarehouseInputs`` or a ``WarehouseSimulation``, whose
    ``world``, ``tracks`` and ``cfg`` it reads. The forecasts are taken at
    ``frame`` itself, however late."""
    world = inputs.world
    if parked:
        world = dataclasses.replace(world, blocked=world.blocked | parked)
    ratio = world.frame_period_s / world.cell_traverse_s
    pairs = [
        (cell, max(1, math.ceil((abs_frame - frame) * ratio)))
        for track in inputs.tracks
        for cell, abs_frame in human_forecast(track, frame)
    ]
    return world, reference_human_reservations(world, pairs, inputs.cfg.pp.objective)


def reference_human_cells(tracks, frame, cell):
    """Whether stop-and-go finds a human on ``cell`` at ``frame``: some
    track stands on it then or is forecast on it after."""
    return any(
        track.position_at(frame) == cell or any(c == cell for c, _ in human_forecast(track, frame))
        for track in tracks
    )


def reference_plan_next(sim, rt, plan_time):
    """``WarehouseSimulation._plan_next`` with no memo and no clamped frame:
    the next cell of the robot whose record is ``rt`` from a fresh ``plan``
    under ``reference_human_table``, or None. Two active robots planning
    from one cell give None before any planning."""
    active = [other for _, other in sorted(sim.robots.items()) if not other.arrived]
    states = [RobotState(other.id, other.pending_target or other.cell, other.goal) for other in active]
    if len({s.cell for s in states}) != len(states):
        return None
    parked = frozenset(other.goal for other in sim.robots.values() if other.arrived)
    world, human = reference_human_table(sim, parked, sim._frame(plan_time))
    pp = sim.cfg.pp if sim.cfg.pp.priority_robot in [s.id for s in states] else sim._pp_without_priority
    try:
        paths = plan(world, states, node_ids(world, human), pp)
    except PlanningError:
        return None
    for p in paths:
        if p.robot_id == rt.id:
            return p.at(1)
    return None
