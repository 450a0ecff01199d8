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
"""

from collections import deque

import numpy as np

from r2xsim.linkadapt import MapAwarePredictor, PolicyTimeSeries
from r2xsim.radio import bler, select_mcs, simulate_transmission


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


def reference_run_policy(
    trace, spec, table, payload_bytes_per_step, bler_target=0.1, *,
    seed=0, cells=None, gain_map=None, max_retx=4,
):
    """Walk a ``LinkState`` trace one step at a time: ``select_mcs`` on the
    policy's estimate, then ``simulate_transmission`` at the true SNR, all
    attempts drawing scalars from one ``default_rng(seed)``. This is the
    per-step loop ``linkadapt.run_policy`` replaced with per-seed tables."""
    n = len(trace)
    true_snr = np.array([ls.snr_db for ls in trace], dtype=float)
    if spec.kind == "predictive":
        map_snr = np.array(
            [trace[t].tx_power_dbm + gain_map.gain_at(cells[t]) - trace[t].noise_dbm for t in range(n)],
            dtype=float,
        )
        residuals = true_snr - map_snr
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
                model.observe(float(residuals[observed_up_to]))
            estimate = model.predict(float(map_snr[t]), spec.delay)

        sel = select_mcs(table, float(estimate), bler_target)
        entry = table.entries[sel.index]
        result = simulate_transmission(
            payload_bytes_per_step, entry, [float(true_snr[t])], table, rng, max_retx
        )
        mcs[t] = entry.index
        lat[t] = result.latency_s
        succ[t] = result.success
        blr[t] = bler(entry, float(true_snr[t]))
        if result.success and result.latency_s > 0:
            tput[t] = payload_bytes_per_step * 8.0 / result.latency_s
    return PolicyTimeSeries(spec, mcs, tput, lat, blr, succ)
