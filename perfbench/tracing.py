"""In-memory span tracer that wraps r2xsim's public functions from outside.

Nothing in ``src/`` knows about it: each traced function is replaced, in
every ``r2xsim`` module that binds it, by a wrapper that records a span
``[name, start, end, parent, run_id, ok]`` (or only a call count for the
hottest leaves), and put back when the trace ends.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Tuple

# (span name, module, attribute).  Several attributes may share one name.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("cli.main", "r2xsim.cli", "main"),
    ("scenarios.run_one", "r2xsim.scenarios", "run_one"),
    ("scenarios.load_scenario", "r2xsim.scenarios", "load_scenario"),
    ("scenarios.build", "r2xsim.scenarios", "build_warehouse"),
    ("scenarios.build", "r2xsim.scenarios", "build_mcs_corridor"),
    ("scenarios.run_followme", "r2xsim.scenarios", "run_followme"),
    ("planner.plan", "r2xsim.planner", "plan"),
    ("planner.low_level_search", "r2xsim.planner", "low_level_search"),
    ("orchestrator.sim", "r2xsim.orchestrator", "WarehouseSimulation.run"),
    ("orchestrator.correct_loop", "r2xsim.orchestrator", "correct_loop"),
    ("radio.select_mcs", "r2xsim.radio", "select_mcs"),
    ("radio.simulate_transmission", "r2xsim.radio", "simulate_transmission"),
    ("radio.sample_trace", "r2xsim.radio", "sample_trace"),
    ("linkadapt.run_policy", "r2xsim.linkadapt", "run_policy"),
    ("metrics.tail_stats", "r2xsim.metrics", "tail_stats"),
    ("metrics.utfr", "r2xsim.metrics", "utfr"),
    ("metrics.run_summary", "r2xsim.metrics", "run_summary"),
)

# Called hundreds of thousands of times per run: counted, not spanned, so
# that tracing does not swamp the layers around them.
COUNTS: Tuple[Tuple[str, str, str], ...] = (
    ("radio.bler.calls", "r2xsim.radio", "bler"),
    ("radio.allocate.calls", "r2xsim.radio", "allocate"),
    ("world.human_forecast.calls", "r2xsim.world", "human_forecast"),
    ("orchestrator.select_sense_mode.calls", "r2xsim.orchestrator", "select_sense_mode"),
    ("orchestrator.sim.events", "r2xsim.orchestrator", "WarehouseSimulation.decision_step"),
)

RUN_SPAN = "scenarios.run_one"
MAIN_SPAN = "cli.main"

# Counts that depend only on the work list; two traced passes over the same
# list must give the same values.
DETERMINISTIC = (
    "planner.plan.calls", "planner.plan.failed",
    "planner.low_level_search.calls", "planner.low_level_search.failed",
    "world.human_forecast.calls", "orchestrator.sim.events",
    "orchestrator.correct_loop.calls", "orchestrator.select_sense_mode.calls",
    "radio.bler.calls", "radio.select_mcs.calls", "radio.simulate_transmission.calls",
    "radio.harq.attempts", "radio.allocate.calls", "linkadapt.run_policy.calls",
    "scenarios.build.calls", "scenarios.run_one.calls",
)


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    for part in attr.split(".")[:-1]:
        owner = getattr(owner, part)
    return owner, attr.split(".")[-1]


class Tracer:
    """Records spans and counts while installed by ``with tracer:``; it may
    be installed several times and keeps accumulating."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._run_id = -1
        self._runs = 0
        self._patched: List[Tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        new_run = name == RUN_SPAN
        harq = name == "radio.simulate_transmission"

        def wrapper(*args, **kwargs):
            if new_run:
                self._run_id = self._runs
                self._runs += 1
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._run_id, True]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = False
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if new_run:
                    self._run_id = -1
            if harq:
                self.counts["radio.harq.attempts"] += result.attempts
                self.counts["radio.harq.delivered"] += result.success
            return result

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def _install(self, table, make) -> None:
        modules = [m for n, m in sys.modules.items() if n == "r2xsim" or n.startswith("r2xsim.")]
        for name, module, attr in table:
            owner, leaf = _resolve(module, attr)
            orig = owner.__dict__[leaf]
            wrapped = make(name, orig)
            if isinstance(owner, type):
                self._patched.append((owner, leaf, orig))
                setattr(owner, leaf, wrapped)
                continue
            # Patch every module that looks the name up, not only its home.
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def __enter__(self) -> "Tracer":
        self._install(SPANS, self.span)
        self._install(COUNTS, self.counter)
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()


# -- analysis -------------------------------------------------------------


def self_times(spans: List[list]) -> List[float]:
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - child[i] for i, s in enumerate(spans)]


def check_nesting(spans: List[list], selfs: List[float]) -> List[str]:
    """Every child lies inside its parent, and within each ``run_one`` the
    per-layer self times add up to the ``run_one`` span's duration."""
    errors = []
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0 and not (spans[parent][1] <= start <= end <= spans[parent][2]):
            errors.append(f"span {i} {name} escapes its parent {spans[parent][0]}")
    run_dur: Dict[int, float] = {}
    layer_self: Dict[int, Counter] = {}
    for i, (name, start, end, _, run_id, _) in enumerate(spans):
        if run_id < 0:
            continue
        if name == RUN_SPAN:
            run_dur[run_id] = end - start
        layer_self.setdefault(run_id, Counter())[name.split(".")[0]] += selfs[i]
    for run_id, dur in run_dur.items():
        total = sum(layer_self[run_id].values())
        if abs(total - dur) > 1e-9 + 1e-6 * dur:
            errors.append(f"run {run_id}: layer self times sum to {total!r} s, run_one took {dur!r} s")
    return errors


def layer_metrics(tracer: Tracer) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per-layer metric values and the sample count behind each median."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls: Counter = Counter()
    busy: Counter = Counter()
    own: Counter = Counter()
    failed: Counter = Counter()
    plan_us: List[float] = []
    planner_outer = 0.0
    write_s = 0.0
    last_run_end: Dict[int, float] = {}
    summary_in_main: Counter = Counter()
    for i, (name, start, end, parent, _, ok) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        busy[name] += dur
        own[name] += selfs[i]
        failed[name] += not ok
        if name == "planner.plan":
            plan_us.append(dur * 1e6)
        layer = name.split(".")[0]
        if layer == "planner" and (parent < 0 or not spans[parent][0].startswith("planner.")):
            planner_outer += dur
        if parent >= 0 and spans[parent][0] == MAIN_SPAN:
            if name == RUN_SPAN:
                last_run_end[parent] = max(last_run_end.get(parent, start), end)
            elif name == "metrics.run_summary":
                summary_in_main[parent] += dur
    for i, (name, start, end, _, _, _) in enumerate(spans):
        if name == MAIN_SPAN and i in last_run_end:
            # From the last run's return to main's return: JSON encoding and
            # both output files, less the summary statistics themselves.
            write_s += end - last_run_end[i] - summary_in_main[i]

    counts = tracer.counts
    run_busy = busy[RUN_SPAN]
    events = counts["orchestrator.sim.events"]
    attempts = counts["radio.harq.attempts"]
    m = {
        "planner.plan.calls": calls["planner.plan"],
        "planner.plan.busy_s": busy["planner.plan"],
        "planner.plan.p50_us": statistics.median(plan_us) if plan_us else 0.0,
        "planner.plan.failed": failed["planner.plan"],
        "planner.low_level_search.calls": calls["planner.low_level_search"],
        "planner.low_level_search.busy_s": busy["planner.low_level_search"],
        "planner.low_level_search.failed": failed["planner.low_level_search"],
        "planner.share": planner_outer / run_busy if run_busy else 0.0,
        "world.human_forecast.calls": counts["world.human_forecast.calls"],
        "orchestrator.sim.events": events,
        "orchestrator.sim.self_s": own["orchestrator.sim"],
        "orchestrator.sim.us_per_event": busy["orchestrator.sim"] / events * 1e6 if events else 0.0,
        "orchestrator.correct_loop.calls": calls["orchestrator.correct_loop"],
        "orchestrator.correct_loop.busy_s": busy["orchestrator.correct_loop"],
        "orchestrator.select_sense_mode.calls": counts["orchestrator.select_sense_mode.calls"],
        "radio.bler.calls": counts["radio.bler.calls"],
        "radio.select_mcs.calls": calls["radio.select_mcs"],
        "radio.select_mcs.busy_s": busy["radio.select_mcs"],
        "radio.simulate_transmission.calls": calls["radio.simulate_transmission"],
        "radio.simulate_transmission.busy_s": busy["radio.simulate_transmission"],
        "radio.harq.attempts": attempts,
        "radio.harq.delivered_per_attempt": counts["radio.harq.delivered"] / attempts if attempts else 0.0,
        "radio.sample_trace.busy_s": busy["radio.sample_trace"],
        "radio.allocate.calls": counts["radio.allocate.calls"],
        "linkadapt.run_policy.calls": calls["linkadapt.run_policy"],
        "linkadapt.run_policy.self_s": own["linkadapt.run_policy"],
        "scenarios.load_scenario.busy_s": busy["scenarios.load_scenario"],
        "scenarios.build.calls": calls["scenarios.build"],
        "scenarios.build.busy_s": busy["scenarios.build"],
        "scenarios.run_followme.self_s": own["scenarios.run_followme"],
        "scenarios.run_one.calls": calls[RUN_SPAN],
        "metrics.busy_s": busy["metrics.tail_stats"] + busy["metrics.utfr"] + busy["metrics.run_summary"],
        "cli.write_s": write_s,
    }
    return m, {"planner.plan.p50_us": len(plan_us)}


def unstable_counts(first: Dict[str, float], second: Dict[str, float]) -> List[str]:
    return [f"{k}: {first[k]} then {second[k]}" for k in DETERMINISTIC if first[k] != second[k]]


def write_spans(path, spans: List[list]) -> None:
    """One JSON array per line: name, start, end, parent index, run id, ok."""
    with open(path, "w") as fh:
        for rec in spans:
            fh.write(json.dumps(rec) + "\n")
