"""r2xsim benchmark: host time of ``r2xsim run`` on four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload warehouse --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --write-digests      # re-pin the expected outputs

Each batch is one ``r2xsim.cli.main(["run", FILE, "--seeds", S,
"--parallel", "1", ...])`` call: every method of one scenario file for one
simulation seed.  Every record line and every ``summary.csv`` it writes is
checked against ``digests.json``.  The workload seed picks the order in which
simulation seeds are drawn from a fixed pool; a round runs every file of the
workload on one simulation seed, and rounds repeat until ``--seconds`` pass.
``perfbench/README.md`` defines each metric.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` a
fixed list of rounds runs once untraced and twice traced, and the per-layer
metrics of the first traced pass are printed.  The last line of stdout is the
JSON result; run metadata precede it and go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import monotonic, perf_counter, process_time
from typing import Dict, List, Optional, Tuple

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCENARIO_DIR = SRC / "r2xsim" / "scenarios"
DIGESTS = BENCH_DIR / "digests.json"
OUT = ROOT / ".perfbench_out"

# Simulation seeds whose outputs digests.json pins: the bundled files' seeds.
POOL = tuple(range(20))
SETUP_PROBES = 11
WAREHOUSE_FILES = ("warehouse-s1", "warehouse-s2", "warehouse-s3", "warehouse-s4")


@dataclass(frozen=True)
class Workload:
    files: Tuple[str, ...]
    # Replaces ``intent_text`` in generated copies of the files; None runs
    # the bundled files as they are.
    intent: Optional[str]
    # What the rule intent engine must resolve the files' intent to.
    expect: Optional[dict]
    # Percentile of run_tail_ms: fixed so that commits compare like with
    # like, and leaving at least ten runs beyond it at this commit's speed.
    # For followme, whose methods' median times lie within 15 % of each
    # other, it stops at 95: above that it reads the calibration's noise.
    tail_pct: float
    # Rounds in the fixed work list of a traced run.
    trace_rounds: int


WORKLOADS: Dict[str, Workload] = {
    "warehouse": Workload(
        WAREHOUSE_FILES, None,
        dict(objective="safety_first", priority_robot=2, gap=3, fairness="max_min", fallback=False),
        tail_pct=94, trace_rounds=3,
    ),
    "warehouse-makespan": Workload(
        WAREHOUSE_FILES, "Get both robots to their goals as fast as possible.",
        dict(objective="makespan", priority_robot=None, gap=0, fairness="proportional", fallback=False),
        tail_pct=68, trace_rounds=2,
    ),
    "mcs": Workload(("mcs-ar1",), None, None, tail_pct=92, trace_rounds=3),
    "followme": Workload(("followme-corridor",), None, None, tail_pct=95, trace_rounds=12),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- inputs -----------------------------------------------------------------


def prepare_inputs(wl: Workload, work_dir: Path) -> List[Path]:
    paths = []
    for name in wl.files:
        path = SCENARIO_DIR / f"{name}.json"
        if wl.intent is not None:
            data = json.loads(path.read_text())
            data["id"] = f"{name}-makespan"
            data["warehouse"]["intent_text"] = wl.intent
            path = work_dir / f"{data['id']}.json"
            path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        paths.append(path)
    return paths


def check_intent_path(wl: Workload, paths: List[Path]) -> None:
    """Fail unless each file's intent resolves to the configuration the
    workload exists to exercise."""
    if wl.expect is None:
        return
    from r2xsim.orchestrator import RuleIntentEngine, correct_loop
    from r2xsim.scenarios import load_scenario

    for path in paths:
        scn = load_scenario(path)
        ids = sorted(r["id"] for r in scn.params["robots"])
        res = correct_loop(RuleIntentEngine(), scn.params["intent_text"], {"robot_ids": ids})
        cfg = res.config
        got = dict(
            objective=cfg.pp.objective, priority_robot=cfg.pp.priority_robot,
            gap=cfg.pp.min_time_gap_at_conflict, fairness=cfg.ra.fairness, fallback=res.fallback,
        )
        if got != wl.expect:
            raise SystemExit(f"{path.name}: intent resolves to {got}, workload needs {wl.expect}")


# -- running and checking batches ---------------------------------------------


def run_cli(path: Path, seed: int, out_dir: Path, times: List[Tuple[str, float, float]],
            calibrated: bool = False) -> Tuple[int, float, float, float]:
    """One ``r2xsim run`` call.  Appends ``(method, CPU time, factor)`` of
    each run_one to ``times`` and returns the exit code, main's CPU time,
    main's wall time and the factor over the whole of main.

    Calibrated, calibration readings (``calibrate.Meter``) are taken before
    each run_one, during it and after main returns; times leave the readings
    out, and a run's factor (``calibrate.factor``) over the readings from
    the one before it to the one after it scales its CPU time to the
    reference host.  Otherwise factors are 1."""
    from r2xsim import cli

    inner = cli.run_one
    runs: List[Tuple[str, float, int]] = []
    meter = calibrate.Meter()

    def timed(scn, method, s):
        first = len(meter.readings)
        if calibrated:
            meter.take()
        spent = meter.cpu_s
        t0 = process_time()
        with meter.ticking() if calibrated else contextlib.nullcontext():
            record = inner(scn, method, s)
        runs.append((method, process_time() - t0 - (meter.cpu_s - spent), first))
        return record

    argv = ["run", str(path), "--out", str(out_dir), "--seeds", str(seed), "--parallel", "1"]
    cli.run_one = timed
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            c0, w0 = process_time(), perf_counter()
            code = cli.main(argv)
            cpu = process_time() - c0 - meter.cpu_s
            wall = perf_counter() - w0 - meter.wall_s
    finally:
        cli.run_one = inner
    if not calibrated or not runs:
        times.extend((method, t, 1.0) for method, t, _ in runs)
        return code, cpu, wall, 1.0
    meter.take()
    readings = meter.readings
    ends = [first for _, _, first in runs] + [len(readings) - 1]
    for (method, t, _), first, last in zip(runs, ends, ends[1:]):
        times.append((method, t, calibrate.factor(readings[first:last + 1])))
    return code, cpu, wall, calibrate.factor(readings)


def output_digests(out_dir: Path) -> Tuple[Dict[Tuple[str, str], str], str]:
    """``{(scenario_id, "method/seed"): sha256 of the record line}`` and the
    sha256 of summary.csv."""
    records = {}
    for line in (out_dir / "results.jsonl").read_bytes().splitlines():
        rec = json.loads(line)
        records[(rec["scenario_id"], f"{rec['method']}/{rec['seed']}")] = sha256(line)
    return records, sha256((out_dir / "summary.csv").read_bytes())


class Runner:
    """Runs batches, checks them against the pinned digests and keeps the
    attempted and failed run counts."""

    def __init__(self, digests: dict, paths: List[Path], out_dir: Path):
        self.digests = digests
        self.out_dir = out_dir
        self.files = {}
        for path in paths:
            data = json.loads(path.read_text())
            self.files[path] = (data["id"], data["methods"])
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def batch(self, path: Path, seed: int, calibrated: bool = False
              ) -> Tuple[float, float, float, List[Tuple[str, float, float]]]:
        """Main's CPU time, wall time and factor, and ``(method, CPU time,
        factor)`` per run (none if the batch failed), as ``run_cli`` gives
        them."""
        sid, methods = self.files[path]
        self.attempted += len(methods)
        times: List[Tuple[str, float, float]] = []
        code, cpu, wall, factor = run_cli(path, seed, self.out_dir, times, calibrated)
        bad = self._check(sid, methods, seed) if code == 0 else [f"exit code {code}"] * len(methods)
        if bad:
            self.failed += len(bad)
            self.errors.extend(f"{sid} seed {seed}: {b}" for b in bad)
            return cpu, wall, factor, []
        return cpu, wall, factor, times

    def _check(self, sid: str, methods: List[str], seed: int) -> List[str]:
        pinned = self.digests.get(sid, {})
        records, summary = output_digests(self.out_dir)
        if summary != pinned.get("summaries", {}).get(str(seed)):
            return ["summary.csv differs from digests.json"] * len(methods)
        return [
            f"{method}: record differs from digests.json"
            for method in methods
            if records.get((sid, f"{method}/{seed}")) != pinned.get("records", {}).get(f"{method}/{seed}")
        ]


# -- metrics ------------------------------------------------------------------


def nearest_rank(values: List[float], pct: float) -> Tuple[float, int]:
    """Nearest-rank percentile and the number of values beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def setup_probe(paths: List[Path]) -> Tuple[float, float]:
    """CPU time (user and system, all threads) of a fresh interpreter that
    imports r2xsim and numpy and loads and validates the workload's files,
    and the wall time from its launch to having done so."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "probe.py"), *map(str, paths)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise SystemExit(f"setup probe failed:\n{proc.stderr}")
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return cpu, float(proc.stdout.split()[-1]) - t0


def run_metadata() -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "r2xsim").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        names = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                 if line.startswith("model name")]
        cpu = names[0] if names else cpu
    return {
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracing import Tracer, check_nesting, layer_metrics, self_times, unstable_counts, write_spans

    wl = WORKLOADS[workload]
    meta = {"workload": workload, "workload_seed": seed, "trace": trace, "seconds": seconds,
            "loadavg_start": list(os.getloadavg())}
    meta.update(run_metadata())
    seeds = random.Random(seed).sample(POOL, len(POOL))
    digests = json.loads(DIGESTS.read_text())
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        paths = prepare_inputs(wl, work_dir)
        check_intent_path(wl, paths)
        runner = Runner(digests, paths, work_dir)
        runner.batch(paths[0], seeds[0])  # warm-up, untimed
        values: Dict[str, float] = {}
        samples: Dict[str, int] = {}
        problems: List[str] = []
        run_ms: Dict[str, dict] = {}
        if not trace:
            # Each run's CPU time is scaled to the reference host by the
            # calibration readings before, during and after it (calibrate.py,
            # run_cli), and the metrics are medians over each (file, method)
            # pair's runs, so that a run the scaling misjudged moves nothing.
            # Set-up time is the probe's CPU time, not scaled: a single
            # probe is short against the readings' noise.
            raw: Dict[Tuple[str, str], List[float]] = {}
            scaled: Dict[Tuple[str, str], List[float]] = {}
            rest: Dict[str, List[float]] = {}
            factors: List[float] = []
            cpu_s = wall_s = 0.0
            setup: List[Tuple[float, float]] = []
            used: List[int] = []
            start = perf_counter()
            while not used or perf_counter() - start < seconds:
                used.append(seeds[len(used) % len(seeds)])
                for path in paths:
                    cpu, wall, factor, runs = runner.batch(path, used[-1], calibrated=True)
                    if not runs:
                        continue
                    for method, t, f in runs:
                        raw.setdefault((path.name, method), []).append(t)
                        scaled.setdefault((path.name, method), []).append(t * f)
                        factors.append(f)
                    rest.setdefault(path.name, []).append((cpu - sum(t for _, t, _ in runs)) * factor)
                    cpu_s += cpu
                    wall_s += wall
                # Spread the set-up probes over the run, between rounds.
                while len(setup) < SETUP_PROBES * min(1.0, (perf_counter() - start) / seconds):
                    setup.append(setup_probe(paths))
            if not raw:
                raise SystemExit("no run succeeded:\n" + "\n".join(runner.errors[:20]))
            while len(setup) < SETUP_PROBES:
                setup.append(setup_probe(paths))

            def p50(times: Dict[Tuple[str, str], List[float]]) -> Dict[Tuple[str, str], float]:
                return {pair: statistics.median(ts) for pair, ts in times.items()}

            pair_s = p50(scaled)
            every = [t for ts in scaled.values() for t in ts]
            values.update(
                # One round is every (file, method) pair once and each
                # file's loading, summary and writing once.
                runs_per_s=len(pair_s) / (sum(pair_s.values()) + sum(map(statistics.median, rest.values()))),
                run_p50_ms=statistics.median(pair_s.values()) * 1e3,
                run_tail_ms=nearest_rank(every, wl.tail_pct)[0] * 1e3,
                setup_s=statistics.median(cpu for cpu, _ in setup),
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            )
            n_runs = len(every)
            samples.update(runs_per_s=n_runs, run_p50_ms=n_runs, run_tail_ms=n_runs, setup_s=len(setup))
            meta.update(
                rounds=len(used), pairs=len(pair_s), run_tail_percentile=wl.tail_pct,
                run_tail_beyond=nearest_rank(every, wl.tail_pct)[1],
                calibration_factor_quartiles=statistics.quantiles(factors, n=4) if len(factors) > 1 else factors,
                unscaled=dict(
                    runs_per_s_cpu=n_runs / cpu_s, runs_per_s_wall=n_runs / wall_s,
                    run_p50_ms=statistics.median(p50(raw).values()) * 1e3,
                    cpu_over_wall=cpu_s / wall_s,
                ),
                setup_cpu_s=[cpu for cpu, _ in setup],
                setup_wall_s=[wall for _, wall in setup],
            )
            run_ms = {f"{f}/{m}": {"cpu": [t * 1e3 for t in raw[f, m]], "scaled": [t * 1e3 for t in scaled[f, m]]}
                      for f, m in sorted(raw)}
        else:
            # Untraced and two traced copies of each batch back to back, so
            # that host-speed drift hits all three alike.
            used = seeds[: wl.trace_rounds]
            tracers = (Tracer(), Tracer())
            ratios = []
            for sim_seed in used:
                for path in paths:
                    base, _, _, _ = runner.batch(path, sim_seed)
                    for tracer in tracers:
                        with tracer:
                            cpu, _, _, _ = runner.batch(path, sim_seed)
                        ratios.append(cpu / base)
            tracer = tracers[0]
            values, samples = layer_metrics(tracer)
            second, _ = layer_metrics(tracers[1])
            problems += [f"count not repeated: {u}" for u in unstable_counts(values, second)]
            problems += check_nesting(tracer.spans, self_times(tracer.spans))
            values["trace.overhead_pct"] = (statistics.median(ratios) - 1) * 100
            samples["trace.overhead_pct"] = len(ratios)
            spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
            write_spans(spans_path, tracer.spans)
            meta["spans_file"] = str(spans_path.relative_to(ROOT))
        meta.update(
            sim_seeds=used, samples=samples,
            attempted=runner.attempted, failed=runner.failed,
            failed_frac=runner.failed / runner.attempted,
        )
        problems += runner.errors
        return {"meta": meta, "values": values, "problems": problems, "run_ms": run_ms,
                "attempted": runner.attempted, "failed": runner.failed}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def write_digests() -> None:
    """Run every file of every workload on every pool seed and pin the
    outputs.  Only for a change that moves outputs on purpose."""
    pinned: Dict[str, dict] = {}
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        for name, wl in WORKLOADS.items():
            for path in prepare_inputs(wl, work_dir):
                for seed in POOL:
                    code, _, _, _ = run_cli(path, seed, work_dir, [])
                    if code != 0:
                        raise SystemExit(f"{path.name} seed {seed}: exit code {code}")
                    records, summary = output_digests(work_dir)
                    for (sid, key), digest in records.items():
                        entry = pinned.setdefault(sid, {"records": {}, "summaries": {}})
                        entry["records"][key] = digest
                    entry["summaries"][str(seed)] = summary
                print(f"{name}: {path.name} pinned", file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "r2xsim" / "__init__.py").is_file():
        print(f"no r2xsim sources under {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    if args.write_digests:
        write_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not DIGESTS.is_file():
        print(f"missing {DIGESTS.name}; create it with --write-digests", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    values, meta = result["values"], result["meta"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for problem in result["problems"][:20]:
        print(f"FAIL {problem}", file=sys.stderr)

    for name, metric in metrics.items():
        n = meta["samples"].get(name)
        print(f"{name:<40} {metric['value']:>16.6f} {metric['unit']}" + (f"  (n={n})" if n else ""))
    print(f"{'failed_frac':<40} {meta['failed_frac']:>16.6f} ratio  (of {meta['attempted']} runs)")
    OUT.mkdir(exist_ok=True)
    record = dict(meta=meta, metrics=metrics, run_ms=result["run_ms"])
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print("meta " + json.dumps(meta))
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
