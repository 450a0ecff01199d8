"""Command line front end.

Subcommands:
  run       execute a scenario's (method, seed) grid seed by seed, writing
            results.jsonl (one run per line, ordered by method then seed)
            and summary.csv
  compare   rank methods by the median of a metric across result directories
  validate  check a scenario file against the schema and build it

``run`` takes the seeds of ``--seeds``, else those listed in the scenario file.

Exit codes: 0 success, 1 runtime failure, 2 validation failure, an
``--out`` directory that cannot be made or written (``--out: <path>:
<reason>``, checked before the first run) or a warehouse run that did not
finish within its ``max_sim_time_s``, named as
``scenario.warehouse.max_sim_time_s: method M seed S did not finish ...``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .metrics import run_summary
from .orchestrator import UnfinishedRun
from .scenarios import Scenario, ScenarioError, load_scenario, run_one
from .schema import _MAX_PARALLEL, _Checker, _echo, _is_number, _unique_keys

RESULTS_NAME = "results.jsonl"
SUMMARY_NAME = "summary.csv"


def _parse_seed_list(text: str) -> List[int]:
    """The seeds of ``--seeds``, each as ``str`` writes it, under the scenario files' rule."""
    parts = text.split(",")
    try:
        seeds = [int(part) for part in parts]
    except ValueError:
        seeds = []
    if list(map(str, seeds)) != parts:
        raise ScenarioError([f"--seeds: {_echo(text)} is not a comma-separated integer list"])
    ck = _Checker()
    ck.seeds(seeds, "--seeds")
    if ck.errors:
        raise ScenarioError(ck.errors)
    return seeds


def _out_error(path: str, exc: OSError) -> ScenarioError:
    """``--out: <path>: <reason>`` for an output directory, or a file in it,
    that cannot be made or written."""
    return ScenarioError([f"--out: {exc.filename or path}: {exc.strerror or exc}"])


def _run_seeds(scn: Scenario, seeds: Sequence[int]) -> List[dict]:
    """Every method of ``scn`` on each of ``seeds`` in turn, all on one copy
    of the loaded file, so that the runs share its memos."""
    return [run_one(scn, method, seed) for seed in seeds for method in sorted(scn.methods)]


def write_summary(path: Path, rows: Sequence[dict]) -> None:
    """Write ``metrics.run_summary`` rows as CSV, floats as their ``repr``."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario_id", "method", "metric", "median", "iqr", "n"])
        for row in rows:
            writer.writerow(
                [row["scenario_id"], row["method"], row["metric"], repr(row["median"]), repr(row["iqr"]), row["n"]]
            )


def _cmd_run(args: argparse.Namespace) -> int:
    scn = load_scenario(args.scenario)
    if not 1 <= args.parallel <= _MAX_PARALLEL:
        limit = "at least 1" if args.parallel < 1 else f"<= {_MAX_PARALLEL}"
        raise ScenarioError([f"--parallel: {args.parallel} must be {limit}"])
    seeds = _parse_seed_list(args.seeds) if args.seeds is not None else None
    methods = args.methods.split(",") if args.methods is not None else None
    scn = scn.with_overrides(seeds=seeds, methods=methods)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _out_error(args.out, exc)

    # One strided chunk of seeds per worker, which unpickles the loaded file
    # once; no more workers than seeds, as a pool starts them all at once.
    workers = min(args.parallel, len(scn.seeds))
    chunks = [scn.seeds[i::workers] for i in range(workers)]
    run_chunk = functools.partial(_run_seeds, scn)
    try:
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                batches = list(pool.map(run_chunk, chunks))
        else:
            batches = list(map(run_chunk, chunks))
    except ScenarioError:
        raise
    except UnfinishedRun as exc:
        raise ScenarioError([f"scenario.warehouse.max_sim_time_s: {exc}"])
    except Exception as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    records = sorted(
        (rec for batch in batches for rec in batch), key=lambda rec: (rec["method"], rec["seed"])
    )

    results_path = out_dir / RESULTS_NAME
    summary_path = out_dir / SUMMARY_NAME
    rows = run_summary(records)
    try:
        with results_path.open("w") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        write_summary(summary_path, rows)
    except OSError as exc:
        raise _out_error(args.out, exc)
    print(f"wrote {len(records)} runs to {results_path} and {summary_path}")
    return 0


def _load_records(dirs: Sequence[str]) -> List[Tuple[str, object]]:
    """Every JSON value in the results files of ``dirs``, each with its
    ``file:line``."""
    records = []
    for d in dirs:
        path = Path(d) / RESULTS_NAME
        if not path.exists():
            raise ScenarioError([f"{path}: no such results file"])
        try:
            lines = path.read_text(encoding="utf-8").split("\n")
        except (OSError, UnicodeDecodeError) as exc:
            raise ScenarioError([f"{path}: cannot read: {exc}"])
        for lineno, line in enumerate(lines, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line, object_pairs_hook=_unique_keys)
            except json.JSONDecodeError as exc:
                raise ScenarioError([f"{path}:{lineno}: invalid JSON: {exc.msg}"])
            except ValueError as exc:  # a repeated key, or an integer literal too long for int()
                raise ScenarioError([f"{path}:{lineno}: invalid JSON: {exc}"])
            records.append((f"{path}:{lineno}", rec))
    if not records:
        raise ScenarioError(["no result records found"])
    return records


def _cmd_compare(args: argparse.Namespace) -> int:
    records = _load_records(args.dirs)
    for where, rec in records:
        if not (isinstance(rec, dict) and isinstance(rec.get("method"), str)
                and isinstance(rec.get("scenario_id", ""), str) and isinstance(rec.get("metrics", {}), dict)):
            raise ScenarioError([f"{where}: not a result record: method and scenario_id must be strings, "
                                 "metrics an object"])
    ids = {rec.get("scenario_id") for _, rec in records}
    if len(ids) != 1:
        raise ScenarioError(
            [f"scenario_id: result dirs mix different scenarios {_echo(sorted(ids, key=repr))}"]
        )
    values: dict = {}
    for where, rec in records:
        metric = rec.get("metrics", {}).get(args.metric)
        if metric is None:
            continue
        if not _is_number(metric):
            raise ScenarioError([f"{where}: metric {_echo(args.metric)}: {_echo(metric)} must be a finite number"])
        values.setdefault(rec["method"], []).append(float(metric))
    if not values:
        raise ScenarioError(
            [f"--metric: {_echo(args.metric)} not present in any record"]
        )

    import statistics

    ranked = sorted(
        ((statistics.median(vals), method, len(vals)) for method, vals in values.items()),
        key=lambda item: (item[0], item[1]),
    )
    sid = next(iter(ids))
    print(f"scenario {sid}, metric {args.metric} (median over runs, best first)")
    for rank, (median, method, n) in enumerate(ranked, 1):
        print(f"{rank:2d}. {method:<14s} {median:.6g}  (n={n})")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    scn = load_scenario(args.scenario)
    print(
        f"{args.scenario}: OK "
        f"(kind {scn.kind}, {len(scn.methods)} methods, {len(scn.seeds)} seeds)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="r2xsim",
        description="Deterministic R2X orchestration scenarios: run, compare, validate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario's (method, seed) grid")
    p_run.add_argument("scenario", help="scenario JSON file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seeds", help="comma-separated seed override")
    p_run.add_argument("--methods", help="comma-separated method subset")
    p_run.add_argument("--parallel", type=int, default=1, help=f"worker processes (1 to {_MAX_PARALLEL})")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="rank methods by a metric median")
    p_cmp.add_argument("dirs", nargs="+", help="result directories from `run`")
    p_cmp.add_argument("--metric", required=True, help="metric name to rank by")
    p_cmp.set_defaults(func=_cmd_compare)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("scenario", help="scenario JSON file")
    p_val.set_defaults(func=_cmd_validate)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        for err in exc.errors:
            print(err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
