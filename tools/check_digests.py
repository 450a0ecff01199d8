#!/usr/bin/env python3
"""Check that the runs reproduce every output pinned in perfbench/digests.json.

    PYTHONPATH=src python tools/check_digests.py

``perfbench/digests.json`` pins, for the six bundled files and the makespan
copies of the four warehouse files, the sha256 of every ``results.jsonl``
record line of seeds 0-19 and of each one-seed ``summary.csv``. This script
makes three passes over the pinned files:

- one seed per ``r2xsim run`` call, as ``perfbench/run.py`` runs them,
  comparing each record line and summary with its pin;
- all 20 seeds in one ``r2xsim run`` call, as ``r2xsim run`` runs a file by
  default, comparing each record line with its pin. Its runs share one
  loaded file, and with it the warehouse memos of tables, routes and plans;
- all 20 seeds in one ``r2xsim run --parallel 2`` call, comparing each
  record line with its pin and its ``summary.csv`` byte for byte with the
  second pass's. Each of the two workers runs every other seed on its own
  copy of the loaded file.

A makespan copy is written the way ``perfbench/run.py`` writes its
``warehouse-makespan`` inputs. It prints one line per mismatch and a count,
and exits 1 on any mismatch. ``tests/test_golden.py`` runs the same checks
on seeds 0-2.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "perfbench" / "digests.json"
SCENARIO_DIR = ROOT / "src" / "r2xsim" / "scenarios"
MAKESPAN = "-makespan"
MAKESPAN_INTENT = "Get both robots to their goals as fast as possible."
SEEDS = range(20)


def pinned() -> dict:
    """Scenario id -> ``{"records": {"<method>/<seed>": sha256}, "summaries": {"<seed>": sha256}}``."""
    return json.loads(DIGESTS.read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def scenario_file(sid: str, work_dir: Path) -> Path:
    """The file pinned as ``sid``: a bundled file, or its makespan copy
    written into ``work_dir``."""
    name = sid.removesuffix(MAKESPAN)
    path = SCENARIO_DIR / f"{name}.json"
    if name == sid:
        return path
    data = json.loads(path.read_text())
    data["id"] = sid
    data["warehouse"]["intent_text"] = MAKESPAN_INTENT
    path = work_dir / f"{sid}.json"
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def check_records(sid: str, seeds: Sequence[int], expected: dict, work_dir: Path, parallel: int = 1
                  ) -> Tuple[int, List[str], Optional[Path]]:
    """Run the file pinned as ``sid`` on ``seeds`` in one ``r2xsim run``
    call with ``parallel`` workers and compare every record line with
    ``expected``, its entry in the digests. Returns the number of record
    lines compared, one line per mismatch, and the output directory (None
    when the run failed)."""
    from r2xsim.cli import main

    path = scenario_file(sid, work_dir)
    label = f"seed {seeds[0]}" if len(seeds) == 1 else f"seeds {seeds[0]}-{seeds[-1]}"
    if parallel > 1:
        label += f" on {parallel} workers"
    out = work_dir / f"out-{sid}-{'-'.join(map(str, seeds))}-p{parallel}"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", str(path), "--seeds", ",".join(map(str, seeds)), "--parallel", str(parallel),
                     "--out", str(out)])
    if code != 0:
        return 0, [f"{sid} {label}: r2xsim run exited {code}"], None
    problems = []
    lines = (out / "results.jsonl").read_bytes().splitlines()
    seen = set()
    for line in lines:
        rec = json.loads(line)
        key = f"{rec['method']}/{rec['seed']}"
        seen.add(key)
        if rec["scenario_id"] != sid:
            problems.append(f"{sid} {key}: scenario_id {rec['scenario_id']!r}")
        elif sha256(line) != expected["records"].get(key):
            problems.append(f"{sid} {key} differs from {DIGESTS.name} ({label} in one run)")
    want = {key for key in expected["records"] if int(key.rsplit("/", 1)[1]) in seeds}
    if seen != want:
        problems.append(f"{sid} {label}: records {sorted(seen)}, pinned {sorted(want)}")
    return len(lines), problems, out


def check_seed(sid: str, seed: int, expected: dict, work_dir: Path) -> Tuple[int, List[str]]:
    """Run the file pinned as ``sid`` on one seed and compare its record
    lines and summary with ``expected``, its entry in the digests. Returns
    the number of record lines compared and one line per mismatch."""
    lines, problems, out = check_records(sid, [seed], expected, work_dir)
    if out is not None and sha256((out / "summary.csv").read_bytes()) != expected["summaries"][str(seed)]:
        problems.append(f"{sid} seed {seed} summary.csv differs from {DIGESTS.name}")
    return lines, problems


def main() -> int:
    pins = pinned()
    lines = summaries = 0
    problems: List[str] = []
    one_load = pooled = compared = 0
    serial: Dict[str, Optional[Path]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for sid in sorted(pins):
            for seed in SEEDS:
                n, found = check_seed(sid, seed, pins[sid], Path(tmp))
                lines += n
                summaries += 1
                problems += found
        for sid in sorted(pins):
            n, found, serial[sid] = check_records(sid, list(SEEDS), pins[sid], Path(tmp))
            one_load += n
            problems += found
        for sid in sorted(pins):
            n, found, out = check_records(sid, list(SEEDS), pins[sid], Path(tmp), parallel=2)
            pooled += n
            problems += found
            if out is not None and serial[sid] is not None:
                compared += 1
                if (out / "summary.csv").read_bytes() != (serial[sid] / "summary.csv").read_bytes():
                    problems.append(f"{sid} seeds {SEEDS[0]}-{SEEDS[-1]} on 2 workers: summary.csv differs "
                                    f"from the one-worker run's")
    for line in problems:
        print(line)
    print(f"{lines} record lines and {summaries} summary.csv files of {len(pins)} files run one seed "
          f"at a time, {one_load} record lines of the same files run {len(SEEDS)} seeds at a time and "
          f"{pooled} run {len(SEEDS)} seeds on 2 workers, checked against {DIGESTS.name}, and "
          f"{compared} {len(SEEDS)}-seed summary.csv files compared between 1 and 2 workers: "
          f"{len(problems)} mismatches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
