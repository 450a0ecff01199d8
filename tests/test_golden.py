"""Golden digests: bundled runs reproduce the pinned outputs.

``perfbench/digests.json`` pins the sha256 of every ``results.jsonl`` record
line the benchmark's workloads produce, and of the ``summary.csv`` of each
one-seed run. Rerunning the same code twice (C12) cannot show that a
refactor kept old outputs; comparing with these pins can. The makespan
variants are written the way ``perfbench/run.py`` writes its
``warehouse-makespan`` inputs.
"""

import hashlib
import json
from pathlib import Path

import pytest

from conftest import BUNDLED_DIR, WAREHOUSE_IDS
from r2xsim.cli import main

DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
SEEDS = (0, 1, 2)
MAKESPAN_INTENT = "Get both robots to their goals as fast as possible."


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DIGESTS.read_text())


def scenario_file(name, makespan, work_dir):
    path = BUNDLED_DIR / f"{name}.json"
    if not makespan:
        return path
    data = json.loads(path.read_text())
    data["id"] = f"{name}-makespan"
    data["warehouse"]["intent_text"] = MAKESPAN_INTENT
    path = work_dir / f"{data['id']}.json"
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


CASES = [
    pytest.param(name, makespan, id=f"{name}-{'makespan' if makespan else 'bundled'}")
    for name in WAREHOUSE_IDS
    for makespan in (False, True)
] + [pytest.param(name, False, id=f"{name}-bundled") for name in ("mcs-ar1", "followme-corridor")]


@pytest.mark.parametrize("name,makespan", CASES)
def test_records_match_pinned_digests(name, makespan, pinned, tmp_path):
    path = scenario_file(name, makespan, tmp_path)
    sid = f"{name}-makespan" if makespan else name
    expected = pinned[sid]
    methods = json.loads(path.read_text())["methods"]
    # One seed per call: the summary pins are per seed.
    for seed in SEEDS:
        out = tmp_path / f"out-{seed}"
        assert main(["run", str(path), "--seeds", str(seed), "--parallel", "1", "--out", str(out)]) == 0
        seen = set()
        for line in (out / "results.jsonl").read_bytes().splitlines():
            rec = json.loads(line)
            assert rec["scenario_id"] == sid
            key = f"{rec['method']}/{rec['seed']}"
            assert hashlib.sha256(line).hexdigest() == expected["records"][key], (
                f"{sid} {key} differs from {DIGESTS.name}"
            )
            seen.add(key)
        assert seen == {f"{m}/{seed}" for m in methods}
        summary = hashlib.sha256((out / "summary.csv").read_bytes()).hexdigest()
        assert summary == expected["summaries"][str(seed)], f"{sid} seed {seed} summary.csv differs"
