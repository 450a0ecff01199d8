"""Golden digests: bundled warehouse runs reproduce the pinned outputs.

``perfbench/digests.json`` pins the sha256 of every ``results.jsonl`` record
line the benchmark's workloads produce. Rerunning the same code twice (C12)
cannot show that a refactor kept old outputs; comparing with these pins can.
The makespan variants are written the way ``perfbench/run.py`` writes its
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


@pytest.mark.parametrize("makespan", [False, True], ids=["bundled", "makespan"])
@pytest.mark.parametrize("name", WAREHOUSE_IDS)
def test_records_match_pinned_digests(name, makespan, pinned, tmp_path):
    path = scenario_file(name, makespan, tmp_path)
    out = tmp_path / "out"
    seeds = ",".join(str(s) for s in SEEDS)
    assert main(["run", str(path), "--seeds", seeds, "--parallel", "1", "--out", str(out)]) == 0
    sid = f"{name}-makespan" if makespan else name
    expected = pinned[sid]["records"]
    seen = set()
    for line in (out / "results.jsonl").read_bytes().splitlines():
        rec = json.loads(line)
        assert rec["scenario_id"] == sid
        key = f"{rec['method']}/{rec['seed']}"
        assert hashlib.sha256(line).hexdigest() == expected[key], f"{sid} {key} differs from {DIGESTS.name}"
        seen.add(key)
    methods = json.loads(path.read_text())["methods"]
    assert seen == {f"{m}/{s}" for m in methods for s in SEEDS}
