"""Golden digests: bundled runs reproduce the pinned outputs.

``perfbench/digests.json`` pins the sha256 of every ``results.jsonl`` record
line the benchmark's workloads produce, and of the ``summary.csv`` of each
one-seed run. Rerunning the same code twice (C12) cannot show that a
refactor kept old outputs; comparing with these pins can. The check is
``tools/check_digests.py``'s, which also covers all 20 pinned seeds; here it
runs on the first three.
"""

import importlib.util
from pathlib import Path

import pytest

from conftest import WAREHOUSE_IDS

_spec = importlib.util.spec_from_file_location(
    "check_digests", Path(__file__).resolve().parents[1] / "tools" / "check_digests.py"
)
check_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_digests)

SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def pinned():
    return check_digests.pinned()


CASES = [
    pytest.param(name, makespan, id=f"{name}-{'makespan' if makespan else 'bundled'}")
    for name in WAREHOUSE_IDS
    for makespan in (False, True)
] + [pytest.param(name, False, id=f"{name}-bundled") for name in ("mcs-ar1", "followme-corridor")]


@pytest.mark.parametrize("name,makespan", CASES)
def test_records_match_pinned_digests(name, makespan, pinned, tmp_path):
    sid = f"{name}-makespan" if makespan else name
    # One seed per call: the summary pins are per seed.
    for seed in SEEDS:
        lines, problems = check_digests.check_seed(sid, seed, pinned[sid], tmp_path)
        assert lines and not problems, problems
