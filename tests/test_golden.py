"""Golden digests: bundled runs reproduce the pinned outputs.

``perfbench/digests.json`` pins the sha256 of every ``results.jsonl`` record
line the benchmark's workloads produce, and of the ``summary.csv`` of each
one-seed run. Rerunning the same code twice (C12) cannot show that a
refactor kept old outputs; comparing with these pins can. The checks are
``tools/check_digests.py``'s, one seed per run and all seeds in one run,
which also cover all 20 pinned seeds; here they run on the first three.
"""

import contextlib
import io
import json

import pytest

from conftest import WAREHOUSE_IDS, check_digests

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
    # All seeds in one call, whose runs share the loaded file and its memos.
    lines, problems, _ = check_digests.check_records(sid, list(SEEDS), pinned[sid], tmp_path)
    assert lines and not problems, problems


@pytest.mark.parametrize("sid", ["warehouse-s3", "warehouse-s3-makespan"])
def test_parallel_run_matches_pinned_digests(sid, pinned, tmp_path):
    """Each of two worker processes runs its seeds on a pickled copy of the
    loaded file, human reservation memo included, and every record line
    still matches its pin."""
    from r2xsim.cli import main

    path = check_digests.scenario_file(sid, tmp_path)
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", str(path), "--seeds", "0,1,2", "--parallel", "2", "--out", str(out)]) == 0
    lines = (out / "results.jsonl").read_bytes().splitlines()
    assert len(lines) == 4 * len(SEEDS)
    for line in lines:
        rec = json.loads(line)
        assert check_digests.sha256(line) == pinned[sid]["records"][f"{rec['method']}/{rec['seed']}"], rec
