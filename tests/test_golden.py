"""Golden digests: bundled runs reproduce the pinned outputs.

``perfbench/digests.json`` pins the sha256 of every ``results.jsonl`` record
line the benchmark's workloads produce, and of the ``summary.csv`` of each
one-seed run. Rerunning the same code twice (C12) cannot show that a
refactor kept old outputs; comparing with these pins can. The checks are
``tools/check_digests.py``'s, one seed per run, all seeds in one run and
all seeds on two workers, which also cover all 20 pinned seeds; here they
run on the first three. The pins cover one-seed summaries only, whose
medians are the values themselves; the all-seeds run's ``summary.csv`` is
checked against one written from ``reference_run_summary`` of its pinned
records.
"""

import json

import pytest

from conftest import WAREHOUSE_IDS, check_digests
from oracles import reference_run_summary
from r2xsim.cli import write_summary

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
    lines, problems, out = check_digests.check_records(sid, list(SEEDS), pinned[sid], tmp_path)
    assert lines and not problems, problems
    records = [json.loads(line) for line in (out / "results.jsonl").read_bytes().splitlines()]
    write_summary(tmp_path / "reference.csv", reference_run_summary(records))
    assert (out / "summary.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("sid", ["warehouse-s3", "warehouse-s3-makespan"])
def test_parallel_run_matches_pinned_digests(sid, pinned, tmp_path):
    """Each of two worker processes runs its seeds on a pickled copy of the
    loaded file, human reservation memo included, and every record line
    still matches its pin."""
    lines, problems, _ = check_digests.check_records(sid, list(SEEDS), pinned[sid], tmp_path, parallel=2)
    assert lines == 4 * len(SEEDS) and not problems, problems
