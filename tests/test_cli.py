"""The run / compare / validate command line, exercised in process."""

import csv
import errno
import json
import os
from collections import Counter

import numpy as np
import pytest

from oracles import reference_plan_next
from r2xsim import cli
from r2xsim.cli import main
from r2xsim.orchestrator import WAREHOUSE_METHODS, HumanReservations, UnfinishedRun, WarehouseSimulation
from r2xsim.scenarios import ScenarioError, bundled_scenario_path, parse_scenario, run_one
from test_scenarios import tiny_followme, tiny_mcs, tiny_warehouse


@pytest.fixture
def followme_file(tmp_path):
    doc = tiny_followme()
    doc["seeds"] = [0, 1]
    path = tmp_path / "fm.json"
    path.write_text(json.dumps(doc))
    return path


def read_results(out_dir):
    lines = (out_dir / "results.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def slow_tiny_warehouse():
    doc = tiny_warehouse()
    doc["methods"] = ["stop_and_go"]
    doc["warehouse"]["world"]["width"] = 8
    doc["warehouse"]["robots"] = [{"id": 1, "start": [0, 0], "goal": [7, 0]}]
    doc["warehouse"]["max_sim_time_s"] = 5.0
    return doc


def dead_zone_goal():
    """A goal in a 1000 dB dead zone: every uplink to it fails, and a loop
    starts late enough to retry past the last frame of the time limit."""
    doc = tiny_warehouse()
    doc["methods"] = ["lorc_sc_p"]
    doc["warehouse"]["world"]["width"] = 8
    doc["warehouse"]["robots"] = [{"id": 1, "start": [0, 0], "goal": [7, 0]}]
    doc["warehouse"]["gain"]["dead_zones"] = [{"rect": [7, 0, 7, 0], "extra_loss_db": 1000.0}]
    doc["warehouse"]["max_sim_time_s"] = 10.0
    return doc


def huge_cell_move():
    doc = tiny_warehouse()
    doc["warehouse"]["world"]["cell_traverse_s"] = 1e308
    return doc


def huge_dead_zone_goal():
    """dead_zone_goal with frames and moves of 1e300 s: the loop that never
    closes starts at a time of 301 digits."""
    doc = dead_zone_goal()
    w = doc["warehouse"]
    w["world"].update(frame_period_s=1e300, cell_traverse_s=1e300)
    w["max_sim_time_s"] = 1e301
    return doc


def edited_s1(edit):
    doc = json.loads(bundled_scenario_path("warehouse-s1").read_text())
    edit(doc["warehouse"])
    return doc


def s1_goal_walled_in(w):
    """warehouse-s1 with robot 1's goal (9, 4) walled in, and no humans."""
    w["world"]["blocked"] = [[8, 4], [9, 3], [9, 5]]
    del w["humans"]


def s1_serpentine(w):
    """warehouse-s1 on a 17x17 world whose odd rows are walls, each with one
    gap, alternately at the east and west end: robot 1's route from (0, 0)
    to (0, 16) is 144 steps, against a horizon of 136. No humans."""
    w["world"].update(
        width=17, height=17, blocked_rects=[[k % 2, 2 * k + 1, 15 + k % 2, 2 * k + 1] for k in range(8)]
    )
    w["robots"][0].update(start=[0, 0], goal=[0, 16])
    del w["humans"]


class TestValidate:
    def test_ok(self, bundled_dir, capsys):
        path = bundled_dir / "mcs-ar1.json"
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "kind mcs" in out and "14 methods" in out

    def test_invalid_file(self, tmp_path, capsys):
        doc = tiny_followme()
        doc["followme"]["total_steps"] = 0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "scenario.followme.total_steps" in err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_duplicate_key_is_refused(self, tmp_path, capsys):
        """A key written twice is an error, not the last of its values."""
        path = tmp_path / "twice.json"
        path.write_text(json.dumps(tiny_followme())[:-1] + ', "seeds": [0, 1]}')
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"{path}: invalid JSON: duplicate key 'seeds'"]


class TestRun:
    def test_outputs_and_ordering(self, followme_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(followme_file), "--out", str(out)]) == 0
        assert "wrote 6 runs" in capsys.readouterr().out
        records = read_results(out)
        # methods sort alphabetically, seeds ascending within each
        assert [(r["method"], r["seed"]) for r in records] == [
            ("jpeg_q80", 0), ("jpeg_q80", 1),
            ("orchestrated", 0), ("orchestrated", 1),
            ("vq_1x1", 0), ("vq_1x1", 1),
        ]
        for rec in records:
            assert rec["scenario_id"] == "tiny-fm"
            assert "metrics" in rec

    def test_summary_csv_shape(self, followme_file, tmp_path):
        out = tmp_path / "out"
        main(["run", str(followme_file), "--out", str(out)])
        with (out / "summary.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["scenario_id", "method", "metric", "median", "iqr", "n"]
        assert all(len(row) == 6 for row in rows[1:])
        for row in rows[1:]:
            assert row[0] == "tiny-fm"
            float(row[3])  # repr() floats round-trip
            float(row[4])
            assert row[5] == "2"
        methods = {row[1] for row in rows[1:]}
        assert methods == {"jpeg_q80", "orchestrated", "vq_1x1"}

    def test_rerun_is_byte_identical(self, followme_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", str(followme_file), "--out", str(a)])
        main(["run", str(followme_file), "--out", str(b)])
        assert (a / "results.jsonl").read_bytes() == (b / "results.jsonl").read_bytes()
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()

    def test_parallel_matches_serial(self, followme_file, tmp_path):
        serial, parallel = tmp_path / "s", tmp_path / "p"
        main(["run", str(followme_file), "--out", str(serial)])
        main(["run", str(followme_file), "--out", str(parallel), "--parallel", "2"])
        assert (serial / "results.jsonl").read_bytes() == (parallel / "results.jsonl").read_bytes()

    def test_parallel_workers_get_the_loaded_scenario(self, followme_file, tmp_path, monkeypatch):
        serial, parallel = tmp_path / "s", tmp_path / "p"
        assert main(["run", str(followme_file), "--out", str(serial)]) == 0
        real = cli.load_scenario

        def load_then_remove(path):
            scn = real(path)
            followme_file.unlink()
            return scn

        monkeypatch.setattr(cli, "load_scenario", load_then_remove)
        assert main(["run", str(followme_file), "--out", str(parallel), "--parallel", "2"]) == 0
        assert not followme_file.exists()
        for name in ("results.jsonl", "summary.csv"):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    def test_seed_flag_beats_file(self, followme_file, tmp_path):
        out = tmp_path / "flag"
        main(["run", str(followme_file), "--out", str(out), "--seeds", "7,3"])
        assert [r["seed"] for r in read_results(out)] == [3, 7, 3, 7, 3, 7]

        out = tmp_path / "file"
        main(["run", str(followme_file), "--out", str(out)])
        assert [r["seed"] for r in read_results(out)] == [0, 1, 0, 1, 0, 1]

    @pytest.mark.parametrize("value", ["", "5", "nope", "3,3"])
    def test_env_seed_ignored(self, followme_file, tmp_path, monkeypatch, value):
        """Only ``--seeds`` overrides the file's seeds: an ambient
        ``R2X_SEED``, empty, valid, malformed or repeating a seed, changes
        nothing."""
        monkeypatch.setenv("R2X_SEED", value)
        out = tmp_path / "out"
        assert main(["run", str(followme_file), "--out", str(out)]) == 0
        assert [r["seed"] for r in read_results(out)] == [0, 1, 0, 1, 0, 1]

    @pytest.mark.parametrize("flag", ["x,y", "-1", ",", "3,3", "1,,2", "1,", "1_0", "\u0661", " 3 ", "+4"])
    def test_bad_seed_flag(self, followme_file, tmp_path, capsys, flag):
        """Each seed is ASCII digits, written as JSON writes a nonnegative
        integer: no underscore, other script's digit, space or sign."""
        code = main(["run", str(followme_file), "--out", str(tmp_path / "o"), "--seeds", flag])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("--seeds: ")
        if flag not in ("3,3", "-1"):
            assert f"--seeds: {flag!r} is not a comma-separated integer list" in err

    def test_long_bad_seed_list_gives_a_short_line(self, followme_file, tmp_path, capsys):
        assert main(["run", str(followme_file), "--out", str(tmp_path / "o"), "--seeds", "x" * 5000]) == 2
        err = capsys.readouterr().err
        assert err.startswith("--seeds: ") and len(err.splitlines()[0]) <= 200, err[:300]

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_parallel_below_one(self, followme_file, tmp_path, capsys, workers):
        code = main(["run", str(followme_file), "--out", str(tmp_path / "o"), "--parallel", workers])
        assert code == 2
        assert f"--parallel: {workers} must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "args,line",
        [
            (["--seeds", "3,3"], "--seeds: seeds must be distinct"),
            (["--seeds", "1,,2"], "--seeds: '1,,2' is not a comma-separated integer list"),
            (["--methods", "vq_1x1,vq_1x1"], "methods: methods must be distinct"),
            (["--parallel", "65"], "--parallel: 65 must be <= 64"),
        ],
        ids=["seeds-flag", "empty-seed", "methods", "parallel"],
    )
    def test_refused_with_one_line_and_no_output(self, followme_file, tmp_path, capsys, monkeypatch, args, line):
        def no_pool(max_workers):
            raise AssertionError(f"a pool of {max_workers} workers was started")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        assert main(["run", str(followme_file), "--out", str(tmp_path / "o"), *args]) == 2
        assert capsys.readouterr().err.splitlines() == [line]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "out,errno_", [("file", errno.EEXIST), ("file/sub", errno.ENOTDIR)], ids=["is-a-file", "under-a-file"]
    )
    def test_out_that_cannot_be_a_directory_is_refused_before_any_run(
        self, followme_file, tmp_path, capsys, monkeypatch, out, errno_
    ):
        def no_run(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli, "run_one", no_run)
        (tmp_path / "file").write_text("")
        path = tmp_path / out
        assert main(["run", str(followme_file), "--out", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"--out: {path}: {os.strerror(errno_)}"]

    def test_out_file_that_cannot_be_written(self, followme_file, tmp_path, capsys):
        (tmp_path / "o" / "results.jsonl").mkdir(parents=True)
        assert main(["run", str(followme_file), "--out", str(tmp_path / "o")]) == 2
        line = f"--out: {tmp_path / 'o' / 'results.jsonl'}: {os.strerror(errno.EISDIR)}"
        assert capsys.readouterr().err.splitlines() == [line]

    @pytest.mark.parametrize("parallel,chunks", [("2", [(4, 3, 2), (0, 1)]), ("64", [(4,), (0,), (3,), (1,), (2,)])])
    def test_pool_has_at_most_one_worker_per_seed(self, followme_file, tmp_path, monkeypatch, parallel, chunks):
        """The pool starts all its workers at once, so it is sized to the
        seeds, and maps over one chunk per worker, every ``parallel``-th
        seed, so that each worker unpickles the loaded file once; a fake
        pool records its size and chunks and runs them in process."""
        seen = []

        class RecordingPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                seen.append(list(items))
                return map(fn, seen[-1])

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        serial, pooled = tmp_path / "s", tmp_path / "p"
        seeds = ["--seeds", "4,0,3,1,2"]
        assert main(["run", str(followme_file), "--out", str(serial), *seeds]) == 0
        assert main(["run", str(followme_file), "--out", str(pooled), *seeds, "--parallel", parallel]) == 0
        assert seen == [len(chunks), chunks]
        for name in ("results.jsonl", "summary.csv"):
            assert (serial / name).read_bytes() == (pooled / name).read_bytes()

    def test_methods_subset(self, followme_file, tmp_path):
        out = tmp_path / "out"
        main(["run", str(followme_file), "--out", str(out), "--methods", "vq_1x1"])
        records = read_results(out)
        assert {r["method"] for r in records} == {"vq_1x1"}

    def test_unknown_method(self, followme_file, tmp_path, capsys):
        code = main(["run", str(followme_file), "--out", str(tmp_path / "o"),
                     "--methods", "smoke_signals"])
        assert code == 2
        assert "not offered" in capsys.readouterr().err

    def test_missing_scenario(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "gone.json"), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("parallel", ["1", "2"])
    @pytest.mark.parametrize(
        "make,method,line",
        [
            pytest.param(
                slow_tiny_warehouse,
                "stop_and_go",
                "scenario.warehouse.max_sim_time_s: method stop_and_go seed 0 did not finish within 5.0 s "
                "(an event fell due at 5.6 s)",
                id="route-too-long",
            ),
            pytest.param(
                lambda: edited_s1(lambda w: w["gain"].update(slope_db_per_cell=50)),
                "lorc_p",
                "scenario.warehouse.max_sim_time_s: method lorc_p seed 0 did not finish within 1800.0 s "
                "(robot 1: uplink never succeeded after 0.0 s)",
                id="s1-slope-50",
            ),
            pytest.param(
                lambda: edited_s1(lambda w: w.update(max_sim_time_s=2.0)),
                "lorc_p",
                "scenario.warehouse.max_sim_time_s: method lorc_p seed 0 did not finish within 2.0 s "
                "(an event fell due at 3.4 s)",
                id="s1-max-time-2",
            ),
            pytest.param(
                dead_zone_goal,
                "lorc_sc_p",
                "scenario.warehouse.max_sim_time_s: method lorc_sc_p seed 0 did not finish within 10.0 s "
                "(robot 1: uplink never succeeded after 8.5 s)",
                id="dead-zone-goal",
            ),
            # A time of 10^12 s or more prints short, not as hundreds of digits.
            pytest.param(
                huge_cell_move,
                "stop_and_go",
                "scenario.warehouse.max_sim_time_s: method stop_and_go seed 0 did not finish within 3600.0 s "
                "(an event fell due at 1e+308 s)",
                id="huge-cell-move",
            ),
            pytest.param(
                huge_dead_zone_goal,
                "lorc_sc_p",
                "scenario.warehouse.max_sim_time_s: method lorc_sc_p seed 0 did not finish within 1e+301 s "
                "(robot 1: uplink never succeeded after 6e+300 s)",
                id="huge-dead-zone-goal",
            ),
        ],
    )
    def test_run_that_cannot_finish_exits_two(self, tmp_path, capsys, make, method, line, parallel):
        """Documents that validate but cannot finish a run: a route too long
        for the time limit, no uplink that can close (from the start, or from
        a loop that retries past the time limit), a first step that lands
        past the limit. The first failing seed is named, in one line of at
        most 200 characters however large the times."""
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(make()))
        assert main(["validate", str(path)]) == 0
        capsys.readouterr()
        code = main(["run", str(path), "--out", str(tmp_path / "o"), "--seeds", "0,1",
                     "--methods", method, "--parallel", parallel])
        assert code == 2
        err = capsys.readouterr().err
        assert err == line + "\n"
        assert all(len(text) <= 200 for text in err.splitlines())


def safety_first_chokepoint():
    """A 5x2 world whose one way between the halves, (2, 0), is robot 1's
    goal: robot 2 must cross it before robot 1 parks there, so safety-first
    plans the ordering [2, 1]."""
    doc = tiny_warehouse()
    doc["methods"] = list(WAREHOUSE_METHODS)
    w = doc["warehouse"]
    w["world"].update(width=5, height=2, blocked=[[2, 1]])
    w["robots"] = [{"id": 1, "start": [0, 1], "goal": [2, 0]}, {"id": 2, "start": [4, 1], "goal": [0, 0]}]
    w["intent_text"] = "Move safely."
    w["max_sim_time_s"] = 120.0
    return doc


SMALL_WAREHOUSE_INTENTS = (
    "go fast",
    "Move safely.",
    "Move very safely.",
    "Robot {lead} is much more important. Move safely.",
    "Robot {lead} is urgent, go fast.",
    "Guarantee the minimum quality for each robot, safe, gap 2.",
)


def random_small_warehouse(rng, max_sim_time_s):
    """A warehouse document of at most 7x6 cells with 1-4 robots, 0-2 humans
    walking stand-or-step waypoints and one of six intents. Its goals may be
    unreachable and its robots may not finish in time."""
    width, height = int(rng.integers(2, 8)), int(rng.integers(1, 7))
    cells = [(x, y) for x in range(width) for y in range(height)]
    n_robots = int(rng.integers(1, min(4, len(cells) // 2) + 1))
    order = rng.permutation(len(cells))
    n_blocked = int(rng.integers(0, (len(cells) - 2 * n_robots) // 3 + 1))
    free = [cells[i] for i in order[n_blocked:]]
    ids = sorted(int(i) for i in rng.choice(9, size=n_robots, replace=False) + 1)
    humans = []
    for _ in range(int(rng.integers(0, 3))):
        walk = [free[int(rng.integers(len(free)))]]
        for _ in range(int(rng.integers(3, 16))):
            x, y = walk[-1]
            steps = [c for c in ((x, y), (x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)) if c in free]
            walk.append(steps[int(rng.integers(len(steps)))])
        humans.append({"waypoints": [list(c) for c in walk], "horizon_frames": int(rng.integers(1, 9))})
    doc = tiny_warehouse()
    doc["methods"] = list(WAREHOUSE_METHODS)
    w = doc["warehouse"]
    w["world"].update(width=width, height=height, blocked=[list(cells[i]) for i in order[:n_blocked]])
    w["robots"] = [
        {"id": rid, "start": list(free[2 * k]), "goal": list(free[2 * k + 1])} for k, rid in enumerate(ids)
    ]
    if humans:
        w["humans"] = humans
    intent = SMALL_WAREHOUSE_INTENTS[int(rng.integers(len(SMALL_WAREHOUSE_INTENTS)))]
    w["intent_text"] = intent.format(lead=ids[int(rng.integers(n_robots))])
    w["max_sim_time_s"] = max_sim_time_s
    return doc


class TestSafetyFirstOrderings:
    def test_chokepoint_runs_every_method(self, tmp_path, capsys):
        """The first ordering [1, 2] cannot plan; every replanning method
        still finishes, on the ordering [2, 1]."""
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(safety_first_chokepoint()))
        assert main(["validate", str(path)]) == 0
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 0
        records = {rec["method"]: rec for rec in read_results(tmp_path / "o")}
        assert sorted(records) == sorted(WAREHOUSE_METHODS)
        assert records["stop_and_go"]["metrics"]["completion_time_s"] == 7.0

    def test_small_documents_finish_or_name_a_field(self, tmp_path, capsys):
        """Random small warehouse documents, one seed each: every run of
        every method exits 0, or 2 with a named-field error, never 1."""
        rng = np.random.default_rng(24)
        codes = Counter()
        for k in range(100):
            path = tmp_path / f"doc{k}.json"
            path.write_text(json.dumps(random_small_warehouse(rng, 20.0)))
            code = main(["run", str(path), "--out", str(tmp_path / f"o{k}")])
            err = capsys.readouterr().err
            assert code in (0, 2), (path.read_text(), err)
            assert code == 0 or err.removeprefix(f"{path}: ").startswith("scenario."), err
            codes[code] += 1
        assert codes[0] >= 25 and codes[2] >= 25, codes


def stuck_behind_human(max_sim_time_s):
    """A 2x1 world whose one robot, (0, 0) -> (1, 0) under "Move safely.",
    never arrives: a human walks (0, 0) -> (1, 0) -> (0, 0) and stays, and
    the safety-first ring around its last waypoint bars the goal for good."""
    doc = tiny_warehouse()
    doc["methods"] = list(WAREHOUSE_METHODS)
    w = doc["warehouse"]
    w["world"].update(width=2, height=1)
    w["robots"] = [{"id": 1, "start": [0, 0], "goal": [1, 0]}]
    w["humans"] = [{"waypoints": [[0, 0], [1, 0], [0, 0]]}]
    w["intent_text"] = "Move safely."
    w["max_sim_time_s"] = max_sim_time_s
    return doc


def run_outcome(scn, method, seed):
    """The record of one run, or the message of its ``UnfinishedRun``."""
    try:
        return run_one(scn, method, seed)
    except UnfinishedRun as exc:
        return str(exc)


class TestClampedFrame:
    """Replans key their human tables and plans by ``min(frame, F)``, where
    from frame ``F`` on every forecast is a last waypoint."""

    def test_small_documents_give_the_records_of_unclamped_replans(self, monkeypatch):
        """Random small warehouse documents, two seeds each: every run gives
        the record, or the error, of replans that build each table afresh
        at the unclamped frame; many replans fall past ``F``."""
        rng = np.random.default_rng(30)
        docs, past = [], Counter()
        real_next = HumanReservations.next_cells

        def counted(memo, parked, frame, *args):
            past[frame > memo._last_frame] += 1
            return real_next(memo, parked, frame, *args)

        monkeypatch.setattr(HumanReservations, "next_cells", counted)
        while len(docs) < 20:
            doc = random_small_warehouse(rng, 20.0)
            try:
                parse_scenario(doc)
            except ScenarioError:
                continue
            docs.append(doc)
        want = [run_outcome(parse_scenario(doc), m, seed) for doc in docs for m in WAREHOUSE_METHODS for seed in (0, 1)]
        monkeypatch.setattr(WarehouseSimulation, "_plan_next", reference_plan_next)
        got = [run_outcome(parse_scenario(doc), m, seed) for doc in docs for m in WAREHOUSE_METHODS for seed in (0, 1)]
        assert got == want
        assert past[True] >= 1000 and past[False] >= 300, past
        assert sum(isinstance(o, str) for o in want) >= 20, want

    def test_stuck_run_keys_tables_by_the_last_forecast_frame(self):
        """The stuck 2x1 document's ``lorc_p`` run to 5,000 s, 10,000 frames,
        builds one table, that of frame ``F`` = 1, and plans once."""
        scn = parse_scenario(stuck_behind_human(5000.0))
        with pytest.raises(UnfinishedRun):
            run_one(scn, "lorc_p", 0)
        memo = scn.inputs.human
        assert memo._last_frame == 1
        assert [frame for _, frame in memo._tables] == [1]
        assert [len(replans) for *_, replans in memo._tables.values()] == [1]


class TestUnreachableGoal:
    @pytest.mark.parametrize(
        "edit,line",
        [
            pytest.param(
                s1_goal_walled_in,
                "scenario.warehouse.robots[0].goal: cell (9, 4) cannot be reached from start (0, 4) within 80 steps",
                id="walled-in",
            ),
            pytest.param(
                s1_serpentine,
                "scenario.warehouse.robots[0].goal: cell (0, 16) cannot be reached from start (0, 0) within 136 steps",
                id="serpentine",
            ),
        ],
    )
    def test_refused_at_load_by_every_command(self, tmp_path, capsys, edit, line):
        """A goal its start cannot reach within the planner's horizon is a
        named-field error under ``validate`` and under ``run`` of every
        method, before any run."""
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(edited_s1(edit)))
        runs = [["run", str(path), "--out", str(tmp_path / "o"), "--methods", m] for m in WAREHOUSE_METHODS]
        for argv in (["validate", str(path)], *runs):
            assert main(argv) == 2
            assert capsys.readouterr().err.splitlines() == [f"{path}: {line}"]
        assert not (tmp_path / "o").exists()


def mcs_ar1_slot(slot_s):
    doc = json.loads(bundled_scenario_path("mcs-ar1").read_text())
    doc["mcs"]["radio"] = {"slot_s": slot_s}
    return doc


def tiny_mcs_slot(slot_s):
    doc = tiny_mcs()
    doc["mcs"]["radio"] = {"slot_s": slot_s}
    return doc


def s1_overflowing_frame(w):
    """warehouse-s1 with a frame of 10^310 cell moves: each forecast step
    overflows, and each move's clock advance is lost in rounding."""
    w["world"].update(frame_period_s=1e300, cell_traverse_s=1e-10)
    w["max_sim_time_s"] = 1e302


class TestOverflowRefusedAtLoad:
    @pytest.mark.parametrize(
        "doc,line",
        [
            pytest.param(mcs_ar1_slot(1e307), "scenario.mcs.radio.slot_s: 1e+307 must be <= 1000000", id="mcs-slot"),
            pytest.param(tiny_mcs_slot(1e308), "scenario.mcs.radio.slot_s: 1e+308 must be <= 1000000", id="tiny-slot"),
            pytest.param(
                edited_s1(lambda w: w.update(radio={"slot_s": 1e307})),
                "scenario.warehouse.radio.slot_s: 1e+307 must be <= 1000000",
                id="warehouse-s1-slot",
            ),
            pytest.param(
                edited_s1(s1_overflowing_frame),
                "scenario.warehouse.world: frame_period_s / cell_traverse_s is inf cell moves, more than 1000000",
                id="warehouse-s1-frame",
            ),
        ],
    )
    def test_named_by_validate_and_run(self, tmp_path, capsys, doc, line):
        """A radio slot that would make a latency sum infinite, and a frame
        of more cell moves than a run has steps, are named-field errors
        under ``validate`` and ``run``, before any run."""
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "o"), "--seeds", "0"]):
            assert main(argv) == 2
            assert capsys.readouterr().err.splitlines() == [f"{path}: {line}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "doc",
        [
            pytest.param(mcs_ar1_slot(1e6), id="mcs-ar1-slot"),
            pytest.param(edited_s1(lambda w: w["world"].update(cell_traverse_s=0.7e-6)), id="warehouse-s1-frame"),
        ],
    )
    def test_at_the_bound_runs_with_finite_records(self, tmp_path, doc):
        """At its bound each field runs; stop-and-go is left out of the
        warehouse run, because a halted robot retries once per cell move."""
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        method = doc["methods"][-1]
        assert main(["run", str(path), "--out", str(tmp_path / "o"), "--seeds", "0", "--methods", method]) == 0
        for line in (tmp_path / "o" / "results.jsonl").read_text().splitlines():
            json.loads(line, parse_constant=lambda name: pytest.fail(f"{name} in {line}"))


class TestSeedBySeed:
    @pytest.fixture
    def mcs_file(self, tmp_path):
        doc = tiny_mcs()
        doc["seeds"] = [3, 0, 1]
        path = tmp_path / "mcs.json"
        path.write_text(json.dumps(doc))
        return path

    def test_records_in_method_seed_order(self, mcs_file, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(mcs_file), "--out", str(out)]) == 0
        scn = parse_scenario(tiny_mcs())
        expected = [run_one(parse_scenario(tiny_mcs()), m, s)
                    for m in sorted(scn.methods) for s in (0, 1, 3)]
        assert read_results(out) == expected

    def test_calls_run_one_once_per_pair_seed_by_seed(self, mcs_file, tmp_path, monkeypatch):
        calls = []
        real = cli.run_one
        monkeypatch.setattr(cli, "run_one", lambda scn, m, s: calls.append((m, s)) or real(scn, m, s))
        assert main(["run", str(mcs_file), "--out", str(tmp_path / "o"), "--methods", "ideal,oracle"]) == 0
        assert calls == [(m, s) for s in (3, 0, 1) for m in ("ideal", "oracle")]

    @pytest.mark.parametrize(
        "make,methods",
        [
            (tiny_mcs, "predictive_2,oracle,ideal,delayed_2"),
            (tiny_followme, "orchestrated,vq_1x1,jpeg_q80"),
            # each worker plans on its own copy of the loaded file's memos
            (lambda: json.loads(bundled_scenario_path("warehouse-s1").read_text()),
             "lorc_sc_p,stop_and_go,lorc_sc,lorc_p"),
        ],
        ids=["mcs", "followme", "warehouse"],
    )
    def test_parallel_matches_serial(self, make, methods, tmp_path):
        doc = make()
        doc["seeds"] = [3, 0, 1]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(path), "--out", str(a)]) == 0
        assert main(["run", str(path), "--out", str(b), "--parallel", "2", "--methods", methods]) == 0
        for name in ("results.jsonl", "summary.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestParser:
    def test_built_once_across_calls(self, tmp_path, monkeypatch, capsys):
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        try:
            with pytest.raises(SystemExit) as exc:
                main(["run"])  # no scenario, no --out
            assert exc.value.code == 2
            assert main(["validate", str(tmp_path / "absent.json")]) == 2
            with pytest.raises(SystemExit) as exc:
                main(["frobnicate"])
            assert exc.value.code == 2
        finally:
            cli._parser.cache_clear()
        assert built == [1]


def write_records(dirpath, records):
    dirpath.mkdir(parents=True, exist_ok=True)
    with (dirpath / "results.jsonl").open("w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def rec(method, seed, value, sid="cmp", metric="m"):
    return {"scenario_id": sid, "kind": "mcs", "method": method, "seed": seed,
            "metrics": {metric: value}}


class TestCompare:
    def test_ranking_and_format(self, tmp_path, capsys):
        d = tmp_path / "d"
        write_records(d, [
            rec("alpha", 0, 1.0), rec("alpha", 1, 2.0),
            rec("beta", 0, 0.25),
        ])
        assert main(["compare", str(d), "--metric", "m"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "scenario cmp, metric m (median over runs, best first)"
        assert out[1] == " 1. beta           0.25  (n=1)"
        assert out[2] == " 2. alpha          1.5  (n=2)"

    def test_tie_breaks_by_method_name(self, tmp_path, capsys):
        d = tmp_path / "d"
        write_records(d, [rec("zz", 0, 1.0), rec("aa", 0, 1.0)])
        main(["compare", str(d), "--metric", "m"])
        out = capsys.readouterr().out.splitlines()
        assert out[1].startswith(" 1. aa") and out[2].startswith(" 2. zz")

    def test_multiple_dirs_accumulate(self, tmp_path, capsys):
        write_records(tmp_path / "a", [rec("alpha", 0, 1.0)])
        write_records(tmp_path / "b", [rec("alpha", 1, 3.0)])
        main(["compare", str(tmp_path / "a"), str(tmp_path / "b"), "--metric", "m"])
        assert "(n=2)" in capsys.readouterr().out

    def test_blank_lines_tolerated(self, tmp_path, capsys):
        d = tmp_path / "d"
        d.mkdir()
        body = json.dumps(rec("alpha", 0, 1.0)) + "\n\n" + json.dumps(rec("alpha", 1, 2.0)) + "\n"
        (d / "results.jsonl").write_text(body)
        assert main(["compare", str(d), "--metric", "m"]) == 0
        assert "(n=2)" in capsys.readouterr().out

    def test_records_missing_metric_skipped(self, tmp_path, capsys):
        d = tmp_path / "d"
        write_records(d, [rec("alpha", 0, 1.0), rec("beta", 0, 2.0, metric="other")])
        main(["compare", str(d), "--metric", "m"])
        out = capsys.readouterr().out
        assert "alpha" in out and "beta" not in out

    def test_metric_absent_everywhere(self, tmp_path, capsys):
        d = tmp_path / "d"
        write_records(d, [rec("alpha", 0, 1.0)])
        assert main(["compare", str(d), "--metric", "zzz"]) == 2
        assert "'zzz' not present" in capsys.readouterr().err

    def test_long_absent_metric_gives_a_short_line(self, tmp_path, capsys):
        d = tmp_path / "d"
        write_records(d, [rec("alpha", 0, 1.0)])
        assert main(["compare", str(d), "--metric", "z" * 5000]) == 2
        err = capsys.readouterr().err
        assert err.startswith("--metric: 'zzz") and len(err.splitlines()[0]) <= 200, err[:300]

    def test_mixed_scenarios_rejected(self, tmp_path, capsys):
        write_records(tmp_path / "a", [rec("alpha", 0, 1.0, sid="one")])
        write_records(tmp_path / "b", [rec("alpha", 1, 2.0, sid="two")])
        code = main(["compare", str(tmp_path / "a"), str(tmp_path / "b"), "--metric", "m"])
        assert code == 2
        assert "mix different scenarios" in capsys.readouterr().err

    def test_missing_results_file(self, tmp_path, capsys):
        assert main(["compare", str(tmp_path / "none"), "--metric", "m"]) == 2
        assert "no such results file" in capsys.readouterr().err

    def test_corrupt_results_line(self, tmp_path, capsys):
        d = tmp_path / "d"
        d.mkdir()
        (d / "results.jsonl").write_text('{"ok": 1}\nnot json\n')
        assert main(["compare", str(d), "--metric", "m"]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            "5",
            "[1, 2]",
            json.dumps({"scenario_id": "cmp", "metrics": {"m": 1.0}}),
            json.dumps({"scenario_id": "cmp", "method": 5, "metrics": {"m": 1.0}}),
            json.dumps({"scenario_id": ["cmp"], "method": "alpha", "metrics": {"m": 1.0}}),
            json.dumps({"scenario_id": "cmp", "method": "alpha", "metrics": [1.0]}),
            json.dumps(rec("alpha", 1, "fast")),
            json.dumps(rec("alpha", 1, [1.0])),
            json.dumps(rec("alpha", 1, True)),
            json.dumps(rec("alpha", 1, 10**400)),
            '{"seed": ' + "1" * 5000 + "}",
        ],
        ids=[
            "number", "list", "no-method", "int-method", "list-id", "list-metrics",
            "string-metric", "list-metric", "bool-metric", "overflowing-metric", "overlong-integer",
        ],
    )
    def test_unreadable_record_names_its_line(self, tmp_path, capsys, line):
        d = tmp_path / "d"
        d.mkdir()
        (d / "results.jsonl").write_text(json.dumps(rec("alpha", 0, 1.0)) + "\n" + line + "\n")
        assert main(["compare", str(d), "--metric", "m"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{d / 'results.jsonl'}:2: ") and len(err.splitlines()) == 1, err[:300]
        assert len(err) <= 300, err[:400]

    def test_duplicate_key_names_its_line(self, tmp_path, capsys):
        d = tmp_path / "d"
        d.mkdir()
        line = json.dumps(rec("alpha", 0, 1.0))[:-2] + ', "m": 2.0}}'
        (d / "results.jsonl").write_text(json.dumps(rec("alpha", 1, 1.0)) + "\n" + line + "\n")
        assert main(["compare", str(d), "--metric", "m"]) == 2
        assert capsys.readouterr().err.splitlines() == [f"{d / 'results.jsonl'}:2: invalid JSON: duplicate key 'm'"]

    def test_undecodable_results_file(self, tmp_path, capsys):
        d = tmp_path / "d"
        d.mkdir()
        (d / "results.jsonl").write_bytes(b'{"method": "caf\xe9"}\n')
        assert main(["compare", str(d), "--metric", "m"]) == 2
        assert capsys.readouterr().err.startswith(f"{d / 'results.jsonl'}: cannot read: 'utf-8' codec")

    def test_records_without_scenario_id_are_a_mix(self, tmp_path, capsys):
        write_records(tmp_path / "a", [rec("alpha", 0, 1.0)])
        write_records(tmp_path / "b", [{"method": "alpha", "seed": 1, "metrics": {"m": 2.0}}])
        code = main(["compare", str(tmp_path / "a"), str(tmp_path / "b"), "--metric", "m"])
        assert code == 2
        assert capsys.readouterr().err == "scenario_id: result dirs mix different scenarios ['cmp', None]\n"

    def test_long_scenario_ids_give_a_short_line(self, tmp_path, capsys):
        write_records(tmp_path / "a", [rec("alpha", 0, 1.0, sid="a" * 5000)])
        write_records(tmp_path / "b", [rec("alpha", 1, 2.0, sid="b" * 5000)])
        assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b"), "--metric", "m"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario_id: result dirs mix different scenarios ['aaa") and len(err) <= 200, err[:300]
