"""Scenario schema, builders, and the three per-kind runners."""

import contextlib
import copy
import dataclasses
import gc
import importlib.util
import io
import itertools
import json
import math
import pickle
import random
import tempfile
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import WAREHOUSE_IDS, check_digests, scenario_errors
from oracles import reference_human_table, reference_plan_next, reference_run_followme, table_ids
from r2xsim import orchestrator, radio, scenarios
from r2xsim.cli import main
from r2xsim.linkadapt import PolicySpec
from r2xsim.orchestrator import HumanReservations
from r2xsim.planner import PlanConfig, PlanningError, ReservationTable, low_level_search, plan
from r2xsim.world import RobotState
from r2xsim.scenarios import (
    FOLLOWME_METHODS,
    Scenario,
    ScenarioError,
    bundled_scenario_path,
    load_scenario,
    parse_scenario,
    run_one,
)

BUNDLED = (
    "warehouse-s1",
    "warehouse-s2",
    "warehouse-s3",
    "warehouse-s4",
    "mcs-ar1",
    "followme-corridor",
)

LONG = "x" * 5000

FM_MODES = ("jpeg_q95", "jpeg_q80", "jpeg_q60", "vq_1x1", "vq_1x2", "vq_1x3")


def tiny_warehouse():
    return {
        "schema_version": 1,
        "id": "tiny-wh",
        "kind": "warehouse",
        "seeds": [0],
        "methods": ["stop_and_go", "lorc_sc_p"],
        "warehouse": {
            "world": {"width": 4, "height": 1, "frame_period_s": 0.5},
            "robots": [{"id": 1, "start": [0, 0], "goal": [3, 0]}],
            "gain": {"base_gain_db": -50.0, "ap": [0, 0], "slope_db_per_cell": 1.0},
            "budget": {
                "detection_s": 0.05,
                "encode_s": 0.01,
                "link_context_s": 0.02,
                "orchestration_s": 0.05,
            },
            "payloads": {"raw": 6220800, "semantic_feature": 5160},
            "intent_text": "go fast",
            "max_sim_time_s": 3600.0,
        },
    }


def tiny_mcs():
    return {
        "schema_version": 1,
        "id": "tiny-mcs",
        "kind": "mcs",
        "seeds": [0, 1],
        "methods": ["oracle", "ideal", "delayed_2", "predictive_2"],
        "mcs": {
            "steps": 60,
            "corridor_cells": 12,
            "gain_profile": {"base_db": -106.0, "amplitude_db": 8.0, "period_cells": 12.0},
            "shadowing_rho": 0.9,
            "shadowing_sigma_db": 3.0,
            "payload_bytes": 1500,
        },
    }


def tiny_followme():
    return {
        "schema_version": 1,
        "id": "tiny-fm",
        "kind": "followme",
        "seeds": [0],
        "methods": ["jpeg_q80", "vq_1x1", "orchestrated"],
        "followme": {
            "total_steps": 60,
            "distance_profile": [[0.0, 4.0], [59.0, 13.0]],
            "rssi_curve": [[0.0, -28.0], [16.0, -58.0]],
            "noise": {"rho": 0.8, "sigma_db": 1.0},
            "throughput_curve": [[-60.0, 1.0e6], [-30.0, 4.0e7]],
            "bit_error_curve": [[-60.0, 1.0e-4], [-30.0, 1.0e-7]],
            "codec_s": {"jpeg": [0.02, 0.01], "vq": [0.03, 0.005]},
            "payload_bytes": {
                "jpeg_q95": 420000,
                "jpeg_q80": 180000,
                "jpeg_q60": 120000,
                "vq_1x1": 1720,
                "vq_1x2": 3440,
                "vq_1x3": 5160,
            },
            "perception": {
                "lose_prob": {m: 0.01 for m in FM_MODES},
                "far_lose_prob": {m: 0.08 for m in FM_MODES},
                "far_distance_m": {m: 9.0 for m in FM_MODES},
                "reacquire_prob": {m: 0.6 for m in FM_MODES},
            },
            "cta_useful_s": 0.4,
            "loss_threshold_steps": 3,
        },
    }


def leaf_paths(node, path=()):
    """Key paths of the scalar leaves of a JSON document."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        yield path
        return
    for key, child in children:
        yield from leaf_paths(child, path + (key,))


LEAVES = [(make, path) for make in (tiny_warehouse, tiny_mcs, tiny_followme) for path in leaf_paths(make())]
# Huge integers and floats are refused by the size, payload and dB bounds
# before anything of their size is allocated or summed.
LEAF_VALUES = (0, 1, -1, 2.5, 1e15, 10**400, 1e308, -1e308, math.nan, math.inf, "x", None, [], {}, True)
DELETE = object()

# Numeric leaves of the bundled files that a move may leave out of the run
# inputs, as "<file>: <path>": <reason>. None today.
UNREAD_LEAVES = {}


def leaf_moves(value):
    """The two moves of a numeric leaf: +1 and -1 for an int, x1.25 and x0.8
    for a float, 0.1 and 1.0 for a float zero."""
    if isinstance(value, int):
        return value + 1, value - 1
    return (value * 1.25, value * 0.8) if value else (0.1, 1.0)


def inputs_bytes(doc) -> bytes:
    """The pickled run inputs ``doc`` builds, without the warehouse's
    per-file memo of human tables."""
    inputs = parse_scenario(doc).inputs
    if isinstance(inputs, orchestrator.WarehouseInputs):
        inputs = dataclasses.replace(inputs)
    return pickle.dumps(inputs)


class TestBundledCorpus:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_loads_clean(self, name, bundled_dir):
        scn = load_scenario(bundled_dir / f"{name}.json")
        assert scn.id == name
        assert len(scn.seeds) == 20
        assert len(set(scn.seeds)) == 20

    def test_kinds(self, bundled_dir):
        kinds = {load_scenario(p).kind for p in bundled_dir.glob("warehouse-*.json")}
        assert kinds == {"warehouse"}
        assert load_scenario(bundled_dir / "mcs-ar1.json").kind == "mcs"
        assert load_scenario(bundled_dir / "followme-corridor.json").kind == "followme"

    def test_followme_offers_all_methods(self, bundled_dir):
        scn = load_scenario(bundled_dir / "followme-corridor.json")
        assert scn.methods == FOLLOWME_METHODS

    def test_bundled_scenario_path(self):
        assert bundled_scenario_path("warehouse-s1").name == "warehouse-s1.json"
        with pytest.raises(FileNotFoundError, match="available"):
            bundled_scenario_path("warehouse-s9")

    def test_generator_reproduces_bundled_files(self, bundled_dir, tmp_path, capsys):
        spec = importlib.util.spec_from_file_location(
            "make_scenarios", Path(__file__).resolve().parents[1] / "tools" / "make_scenarios.py"
        )
        make_scenarios = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(make_scenarios)
        make_scenarios.main([str(tmp_path)])
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{n}.json" for n in BUNDLED)
        for name in BUNDLED:
            assert (tmp_path / f"{name}.json").read_bytes() == (bundled_dir / f"{name}.json").read_bytes()


class TestValidation:
    def test_valid_documents_have_no_errors(self):
        for doc in (tiny_warehouse(), tiny_mcs(), tiny_followme()):
            assert scenario_errors(doc) == []

    def test_string_description_and_largest_budget_are_valid(self):
        doc = tiny_warehouse()
        doc["description"] = ""
        doc["warehouse"]["budget"] = dict.fromkeys(doc["warehouse"]["budget"], 10**6)
        assert scenario_errors(doc) == []

    def test_non_object(self):
        assert scenario_errors([1, 2]) == ["scenario: must be an object"]

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda d: d.pop("schema_version"), "scenario.schema_version: required field missing"),
            (lambda d: d.update(schema_version=2), "not the supported version 1"),
            (lambda d: d.update(schema_version=True), "scenario.schema_version: True is not the supported version 1"),
            (lambda d: d.update(schema_version=1.0), "scenario.schema_version: 1.0 is not the supported version 1"),
            (lambda d: d.update(id=""), "scenario.id"),
            (lambda d: d.update(description=5), "scenario.description: 5 must be a string"),
            (lambda d: d.update(description=None), "scenario.description: None must be a string"),
            (lambda d: d.update(description={"a": [1, 2]}), "scenario.description: {'a': [1, 2]} must be a string"),
            (lambda d: d.update(description=["list"]), "scenario.description: ['list'] must be a string"),
            (lambda d: d.update(extra=1), "scenario.extra: unknown field"),
            (lambda d: d.update(seeds=[]), "scenario.seeds"),
            (lambda d: d.update(seeds=[0, 0]), "seeds must be distinct"),
            (lambda d: d.update(seeds=[0, -1]), "nonnegative"),
            (lambda d: d.update(seeds=[0, True]), "nonnegative"),
            (lambda d: d.update(methods=[]), "scenario.methods"),
            (lambda d: d.update(methods=["warp"]), "'warp' is not one of"),
            (lambda d: d.update(methods=["lorc_sc_p", "lorc_sc_p"]), "scenario.methods: methods must be distinct"),
            (lambda d: d.pop("warehouse"), "scenario.warehouse: required section missing"),
            (lambda d: d.update(mcs={}), "section not allowed for kind 'warehouse'"),
        ],
    )
    def test_top_level(self, mutate, needle):
        doc = tiny_warehouse()
        mutate(doc)
        errors = scenario_errors(doc)
        assert any(needle in e for e in errors), errors

    def test_bad_kind_short_circuits(self):
        doc = tiny_warehouse()
        doc["kind"] = "circus"
        errors = scenario_errors(doc)
        assert errors == ["scenario.kind: 'circus' is not one of ('warehouse', 'mcs', 'followme')"]

    def test_allowed_methods_listed_in_order(self):
        doc = tiny_warehouse()
        doc["methods"] = ["warp"]
        assert scenario_errors(doc) == [
            "scenario.methods: 'warp' is not one of ('stop_and_go', 'lorc_p', 'lorc_sc', 'lorc_sc_p')"
        ]
        doc = tiny_mcs()
        doc["methods"] = ["oracle\n"]
        assert scenario_errors(doc) == [
            "scenario.methods: 'oracle\\n' must be 'oracle', 'ideal', 'delayed_<d>' or 'predictive_<d>'"
            " (<d> without leading zeros)"
        ]

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda s: s["world"].pop("width"), "scenario.warehouse.world.width: required field missing"),
            (lambda s: s["world"].update(width=0), "must be >= 1"),
            (lambda s: s["world"].update(turbo=1), "scenario.warehouse.world.turbo: unknown field"),
            (
                lambda s: s["robots"][0].update(id=10**18),
                "scenario.warehouse.robots[0].id: 1000000000000000000 must have at most 18 digits",
            ),
            (lambda s: s["world"].update(blocked=[[0, 0, 0]]), "scenario.warehouse.world.blocked[0]"),
            (lambda s: s["world"].update(blocked_rects=[[0, 0, 1]]), "blocked_rects[0]"),
            (lambda s: s.update(robots=[]), "scenario.warehouse.robots: must be a nonempty list"),
            (
                lambda s: s.update(robots=[{"id": 1, "start": [0, 0], "goal": [3, 0]},
                                           {"id": 1, "start": [1, 0], "goal": [2, 0]}]),
                "duplicate robot id 1",
            ),
            (
                lambda s: s.update(robots=[{"id": 1, "start": [0, 0], "goal": [3, 0]},
                                           {"id": 2, "start": [0, 0], "goal": [2, 0]}]),
                "starts must be distinct",
            ),
            (
                lambda s: s.update(robots=[{"id": 1, "start": [0, 0], "goal": [9, 0]}]),
                "outside 4x1 world",
            ),
            (
                lambda s: (s["world"].update(blocked=[[3, 0]]),),
                "cell (3, 0) is blocked",
            ),
            (lambda s: s["world"].update(blocked=[[9, 0]]), "scenario.warehouse.world.blocked[0]: cell (9, 0) outside 4x1 world"),
            (
                lambda s: s["world"].update(blocked_rects=[[-1, 0, 0, 0]]),
                "scenario.warehouse.world.blocked_rects[0]: [-1, 0, 0, 0] outside 4x1 world",
            ),
            (
                lambda s: s.update(humans=[{"waypoints": [[0, 0], [2, 0]]}]),
                "not a stand or 4-neighbor move",
            ),
            (
                lambda s: s.update(humans=[{"waypoints": [[9, 9]]}]),
                "scenario.warehouse.humans[0].waypoints[0]: cell (9, 9) outside 4x1 world",
            ),
            (lambda s: s["gain"].pop("ap"), "scenario.warehouse.gain.ap"),
            (lambda s: s["gain"].update(ap=[10**400, 0]), "scenario.warehouse.gain.ap: cell (1000"),
            (lambda s: s["gain"].update(ap=[4, 0]), "scenario.warehouse.gain.ap: cell (4, 0) outside 4x1 world"),
            (lambda s: s["gain"].update(base_gain_db=-1e308), "scenario.warehouse.gain.base_gain_db: -1e+308 must be >= -10000"),
            (lambda s: s["gain"].update(slope_db_per_cell=1e308), "scenario.warehouse.gain.slope_db_per_cell: 1e+308 must be <= 10000"),
            (
                lambda s: s["gain"].update(dead_zones=[{"rect": [0, 0, 1, 0], "extra_loss_db": 10001}]),
                "scenario.warehouse.gain.dead_zones[0].extra_loss_db: 10001 must be <= 10000",
            ),
            (lambda s: s.update(radio={"target_snr_db": 1e308}), "scenario.warehouse.radio.target_snr_db: 1e+308 must be <= 10000"),
            (lambda s: s["gain"].update(shadowing_rho=1.0), "must be in [0, 1)"),
            (lambda s: s["budget"].pop("encode_s"), "scenario.warehouse.budget.encode_s"),
            (lambda s: s["budget"].update(detection_s=-0.1), "must be >= 0"),
            (
                lambda s: s["budget"].update(detection_s=1e7),
                "scenario.warehouse.budget.detection_s: 10000000.0 must be <= 1000000",
            ),
            (
                lambda s: s["budget"].update({key: 1e308 for key in s["budget"]}),
                "scenario.warehouse.budget.orchestration_s: 1e+308 must be <= 1000000",
            ),
            (lambda s: s["payloads"].pop("raw"), "scenario.warehouse.payloads.raw"),
            (lambda s: s.update(intent_text=7), "scenario.warehouse.intent_text: must be a string"),
            (lambda s: s.update(max_sim_time_s=0.5), "must be >= 1"),
            (lambda s: s.update(radio={"max_retx": -1}), "scenario.warehouse.radio.max_retx"),
            (lambda s: s.update(radio={"warp": 1}), "scenario.warehouse.radio.warp: unknown field"),
            (
                lambda s: (s["world"].update(blocked=[[1, 0]]), s.update(humans=[{"waypoints": [[1, 0]]}])),
                "scenario.warehouse.humans[0].waypoints[0]: cell (1, 0) is blocked",
            ),
            # bounds the model constructors also hold, each at its own field
            (lambda s: s["world"].update(frame_period_s=0), "scenario.warehouse.world.frame_period_s: 0 must be > 0.0"),
            (
                lambda s: s["world"].update(cell_traverse_s=0),
                "scenario.warehouse.world.cell_traverse_s: 0 must be > 0.0",
            ),
            (lambda s: s["world"].update(cell_size_m=2.0), "scenario.warehouse.world.cell_size_m: unknown field"),
            (lambda s: s["budget"].update(deadline_s=1.4), "scenario.warehouse.budget.deadline_s: unknown field"),
            (lambda s: s.update(radio={"slot_s": 0}), "scenario.warehouse.radio.slot_s: 0 must be > 0.0"),
            (
                lambda s: s["gain"].update(dead_zones=[{"rect": [50, 50, 60, 60], "extra_loss_db": 5.0}]),
                "scenario.warehouse.gain.dead_zones[0].rect: [50, 50, 60, 60] outside 4x1 world",
            ),
            (
                lambda s: s["gain"].update(dead_zones=[{"rect": [-1, 0, 0, 0], "extra_loss_db": 5.0}]),
                "scenario.warehouse.gain.dead_zones[0].rect: [-1, 0, 0, 0] outside 4x1 world",
            ),
            # non-finite numbers, non-list sections, reversed rectangles
            (
                lambda s: s.update(max_sim_time_s=math.inf),
                "scenario.warehouse.max_sim_time_s: inf must be a finite number",
            ),
            (
                lambda s: s["budget"].update(detection_s=math.nan),
                "scenario.warehouse.budget.detection_s: nan must be a finite number",
            ),
            (lambda s: s["world"].update(blocked=5), "scenario.warehouse.world.blocked: must be a list"),
            (lambda s: s["world"].update(blocked_rects=5), "scenario.warehouse.world.blocked_rects: must be a list"),
            (lambda s: s.update(humans=5), "scenario.warehouse.humans: must be a list"),
            (lambda s: s["gain"].update(dead_zones=5), "scenario.warehouse.gain.dead_zones: must be a list"),
            # more shadowing frames than the cap
            (
                lambda s: s.update(max_sim_time_s=1e15),
                "scenario.warehouse: max_sim_time_s / world.frame_period_s is 2e+15 frames, "
                "more than 1000000",
            ),
            (
                lambda s: s["world"].update(frame_period_s=1e-300),
                "scenario.warehouse: max_sim_time_s / world.frame_period_s is 3.6e+303 frames",
            ),
            (
                lambda s: s["world"].update(blocked_rects=[[5, 5, 3, 3]]),
                "scenario.warehouse.world.blocked_rects[0]: [5, 5, 3, 3] must be [x0, y0, x1, y1] integers "
                "with x0 <= x1 and y0 <= y1",
            ),
            # more values those bounds refuse
            (
                lambda s: s["world"].update(cell_traverse_s=-1),
                "scenario.warehouse.world.cell_traverse_s: -1 must be > 0.0",
            ),
            (
                lambda s: s["gain"].update(dead_zones=[{"rect": [0, 0, 99, 99], "extra_loss_db": 5.0}]),
                "scenario.warehouse.gain.dead_zones[0].rect: [0, 0, 99, 99] outside 4x1 world",
            ),
            # more cells than the cap, refused before the world is allocated
            (
                lambda s: s["world"].update(width=10**9),
                "scenario.warehouse.world: 1000000000x1 is more than 1000000 cells",
            ),
            (lambda s: s["world"].update(width=1001, height=1000), "scenario.warehouse.world: 1001x1000 is more"),
        ],
    )
    def test_warehouse_section(self, mutate, needle):
        doc = tiny_warehouse()
        mutate(doc["warehouse"])
        errors = scenario_errors(doc)
        assert any(needle in e for e in errors), errors

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda s: s.pop("steps"), "scenario.mcs.steps: required field missing"),
            (lambda s: s.update(corridor_cells=1), "must be >= 2"),
            (lambda s: s["gain_profile"].pop("base_db"), "gain_profile.base_db"),
            (lambda s: s.update(shadowing_rho=-0.1), "must be in [0, 1)"),
            (lambda s: s.update(bler_target=1.5), "must be in (0, 1)"),
            (lambda s: s.update(payload_bytes=0), "must be >= 1"),
            (lambda s: s.update(steps=2), "scenario.mcs.steps: 2 must exceed the delay of method 'delayed_2'"),
            (lambda s: s.update(steps=10**6 + 1), "scenario.mcs.steps: 1000001 must be <= 1000000"),
            (lambda s: s.update(corridor_cells=10**6 + 1), "scenario.mcs.corridor_cells: 1000001 must be <= 1000000"),
            (lambda s: s.update(radio={"slot_s": 0}), "scenario.mcs.radio.slot_s: 0 must be > 0.0"),
            (
                lambda s: s.update(shadowing_sigma_db=math.nan),
                "scenario.mcs.shadowing_sigma_db: nan must be a finite number",
            ),
            (lambda s: s.update(radio={"slot_s": -1}), "scenario.mcs.radio.slot_s: -1 must be > 0.0"),
            (lambda s: s.update(shadowing_sigma_db=10001), "scenario.mcs.shadowing_sigma_db: 10001 must be <= 10000"),
            (lambda s: s["gain_profile"].update(base_db=-10001), "scenario.mcs.gain_profile.base_db: -10001 must be >= -10000"),
            (lambda s: s["gain_profile"].update(amplitude_db=1e308), "scenario.mcs.gain_profile.amplitude_db: 1e+308 must be <= 10000"),
            (lambda s: s.update(radio={"noise_dbm": -1e308}), "scenario.mcs.radio.noise_dbm: -1e+308 must be >= -10000"),
            (lambda s: s.update(radio={"target_snr_db": 15.0}), "scenario.mcs.radio.target_snr_db: unknown field"),
        ],
    )
    def test_mcs_section(self, mutate, needle):
        doc = tiny_mcs()
        mutate(doc["mcs"])
        errors = scenario_errors(doc)
        assert any(needle in e for e in errors), errors

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda s: s.update(distance_profile=[[0, 1]]), "at least 2"),
            (lambda s: s.update(total_steps=10**6 + 1), "scenario.followme.total_steps: 1000001 must be <= 1000000"),
            (lambda s: s.update(rssi_curve=[[5.0, -30.0], [2.0, -40.0]]), "strictly increasing"),
            (
                lambda s: s.update(throughput_curve=[[-60.0, 0.0], [-30.0, 1e6]]),
                "scenario.followme.throughput_curve[0]: throughput 0.0 must be >= 1.0 b/s",
            ),
            (
                lambda s: s.update(throughput_curve=[[-60.0, 1e6], [-30.0, 0.999]]),
                "scenario.followme.throughput_curve[1]: throughput 0.999 must be >= 1.0 b/s",
            ),
            (lambda s: s.update(slot_s=10**6 + 1), "scenario.followme.slot_s: 1000001 must be <= 1000000"),
            (
                lambda s: s["codec_s"].update(jpeg=[0.01, 1e6 + 1]),
                "scenario.followme.codec_s.jpeg: [0.01, 1000001.0] must be [encode_s, decode_s], each in [0, 1000000]",
            ),
            (lambda s: s.update(bit_error_curve=[[-60.0, 1.5], [-30.0, 1e-7]]), "must be in (0, 1)"),
            (lambda s: s["codec_s"].update(jpeg=[0.02]), "must be [encode_s, decode_s]"),
            (lambda s: s["payload_bytes"].pop("vq_1x2"), "payload_bytes.vq_1x2: required field missing"),
            (lambda s: s["perception"]["lose_prob"].update(jpeg_q95=1.5), "must be in [0, 1]"),
            (lambda s: s["perception"].pop("reacquire_prob"), "perception.reacquire_prob"),
            (lambda s: s["noise"].update(rho=1.0), "must be in [0, 1)"),
            (lambda s: s["noise"].update(sigma_db=1e308), "scenario.followme.noise.sigma_db: 1e+308 must be <= 10000"),
            (
                lambda s: s["noise"].update(sigma_db=math.nan),
                "scenario.followme.noise.sigma_db: nan must be a finite number",
            ),
            (
                lambda s: s.update(rssi_curve=[[0.0, -30.0], [5.0, math.nan]]),
                "scenario.followme.rssi_curve[1]: [5.0, nan] must be an [x, y] finite number pair",
            ),
            (
                lambda s: s["codec_s"].update(vq=[0.01, math.inf]),
                "scenario.followme.codec_s.vq: [0.01, inf] must be [encode_s, decode_s]",
            ),
            (lambda s: s.update(frame_period_s=0.25), "scenario.followme.frame_period_s: unknown field"),
        ],
    )
    def test_followme_section(self, mutate, needle):
        doc = tiny_followme()
        mutate(doc["followme"])
        errors = scenario_errors(doc)
        assert any(needle in e for e in errors), errors

    @settings(max_examples=2000, derandomize=True, database=None, deadline=None)
    @given(st.sampled_from(LEAVES), st.sampled_from(LEAF_VALUES + (DELETE,)))
    def test_mutated_leaf_is_named_or_runs(self, leaf, value):
        """A document with one leaf replaced or deleted is either rejected
        with field paths, or ``r2xsim run`` on it exits 0 with finite
        records, or exits 2 with field-path lines (a run that did not finish
        in time)."""
        make, path = leaf
        doc = make()
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
        errors = scenario_errors(doc)
        if errors:
            assert all(e.startswith("scenario.") for e in errors), errors
            return
        method = parse_scenario(doc).methods[0]
        stderr = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            path = Path(tmp) / "doc.json"
            path.write_text(json.dumps(doc))
            code = main(["run", str(path), "--seeds", "0", "--methods", method, "--out", str(Path(tmp) / "out")])
            if code == 0:
                for line in (Path(tmp) / "out" / "results.jsonl").read_text().splitlines():
                    json.loads(line, parse_constant=lambda name: pytest.fail(f"{name} in {line}"))
        assert code in (0, 2), stderr.getvalue()
        if code == 2:
            lines = stderr.getvalue().splitlines()
            assert lines and all(line.startswith("scenario.") for line in lines), lines

    @pytest.mark.parametrize("name", BUNDLED)
    def test_every_moved_leaf_is_named_or_reaches_the_inputs(self, name, bundled_dir):
        """Each numeric leaf of a bundled file, but ``seeds`` and
        ``schema_version``, moved either way, is either refused at field
        paths or changes the run inputs the file builds, unless it is listed
        in UNREAD_LEAVES with its reason.

        It does not catch a value that is stored on the inputs and read by
        no run, as the warehouse ``budget.deadline_s`` was."""
        doc = json.loads((bundled_dir / f"{name}.json").read_text())
        base = inputs_bytes(doc)
        assert inputs_bytes(doc) == base  # the comparison is deterministic
        unread = set()
        for path in leaf_paths(doc):
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            value = parent[path[-1]]
            if path[0] in ("seeds", "schema_version") or type(value) not in (int, float):
                continue
            for moved in leaf_moves(value):
                parent[path[-1]] = moved
                try:
                    if inputs_bytes(doc) == base:
                        unread.add(f"{name}: " + ".".join(map(str, path)))
                except ScenarioError as exc:
                    assert all(e.startswith("scenario.") for e in exc.errors), exc.errors
            parent[path[-1]] = value
        assert unread == {leaf for leaf in UNREAD_LEAVES if leaf.startswith(f"{name}: ")}

    def test_mcs_delay_has_at_most_18_digits(self):
        doc = tiny_mcs()
        doc["methods"] = ["delayed_" + "1" * 5000, "predictive_" + "1" * 19]
        errors = scenario_errors(doc)
        assert len(errors) == 2 and all("must be 'oracle', 'ideal'" in e for e in errors), errors

    def test_mcs_delay_has_no_leading_zero(self):
        # delayed_1 and delayed_01 would run one policy under two names.
        doc = tiny_mcs()
        doc["methods"] = ["delayed_1", "delayed_01", "predictive_001", "delayed_0"]
        assert scenario_errors(doc) == [
            f"scenario.methods: {m!r} must be 'oracle', 'ideal', 'delayed_<d>' or 'predictive_<d>'"
            " (<d> without leading zeros)"
            for m in ("delayed_01", "predictive_001")
        ]
        doc["methods"] = ["delayed_0", "predictive_0", "delayed_10"]
        assert parse_scenario(doc).inputs.policies == {
            "delayed_0": PolicySpec("delayed", 0),
            "predictive_0": PolicySpec("predictive", 0),
            "delayed_10": PolicySpec("delayed", 10),
        }

    @pytest.mark.parametrize(
        "make,mutate",
        [
            (tiny_warehouse, lambda d: d.update(schema_version=LONG)),
            (tiny_warehouse, lambda d: d.update(kind=LONG)),
            (tiny_warehouse, lambda d: d.update(methods=[LONG])),
            (tiny_warehouse, lambda d: d.update({LONG: 1})),
            (tiny_warehouse, lambda d: d["warehouse"]["world"].update(width=LONG, height=[LONG] * 5000)),
            (tiny_warehouse, lambda d: d["warehouse"]["robots"][0].update(id=LONG, start=LONG, goal=[LONG, 1])),
            (tiny_warehouse, lambda d: d["warehouse"]["robots"][0].update(id=10**4000, start=[10**4000, 0])),
            (tiny_warehouse, lambda d: d["warehouse"].update(humans=[{"waypoints": [[0, 0], [10**4000, 0]]}])),
            (tiny_warehouse, lambda d: d["warehouse"]["gain"].update(dead_zones=[{"rect": LONG, "extra_loss_db": LONG}])),
            (tiny_warehouse, lambda d: d["warehouse"]["gain"].update(dead_zones=[{"rect": [0, 0, 10**4000, 0], "extra_loss_db": 1}])),
            (tiny_mcs, lambda d: d.update(methods=[LONG, "delayed_" + "1" * 5000])),
            (tiny_mcs, lambda d: d["mcs"].update(bler_target=LONG, steps=LONG)),
            (tiny_followme, lambda d: d["followme"]["codec_s"].update(jpeg=[LONG, LONG])),
            (tiny_followme, lambda d: d["followme"]["perception"]["lose_prob"].update(jpeg_q80=LONG)),
            (tiny_followme, lambda d: d["followme"].update(rssi_curve=[[LONG, 1], [2, 3]], noise={"rho": LONG, "sigma_db": 1})),
        ],
    )
    def test_long_values_give_short_error_lines(self, make, mutate):
        doc = make()
        mutate(doc)
        errors = scenario_errors(doc)
        assert errors
        assert max(len(e) for e in errors) <= 200, [e[:300] for e in errors]

    @pytest.mark.parametrize(
        "key,value",
        [
            ("blocked", [[10**4000, 0]]),
            ("blocked_rects", [[0, 0, 2000, 2000]]),
            ("blocked_rects", [[0, 0, 10**9, 10**9]]),
        ],
    )
    def test_blocked_outside_the_world_is_one_short_field_error(self, key, value):
        doc = tiny_warehouse()
        doc["warehouse"]["world"][key] = value
        t0 = time.process_time()
        errors = scenario_errors(doc)
        assert time.process_time() - t0 < 1.0
        assert len(errors) == 1, [e[:300] for e in errors]
        assert errors[0].startswith(f"scenario.warehouse.world.{key}[0]: ") and len(errors[0]) <= 200, errors

    @pytest.mark.parametrize(
        "key,value,error",
        [
            ("height", 0, "scenario.warehouse.world.height: 0 must be >= 1"),
            ("width", 0, "scenario.warehouse.world.width: 0 must be >= 1"),
            ("height", "x", "scenario.warehouse.world.height: 'x' must be an integer"),
        ],
    )
    def test_one_bad_world_size_is_the_only_error(self, key, value, error):
        """Cells are checked against the world only when both sizes are
        valid, so a bad size gives no "outside" line per robot or waypoint."""
        doc = tiny_warehouse()
        doc["warehouse"]["world"][key] = value
        doc["warehouse"]["humans"] = [{"waypoints": [[1, 0], [2, 0]]}]
        assert scenario_errors(doc) == [error]

    @pytest.mark.parametrize("make,kind", [(tiny_warehouse, "warehouse"), (tiny_mcs, "mcs")])
    def test_null_radio_is_an_error(self, make, kind, tmp_path):
        doc = make()
        doc[kind]["radio"] = None
        assert scenario_errors(doc) == [f"scenario.{kind}.radio: must be an object"]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2

    @pytest.mark.parametrize(
        "make,edit,field",
        [
            (
                tiny_followme,
                lambda d: d["followme"].update(
                    bit_error_curve=[[-60.0, 0.5], [-30.0, 0.5]], max_attempts=10**12,
                ),
                "scenario.followme.max_attempts",
            ),
            (
                tiny_mcs,
                lambda d: (d["mcs"]["gain_profile"].update(base_db=-400.0), d["mcs"].update(radio={"max_retx": 10**12})),
                "scenario.mcs.radio.max_retx",
            ),
            (
                tiny_warehouse,
                lambda d: (d["warehouse"]["gain"].update(base_gain_db=-400.0),
                           d["warehouse"].update(radio={"max_retx": 10**12}, max_sim_time_s=5.0)),
                "scenario.warehouse.radio.max_retx",
            ),
        ],
        ids=["followme", "mcs", "warehouse"],
    )
    def test_retries_are_bounded(self, make, edit, field, tmp_path, capsys):
        """A retry bound past 64 is a field error; at 64 a run on a link that
        always fails ends (exit 0, or 2 for a warehouse run that cannot
        finish)."""
        doc = make()
        edit(doc)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.strip().endswith(f"{field}: 1000000000000 must be <= 64")
        section = doc[doc["kind"]]
        if "max_attempts" in section:
            section["max_attempts"] = 64
        else:
            section["radio"]["max_retx"] = 64
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 0
        t0 = time.process_time()
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) in (0, 2)
        assert time.process_time() - t0 < 10.0

    def test_human_horizon_is_bounded(self, tmp_path, capsys):
        """A forecast horizon past 1,024 frames is a field error; at 1,024 a
        run finishes."""
        doc = tiny_warehouse()
        doc["warehouse"]["world"]["height"] = 2
        doc["warehouse"]["humans"] = [{"waypoints": [[1, 1]], "horizon_frames": 10**7}]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.strip().endswith(
            "scenario.warehouse.humans[0].horizon_frames: 10000000 must be <= 1024"
        )
        doc["warehouse"]["humans"][0]["horizon_frames"] = 1024
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 0
        t0 = time.process_time()
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        assert time.process_time() - t0 < 10.0
        assert len((tmp_path / "out" / "results.jsonl").read_text().splitlines()) == 2

    @pytest.mark.parametrize(
        "make,section,field",
        [
            (tiny_followme, ("followme", "payload_bytes"), "vq_1x1"),
            (tiny_mcs, ("mcs",), "payload_bytes"),
            (tiny_warehouse, ("warehouse", "payloads"), "semantic_feature"),
        ],
        ids=["followme", "mcs", "warehouse"],
    )
    def test_payloads_are_bounded(self, make, section, field, tmp_path, capsys):
        """A payload past 10**12 bytes is a field error; at 10**12 a run
        ends (exit 0, or 2 with a field line for a warehouse run that cannot
        finish)."""
        doc = make()
        obj = doc
        for key in section:
            obj = obj[key]
        obj[field] = 10**12 + 1
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.strip().endswith(
            f"scenario.{'.'.join(section)}.{field}: 1000000000001 must be <= 1000000000000"
        )
        obj[field] = 10**12
        if doc["kind"] == "warehouse":
            doc["warehouse"]["max_sim_time_s"] = 5.0
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 0
        code = main(["run", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err.splitlines()
        if doc["kind"] == "warehouse" and code == 2:
            assert err and all(line.startswith("scenario.warehouse.") for line in err), err
        else:
            assert code == 0, err

    def test_followme_at_its_bounds_gives_finite_metrics(self):
        """Every CTA term at its bound (10**12-byte payloads, 64 attempts,
        10**6 s codec and slot times, a 1 b/s throughput): every frame is
        delivered, and the CTA metrics are finite, with no numpy warning."""
        doc = tiny_followme()
        fm = doc["followme"]
        fm.update(
            payload_bytes={mode: 10**12 for mode in FM_MODES},
            max_attempts=64,
            codec_s={"jpeg": [1e6, 1e6], "vq": [1e6, 1e6]},
            slot_s=1e6,
            throughput_curve=[[-60.0, 1.0], [-30.0, 1.0]],
            bit_error_curve=[[-60.0, 1e-300], [-30.0, 1e-300]],
        )
        assert scenario_errors(doc) == []
        scn = parse_scenario(doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for method in scn.methods:
                m = run_one(scn, method, 0)["metrics"]
                assert m["delivered_frames"] == fm["total_steps"]
                assert all(math.isfinite(v) for v in m.values()), m
                assert m["cta_p95_s"] >= 8e12

    @pytest.mark.parametrize(
        "name,edit,field",
        [
            ("followme-corridor", lambda s: s["payload_bytes"].update(vq_1x1=10**400),
             "scenario.followme.payload_bytes.vq_1x1"),
            ("followme-corridor", lambda s: s["payload_bytes"].update(vq_1x1=10**310),
             "scenario.followme.payload_bytes.vq_1x1"),
            ("mcs-ar1", lambda s: s.update(payload_bytes=10**400), "scenario.mcs.payload_bytes"),
            ("warehouse-s1", lambda s: s["payloads"].update(semantic_feature=10**400),
             "scenario.warehouse.payloads.semantic_feature"),
            ("mcs-ar1", lambda s: s.update(shadowing_sigma_db=1e308), "scenario.mcs.shadowing_sigma_db"),
            ("mcs-ar1", lambda s: s["gain_profile"].update(base_db=1e308, amplitude_db=1e308),
             "scenario.mcs.gain_profile.base_db"),
            ("mcs-ar1", lambda s: s.update(radio={"max_power_dbm": 1e308, "noise_dbm": -1e308}),
             "scenario.mcs.radio.max_power_dbm"),
            ("warehouse-s1", lambda s: s["gain"].update(shadowing_sigma_db=1e308),
             "scenario.warehouse.gain.shadowing_sigma_db"),
            ("followme-corridor", lambda s: s["codec_s"].update(jpeg=[1e308, 0.01]),
             "scenario.followme.codec_s.jpeg"),
            ("followme-corridor", lambda s: s["throughput_curve"].__setitem__(0, [-58, 1e-300]),
             "scenario.followme.throughput_curve[0]"),
            ("followme-corridor", lambda s: s.update(slot_s=1e308), "scenario.followme.slot_s"),
        ],
    )
    def test_overflowing_fields_are_refused_at_load(self, name, edit, field, bundled_dir, tmp_path, capsys):
        """A bundled file with one payload or dB field past its bound is a
        field error for ``validate`` and ``run`` (exit 2), never a run that
        fails on overflowed arithmetic."""
        doc = json.loads((bundled_dir / f"{name}.json").read_text())
        edit(doc[doc["kind"]])
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err and all(line.startswith(f"{path}: scenario.{doc['kind']}.") for line in err), err
        assert any(line.startswith(f"{path}: {field}: ") for line in err), err
        assert main(["run", str(path), "--seeds", "3", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == err

    def test_errors_accumulate(self):
        doc = tiny_warehouse()
        doc["seeds"] = []
        doc["warehouse"]["world"].pop("width")
        doc["warehouse"]["payloads"].pop("raw")
        assert len(scenario_errors(doc)) >= 3


class TestScenarioObject:
    def test_parse_scenario_fields(self):
        doc = tiny_mcs()
        scn = parse_scenario(doc)
        assert scn.id == "tiny-mcs" and scn.kind == "mcs"
        assert scn.seeds == (0, 1)
        assert scn.methods == ("oracle", "ideal", "delayed_2", "predictive_2")
        assert scn.params == doc["mcs"]

    def test_parse_rejects_invalid(self):
        doc = tiny_mcs()
        doc["mcs"]["steps"] = 0
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(doc)
        assert any("scenario.mcs.steps" in e for e in exc.value.errors)

    def test_with_overrides_seeds(self):
        scn = parse_scenario(tiny_mcs())
        out = scn.with_overrides(seeds=[5, 6, 7])
        assert out.seeds == (5, 6, 7)
        assert scn.seeds == (0, 1)  # original untouched
        assert out.methods == scn.methods

    def test_with_overrides_methods_subset(self):
        scn = parse_scenario(tiny_mcs())
        out = scn.with_overrides(methods=["ideal", "oracle"])
        assert out.methods == ("ideal", "oracle")

    def test_with_overrides_unknown_method(self):
        scn = parse_scenario(tiny_mcs())
        with pytest.raises(ScenarioError, match="not offered by scenario 'tiny-mcs'"):
            scn.with_overrides(methods=["delayed_9"])

    def test_long_method_and_id_give_short_error_lines(self):
        doc = tiny_mcs()
        doc["id"] = LONG
        scn = parse_scenario(doc)
        for call in (lambda: scn.with_overrides(methods=[LONG]), lambda: run_one(scn, LONG, 0)):
            with pytest.raises(ScenarioError, match="not offered by scenario 'xxx") as exc:
                call()
            assert max(len(e) for e in exc.value.errors) <= 200


class TestLoadScenario:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "nope.json")

    def test_undecodable_file(self, tmp_path):
        p = tmp_path / "latin.json"
        p.write_bytes(b'{"id": "caf\xe9"}')
        with pytest.raises(ScenarioError, match=r"latin\.json: cannot read: 'utf-8' codec"):
            load_scenario(p)

    def test_invalid_json_reports_line(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{\n  "id": oops\n}\n')
        with pytest.raises(ScenarioError, match=r"broken\.json:2: invalid JSON"):
            load_scenario(p)

    def test_overlong_integer_is_invalid_json(self, tmp_path):
        p = tmp_path / "long.json"
        p.write_text('{"seeds": [' + "1" * 5000 + "]}")
        with pytest.raises(ScenarioError, match=r"long\.json: invalid JSON: Exceeds the limit"):
            load_scenario(p)

    def test_validation_errors_prefixed_with_path(self, tmp_path):
        doc = tiny_mcs()
        doc["mcs"]["steps"] = 0
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError) as exc:
            load_scenario(p)
        assert all(str(p) in e for e in exc.value.errors)


def synthetic_gain_map(width, height, gain):
    """The gain map a warehouse section with this world size and ``gain``
    object builds."""
    doc = tiny_warehouse()
    doc["warehouse"]["world"].update(width=width, height=height)
    doc["warehouse"]["robots"] = [{"id": 1, "start": [0, 0], "goal": [1, 0]}]
    doc["warehouse"]["gain"] = gain
    return parse_scenario(doc).inputs.gain_map


class TestSyntheticGainMap:
    def test_distance_falloff(self):
        gm = synthetic_gain_map(4, 3, {"base_gain_db": -50.0, "ap": [1, 1], "slope_db_per_cell": 2.0})
        assert gm.gains[1][1] == pytest.approx(-50.0)
        assert gm.gains[1][0] == pytest.approx(-52.0)
        assert gm.gains[0][0] == pytest.approx(-50.0 - 2.0 * math.sqrt(2))
        assert gm.gains[2][3] == pytest.approx(-50.0 - 2.0 * math.sqrt(5))
        assert gm.shadowing_rho == 0.0 and gm.shadowing_sigma_db == 0.0

    def test_dead_zone_inclusive_rect(self):
        gain = {
            "base_gain_db": -40.0,
            "ap": [0, 0],
            "slope_db_per_cell": 0.0,
            "dead_zones": [{"rect": [1, 0, 2, 1], "extra_loss_db": 12.0}],
        }
        gm = synthetic_gain_map(4, 3, gain)
        expect = np.full((3, 4), -40.0)
        expect[0:2, 1:3] -= 12.0
        assert np.allclose(np.asarray(gm.gains), expect)

    def test_shadowing_passthrough(self):
        gm = synthetic_gain_map(
            2, 2,
            {"base_gain_db": -40.0, "ap": [0, 0], "slope_db_per_cell": 1.0,
             "shadowing_rho": 0.9, "shadowing_sigma_db": 1.5},
        )
        assert gm.shadowing_rho == 0.9 and gm.shadowing_sigma_db == 1.5


class TestBuildWarehouse:
    def test_bundled_s1_configuration(self, bundled_dir):
        scn = load_scenario(bundled_dir / "warehouse-s1.json")
        fields = dataclasses.fields(scn.inputs)
        world, robots, tracks, gain_map, table, cfg, budget, *_ = (getattr(scn.inputs, f.name) for f in fields)
        assert (world.width, world.height) == (10, 10)
        assert world.frame_period_s == 0.7
        assert world.cell_traverse_s == 1.4
        assert [r.id for r in robots] == [1, 2]
        assert len(tracks) >= 1
        assert np.asarray(gain_map.gains).shape == (10, 10)
        # the operator prompt resolves to a safety-first, robot-2-weighted plan
        assert cfg.pp == PlanConfig("safety_first", 2, 3)
        assert cfg.ra.fairness == "max_min"
        assert cfg.ra.priority_weights == pytest.approx((0.3, 0.7))
        assert not cfg.fallback
        assert budget.total_s == pytest.approx(1.02831)
        assert table.bandwidth_hz == 10e6

    def test_radio_overrides_applied(self):
        doc = tiny_warehouse()
        doc["warehouse"]["radio"] = {
            "target_snr_db": 12.0,
            "max_power_dbm": 20.0,
            "bandwidth_hz": 5e6,
            "slot_s": 0.002,
        }
        scn = parse_scenario(doc)
        table, cfg = scn.inputs.table, scn.inputs.cfg
        assert cfg.ra.target_snr_db == 12.0
        assert cfg.ra.max_power_dbm == 20.0
        assert table.bandwidth_hz == 5e6
        assert table.slot_s == 0.002

    def test_blocked_rects_merge(self):
        doc = tiny_warehouse()
        doc["warehouse"]["world"] = {
            "width": 4,
            "height": 3,
            "blocked": [[1, 2]],
            "blocked_rects": [[2, 1, 3, 1]],
        }
        world = parse_scenario(doc).inputs.world
        assert world.blocked == frozenset({(1, 2), (2, 1), (3, 1)})

    def test_goal_out_of_reach_within_the_horizon_is_refused(self):
        """``default_horizon`` is 136 steps on a 17x17 world whose odd rows
        are walls, each with one gap, alternately at the east and west end:
        from (0, 0), (x, 14) is 142 - x steps away. A goal at the horizon
        is accepted and reached; one a step further, or walled in, is not."""

        def serpentine(goal):
            doc = tiny_warehouse()
            doc["warehouse"]["world"] = {
                "width": 17,
                "height": 17,
                "blocked_rects": [[k % 2, 2 * k + 1, 15 + k % 2, 2 * k + 1] for k in range(8)],
            }
            doc["warehouse"]["robots"] = [{"id": 1, "start": [0, 0], "goal": goal}]
            return doc

        sim = orchestrator.WarehouseSimulation(parse_scenario(serpentine([6, 14])).inputs, "stop_and_go", 0)
        sim.run()
        assert len(sim.robots[1].executed) - 1 == 136
        assert scenario_errors(serpentine([5, 14])) == [
            "scenario.warehouse.robots[0].goal: cell (5, 14) cannot be reached from start (0, 0) within 136 steps"
        ]
        walled = tiny_warehouse()
        walled["warehouse"]["world"]["blocked"] = [[2, 0]]
        assert scenario_errors(walled) == [
            "scenario.warehouse.robots[0].goal: cell (3, 0) cannot be reached from start (0, 0) within 20 steps"
        ]


class TestBuildMcsCorridor:
    def test_profile_and_sweep(self):
        doc = tiny_mcs()
        doc["mcs"]["corridor_cells"] = 4
        doc["mcs"]["steps"] = 9
        scn = parse_scenario(doc)
        gain_map, cells, cfg, table, *_ = scn.inputs
        row = np.asarray(gain_map.gains)[0]
        assert row.shape == (4,)
        for x in range(4):
            assert row[x] == pytest.approx(-106.0 + 8.0 * math.sin(2 * math.pi * x / 12.0))
        # triangle sweep: 0 1 2 3 2 1 then wrapping
        assert [c[0] for c in cells] == [0, 1, 2, 3, 2, 1, 0, 1, 2]
        assert all(c[1] == 0 for c in cells)
        assert gain_map.shadowing_rho == 0.9
        assert cfg.max_power_dbm == 23.0  # defaults when no radio section
        assert table.slot_s == 0.001

    def test_radio_overrides(self):
        doc = tiny_mcs()
        doc["mcs"]["radio"] = {"noise_dbm": -95.0, "bandwidth_hz": 20e6}
        _, _, cfg, table, *_ = parse_scenario(doc).inputs
        assert cfg.noise_dbm == -95.0
        assert table.bandwidth_hz == 20e6


class TestMcsPolicies:
    def test_each_method_has_its_policy(self):
        doc = tiny_mcs()
        doc["methods"] = ["oracle", "ideal", "delayed_3", "predictive_7"]
        assert parse_scenario(doc).inputs.policies == {
            "oracle": PolicySpec("oracle"),
            "ideal": PolicySpec("ideal"),
            "delayed_3": PolicySpec("delayed", 3),
            "predictive_7": PolicySpec("predictive", 7),
        }

    def test_unknown_kind_is_a_field_error(self):
        doc = tiny_mcs()
        doc["methods"] = ["oracle", "psychic_3"]
        assert scenario_errors(doc) == [
            "scenario.methods: 'psychic_3' must be 'oracle', 'ideal', 'delayed_<d>' or 'predictive_<d>'"
            " (<d> without leading zeros)"
        ]


class TestConflictGap:
    def test_gap_past_the_horizon_runs_as_the_horizon(self):
        """A gap of 10**15 would materialise 2 * 10**15 + 1 steps per conflict
        window; clipped to the planning horizon it gives the same runs as any
        other gap past the conflict steps."""
        doc = json.loads(bundled_scenario_path("warehouse-s4").read_text())
        metrics = {}
        for gap in (100, 10**15):
            doc["warehouse"]["intent_text"] = f"keep gap {gap}"
            scn = parse_scenario(doc)
            assert scn.inputs.cfg.pp.min_time_gap_at_conflict == gap
            metrics[gap] = [run_one(scn, m, 0)["metrics"] for m in scn.methods]
        assert metrics[10**15] == metrics[100]


class TestSharedInputs:
    """A file is checked and built once, when it is parsed; every run reads
    the same inputs."""

    BUILDERS = {"warehouse": "build_warehouse", "mcs": "build_mcs_corridor", "followme": "build_followme"}

    @pytest.mark.parametrize("make", [tiny_warehouse, tiny_mcs, tiny_followme])
    def test_built_once_per_file(self, make, monkeypatch):
        doc = make()
        name = self.BUILDERS[doc["kind"]]
        calls = []
        build = getattr(scenarios, name)
        monkeypatch.setattr(scenarios, name, lambda *args: calls.append(1) or build(*args))
        scn = parse_scenario(doc)
        for seed in (0, 1):
            for method in scn.methods:
                run_one(scn, method, seed)
        assert len(calls) == 1

    @pytest.mark.parametrize("make", [tiny_warehouse, tiny_mcs, tiny_followme])
    def test_repeated_runs_give_equal_records(self, make):
        scn = parse_scenario(make())
        for method in scn.methods:
            assert run_one(scn, method, 1) == run_one(scn, method, 1) == run_one(parse_scenario(make()), method, 1)


def all_records(scn, seeds=(0, 1)):
    return [run_one(scn, method, seed) for seed in seeds for method in sorted(scn.methods)]


def pinned_warehouse_scenario(sid, work_dir):
    """The pinned warehouse file ``sid`` (a bundled file or its makespan
    copy), loaded."""
    return load_scenario(check_digests.scenario_file(sid, work_dir))


PINNED_WAREHOUSE = [f"{name}{suffix}" for name in WAREHOUSE_IDS for suffix in ("", "-makespan")]


def replan_count(memo):
    """How many replans ``memo`` keeps, over all its entries."""
    return sum(len(replans) for *_, replans in memo._tables.values())


class TestHumanReservationMemo:
    """Every run of a loaded warehouse file reads the humans' reservation
    tables, the solo routes under them and the replans' outcomes from one
    memo on its inputs."""

    @pytest.mark.parametrize("name", WAREHOUSE_IDS)
    def test_one_load_gives_the_records_of_fresh_loads(self, name, bundled_dir):
        path = bundled_dir / f"{name}.json"
        scn = load_scenario(path)
        for seed in (0, 1):
            for method in sorted(scn.methods):
                assert run_one(scn, method, seed) == run_one(load_scenario(path), method, seed)
        memo = scn.inputs.human
        assert 0 < len(memo._tables) <= orchestrator._MAX_HUMAN_TABLES
        # The plans read the shared tables; none of them was changed, and
        # each kept route is the route searched afresh under its table. A
        # parked world's derived move table is the one built afresh.
        for (parked, frame), (world, table, routes, replans) in memo._tables.items():
            fresh_world, fresh_table = reference_human_table(scn.inputs, parked, frame)
            assert (world, table) == (fresh_world, table_ids(fresh_world, fresh_table))
            assert world.moves == fresh_world.moves
            assert all(type(steps) is frozenset for steps in table.values())
            assert 0 < len(routes) <= orchestrator._MAX_PER_TABLE
            for (rid, start, goal, horizon), path in routes.items():
                fresh = low_level_search(world, RobotState(rid, start, goal), ReservationTable(rid, table), horizon)
                assert path == fresh
            # Each kept replan is the replan made afresh.
            assert 0 < len(replans) <= orchestrator._MAX_PER_TABLE
            for (robots, pp), nxt in replans.items():
                states = [RobotState(rid, cell, goal) for rid, cell, goal in robots]
                try:
                    paths = plan(fresh_world, states, table_ids(fresh_world, fresh_table), pp)
                    want = {p.robot_id: p.at(1) for p in paths}
                except PlanningError:
                    want = {}
                assert nxt == want

    @pytest.mark.parametrize("sid", PINNED_WAREHOUSE)
    def test_memo_on_and_off_give_the_same_records(self, sid, tmp_path, monkeypatch):
        """One load running four seeds, every replan memoised, gives the
        records of replans that each build their table and plan afresh."""
        want = all_records(pinned_warehouse_scenario(sid, tmp_path), seeds=range(4))
        monkeypatch.setattr(orchestrator.WarehouseSimulation, "_plan_next", reference_plan_next)
        assert all_records(pinned_warehouse_scenario(sid, tmp_path), seeds=range(4)) == want

    def test_each_table_is_built_once(self, bundled_dir, monkeypatch):
        built = []
        real = orchestrator._human_reservations
        monkeypatch.setattr(orchestrator, "_human_reservations", lambda *args: built.append(1) or real(*args))
        scn = load_scenario(bundled_dir / "warehouse-s3.json")
        all_records(scn)
        assert len(built) == len(scn.inputs.human._tables) > 0
        all_records(scn)
        assert len(built) == len(scn.inputs.human._tables)

    @pytest.mark.parametrize("sid", ["warehouse-s3", "warehouse-s3-makespan"])
    def test_plan_is_called_once_per_key(self, sid, tmp_path, monkeypatch):
        """A replan whose key was seen before neither builds a table nor
        calls the planner; every other replan plans once, and every table
        is built once."""
        plans, tables = [], []
        real_plan, real_table = orchestrator.plan, orchestrator._human_reservations
        monkeypatch.setattr(orchestrator, "plan", lambda *a, **k: plans.append(1) or real_plan(*a, **k))
        monkeypatch.setattr(orchestrator, "_human_reservations", lambda *a: tables.append(1) or real_table(*a))
        replans = []
        real_next = orchestrator.WarehouseSimulation._plan_next
        monkeypatch.setattr(
            orchestrator.WarehouseSimulation, "_plan_next", lambda sim, *a: replans.append(1) or real_next(sim, *a)
        )
        scn = pinned_warehouse_scenario(sid, tmp_path)
        all_records(scn, seeds=range(4))
        memo = scn.inputs.human
        assert len(plans) == replan_count(memo) > len(tables) == len(memo._tables) > 0
        assert len(replans) > 2 * len(plans)
        all_records(scn, seeds=range(4))
        assert len(plans) == replan_count(memo) and len(tables) == len(memo._tables)

    def test_bounded_memo_gives_the_same_records(self, bundled_dir, monkeypatch):
        path = bundled_dir / "warehouse-s3.json"
        want = all_records(load_scenario(path))
        for name in ("_MAX_HUMAN_TABLES", "_MAX_PARKED_WORLDS", "_MAX_PER_TABLE"):
            monkeypatch.setattr(orchestrator, name, 1)
        sizes = []
        real = HumanReservations.at

        def at(memo, parked, frame):
            found = real(memo, parked, frame)
            sizes.append((len(memo._tables), len(memo._worlds), len(found[2]), len(found[3])))
            return found

        monkeypatch.setattr(HumanReservations, "at", at)
        assert all_records(load_scenario(path)) == want
        # An entry takes at most the two robots' routes of one replan.
        assert [max(size) for size in zip(*sizes)] == [1, 1, 2, 1] and len(sizes) > 100

    def test_memo_survives_pickling(self, bundled_dir):
        scn = load_scenario(bundled_dir / "warehouse-s1.json")
        want = all_records(scn)
        copied = pickle.loads(pickle.dumps(scn))
        memo, kept = scn.inputs.human, copied.inputs.human
        assert len(kept._tables) == len(memo._tables) > 0 and replan_count(kept) == replan_count(memo) > 0
        assert [entry[2:] for entry in kept._tables.values()] == [entry[2:] for entry in memo._tables.values()]
        assert kept.world is copied.inputs.world
        assert all_records(copied) == want

    def test_with_overrides_copy_shares_the_memo(self, bundled_dir):
        scn = load_scenario(bundled_dir / "warehouse-s1.json")
        memo = scn.inputs.human
        assert memo is scn.inputs.human
        want = all_records(scn, seeds=(0,))
        filled = len(memo._tables), replan_count(memo)
        out = scn.with_overrides(seeds=[0])
        assert out.inputs.human is memo and min(filled) > 0
        assert all_records(out, seeds=(0,)) == want
        assert (len(memo._tables), replan_count(memo)) == filled

    def test_replaced_inputs_start_a_fresh_memo(self, bundled_dir):
        scn = load_scenario(bundled_dir / "warehouse-s1.json")
        want = all_records(scn, seeds=(0,))
        fresh = dataclasses.replace(scn.inputs)
        assert fresh.human is not scn.inputs.human and not fresh.human._tables
        assert fresh.human.world is fresh.world is scn.inputs.world
        assert (fresh.human.tracks, fresh.human.objective) == (tuple(fresh.tracks), fresh.cfg.pp.objective)
        scn.inputs = fresh
        assert all_records(scn, seeds=(0,)) == want and fresh.human._tables


@pytest.fixture
def no_cyclic_gc():
    """Only reference counting frees objects while the test runs."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestNoReferenceCycles:
    """What a run builds is freed by reference counting alone, so a stream
    or a seed table does not wait for the cyclic collector."""

    @pytest.mark.parametrize("make", [tiny_warehouse, tiny_mcs, tiny_followme])
    def test_harq_streams_are_freed_by_reference_counting(self, make, monkeypatch, no_cyclic_gc):
        made = []
        init = radio.HarqStream.__init__

        def tracked(harq, blocks):
            init(harq, blocks)
            made.append(weakref.ref(harq))

        monkeypatch.setattr(radio.HarqStream, "__init__", tracked)
        scn = parse_scenario(make())
        for method in scn.methods:
            run_one(scn, method, 0)
        assert made and not [ref for ref in made if ref() is not None]

    def test_mcs_seed_table_is_freed_by_reference_counting(self, no_cyclic_gc):
        scn = parse_scenario(tiny_mcs())
        for method in scn.methods:
            run_one(scn, method, 0)
        table = weakref.ref(scn._seed_table[1])
        assert table()._harq is not None
        run_one(scn, "oracle", 1)
        assert table() is None
        last = weakref.ref(scn._seed_table[1])
        del scn
        assert last() is None


class TestRunOne:
    def test_method_not_offered(self):
        scn = parse_scenario(tiny_mcs())
        with pytest.raises(ScenarioError, match="not offered"):
            run_one(scn, "delayed_99", 0)

    def test_warehouse_record(self):
        scn = parse_scenario(tiny_warehouse())
        rec = run_one(scn, "lorc_sc_p", 0)
        assert rec["scenario_id"] == "tiny-wh"
        assert rec["kind"] == "warehouse"
        assert rec["method"] == "lorc_sc_p" and rec["seed"] == 0
        m = rec["metrics"]
        assert m["completion_time_s"] == pytest.approx(4.2)
        assert m["stop_events"] == 0.0
        assert "rtt_mean_s" in m

    def test_mcs_record(self):
        scn = parse_scenario(tiny_mcs())
        rec = run_one(scn, "ideal", 0)
        m = rec["metrics"]
        assert set(m) == {
            "throughput_mean_bps",
            "latency_mean_s",
            "success_rate",
            "bler_mass_le_target",
        }
        assert m["throughput_mean_bps"] > 0
        assert 0.0 <= m["success_rate"] <= 1.0
        assert 0.0 <= m["bler_mass_le_target"] <= 1.0

    def test_mcs_oracle_beats_stale_delay(self):
        scn = parse_scenario(tiny_mcs())
        oracle = run_one(scn, "oracle", 0)["metrics"]["throughput_mean_bps"]
        stale = run_one(scn, "delayed_2", 0)["metrics"]["throughput_mean_bps"]
        assert oracle >= stale

    @pytest.mark.parametrize("make,prepare", [(tiny_mcs, "prepare_mcs"), (tiny_followme, "prepare_followme")])
    def test_seed_table_built_once_per_seed(self, make, prepare, monkeypatch):
        doc = make()
        doc["seeds"] = [0, 1]
        fresh = {(m, s): run_one(parse_scenario(doc), m, s) for m in doc["methods"] for s in (0, 1)}
        built = []
        real = getattr(scenarios, prepare)
        monkeypatch.setattr(scenarios, prepare, lambda inputs, seed: built.append(seed) or real(inputs, seed))
        scn = parse_scenario(doc)
        # Any order of calls on one Scenario gives the records of fresh ones.
        m0, m1 = scn.methods[:2]
        for m, s in [(m0, 0), (m1, 0), (m0, 1), (m0, 0), (m1, 1)]:
            assert run_one(scn, m, s) == fresh[m, s]
        assert built == [0, 1, 0, 1]  # built again only when the seed changes
        first = scn._seed_table[1]
        run_one(scn, m0, 1)
        assert scn._seed_table == (1, first) and built == [0, 1, 0, 1]
        run_one(scn, m0, 0)
        assert scn._seed_table[0] == 0 and scn._seed_table[1] is not first
        assert scn.with_overrides(seeds=[0])._seed_table is None

    @pytest.mark.parametrize("method", ["jpeg_q80", "vq_1x1", "orchestrated"])
    def test_followme_record(self, method):
        scn = parse_scenario(tiny_followme())
        rec = run_one(scn, method, 0)
        m = rec["metrics"]
        assert 0.0 <= m["utfr_pct"] <= 100.0
        assert m["delivered_frames"] <= 60
        assert m["arrival_frames"] <= m["delivered_frames"]
        if m["delivered_frames"]:
            assert m["cta_mean_s"] > 0

    @pytest.mark.parametrize("seed", range(20))
    def test_followme_matches_reference(self, seed):
        """The runner, reading the seed's frames, gives the records of the
        per-frame scalar loop for every method."""
        scn = load_scenario(bundled_scenario_path("followme-corridor"))
        for method in scn.methods:
            assert run_one(scn, method, seed)["metrics"] == reference_run_followme(scn, method, seed), method

    @pytest.mark.parametrize(
        "max_attempts,bit_error_curve",
        [(64, [[-60.0, 1.0e-4], [-30.0, 1.0e-5]]), (1, [[-60.0, 1.0e-4], [-30.0, 1.0e-7]])],
        ids=["64-attempts-lossy", "1-attempt"],
    )
    def test_followme_stress_matches_reference(self, max_attempts, bit_error_curve):
        """On a link where reliable frames retry up to 64 times, a run's
        HARQ draws cross the first block and several refills; with one
        attempt, no frame retries. Either way every method gives the
        records of the per-frame scalar loop."""
        doc = tiny_followme()
        doc["methods"] = list(FOLLOWME_METHODS)
        doc["followme"].update(max_attempts=max_attempts, bit_error_curve=bit_error_curve)
        scn = parse_scenario(doc)
        for seed in range(5):
            for method in scn.methods:
                assert run_one(scn, method, seed)["metrics"] == reference_run_followme(scn, method, seed), (method, seed)

    @staticmethod
    def assert_followme_matches_reference(doc, seeds=range(3)):
        scn = parse_scenario(doc)
        for seed in seeds:
            for method in scn.methods:
                got = run_one(scn, method, seed)["metrics"]
                assert got == reference_run_followme(scn, method, seed), (method, seed)
        return scn

    @pytest.mark.parametrize(
        "lose,reacquire", [(1.0, 0.0), (1.0, 1.0), (0.0, 0.0)],
        ids=["lost-never-regained", "lost-always-regained", "never-lost"],
    )
    def test_followme_perception_extremes_match_reference(self, lose, reacquire):
        """A lose probability of 1 loses lock at frame 0. A reacquire
        probability of 0 then never regains it, so no frame arrives; one
        of 1 regains it on every useful frame after a lost one."""
        doc = tiny_followme()
        doc["methods"] = list(FOLLOWME_METHODS)
        for key, p in (("lose_prob", lose), ("far_lose_prob", lose), ("reacquire_prob", reacquire)):
            doc["followme"]["perception"][key] = {m: p for m in FM_MODES}
        scn = self.assert_followme_matches_reference(doc)
        arrivals = {m: run_one(scn, m, 0)["metrics"]["arrival_frames"] for m in scn.methods}
        if reacquire == 0.0 and lose == 1.0:
            assert set(arrivals.values()) == {0.0}
        else:
            assert max(arrivals.values()) > 0.0

    def test_followme_one_frame_matches_reference(self):
        doc = tiny_followme()
        doc["methods"] = list(FOLLOWME_METHODS)
        doc["followme"]["total_steps"] = 1
        self.assert_followme_matches_reference(doc, seeds=range(5))

    @staticmethod
    def ladder_doc(max_attempts):
        """A walk out to 13 m and back, whose RSSI crosses every rung of
        the sensing ladder on the way out and on the way back."""
        doc = tiny_followme()
        doc["methods"] = list(FOLLOWME_METHODS)
        doc["followme"].update(distance_profile=[[0.0, 2.0], [30.0, 13.0], [59.0, 2.0]], max_attempts=max_attempts)
        return doc

    @pytest.fixture
    def harq_calls(self, monkeypatch):
        """(frames, max_retx) of each ``HarqStream.run`` call, in order."""
        calls = []
        real = radio.HarqStream.run
        monkeypatch.setattr(
            radio.HarqStream, "run", lambda harq, p_fail, max_retx: calls.append((len(p_fail), max_retx))
            or real(harq, p_fail, max_retx),
        )
        return calls

    @pytest.mark.parametrize("max_attempts", [1, 64])
    def test_followme_ladder_crossing_every_rung_matches_reference(self, max_attempts, harq_calls):
        scn = self.assert_followme_matches_reference(self.ladder_doc(max_attempts))
        for seed in range(3):
            harq_calls.clear()
            run_one(scn, "orchestrated", seed)
            picks = [orchestrator.select_sense_mode(rssi) for rssi in scn._seed_table[1].rssi]
            assert set(picks) == {orchestrator.SENSE_MODES[m] for m in FM_MODES if m != "jpeg_q95"}
            # One HARQ call per maximal run of frames in one rung, with that
            # rung's attempt limit.
            runs = [(cfg, len(list(group))) for cfg, group in itertools.groupby(picks)]
            assert harq_calls == [(n, max_attempts - 1 if cfg.qos == "reliable" else 0) for cfg, n in runs]
            assert len(harq_calls) >= 9  # out through every rung and back

    def test_followme_bundled_ladder_makes_one_harq_call_per_rung_run(self, harq_calls):
        scn = load_scenario(bundled_scenario_path("followme-corridor"))
        counts = []
        for seed in scn.seeds:
            harq_calls.clear()
            run_one(scn, "orchestrated", seed)
            picks = [orchestrator.select_sense_mode(rssi) for rssi in scn._seed_table[1].rssi]
            assert len(harq_calls) == sum(1 for _ in itertools.groupby(picks))
            counts.append(len(harq_calls))
        assert 9 <= min(counts) and max(counts) <= 25, counts

    def test_followme_records_do_not_depend_on_method_order(self):
        """A seed's seven methods give the same records whether the ladder
        runs first or the methods run sorted, seed after seed on one
        loaded file."""
        records = []
        for first in ("orchestrated", "jpeg_q60"):
            scn = parse_scenario(self.ladder_doc(4))
            methods = sorted(scn.methods, key=lambda m: (m != first, m))
            records.append([{m: run_one(scn, m, seed) for m in methods} for seed in (0, 1, 0)])
        assert records[0] == records[1]
        assert records[0][0] == records[0][2]

    def test_followme_random_documents_match_reference(self):
        """Fifty seeded random documents: distance walks that cross the
        ladder's rungs, 1 to 64 attempts, 1 to 200 frames, and lose and
        reacquire probabilities of 0, 1 or a random value. Every method on
        two seeds gives the records of the per-frame scalar loop."""
        rng = random.Random(28)
        rungs = set()
        for _ in range(50):
            doc = tiny_followme()
            doc["methods"] = list(FOLLOWME_METHODS)
            fm = doc["followme"]
            knots = sorted(rng.sample(range(1, 200), rng.randint(1, 6)))
            fm.update(
                total_steps=rng.randint(1, 200),
                max_attempts=rng.randint(1, 64),
                distance_profile=[[float(x), rng.uniform(2.0, 14.0)] for x in [0, *knots]],
            )
            fm["noise"]["sigma_db"] = rng.uniform(0.0, 3.0)
            for key in ("lose_prob", "far_lose_prob", "reacquire_prob"):
                fm["perception"][key] = {m: rng.choice((0.0, 1.0, rng.random())) for m in FM_MODES}
            fm["perception"]["far_distance_m"] = {m: rng.uniform(2.0, 14.0) for m in FM_MODES}
            scn = self.assert_followme_matches_reference(doc, seeds=range(2))
            rungs.update(map(orchestrator.select_sense_mode, scn._seed_table[1].rssi))
        assert rungs == {orchestrator.SENSE_MODES[m] for m in FM_MODES if m != "jpeg_q95"}

    def test_followme_deterministic_per_seed(self):
        scn = parse_scenario(tiny_followme())
        a = run_one(scn, "vq_1x1", 3)
        b = run_one(scn, "vq_1x1", 3)
        assert a == b
        c = run_one(scn, "vq_1x1", 4)
        assert a["metrics"] != c["metrics"]

    def test_followme_cta_scales_with_payload(self):
        """On a clean link the jpeg frame takes longer end to end than the
        compact token payload, so its command-to-action time is larger."""
        doc = tiny_followme()
        doc["followme"]["noise"]["sigma_db"] = 0.0
        doc["followme"]["distance_profile"] = [[0.0, 2.0], [59.0, 2.0]]
        scn = parse_scenario(doc)
        jpeg = run_one(scn, "jpeg_q80", 0)["metrics"]["cta_mean_s"]
        vq = run_one(scn, "vq_1x1", 0)["metrics"]["cta_mean_s"]
        assert jpeg > vq

    def test_deep_copy_isolation(self):
        """run_one must not mutate the scenario's params."""
        doc = tiny_followme()
        scn = parse_scenario(doc)
        before = copy.deepcopy(scn.params)
        run_one(scn, "orchestrated", 0)
        assert scn.params == before
