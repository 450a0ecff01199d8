"""Intent resolution, configuration validation, and the closed-loop engine."""

import json
import math
import pickle
import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import BUNDLED_DIR, WAREHOUSE_IDS
from oracles import reference_favored_robot, reference_human_cells, reference_warehouse_metrics
from r2xsim import orchestrator
from r2xsim.orchestrator import (
    WAREHOUSE_METHODS,
    LoopBudget,
    OrchestratorConfig,
    RuleIntentEngine,
    UnfinishedRun,
    WarehouseInputs,
    WarehouseSimulation,
    correct_loop,
    fallback_message,
    rule_intent,
    select_sense_mode,
    validate,
)
from r2xsim.planner import PlanConfig
from r2xsim.radio import PathGainMap, RadioConfig, default_mcs_table
from r2xsim.scenarios import ScenarioError, load_scenario, parse_scenario
from r2xsim.world import GridWorld, HumanTrack, RobotState
from test_cli import random_small_warehouse, run_outcome


class TestLoopBudget:
    def test_total_s(self):
        assert LoopBudget(0.09617, 0.00123, 0.04691, 0.884).total_s == pytest.approx(1.02831, abs=1e-12)


class TestSelectSenseMode:
    @pytest.mark.parametrize(
        "rssi,mode,detail,qos",
        [
            (-30.0, "jpeg", 80, "reliable"),
            (-39.0, "jpeg", 80, "reliable"),
            (-39.5, "jpeg", 60, "reliable"),
            (-41.0, "jpeg", 60, "reliable"),
            (-41.5, "vq", (1, 3), "best_effort"),
            (-43.0, "vq", (1, 3), "best_effort"),
            (-43.5, "vq", (1, 2), "best_effort"),
            (-45.0, "vq", (1, 2), "best_effort"),
            (-45.5, "vq", (1, 1), "best_effort"),
            (-48.0, "vq", (1, 1), "best_effort"),
            (-70.0, "vq", (1, 1), "best_effort"),
        ],
    )
    def test_ladder(self, rssi, mode, detail, qos):
        cfg = select_sense_mode(rssi)
        assert cfg.mode == mode and cfg.qos == qos
        if mode == "jpeg":
            assert cfg.jpeg_quality == detail
        else:
            assert cfg.vit_grid == detail


def json_messages():
    """Any JSON value, with the schema's own keys and values drawn often
    enough that deep fields are reached."""
    keys = st.sampled_from(
        ["pp_config", "ra_config", "sense_config", "objective", "priority_robot",
         "min_time_gap_at_conflict", "fairness", "priority_weights"]
    ) | st.text(max_size=4)
    leaves = (
        st.none() | st.booleans() | st.floats()
        | st.integers() | st.sampled_from([10**400, -(10**400), 1 << 1023, 0, 1, 2, 8, 60, 95])
        | st.text(max_size=6)
        | st.sampled_from(["none", "safety_first", "makespan", "max_min", "proportional",
                           "robot_1", "robot_2", "robot_٣"])
        | st.integers(min_value=0).map(lambda n: f"robot_{n}")
        | st.integers(1, 6000).map(lambda n: "robot_" + "9" * n)
    )
    return st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(keys, inner, max_size=5),
        max_leaves=20,
    )


LONG = "x" * 5000

VALID_MESSAGE = {
    "pp_config": {
        "objective": "safety_first",
        "priority_robot": "robot_2",
        "min_time_gap_at_conflict": 3,
    },
    "ra_config": {"fairness": "max_min", "priority_weights": [0.3, 0.7]},
}


class TestValidate:
    def test_valid_message_builds_config(self):
        cfg, errors = validate(VALID_MESSAGE, robot_ids=(1, 2))
        assert errors == []
        assert cfg.pp == PlanConfig("safety_first", 2, 3)
        assert cfg.ra.fairness == "max_min"
        assert cfg.ra.priority_weights == (0.3, 0.7)
        assert not cfg.fallback

    def test_priority_none(self):
        msg = json.loads(json.dumps(VALID_MESSAGE))
        msg["pp_config"]["priority_robot"] = "none"
        cfg, errors = validate(msg, (1, 2))
        assert errors == [] and cfg.pp.priority_robot is None

    def test_non_dict_message(self):
        cfg, errors = validate(["nope"])
        assert cfg is None and errors == ["message: must be an object"]

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda m: m.pop("pp_config"), "pp_config: must be an object"),
            (lambda m: m.pop("ra_config"), "ra_config: must be an object"),
            (lambda m: m.update(extra=1), "message.extra: unknown field"),
            (lambda m: m["pp_config"].update(speed=2), "pp_config.speed: unknown field"),
            (lambda m: m["pp_config"].update(objective="fastest"), "pp_config.objective"),
            (lambda m: m["pp_config"].pop("priority_robot"), "pp_config.priority_robot: required field missing"),
            (lambda m: m["pp_config"].update(priority_robot="2"), "pp_config.priority_robot"),
            (lambda m: m["pp_config"].update(priority_robot="robot_9"), "not among robots"),
            (lambda m: m["pp_config"].update(min_time_gap_at_conflict=-1), "min_time_gap_at_conflict"),
            (lambda m: m["pp_config"].update(min_time_gap_at_conflict=1.5), "min_time_gap_at_conflict"),
            (lambda m: m["pp_config"].update(min_time_gap_at_conflict=True), "min_time_gap_at_conflict"),
            (lambda m: m["ra_config"].update(fairness="equal"), "ra_config.fairness"),
            (lambda m: m["ra_config"].update(priority_weights=[]), "nonempty list"),
            (lambda m: m["ra_config"].update(priority_weights="half"), "nonempty list"),
            (lambda m: m["ra_config"].update(priority_weights=[0.5, True]), "nonempty list"),
            (lambda m: m["ra_config"].update(priority_weights=[-0.2, 1.2]), "weights must be positive"),
            (
                lambda m: m["ra_config"].update(priority_weights=[1.0, 0.0]),
                "ra_config.priority_weights: weights must be positive",
            ),
            (lambda m: m["ra_config"].update(priority_weights=[0.6, 0.6]), "sum"),
            (lambda m: m["ra_config"].update(priority_weights=[1.0]), "1 weights for 2 robots"),
            (
                lambda m: m["ra_config"].update(priority_weights=[math.nan, math.nan]),
                "ra_config.priority_weights: must be a nonempty list of finite numbers",
            ),
            (
                lambda m: m["ra_config"].update(priority_weights=[10**400, 0]),
                "priority_weights: must be a nonempty list of finite numbers",
            ),
            (
                lambda m: m["pp_config"].update(priority_robot="robot_" + "9" * 5000),
                "must be 'none' or 'robot_<id>' with at most 18 digits",
            ),
            (
                lambda m: m["pp_config"].update(priority_robot="robot_" + "1" * 19),
                "at most 18 digits",
            ),
            (lambda m: m["ra_config"].update(priority_weights=[1 << 1023] * 3), "sum inf != 1"),
            (lambda m: m["pp_config"].pop("objective"), "pp_config.objective: required field missing"),
            (lambda m: m["ra_config"].pop("fairness"), "ra_config.fairness: required field missing"),
            (lambda m: m["ra_config"].pop("priority_weights"), "ra_config.priority_weights: required field missing"),
            (lambda m: m.update(sense_config=None), "message.sense_config: unknown field"),
        ],
    )
    def test_error_catalogue(self, mutate, needle):
        msg = json.loads(json.dumps(VALID_MESSAGE))
        mutate(msg)
        cfg, errors = validate(msg, robot_ids=(1, 2))
        assert cfg is None
        assert any(needle in e for e in errors), errors

    @pytest.mark.parametrize(
        "sense",
        [
            # sections the schema once accepted
            {"mode": "jpeg", "jpeg_quality": 60, "qos": "reliable"},
            {"mode": "semantic_feature", "feature_dim": 512, "feature_bits": 8},
            {"mode": "vq", "vit_grid": "1x3"},
            {"mode": "vq", "vit_grid": [1, 2]},
            {"mode": "vq"},
            {"mode": "raw", "qos": "reliable"},
            {},
            # sections it once refused field by field
            "raw",
            None,
            {"mode": "vq", "codec": 1},
            {"mode": "hologram"},
            {"mode": "vq", "qos": "turbo"},
            {"mode": "jpeg", "jpeg_quality": 50},
            {"mode": "vq", "vit_grid": "2x2"},
            {"mode": "semantic_feature", "feature_dim": 0, "feature_bits": 8},
            {"mode": "semantic_feature", "feature_dim": 64, "feature_bits": 7},
            {"mode": "vq", "vit_grid": {}},
            {"mode": "vq", "vit_grid": [1.0]},
            {"mode": "vq", "vit_grid": [math.inf, 1]},
            {"mode": "raw", "vit_grid": "9x9", "feature_bits": 3},
            {"mode": "jpeg", "jpeg_quality": 80, "feature_dim": -5},
            {"qos": "reliable"},
            {"mode": "jpeg"},
            {"mode": "semantic_feature", "feature_dim": 64},
            {"mode": []},
            {"mode": "vq", "vit_grid": [1.5, 2.9]},
            {"mode": "vq", "vit_grid": [True, 2]},
            {"mode": "vq", "vit_grid": [1, 2, 3]},
            {"mode": "vq", "vit_grid": "1x0_2"},
            {"mode": "vq", "vit_grid": "\u0661x\u0662"},
            {"mode": "jpeg", "jpeg_quality": 80.0},
            {"mode": "semantic_feature", "feature_dim": 64, "feature_bits": 8.0},
        ],
    )
    def test_sense_section_is_an_unknown_field(self, sense):
        """No run reads a sensing section, so any value of one, well formed
        or not, is refused with the one unknown-field line and nothing from
        inside it."""
        msg = json.loads(json.dumps(VALID_MESSAGE))
        msg["sense_config"] = sense
        assert validate(msg, (1, 2)) == (None, ["message.sense_config: unknown field"])

    def test_sense_section_does_not_hide_other_errors(self):
        msg = json.loads(json.dumps(VALID_MESSAGE))
        msg["sense_config"] = {"mode": "vq"}
        msg["ra_config"]["fairness"] = "equal"
        assert validate(msg, (1, 2))[1] == [
            "message.sense_config: unknown field",
            "ra_config.fairness: 'equal' is not one of ('max_min', 'proportional')",
        ]

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda m: m.update({LONG: 1}),
            lambda m: m["pp_config"].update(objective=LONG),
            lambda m: m["pp_config"].update(priority_robot=LONG),
            lambda m: m["pp_config"].update(priority_robot="robot_" + "9" * 5000),
            lambda m: m["pp_config"].update(min_time_gap_at_conflict=LONG),
            lambda m: m["pp_config"].update(min_time_gap_at_conflict=-(10**4000)),
            lambda m: m["ra_config"].update(fairness=LONG),
            lambda m: m["ra_config"].update(fairness=[LONG] * 5000),
            lambda m: m.update(sense_config={"mode": LONG, "qos": LONG}),
            lambda m: m.update(sense_config={"mode": "vq", "vit_grid": LONG}),
            lambda m: m.update(sense_config={"mode": "vq", "vit_grid": list(range(5000))}),
            lambda m: m.update(sense_config={"mode": "jpeg", "jpeg_quality": LONG}),
            lambda m: m.update(
                sense_config={"mode": "semantic_feature", "feature_dim": LONG, "feature_bits": {LONG: LONG}}
            ),
        ],
    )
    def test_long_values_give_short_error_lines(self, mutate):
        msg = json.loads(json.dumps(VALID_MESSAGE))
        mutate(msg)
        cfg, errors = validate(msg, (1, 2))
        assert cfg is None and errors
        assert max(len(e) for e in errors) <= 200, [e[:300] for e in errors]

    def test_longest_priority_id(self):
        msg = json.loads(json.dumps(VALID_MESSAGE))
        msg["pp_config"]["priority_robot"] = "robot_" + "9" * 18
        cfg, errors = validate(msg, (1, 10**18 - 1))
        assert errors == [] and cfg.pp.priority_robot == 10**18 - 1

    @given(message=json_messages())
    @settings(max_examples=250, deadline=None)
    @example(message={"pp_config": {"priority_robot": "robot_" + "7" * 5000}})
    @example(message={"ra_config": {"priority_weights": [1 << 1023, 1 << 1023]}})
    @example(message={"sense_config": {"mode": []}})
    def test_any_json_value_gives_errors_or_config(self, message):
        for robot_ids in ((1, 2), None):
            cfg, errors = validate(message, robot_ids)
            assert (cfg is None) != (errors == [])
            assert all(isinstance(e, str) for e in errors)

    def test_multiple_errors_accumulate(self):
        msg = {
            "pp_config": {"objective": "x", "priority_robot": "y", "min_time_gap_at_conflict": -2},
            "ra_config": {"fairness": "z", "priority_weights": [2.0, 0.5]},
        }
        cfg, errors = validate(msg, (1, 2))
        assert cfg is None and len(errors) >= 4

    def test_without_robot_ids_membership_unchecked(self):
        msg = json.loads(json.dumps(VALID_MESSAGE))
        msg["pp_config"]["priority_robot"] = "robot_9"
        cfg, errors = validate(msg)
        assert errors == [] and cfg.pp.priority_robot == 9


class TestFallbackMessage:
    def test_contents_scale_with_robots(self):
        msg = fallback_message((1, 2, 3))
        assert msg["pp_config"] == {
            "objective": "safety_first",
            "priority_robot": "none",
            "min_time_gap_at_conflict": 1,
        }
        assert msg["ra_config"]["fairness"] == "max_min"
        assert msg["ra_config"]["priority_weights"] == pytest.approx([1 / 3] * 3)
        assert set(msg) == {"pp_config", "ra_config"}

    def test_fallback_always_validates(self):
        for ids in ((1,), (1, 2), (1, 2, 3, 4)):
            cfg, errors = validate(fallback_message(ids), ids)
            assert errors == [] and cfg is not None


class TestRuleIntent:
    def test_empty_text_falls_back(self):
        assert rule_intent("", (1, 2)) == fallback_message((1, 2))
        assert rule_intent("   \n", (1, 2)) == fallback_message((1, 2))

    def test_plain_text_is_makespan(self):
        msg = rule_intent("get both robots across quickly", (1, 2))
        assert msg["pp_config"] == {
            "objective": "makespan",
            "priority_robot": "none",
            "min_time_gap_at_conflict": 0,
        }
        assert msg["ra_config"] == {
            "fairness": "proportional",
            "priority_weights": [0.5, 0.5],
        }

    def test_safety_selects_objective_and_gap(self):
        msg = rule_intent("please move safely around people", (1, 2))
        assert msg["pp_config"]["objective"] == "safety_first"
        assert msg["pp_config"]["min_time_gap_at_conflict"] == 1

    def test_very_safe_widens_gap(self):
        msg = rule_intent("they have to move very safely", (1, 2))
        assert msg["pp_config"]["min_time_gap_at_conflict"] == 3

    def test_explicit_gap_wins(self):
        msg = rule_intent("keep a gap 5 and stay very safe", (1, 2))
        assert msg["pp_config"]["min_time_gap_at_conflict"] == 5
        msg = rule_intent("hold gap 4 between robots", (1, 2))
        assert msg["pp_config"] == {
            "objective": "makespan",
            "priority_robot": "none",
            "min_time_gap_at_conflict": 4,
        }

    def test_max_min_wording(self):
        msg = rule_intent("optimize the worst link", (1, 2))
        assert msg["ra_config"]["fairness"] == "max_min"
        msg = rule_intent("the minimum quality has to be guaranteed", (1, 2))
        assert msg["ra_config"]["fairness"] == "max_min"
        msg = rule_intent("keep a minimum quality stream", (1, 2))
        assert msg["ra_config"]["fairness"] == "proportional"

    def test_favored_robot_weighting(self):
        msg = rule_intent("robot 1 is critical today", (1, 2))
        assert msg["pp_config"]["priority_robot"] == "robot_1"
        assert msg["ra_config"]["priority_weights"] == [0.7, pytest.approx(0.3)]

    def test_favored_robot_word_forms(self):
        for text in ("Robot_2 is important", "robot2 is urgent", "the Robot 2 has priority"):
            msg = rule_intent(text, (1, 2))
            assert msg["pp_config"]["priority_robot"] == "robot_2", text

    def test_majority_vote(self):
        text = "robot 1 is important. robot 2 is important. robot 1 is critical."
        assert rule_intent(text, (1, 2))["pp_config"]["priority_robot"] == "robot_1"

    def test_tied_vote_lowest_id(self):
        text = "robot 2 is important and robot 1 is urgent"
        assert rule_intent(text, (1, 2))["pp_config"]["priority_robot"] == "robot_1"

    def test_importance_before_any_mention_ignored(self):
        msg = rule_intent("it is important that robot 2 arrives", (1, 2))
        assert msg["pp_config"]["priority_robot"] == "none"

    def test_unknown_robot_ids_ignored(self):
        msg = rule_intent("robot 9 is critical", (1, 2))
        assert msg["pp_config"]["priority_robot"] == "none"

    def test_three_robot_weights(self):
        msg = rule_intent("robot 2 is critical", (1, 2, 3))
        assert msg["ra_config"]["priority_weights"] == [
            pytest.approx(0.15),
            0.7,
            pytest.approx(0.15),
        ]

    def test_rule_engine_uses_context_ids(self):
        engine = RuleIntentEngine()
        msg = engine.propose("robot 3 is critical", {"robot_ids": (1, 3)})
        assert msg["pp_config"]["priority_robot"] == "robot_3"

    def test_fleet_is_an_explicit_input(self):
        with pytest.raises(KeyError):
            RuleIntentEngine().propose("robot 1 is critical", {})
        with pytest.raises(KeyError):
            correct_loop(RecordingEngine([VALID_MESSAGE]), "x", {})

    def test_lone_favored_robot_gets_all_weight(self):
        msg = rule_intent("Robot 1 is critical", [1])
        assert msg["pp_config"]["priority_robot"] == "robot_1"
        assert msg["ra_config"]["priority_weights"] == [1.0]

    def test_long_digit_runs_are_not_numbers(self):
        msg = rule_intent("robot 1 is critical, gap " + "9" * 19, (1, 2))
        assert msg["pp_config"]["min_time_gap_at_conflict"] == 0
        assert msg["pp_config"]["priority_robot"] == "robot_1"
        msg = rule_intent("robot " + "0" * 18 + "2 is critical, gap " + "9" * 18, (1, 2))
        assert msg["pp_config"]["priority_robot"] == "none"
        assert msg["pp_config"]["min_time_gap_at_conflict"] == 10**18 - 1


class TestFavoredRobot:
    def test_matches_the_rule_that_scans_every_earlier_mention(self):
        """Seeded random texts of mentions, keywords and filler, for random
        fleets, name the robot the quadratic reference names."""
        rng = random.Random(33)
        pieces = ["robot 1", "robot_2", "robot3", "robot 9", "robot 12", "robot 123", "important", "priority",
                  "critical", "urgent", "importan", " is ", ". ", "and ", "x", "1", " "]
        named = 0
        for _ in range(3000):
            text = "".join(rng.choice(pieces) for _ in range(rng.randrange(40)))
            ids = sorted(rng.sample([1, 2, 3, 9, 12], rng.randrange(1, 6)))
            want = reference_favored_robot(text, ids)
            assert orchestrator._favored_robot(text, ids) == want, (text, ids)
            named += want is not None
        assert 1000 < named < 2900

    def test_long_text_resolves_in_well_under_a_second(self):
        text = "robot 1 is important. " * 8000
        assert len(text) == 176_000
        start = time.process_time()
        res = correct_loop(RuleIntentEngine(), text, {"robot_ids": [1, 2]})
        assert time.process_time() - start < 1.0
        assert res.config.pp.priority_robot == 1 and not res.fallback


def intent_texts():
    """Any text, and texts built from the words the rules look for."""
    words = st.sampled_from(
        ["robot", "Robot_", "robot ", "gap ", "very safe", "safe", "critical", "important",
         "priority", "urgent", "worst", "guarantee", "minimum quality", " ", "0", "1", "2", "٣",
         "9" * 18, "1" * 19, "7" * 5000]
    )
    return st.text() | st.lists(words | st.text(max_size=3), max_size=12).map("".join)


class TestRuleEngineResolvesEveryText:
    @given(
        text=intent_texts(),
        ids=st.lists(st.integers(0, 3) | st.integers(0, 10**18 - 1), min_size=1, max_size=6, unique=True),
    )
    @settings(max_examples=300, deadline=None)
    @example(text="Robot " + "7" * 5000 + " is critical", ids=[1, 2])
    @example(text="keep gap " + "7" * 5000, ids=[1, 2])
    @example(text="Robot 100000000000000000000 is critical", ids=[1, 10**20])
    @example(text="Robot 1 is critical", ids=[1])
    def test_rule_engine_never_falls_back(self, text, ids):
        res = correct_loop(RuleIntentEngine(), text, {"robot_ids": ids})
        assert not res.fallback, res.error_history


class RecordingEngine:
    """Scripted engine that records the errors it was re-prompted with."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def propose(self, intent_text, context, errors=None):
        self.calls.append(errors)
        action = self.responses.pop(0)
        if isinstance(action, Exception):
            raise action
        if callable(action):
            return action()
        return action


class TestCorrectLoop:
    def test_valid_first_try(self):
        engine = RecordingEngine([VALID_MESSAGE])
        res = correct_loop(engine, "x", {"robot_ids": (1, 2)})
        assert res.attempts == 1 and not res.fallback
        assert res.error_history == []
        assert res.config.pp.priority_robot == 2

    def test_errors_fed_back_to_engine(self):
        bad = {"pp_config": {"objective": "x"}, "ra_config": {}}
        engine = RecordingEngine([bad, VALID_MESSAGE])
        res = correct_loop(engine, "x", {"robot_ids": (1, 2)})
        assert res.attempts == 2 and not res.fallback
        assert len(res.error_history) == 1
        assert engine.calls[0] is None
        assert engine.calls[1] == res.error_history[0]
        assert any("pp_config.objective" in e for e in engine.calls[1])

    def test_always_invalid_falls_back(self):
        engine = RecordingEngine([{"bogus": 1}] * 3)
        res = correct_loop(engine, "x", {"robot_ids": (1, 2)}, max_attempts=3)
        assert res.fallback and res.attempts == 3
        assert len(res.error_history) == 3
        cfg = res.config
        assert cfg.fallback
        assert cfg.pp == PlanConfig("safety_first", None, 1)
        assert cfg.ra.fairness == "max_min"
        assert cfg.ra.priority_weights == (0.5, 0.5)

    def test_sense_section_is_refused_and_reprompted(self):
        """A message that adds a sensing section to a valid planning and
        radio configuration is refused as an unknown field, and the engine
        is re-prompted with that line."""
        sensing = {**VALID_MESSAGE, "sense_config": {"mode": "vq", "vit_grid": "1x1", "qos": "best_effort"}}
        engine = RecordingEngine([sensing, VALID_MESSAGE])
        res = correct_loop(engine, "x", {"robot_ids": (1, 2)})
        assert res.attempts == 2 and not res.fallback
        assert engine.calls[1] == ["message.sense_config: unknown field"]
        assert validate(fallback_message((1, 2)), (1, 2))[1] == []

    def test_engine_exceptions_are_attempts(self):
        engine = RecordingEngine([RuntimeError("boom"), VALID_MESSAGE])
        res = correct_loop(engine, "x", {"robot_ids": (1, 2)})
        assert res.attempts == 2 and not res.fallback
        assert res.error_history[0] == ["engine: boom"]

    def test_validator_exceptions_are_attempts(self, monkeypatch):
        odd = {"pp_config": "odd"}
        real = orchestrator.validate

        def explode(message, robot_ids):
            if message is odd:
                raise KeyError("unforeseen")
            return real(message, robot_ids)

        monkeypatch.setattr(orchestrator, "validate", explode)
        res = correct_loop(RecordingEngine([odd] * 2), "x", {"robot_ids": (1, 2)}, max_attempts=2)
        assert res.fallback and res.attempts == 2
        assert res.error_history == [["message: KeyError: 'unforeseen'"]] * 2

    def test_all_exceptions_fall_back(self):
        engine = RecordingEngine([RuntimeError("a"), RuntimeError("b")])
        res = correct_loop(engine, "x", {"robot_ids": (1, 2)}, max_attempts=2)
        assert res.fallback and res.attempts == 2


def make_sim(method, seed=0, **kwargs):
    return WarehouseSimulation(make_inputs(**kwargs), method, seed)


def arrival_steps(sim):
    """Each robot's executed steps, moves and commanded waits alike."""
    return {rid: len(rt.executed) - 1 for rid, rt in sim.robots.items()}


def make_inputs(
    gains=None,
    budget=None,
    robots=None,
    tracks=(),
    world=None,
    max_sim_time_s=3600.0,
    weights=None,
):
    world = world or GridWorld(6, 1)
    robots = robots or [RobotState(1, (0, 0), (5, 0))]
    if isinstance(gains, PathGainMap):
        gain_map = gains
    elif gains is None:
        gain_map = PathGainMap(np.full((world.height, world.width), -60.0))
    else:
        gain_map = PathGainMap(np.asarray(gains, dtype=float))
    cfg = OrchestratorConfig(
        pp=PlanConfig(objective="makespan"),
        ra=RadioConfig(
            fairness="max_min", priority_weights=weights or tuple([1.0 / len(robots)] * len(robots))
        ),
    )
    return WarehouseInputs(
        world=world,
        robots=robots,
        tracks=list(tracks),
        gain_map=gain_map,
        table=default_mcs_table(),
        cfg=cfg,
        budget=budget or LoopBudget(0.1, 0.01, 0.05, 0.1),
        payloads={"raw": 6220800, "semantic_feature": 5160},
        max_sim_time_s=max_sim_time_s,
    )


class TestWarehouseSimulation:
    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="method"):
            make_sim("teleport")
        with pytest.raises(ValueError, match="dimensions"):
            make_sim("lorc_sc_p", gains=np.full((2, 3), -60.0))
        with pytest.raises(ValueError, match="weights"):
            make_sim("lorc_sc_p", weights=(0.5, 0.5))

    def test_fast_loop_never_stalls(self):
        """5160 B at 3 bps/Hz on 10 MHz: the loop closes in 0.262376 s,
        far inside the 1.4 s transition, so the robot never waits."""
        sim = make_sim("lorc_sc_p")
        out = sim.run()
        assert out["completion_time_s"] == pytest.approx(7.0, abs=1e-9)
        assert out["stop_events"] == 0 and out["halt_s"] == 0.0
        assert arrival_steps(sim) == {1: 5}
        assert len(sim.rtt_samples) == 6  # initial sync + 5 transitions
        for rtt in sim.rtt_samples:
            assert rtt == pytest.approx(0.262376, abs=1e-9)

    def test_slow_budget_stalls_every_transition(self):
        """A 2.0 s fixed budget overshoots the 1.4 s transition by 0.602376 s;
        the overshoot is paid after each transition except the final one."""
        budget = LoopBudget(0.1, 0.01, 0.05, 1.84)
        sim = make_sim("lorc_sc_p", budget=budget)
        out = sim.run()
        assert out["completion_time_s"] == pytest.approx(5 * 1.4 + 4 * 0.602376, abs=1e-9)
        assert out["stop_events"] == 4
        assert out["halt_s"] == pytest.approx(4 * 0.602376, abs=1e-9)
        for rtt in sim.rtt_samples:
            assert rtt == pytest.approx(2.002376, abs=1e-9)

    def test_raw_payload_serialization_dominates(self):
        """6220800 B at 3 bps/Hz serializes in 1.65888 s; with slot and budget
        the loop takes 1.91988 s and every mid-route transition stalls."""
        sim = make_sim("lorc_p")
        out = sim.run()
        assert out["completion_time_s"] == pytest.approx(5 * 1.4 + 4 * 0.51988, abs=1e-9)
        assert out["stop_events"] == 4
        for rtt in sim.rtt_samples:
            assert rtt == pytest.approx(1.91988, abs=1e-9)

    def test_reactive_power_pays_on_gain_drops(self):
        """Entering a 25 dB dead cell, the reactive method budgets power from
        the previous cell's measured gain, loses the first uplink, and retries
        one frame later; the map-predictive method never misses."""
        dead = [[-60.0, -60.0, -85.0, -60.0, -60.0, -60.0]]
        reactive = make_sim("lorc_sc", gains=dead)
        predictive = make_sim("lorc_sc_p", gains=dead)
        assert predictive.run()["completion_time_s"] == pytest.approx(7.0)
        assert reactive.run()["completion_time_s"] == pytest.approx(7.0)
        assert max(predictive.rtt_samples) == pytest.approx(0.262376, abs=1e-9)
        assert max(reactive.rtt_samples) == pytest.approx(0.762376, abs=1e-9)

    def test_completion_time_is_the_last_robot_done(self):
        """Every executed step, moves and waits alike, takes one cell-traverse
        interval; a robot is done after its steps and its halt seconds, and
        the run's completion time is the latest robot's, on every bundled
        warehouse file. ``run`` returns exactly the metrics the record type
        it replaced built (``reference_warehouse_metrics``), with RTT tails
        exactly when a loop ran, so never under ``stop_and_go``."""
        halted = 0
        for sid in WAREHOUSE_IDS:
            inputs = load_scenario(BUNDLED_DIR / f"{sid}.json").inputs
            for method in WAREHOUSE_METHODS:
                for seed in range(3):
                    sim = WarehouseSimulation(inputs, method, seed)
                    out = sim.run()
                    robots = sim.robots.values()
                    assert out["completion_time_s"] == max(
                        (len(rt.executed) - 1) * inputs.world.cell_traverse_s + rt.halt_s for rt in robots
                    )
                    ref = reference_warehouse_metrics(sim)
                    assert out == ref and list(out) == list(ref)
                    assert all(type(v) is float for v in out.values())
                    rtt_keys = {"rtt_mean_s", "rtt_p95_s"} & set(out)
                    assert rtt_keys == (set() if method == "stop_and_go" else {"rtt_mean_s", "rtt_p95_s"})
                    halted += any(rt.halt_s > 0 for rt in robots)
        assert halted  # the halt seconds are exercised

    def test_metrics_without_rtt(self):
        """A ``stop_and_go`` run closes no loop: its metrics are the three
        run totals, as floats, and no RTT tail."""
        world = GridWorld(6, 2)
        track = HumanTrack([(3, 0)] * 10 + [(3, 1)])
        out = make_sim("stop_and_go", world=world, tracks=[track]).run()
        assert list(out) == ["completion_time_s", "stop_events", "halt_s"]
        assert out["completion_time_s"] == pytest.approx(9.8, abs=1e-9)
        assert out["stop_events"] == 2.0 and type(out["stop_events"]) is float
        assert out["halt_s"] == pytest.approx(2.8, abs=1e-9)

    def test_metrics_with_rtt(self):
        """The reactive run in the dead zone has five 0.262376 s loops and
        one 0.762376 s loop with its retry: the mean weighs all six, and the
        nearest-rank 95th percentile is the sixth order statistic."""
        dead = [[-60.0, -60.0, -85.0, -60.0, -60.0, -60.0]]
        sim = make_sim("lorc_sc", gains=dead)
        out = sim.run()
        assert len(sim.rtt_samples) == 6
        assert out["rtt_mean_s"] == pytest.approx((5 * 0.262376 + 0.762376) / 6, abs=1e-9)
        assert out["rtt_p95_s"] == pytest.approx(0.762376, abs=1e-9)

    def test_stop_and_go_clear_corridor(self):
        sim = make_sim("stop_and_go")
        out = sim.run()
        assert out["completion_time_s"] == pytest.approx(7.0)
        assert out["stop_events"] == 0
        assert sim.rtt_samples == []

    def test_stop_and_go_waits_out_a_human(self):
        """Human stands on (3,0) for ten frames then steps aside; the robot
        is blocked on tries at 2.8 s and 4.2 s and passes on the third try."""
        world = GridWorld(6, 2)
        track = HumanTrack([(3, 0)] * 10 + [(3, 1)])
        sim = make_sim("stop_and_go", world=world, tracks=[track])
        out = sim.run()
        assert out["completion_time_s"] == pytest.approx(9.8, abs=1e-9)
        assert out["stop_events"] == 2
        assert out["halt_s"] == pytest.approx(2.8, abs=1e-9)
        assert arrival_steps(sim) == {1: 5}

    def test_stop_and_go_yields_to_other_robot(self):
        world = GridWorld(3, 2)
        robots = [RobotState(1, (0, 0), (2, 0)), RobotState(2, (1, 0), (1, 1))]
        sim = make_sim("stop_and_go", world=world, robots=robots)
        out = sim.run()
        assert out["completion_time_s"] == pytest.approx(5.6, abs=1e-9)
        assert out["stop_events"] == 2
        assert arrival_steps(sim) == {1: 2, 2: 1}

    def test_occupied_next_interlock(self):
        world = GridWorld(4, 1)
        robots = [RobotState(1, (0, 0), (3, 0)), RobotState(2, (2, 0), (2, 0))]
        sim = make_sim("lorc_sc_p", world=world, robots=robots)
        rt, other = sim.robots[1], sim.robots[2]
        other.pending_target = (1, 0)
        assert sim._occupied_next(rt, (1, 0))
        other.pending_target = None
        assert sim._occupied_next(rt, (2, 0))  # current cell counts
        assert not sim._occupied_next(rt, (1, 0))
        other.arrived = True
        assert not sim._occupied_next(rt, (2, 0))

    def test_two_robots_planning_from_one_cell_get_no_plan(self):
        """A robot flying into another's cell leaves the replan two robots
        starting there: the planner refuses it, and no robot gets a cell."""
        world = GridWorld(4, 2)
        robots = [RobotState(1, (0, 0), (3, 0)), RobotState(2, (1, 0), (3, 1))]
        sim = make_sim("lorc_sc_p", world=world, robots=robots)
        sim.robots[2].pending_target = (0, 0)
        assert sim._plan_next(sim.robots[1], 0.0) is None
        assert sim._plan_next(sim.robots[2], 0.0) is None
        sim.robots[2].pending_target = (1, 1)
        assert sim._plan_next(sim.robots[1], 0.0) == (1, 0)

    def test_same_seed_reproduces_run(self):
        gm = PathGainMap(np.full((1, 6), -95.0), shadowing_rho=0.9, shadowing_sigma_db=6.0)
        a = make_sim("lorc_sc", gains=gm)
        b = make_sim("lorc_sc", gains=gm)
        assert a.run() == b.run()
        assert a.rtt_samples == b.rtt_samples

    def test_max_sim_time_guard(self):
        world = GridWorld(8, 1)
        robots = [RobotState(1, (0, 0), (7, 0))]
        sim = make_sim("stop_and_go", world=world, robots=robots, max_sim_time_s=5.0, seed=3)
        with pytest.raises(UnfinishedRun) as info:
            sim.run()
        err = info.value
        assert (err.method, err.seed, err.max_sim_time_s) == ("stop_and_go", 3, 5.0)
        assert str(err) == "method stop_and_go seed 3 did not finish within 5.0 s (an event fell due at 5.6 s)"
        assert pickle.loads(pickle.dumps(err)).args == err.args

    @pytest.mark.parametrize("method", WAREHOUSE_METHODS)
    def test_finished_run_leaves_no_event_queued(self, contact_audit, method):
        """Every run of the audit below: a robot whose step lands on its goal
        schedules nothing after it, so the queue drains exactly when the last
        robot arrives, and a run that returns has no event queued."""
        audit = contact_audit(method)
        assert audit.finished > 0
        assert audit.leftovers == []


class ContactAudit:
    """What a spy set on ``WarehouseSimulation._land`` sees over every
    pinned seed of the bundled warehouse files and 100 random small
    documents at seed 0, under one method: robots landing where another
    robot stands, moving or parked; two robots exchanging cells in moves
    that overlap in time; robots landing on a cell a human holds at the
    landing frame. ``leftovers`` lists the runs whose queue did not drain
    exactly when the last robot arrived."""

    def __init__(self, method, runs):
        self.landings = self.steps = self.finished = 0
        self.contacts, self.swaps, self.humans, self.leftovers = [], [], [], []
        land = WarehouseSimulation._land
        moves = {}  # (from, to) -> [(landing time, robot id)] of the current run

        def spy(sim, t, rt, target):
            self.landings += 1
            here = (sim.seed, t, rt.id)
            self.contacts += [(*here, o.id) for o in sim.robots.values() if o is not rt and o.cell == target]
            if target != rt.cell:
                self.swaps += [
                    (*here, rid)
                    for t_o, rid in moves.get((target, rt.cell), ())
                    if rid != rt.id and t - t_o < sim.world.cell_traverse_s - 1e-9
                ]
                moves.setdefault((rt.cell, target), []).append((t, rt.id))
            frame = sim._frame(t)
            self.humans += [here for track in sim.tracks if track.position_at(frame) == target]
            land(sim, t, rt, target)
            if rt.arrived and sim._events and all(o.arrived for o in sim.robots.values()):
                self.leftovers.append((*here, "an event is queued after the last robot arrived"))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(WarehouseSimulation, "_land", spy)
            for scn, seed in runs:
                moves.clear()
                sim = WarehouseSimulation(scn.inputs, method, seed)
                try:
                    sim.run()
                except UnfinishedRun as exc:
                    if "never arrived" in exc.reason:
                        self.leftovers.append((seed, exc.reason))
                else:
                    self.finished += 1
                    if sim._events or not all(rt.arrived for rt in sim.robots.values()):
                        self.leftovers.append((seed, "run returned with a robot out or an event queued"))
                self.steps += sum(len(rt.executed) - 1 for rt in sim.robots.values())


@pytest.fixture(scope="module")
def contact_audit():
    """``contact_audit(method)``: the method's :class:`ContactAudit`, made
    once per module."""
    runs = [
        (scn, seed)
        for scn in (load_scenario(BUNDLED_DIR / f"{name}.json") for name in WAREHOUSE_IDS)
        for seed in scn.seeds
    ]
    rng = np.random.default_rng(5)
    for _ in range(100):
        try:
            runs.append((parse_scenario(random_small_warehouse(rng, 20.0)), 0))
        except ScenarioError:
            pass
    audits = {}

    def audit(method):
        if method not in audits:
            audits[method] = ContactAudit(method, runs)
        return audits[method]

    return audit


ITEM_1 = "ROADMAP item 1: robots land on cells other robots or humans hold"


class TestRobotContact:
    @pytest.mark.parametrize("method", WAREHOUSE_METHODS)
    def test_spy_on_the_class_sees_every_landing(self, contact_audit, method):
        audit = contact_audit(method)
        assert audit.landings == audit.steps > 0

    @pytest.mark.parametrize(
        "method",
        [
            pytest.param("stop_and_go", marks=pytest.mark.xfail(strict=True, reason=ITEM_1)),
            "lorc_p",
            "lorc_sc",
            "lorc_sc_p",
        ],
    )
    def test_no_robot_lands_where_another_stands(self, contact_audit, method):
        assert contact_audit(method).contacts == []

    @pytest.mark.parametrize("method", WAREHOUSE_METHODS)
    def test_no_two_robots_swap_cells(self, contact_audit, method):
        assert contact_audit(method).swaps == []

    @pytest.mark.xfail(strict=True, reason=ITEM_1)
    @pytest.mark.parametrize("method", WAREHOUSE_METHODS)
    def test_no_robot_lands_on_a_human(self, contact_audit, method):
        assert contact_audit(method).humans == []


def small_documents(seed, count):
    """``count`` random small warehouse documents that load, as scenarios."""
    rng, scenarios = np.random.default_rng(seed), []
    while len(scenarios) < count:
        try:
            scenarios.append(parse_scenario(random_small_warehouse(rng, 20.0)))
        except ScenarioError:
            pass
    return scenarios


class ScannedHumanCells:
    """``HumanReservations.human_cells(frame)`` as the scan of every track
    on each test."""

    def __init__(self, tracks, frame):
        self.tracks, self.frame = tracks, frame

    def __contains__(self, cell):
        return reference_human_cells(self.tracks, self.frame, cell)


class TestStopAndGoHumanCells:
    """Stop-and-go tests a step against one set of human cells per frame,
    kept on the loaded file's :class:`HumanReservations`; it holds what the
    scan of every track's position and forecast finds."""

    def test_sets_match_the_scan(self):
        checked = 0
        for scn in small_documents(34, 60):
            memo = scn.inputs.human
            world = scn.inputs.world
            longest = max((len(t.waypoints) for t in memo.tracks), default=0)
            for frame in range(longest + 4):
                cells = memo.human_cells(frame)
                for x in range(world.width):
                    for y in range(world.height):
                        assert ((x, y) in cells) == reference_human_cells(memo.tracks, frame, (x, y))
                checked += bool(cells)
            assert len(memo._cells_at) <= max(longest, 2)
        assert checked >= 300, checked

    def test_runs_match_the_scan(self, monkeypatch):
        scenarios = small_documents(35, 40)
        want = [run_outcome(scn, "stop_and_go", seed) for scn in scenarios for seed in (0, 1)]
        monkeypatch.setattr(
            orchestrator.HumanReservations, "human_cells", lambda memo, frame: ScannedHumanCells(memo.tracks, frame)
        )
        got = [run_outcome(scn, "stop_and_go", seed) for scn in scenarios for seed in (0, 1)]
        assert got == want
        assert sum(isinstance(o, dict) and o["metrics"]["stop_events"] > 0 for o in want) >= 5, want


def test_bundled_run_draws_the_shadowing_it_reads():
    """A ``lorc_sc`` run of warehouse-s1 at seed 0 reads a few dozen frames
    of each robot's shadowing; it draws them in blocks of 64 doubling, so
    fewer than 1,024 per robot, of the 5,151 it may read."""
    scn = load_scenario(BUNDLED_DIR / "warehouse-s1.json")
    sim = WarehouseSimulation(scn.inputs, "lorc_sc", 0)
    sim.run()
    drawn = [len(rt.shadow) for rt in sim.robots.values()]
    assert all(0 < n < 1024 for n in drawn), drawn
