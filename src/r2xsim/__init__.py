"""Deterministic simulation toolkit for robot-to-everything orchestration:
prioritized grid planning, link adaptation under delayed feedback, semantic
sensing payloads, and intent-driven configuration."""

from .linkadapt import LinkTable, PolicySpec, gains, run_policy
from .metrics import run_summary, tail_stats, utfr
from .orchestrator import (
    LoopBudget,
    OrchestratorConfig,
    RuleIntentEngine,
    UnfinishedRun,
    WarehouseInputs,
    WarehouseSimulation,
    correct_loop,
    rule_intent,
    select_sense_mode,
    validate,
)
from .planner import PlanConfig, PlanningInfeasible, SpaceTimePath, plan
from .radio import (
    McsTable,
    PathGainMap,
    RadioConfig,
    allocate,
    bler,
    default_mcs_table,
    sample_trace,
    select_mcs,
)
from .scenarios import Scenario, ScenarioError, load_scenario, run_one
from .sensing import Codebook, PayloadParams, SenseConfig, payload_bytes, vq_decode, vq_encode
from .world import GridWorld, HumanTrack, RobotState, human_forecast

__version__ = "0.1.0"

__all__ = [
    "Codebook",
    "GridWorld",
    "HumanTrack",
    "LinkTable",
    "LoopBudget",
    "McsTable",
    "OrchestratorConfig",
    "PathGainMap",
    "PayloadParams",
    "PlanConfig",
    "PlanningInfeasible",
    "PolicySpec",
    "RadioConfig",
    "RobotState",
    "RuleIntentEngine",
    "Scenario",
    "ScenarioError",
    "SenseConfig",
    "SpaceTimePath",
    "UnfinishedRun",
    "WarehouseInputs",
    "WarehouseSimulation",
    "allocate",
    "bler",
    "correct_loop",
    "default_mcs_table",
    "gains",
    "human_forecast",
    "load_scenario",
    "payload_bytes",
    "plan",
    "rule_intent",
    "run_one",
    "run_policy",
    "run_summary",
    "sample_trace",
    "select_mcs",
    "select_sense_mode",
    "tail_stats",
    "utfr",
    "validate",
    "vq_decode",
    "vq_encode",
]
