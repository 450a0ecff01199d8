"""Shared fixtures and the acceptance-summary terminal hook.

The heavy simulation sweeps (warehouse grid, corridor policies, follow
trace) are session fixtures so the acceptance checks that share them run
the underlying simulations exactly once.
"""

import importlib.util
import time
from pathlib import Path

import numpy as np
import pytest

from r2xsim.scenarios import ScenarioError, load_scenario, parse_scenario, run_one

BUNDLED_DIR = Path(__file__).resolve().parents[1] / "src" / "r2xsim" / "scenarios"

# tools/check_digests.py, whose pins and makespan copies the golden and memo
# tests share.
_spec = importlib.util.spec_from_file_location(
    "check_digests", Path(__file__).resolve().parents[1] / "tools" / "check_digests.py"
)
check_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_digests)
WAREHOUSE_IDS = ("warehouse-s1", "warehouse-s2", "warehouse-s3", "warehouse-s4")


def scenario_errors(doc) -> list:
    """Every error ``parse_scenario`` reports for ``doc``; empty if it loads."""
    try:
        parse_scenario(doc)
    except ScenarioError as exc:
        return exc.errors
    return []


# One line per acceptance check, echoed after the run summary so the
# verdicts are visible without -s.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def acceptance_log():
    return ACCEPTANCE_LINES


@pytest.fixture(scope="session")
def bundled_dir():
    return BUNDLED_DIR


@pytest.fixture(scope="session")
def warehouse_medians():
    """Median completion time per (scenario, method) over the bundled seeds,
    plus the wall time the whole sweep took."""
    start = time.monotonic()
    medians = {}
    for sid in WAREHOUSE_IDS:
        scn = load_scenario(BUNDLED_DIR / f"{sid}.json")
        medians[sid] = {}
        for method in scn.methods:
            vals = [
                run_one(scn, method, seed)["metrics"]["completion_time_s"]
                for seed in scn.seeds
            ]
            medians[sid][method] = float(np.median(vals))
    return medians, time.monotonic() - start


@pytest.fixture(scope="session")
def corridor_policy_stats():
    """Per-seed mean throughput and realized-BLER mass for the corridor
    policies used by the link-adaptation checks. Runs go seed by seed, as
    ``r2xsim run`` orders them, so each seed's link table is built once."""
    start = time.monotonic()
    scn = load_scenario(BUNDLED_DIR / "mcs-ar1.json")
    assert scn.inputs.bler_target == 0.1  # bler_mass is the mass at or below 0.1
    delays = (3, 5, 10, 20, 30)
    methods = ["oracle", "delayed_1"] + [
        f"{kind}_{d}" for d in delays for kind in ("delayed", "predictive")
    ]
    throughput = {m: [] for m in methods}
    bler_mass = {m: [] for m in methods}
    for seed in scn.seeds:
        for m in methods:
            metrics = run_one(scn, m, seed)["metrics"]
            throughput[m].append(metrics["throughput_mean_bps"])
            bler_mass[m].append(metrics["bler_mass_le_target"])
    return {
        "delays": delays,
        "throughput": throughput,
        "bler_mass": bler_mass,
        "seeds": list(scn.seeds),
        "elapsed_s": time.monotonic() - start,
    }


@pytest.fixture(scope="session")
def followme_medians():
    """Median cta_p95_s and utfr_pct per method on the bundled corridor."""
    start = time.monotonic()
    scn = load_scenario(BUNDLED_DIR / "followme-corridor.json")
    medians = {}
    for method in scn.methods:
        cta, ut = [], []
        for seed in scn.seeds:
            m = run_one(scn, method, seed)["metrics"]
            cta.append(m["cta_p95_s"])
            ut.append(m["utfr_pct"])
        medians[method] = {
            "cta_p95_s": float(np.median(cta)),
            "utfr_pct": float(np.median(ut)),
        }
    return medians, time.monotonic() - start
