"""Headline guarantees of the shipped toolkit, one verdict line each.

Every test here checks one end-to-end claim, appends a PASS/FAIL line to
the `acceptance criteria` section of the pytest summary, and enforces a
wall-clock budget. Tolerances are pinned inline next to each check. The
heavy sweeps (warehouse grid, corridor policies, follow trace) come from
session fixtures so tests sharing them pay for the simulation once.
"""

import time

import numpy as np

from oracles import joint_makespan_oracle, random_planner_instance
from r2xsim.cli import main as cli_main
from r2xsim.linkadapt import PolicySpec, PolicyTimeSeries, gains
from r2xsim.orchestrator import correct_loop, rule_intent, select_sense_mode
from r2xsim.planner import (
    PlanConfig,
    PlanningInfeasible,
    default_horizon,
    detect_first_conflict,
    makespan,
    plan,
)
from r2xsim.scenarios import load_scenario
from r2xsim.sensing import Codebook, PayloadParams, SenseConfig, payload_bytes, vq_encode
from r2xsim.world import GridWorld, RobotState


def record(log, tag, ok, detail):
    line = f"{tag} {'PASS' if ok else 'FAIL'}  {detail}"
    log.append(line)
    print(line)
    assert ok, line


def test_c01_control_loop_budget(acceptance_log, bundled_dir):
    """The measured pipeline components of warehouse-s1 close the loop
    inside one cell transition."""
    start = time.monotonic()
    inputs = load_scenario(bundled_dir / "warehouse-s1.json").inputs
    total, transition = inputs.budget.total_s, inputs.world.cell_traverse_s
    elapsed = time.monotonic() - start
    ok = abs(total - 1.02831) <= 1e-5 and total < transition and transition == 1.4 and elapsed < 1.0
    record(
        acceptance_log, "C01", ok,
        f"loop closes in {total * 1000:.2f} ms, under the {transition * 1000:.0f} ms transition ({elapsed:.2f} s)",
    )


def test_c02_payload_identities(acceptance_log):
    """Raw, feature, and token payload sizes match their closed forms exactly."""
    start = time.monotonic()
    p = PayloadParams()
    got = (
        payload_bytes(SenseConfig(mode="raw"), p),
        payload_bytes(SenseConfig(mode="semantic_feature", feature_dim=512, feature_bits=8), p),
        payload_bytes(SenseConfig(mode="vq", vit_grid=(1, 1)), p),
        payload_bytes(SenseConfig(mode="vq", vit_grid=(1, 2)), p),
        payload_bytes(SenseConfig(mode="vq", vit_grid=(1, 3)), p),
        payload_bytes(SenseConfig(mode="vq", vit_grid=(1, 1)), p, include_overhead=False),
    )
    want = (6_220_800, 512, 1720, 3440, 5160, 1664)
    elapsed = time.monotonic() - start
    ok = got == want and elapsed < 1.0
    record(acceptance_log, "C02", ok, f"payload bytes {got} == {want}")


def test_c03_warehouse_method_ordering(acceptance_log, warehouse_medians):
    """Semantic payloads plus prediction beat the baselines on every layout."""
    medians, elapsed = warehouse_medians
    ok = elapsed < 120.0
    parts = []
    for sid in sorted(medians):
        m = medians[sid]
        ok = ok and m["lorc_sc_p"] < m["lorc_sc"] < m["stop_and_go"]
        ok = ok and m["lorc_sc_p"] < m["lorc_p"]
        parts.append(
            f"{sid.split('-')[-1]}: {m['lorc_sc_p']:.2f} < {m['lorc_sc']:.2f} "
            f"< {m['stop_and_go']:.2f}, lorc_p {m['lorc_p']:.2f}"
        )
    record(
        acceptance_log, "C03", ok,
        "median completion s " + "; ".join(parts) + f" ({elapsed:.0f} s sweep)",
    )


def test_c04_prediction_recovers_throughput(acceptance_log, corridor_policy_stats):
    """Map-aware prediction recovers most of the throughput stale feedback loses."""
    s = corridor_policy_stats
    tp = {m: float(np.mean(v)) for m, v in s["throughput"].items()}
    delta = {
        d: 100.0 * (tp[f"predictive_{d}"] - tp[f"delayed_{d}"]) / tp[f"delayed_{d}"]
        for d in s["delays"]
    }
    positive = all(delta[d] > 0 for d in s["delays"])
    ordered = all(delta[a] <= delta[b] for a, b in zip((3, 5, 10), (5, 10, 20)))
    vs_fresh = 100.0 * (tp["predictive_3"] - tp["delayed_1"]) / tp["delayed_1"]
    band = -5.0 <= vs_fresh <= 10.0
    n = len(s["seeds"])
    wins = sum(
        1
        for i in range(n)
        if s["throughput"]["oracle"][i] >= max(s["throughput"][m][i] for m in s["throughput"])
    )
    ok = positive and ordered and band and wins == n and s["elapsed_s"] < 60.0
    detail = (
        "dTP% " + " ".join(f"d={d}:{delta[d]:+.1f}" for d in s["delays"])
        + f", pred_3 vs delayed_1 {vs_fresh:+.2f}%, oracle best on {wins}/{n} traces"
    )
    record(acceptance_log, "C04", ok, detail)


def test_c05_predictive_bler_concentration(acceptance_log, corridor_policy_stats):
    """Under 30-step feedback lag, prediction keeps realized BLER on target."""
    s = corridor_policy_stats
    mass_p = s["bler_mass"]["predictive_30"]
    mass_d = s["bler_mass"]["delayed_30"]
    mean_mass = float(np.mean(mass_p))
    n = len(s["seeds"])
    wins = sum(1 for a, b in zip(mass_p, mass_d) if a > b)
    ok = mean_mass >= 0.80 and wins >= 16 and s["elapsed_s"] < 60.0
    record(
        acceptance_log, "C05", ok,
        f"predictive_30 mass(BLER<=0.1) {mean_mass:.3f} (need >=0.80), "
        f"beats delayed_30 on {wins}/{n} seeds (need >=16)",
    )


def test_c06_rssi_sense_ladder(acceptance_log):
    """Sweeping RSSI -30 to -60 dBm walks the five-mode ladder at the
    documented floors, with payloads shrinking monotonically."""
    start = time.monotonic()
    sweep = np.arange(-30.0, -60.0 - 1e-9, -0.5)

    def key(cfg):
        return (cfg.mode, cfg.jpeg_quality if cfg.mode == "jpeg" else cfg.vit_grid, cfg.qos)

    seq = [key(select_sense_mode(float(r))) for r in sweep]
    ladder = [k for i, k in enumerate(seq) if i == 0 or k != seq[i - 1]]
    expect = [
        ("jpeg", 80, "reliable"),
        ("jpeg", 60, "reliable"),
        ("vq", (1, 3), "best_effort"),
        ("vq", (1, 2), "best_effort"),
        ("vq", (1, 1), "best_effort"),
    ]
    # each mode stays active down to its floor; the last rung terminates
    # the ladder at -48 dBm and clamps below it
    floors = [float(sweep[max(i for i, k in enumerate(seq) if k == mode)]) for mode in expect[:-1]]
    floors_ok = floors == [-39.0, -41.0, -43.0, -45.0]
    clamp_ok = (
        key(select_sense_mode(-48.0)) == expect[-1]
        and key(select_sense_mode(-120.0)) == expect[-1]
    )
    params = PayloadParams()
    payloads = [payload_bytes(select_sense_mode(float(r)), params) for r in sweep]
    monotone = all(a >= b for a, b in zip(payloads, payloads[1:]))
    elapsed = time.monotonic() - start
    ok = ladder == expect and floors_ok and clamp_ok and monotone and elapsed < 1.0
    record(
        acceptance_log, "C06", ok,
        f"5-mode ladder, floors {floors + [-48.0]} dBm, payload nonincreasing",
    )


def test_c07_followme_orchestration(acceptance_log, followme_medians):
    """Mode switching tracks as reliably as any fixed mode while staying
    far quicker than full-quality frames."""
    med, elapsed = followme_medians
    fixed = sorted(m for m in med if m != "orchestrated")
    orch = med["orchestrated"]
    cta_ok = orch["cta_p95_s"] < med["jpeg_q95"]["cta_p95_s"]
    worst_fixed = min(med[m]["utfr_pct"] for m in fixed)
    utfr_ok = all(orch["utfr_pct"] < med[m]["utfr_pct"] for m in fixed)
    ok = cta_ok and utfr_ok and elapsed < 60.0
    record(
        acceptance_log, "C07", ok,
        f"orchestrated p95 CTA {orch['cta_p95_s']:.3f} s < jpeg_q95 "
        f"{med['jpeg_q95']['cta_p95_s']:.3f} s; UTFR {orch['utfr_pct']:.2f}% "
        f"< best fixed {worst_fixed:.2f}% ({elapsed:.0f} s sweep)",
    )


def test_c08_planner_matches_joint_search(acceptance_log):
    """On random 5x5 instances the prioritized planner is conflict-free and
    as short as an ordering-constrained joint search over both robots."""
    start = time.monotonic()
    rng = np.random.default_rng(123)
    w = GridWorld(5, 5)
    horizon = default_horizon(w)
    feasible = matched = infeasible = 0
    for _ in range(200):
        starts, goals, humans = random_planner_instance(rng)
        robots = [RobotState(1, starts[0], goals[0]), RobotState(2, starts[1], goals[1])]
        pairs = [(hc, s) for hc in humans for s in range(1, horizon + 1)]
        expected = joint_makespan_oracle(w, starts, goals, humans, horizon)
        try:
            paths = plan(w, robots, pairs, PlanConfig(objective="makespan"))
        except PlanningInfeasible:
            assert expected is None, "planner gave up on an instance the oracle solves"
            infeasible += 1
            continue
        feasible += 1
        if (
            expected is not None
            and detect_first_conflict(paths) is None
            and makespan(paths) == expected
        ):
            matched += 1
    elapsed = time.monotonic() - start
    ok = feasible > 0 and matched == feasible and elapsed < 120.0
    record(
        acceptance_log, "C08", ok,
        f"{matched}/{feasible} feasible instances optimal and conflict-free, "
        f"{infeasible} infeasible agreed ({elapsed:.1f} s)",
    )


def test_c09_vq_encode_vs_brute_force(acceptance_log):
    """Nearest-codeword assignment matches an index-by-index scan, with
    ties always resolved to the lowest index."""
    start = time.monotonic()
    rng = np.random.default_rng(7)

    def brute(rows, v):
        return min(
            range(len(rows)),
            key=lambda k: (sum((a - b) * (a - b) for a, b in zip(rows[k], v)), k),
        )

    checked = mismatches = 0

    cb = Codebook(rng.normal(size=(64, 4)))
    rows = cb.codewords.tolist()
    for v in rng.normal(size=(9000, 4)).tolist():
        checked += 1
        if vq_encode(v, cb) != brute(rows, v):
            mismatches += 1

    # coarse half-integer grid: exact ties are common
    tie_cb = Codebook(np.round(rng.normal(size=(32, 3)) * 2) / 2)
    tie_rows = tie_cb.codewords.tolist()
    for v in (np.round(rng.normal(size=(994, 3)) * 2) / 2).tolist():
        checked += 1
        if vq_encode(v, tie_cb) != brute(tie_rows, v):
            mismatches += 1

    # engineered: duplicated codewords and exact midpoints
    dup = Codebook(np.array([[5.0, 5.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]))
    line = Codebook(np.array([[0.0], [2.0], [4.0]]))
    for cb_t, v, want in (
        (dup, [1.0, 1.0], 1),
        (dup, [3.0, 3.0], 0),  # equidistant from rows 0 and 1..3: lowest wins
        (line, [1.0], 0),
        (line, [3.0], 1),
        (line, [-9.0], 0),
        (line, [99.0], 2),
    ):
        checked += 1
        if vq_encode(v, cb_t) != want:
            mismatches += 1

    elapsed = time.monotonic() - start
    ok = checked == 10_000 and mismatches == 0 and elapsed < 30.0
    record(
        acceptance_log, "C09", ok,
        f"{checked - mismatches}/{checked} assignments match the scan ({elapsed:.1f} s)",
    )


def test_c10_intent_resolution(acceptance_log, bundled_dir):
    """The operator prompt maps to the exact safety configuration, and an
    engine that never validates lands on the conservative fallback."""
    start = time.monotonic()
    text = load_scenario(bundled_dir / "warehouse-s1.json").params["intent_text"]
    msg = rule_intent(text, (1, 2))
    want = {
        "pp_config": {
            "objective": "safety_first",
            "priority_robot": "robot_2",
            "min_time_gap_at_conflict": 3,
        },
        "ra_config": {"fairness": "max_min", "priority_weights": [0.3, 0.7]},
    }
    exact = msg == want

    class AlwaysInvalid:
        def propose(self, intent_text, context, errors=None):
            return {"bogus": 1}

    res = correct_loop(AlwaysInvalid(), text, {"robot_ids": [1, 2]}, max_attempts=3)
    fb_ok = (
        res.fallback
        and res.attempts == 3
        and res.config is not None
        and res.config.fallback
        and res.config.pp.objective == "safety_first"
    )
    elapsed = time.monotonic() - start
    ok = exact and fb_ok and elapsed < 1.0
    record(
        acceptance_log, "C10", ok,
        "prompt -> safety_first / robot_2 / gap 3 / max_min / [0.3, 0.7]; "
        f"invalid engine -> fallback after {res.attempts} attempts",
    )


def test_c11_reported_gains(acceptance_log):
    """The gain arithmetic reproduces the headline percentages exactly."""
    start = time.monotonic()

    def series(tput, lat):
        n = len(tput)
        return PolicyTimeSeries(
            PolicySpec("ideal"),
            np.zeros(n, dtype=int),
            np.array(tput, dtype=float),
            np.array(lat, dtype=float),
            np.zeros(n),
            np.ones(n, dtype=bool),
        )

    base = series([1.0] * 8, [1.0] * 8)
    prop = series([1.1414] * 8, [0.8838] * 8)
    tp, lat = gains(prop, base)
    zero = gains(base, base)
    elapsed = time.monotonic() - start
    ok = (
        abs(tp - 14.14) <= 1e-9
        and abs(lat - 11.62) <= 1e-9
        and zero == (0.0, 0.0)
        and elapsed < 1.0
    )
    record(
        acceptance_log, "C11", ok,
        f"throughput {tp:+.2f}%, latency {lat:+.2f}%, self-comparison {zero}",
    )


def test_c12_bundled_runs_reproducible(acceptance_log, bundled_dir, tmp_path, monkeypatch):
    """Running any bundled scenario twice with the same seed produces
    byte-identical results.jsonl and summary.csv."""
    start = time.monotonic()
    monkeypatch.delenv("R2X_SEED", raising=False)
    names = sorted(p.stem for p in bundled_dir.glob("*.json"))
    identical = 0
    for name in names:
        a, b = tmp_path / name / "a", tmp_path / name / "b"
        for out in (a, b):
            code = cli_main(
                ["run", str(bundled_dir / f"{name}.json"), "--out", str(out), "--seeds", "0"]
            )
            assert code == 0, f"{name}: run exited {code}"
        if (
            (a / "results.jsonl").read_bytes() == (b / "results.jsonl").read_bytes()
            and (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()
        ):
            identical += 1
    elapsed = time.monotonic() - start
    ok = identical == len(names) == 6 and elapsed < 60.0
    record(
        acceptance_log, "C12", ok,
        f"{identical}/{len(names)} bundled scenarios byte-identical across reruns ({elapsed:.1f} s)",
    )
