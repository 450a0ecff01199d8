#!/usr/bin/env python3
"""Regenerate the bundled scenario JSON files.

    python tools/make_scenarios.py            # rewrite src/r2xsim/scenarios/
    python tools/make_scenarios.py OUT_DIR    # write the six files elsewhere

The constants here were tuned once so the method orderings hold with margin
across seeds; rerunning the script reproduces byte-identical files.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Optional, Sequence

OUT = Path(__file__).resolve().parent.parent / "src" / "r2xsim" / "scenarios"

INTENT = (
    "Robot 2 is carrying high-priority medical supplies. The minimum quality of "
    "communication for each robot has to be guaranteed. The communication of "
    "Robot 2 is much more important than Robot 1. They have to move very safely."
)

BUDGET = {
    "detection_s": 0.09617,
    "encode_s": 0.00123,
    "link_context_s": 0.04691,
    "orchestration_s": 0.884,
}

PAYLOADS = {"raw": 6220800, "semantic_feature": 5160}

SEEDS_20 = list(range(20))


def crosser(x, y_lo, y_hi, dwell_rows, dwell, park_y, phase=0, horizon=6):
    """A human pacing a column once up and back, pausing ``dwell`` extra
    frames on each row in ``dwell_rows``; parks at ``(x, park_y)``."""
    wps = []
    for y in list(range(y_lo, y_hi + 1)) + list(range(y_hi, y_lo - 1, -1)):
        wps.append((x, y))
        if y in dwell_rows:
            wps.extend([(x, y)] * dwell)
    wps = [wps[0]] * phase + wps
    step = 1 if park_y > wps[-1][1] else -1
    for y in range(wps[-1][1] + step, park_y + step, step):
        wps.append((x, y))
    assert tuple(wps[-1]) == (x, park_y)
    return {"waypoints": [list(w) for w in wps], "horizon_frames": horizon}


def follower(stand_frames, lane_cells, frames_per_cell, exit_cells, horizon=4):
    """A human plodding along a robot lane, then stepping aside to park.

    Stands at the first lane cell for ``stand_frames``, advances one cell
    every ``frames_per_cell`` frames, then leaves via ``exit_cells`` at two
    frames per cell and stays at the last one."""
    wps = [lane_cells[0]] * stand_frames
    for c in lane_cells:
        wps += [c] * frames_per_cell
    for c in exit_cells:
        wps += [c] * 2
    return {"waypoints": [list(c) for c in wps], "horizon_frames": horizon}


def hline(y, x0, x1):
    step = 1 if x1 >= x0 else -1
    return [(x, y) for x in range(x0, x1 + step, step)]


def vline(x, y0, y1):
    step = 1 if y1 >= y0 else -1
    return [(x, y) for y in range(y0, y1 + step, step)]


def warehouse(sid, desc, world, robots, humans, gain, max_sim=1800.0):
    return {
        "schema_version": 1,
        "id": sid,
        "kind": "warehouse",
        "description": desc,
        "seeds": SEEDS_20,
        "methods": ["stop_and_go", "lorc_p", "lorc_sc", "lorc_sc_p"],
        "warehouse": {
            "world": world,
            "robots": robots,
            "humans": humans,
            "gain": gain,
            "radio": {"target_snr_db": 15.0, "max_power_dbm": 23.0, "max_retx": 4,
                      "noise_dbm": -100.0, "bandwidth_hz": 10e6, "slot_s": 0.001},
            "budget": BUDGET,
            "payloads": PAYLOADS,
            "intent_text": INTENT,
            "max_sim_time_s": max_sim,
        },
    }


def s1():
    world = {"width": 10, "height": 10, "frame_period_s": 0.7}
    robots = [
        {"id": 1, "start": [0, 4], "goal": [9, 4]},
        {"id": 2, "start": [9, 6], "goal": [0, 6]},
    ]
    humans = [
        follower(4, hline(4, 2, 8), 4, [(8, 3), (8, 2), (8, 1), (8, 0)], horizon=16),
        follower(4, hline(6, 7, 1), 4, [(1, 7), (1, 8), (1, 9)], horizon=16),
        crosser(7, 0, 8, {4, 6}, 3, 0, phase=30, horizon=8),
    ]
    gain = {
        "base_gain_db": -88.0, "ap": [5, 5], "slope_db_per_cell": 0.8,
        "dead_zones": [
            {"rect": [2, 0, 2, 9], "extra_loss_db": 16.0},
            {"rect": [4, 0, 4, 9], "extra_loss_db": 16.0},
            {"rect": [6, 0, 6, 9], "extra_loss_db": 16.0},
            {"rect": [8, 0, 8, 9], "extra_loss_db": 16.0},
        ],
        "shadowing_rho": 0.9, "shadowing_sigma_db": 1.5,
    }
    return warehouse("warehouse-s1", "short opposed lanes with slow walkers ahead",
                     world, robots, humans, gain)


def s2():
    world = {"width": 12, "height": 12, "frame_period_s": 0.7}
    robots = [
        {"id": 1, "start": [0, 5], "goal": [11, 5]},
        {"id": 2, "start": [11, 7], "goal": [0, 7]},
    ]
    humans = [
        follower(4, hline(5, 2, 9), 4, [(9, 4), (9, 3), (9, 2), (9, 1)], horizon=16),
        follower(4, hline(7, 9, 2), 4, [(2, 8), (2, 9), (2, 10)], horizon=16),
        crosser(8, 1, 10, {5, 7}, 3, 0, phase=30, horizon=8),
    ]
    gain = {
        "base_gain_db": -88.0, "ap": [6, 6], "slope_db_per_cell": 0.8,
        "dead_zones": [
            {"rect": [1, 0, 1, 11], "extra_loss_db": 16.0},
            {"rect": [3, 0, 3, 11], "extra_loss_db": 16.0},
            {"rect": [5, 0, 5, 11], "extra_loss_db": 16.0},
            {"rect": [7, 0, 7, 11], "extra_loss_db": 16.0},
            {"rect": [10, 0, 10, 11], "extra_loss_db": 16.0},
        ],
        "shadowing_rho": 0.9, "shadowing_sigma_db": 1.5,
    }
    return warehouse("warehouse-s2", "medium opposed lanes with walkers and a crosser",
                     world, robots, humans, gain)


def s3():
    world = {
        "width": 14, "height": 14, "frame_period_s": 0.7,
        "blocked_rects": [[0, 7, 4, 7], [6, 7, 9, 7], [11, 7, 12, 7]],
    }
    robots = [
        {"id": 1, "start": [0, 6], "goal": [13, 6]},
        {"id": 2, "start": [13, 8], "goal": [0, 8]},
    ]
    humans = [
        follower(4, hline(6, 2, 11), 4, [(11, 5), (11, 4), (11, 3), (11, 2)], horizon=16),
        follower(4, hline(8, 11, 2), 4, [(2, 9), (2, 10), (2, 11)], horizon=16),
        crosser(5, 2, 11, {6, 8}, 3, 1, phase=18, horizon=8),
        crosser(10, 2, 11, {6, 8}, 3, 1, phase=36, horizon=8),
    ]
    gain = {
        "base_gain_db": -89.0, "ap": [7, 7], "slope_db_per_cell": 0.7,
        "dead_zones": [
            {"rect": [1, 0, 1, 13], "extra_loss_db": 16.0},
            {"rect": [3, 0, 3, 13], "extra_loss_db": 16.0},
            {"rect": [6, 0, 6, 13], "extra_loss_db": 16.0},
            {"rect": [9, 0, 9, 13], "extra_loss_db": 16.0},
            {"rect": [12, 0, 12, 13], "extra_loss_db": 16.0},
        ],
        "shadowing_rho": 0.9, "shadowing_sigma_db": 1.5,
    }
    return warehouse("warehouse-s3", "long opposed lanes, two walkers and two crossers",
                     world, robots, humans, gain)


def s4():
    world = {
        "width": 14, "height": 14, "frame_period_s": 0.7,
        "blocked_rects": [
            [3, 2, 4, 5], [3, 8, 4, 11],
            [9, 2, 10, 5], [9, 8, 10, 11],
        ],
    }
    robots = [
        {"id": 1, "start": [0, 3], "goal": [13, 10]},
        {"id": 2, "start": [0, 10], "goal": [13, 3]},
    ]
    humans = [
        crosser(6, 2, 11, {6, 7}, 3, 1, phase=10, horizon=8),
        crosser(8, 2, 11, {6, 7}, 3, 1, phase=28, horizon=8),
    ]
    gain = {
        "base_gain_db": -89.0, "ap": [7, 7], "slope_db_per_cell": 0.7,
        "dead_zones": [
            {"rect": [2, 0, 2, 13], "extra_loss_db": 16.0},
            {"rect": [5, 0, 5, 13], "extra_loss_db": 16.0},
            {"rect": [7, 0, 7, 13], "extra_loss_db": 16.0},
            {"rect": [11, 0, 11, 13], "extra_loss_db": 16.0},
            {"rect": [13, 0, 13, 13], "extra_loss_db": 16.0},
        ],
        "shadowing_rho": 0.9, "shadowing_sigma_db": 1.5,
    }
    return warehouse("warehouse-s4", "rack aisles, shared passage walker and a crosser",
                     world, robots, humans, gain)


def mcs_ar1():
    return {
        "schema_version": 1,
        "id": "mcs-ar1",
        "kind": "mcs",
        "description": "link adaptation on an AR(1)-shadowed corridor walk",
        "seeds": SEEDS_20,
        "methods": (
            ["oracle", "ideal"]
            + [f"delayed_{d}" for d in (1, 3, 5, 10, 20, 30)]
            + [f"predictive_{d}" for d in (1, 3, 5, 10, 20, 30)]
        ),
        "mcs": {
            "steps": 5000,
            "corridor_cells": 150,
            "gain_profile": {"base_db": -108.0, "amplitude_db": 10.0, "period_cells": 50.0},
            "shadowing_rho": 0.99,
            "shadowing_sigma_db": 6.0,
            "payload_bytes": 1500,
            "bler_target": 0.1,
            "radio": {"max_power_dbm": 23.0, "max_retx": 4, "noise_dbm": -100.0,
                      "bandwidth_hz": 10e6, "slot_s": 0.001},
        },
    }


def followme_corridor():
    return {
        "schema_version": 1,
        "id": "followme-corridor",
        "kind": "followme",
        "description": "person following with distance-driven RSSI and mode ladder",
        "seeds": SEEDS_20,
        "methods": list(
            ("jpeg_q95", "jpeg_q80", "jpeg_q60", "vq_1x1", "vq_1x2", "vq_1x3", "orchestrated")
        ),
        "followme": {
            "total_steps": 900,
            "distance_profile": [
                [0, 2.0], [80, 2.5], [140, 3.5], [200, 8.5], [300, 8.5],
                [340, 10.0], [360, 10.0], [410, 14.6], [670, 14.6],
                [720, 8.5], [770, 8.5], [830, 3.0], [899, 2.0],
            ],
            "rssi_curve": [[0.0, -28.0], [16.0, -58.0]],
            "noise": {"rho": 0.9, "sigma_db": 0.5},
            "throughput_curve": [
                [-58.0, 2.5e5], [-52.0, 1.2e6], [-48.0, 3.0e6], [-45.0, 6.0e6],
                [-41.0, 1.2e7], [-39.0, 1.6e7], [-34.0, 3.0e7], [-28.0, 4.5e7],
            ],
            "bit_error_curve": [
                [-58.0, 2.0e-4], [-55.0, 5.0e-5], [-52.0, 1.2e-5], [-48.0, 3.0e-6],
                [-44.0, 8.0e-7], [-40.0, 8.0e-8], [-34.0, 4.0e-9], [-28.0, 1.0e-9],
            ],
            "codec_s": {"jpeg": [0.004, 0.002], "vq": [0.011, 0.008]},
            "payload_bytes": {
                "jpeg_q95": 420000, "jpeg_q80": 180000, "jpeg_q60": 120000,
                "vq_1x1": 1720, "vq_1x2": 3440, "vq_1x3": 5160,
            },
            "perception": {
                "lose_prob": {
                    "jpeg_q95": 0.002, "jpeg_q80": 0.002, "jpeg_q60": 0.003,
                    "vq_1x1": 0.015, "vq_1x2": 0.006, "vq_1x3": 0.004,
                },
                "far_lose_prob": {
                    "jpeg_q95": 0.002, "jpeg_q80": 0.002, "jpeg_q60": 0.003,
                    "vq_1x1": 0.10, "vq_1x2": 0.09, "vq_1x3": 0.08,
                },
                "far_distance_m": {
                    "jpeg_q95": 99.0, "jpeg_q80": 99.0, "jpeg_q60": 99.0,
                    "vq_1x1": 7.0, "vq_1x2": 9.0, "vq_1x3": 11.0,
                },
                "reacquire_prob": {
                    "jpeg_q95": 0.6, "jpeg_q80": 0.6, "jpeg_q60": 0.5,
                    "vq_1x1": 0.2, "vq_1x2": 0.3, "vq_1x3": 0.45,
                },
            },
            "cta_useful_s": 0.4,
            "loss_threshold_steps": 3,
            "max_attempts": 4,
            "slot_s": 0.001,
        },
    }


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description="Write the bundled scenario files.")
    parser.add_argument("out_dir", nargs="?", type=Path, default=OUT,
                        help=f"output directory (default: {OUT})")
    out = parser.parse_args(argv).out_dir
    out.mkdir(parents=True, exist_ok=True)
    for doc in (s1(), s2(), s3(), s4(), mcs_ar1(), followme_corridor()):
        path = out / f"{doc['id']}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print("wrote", path)


if __name__ == "__main__":
    main()
