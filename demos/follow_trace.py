"""Person following: fixed sensing modes versus the RSSI-driven ladder.

First prints the mode the ladder picks at a few RSSI spot values, then
replays the bundled follow corridor under every method and reports the
median command-to-action tail and the useful-tracking failure rate.
"""

import argparse

import numpy as np

from r2xsim.orchestrator import select_sense_mode
from r2xsim.scenarios import bundled_scenario_path, load_scenario, run_one
from r2xsim.sensing import PayloadParams, payload_bytes


def describe(cfg):
    if cfg.mode == "jpeg":
        return f"jpeg q{cfg.jpeg_quality} ({cfg.qos})"
    return f"vq {cfg.vit_grid[0]}x{cfg.vit_grid[1]} ({cfg.qos})"


def main():
    ap = argparse.ArgumentParser(description="follow-trace comparison")
    ap.add_argument("--seeds", type=int, default=8)
    args = ap.parse_args()

    print("ladder spot checks:")
    params = PayloadParams()
    for rssi in (-35.0, -40.0, -42.0, -44.0, -47.0, -55.0):
        cfg = select_sense_mode(rssi)
        print(f"  {rssi:6.1f} dBm -> {describe(cfg):<22} {payload_bytes(cfg, params):>7} B")
    print()

    scn = load_scenario(bundled_scenario_path("followme-corridor"))
    seeds = scn.seeds[: args.seeds]
    print(f"{scn.id}: {scn.params['total_steps']} frames, {len(seeds)} seeds")
    print()
    print(f"{'method':<14} {'p95 CTA s':>10} {'UTFR %':>8} {'delivered':>10}")
    for method in scn.methods:
        cta, ut, dl = [], [], []
        for seed in seeds:
            m = run_one(scn, method, seed)["metrics"]
            cta.append(m["cta_p95_s"])
            ut.append(m["utfr_pct"])
            dl.append(m["delivered_frames"])
        print(f"{method:<14} {np.median(cta):>10.3f} {np.median(ut):>8.2f} "
              f"{np.median(dl):>10.0f}")
    print()
    print("Full-quality jpeg frames are the most informative but miss the")
    print("0.4 s usefulness bound whenever the user is deep in the corridor.")
    print("The ladder drops to token payloads there and keeps the tracker fed.")


if __name__ == "__main__":
    main()
