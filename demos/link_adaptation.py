"""Stale versus predictive MCS selection on the AR(1) shadowing corridor.

Replays the bundled corridor trace under feedback delays of 3, 10, and 30
steps. For each delay the script prints the delayed policy, the map-aware
predictive policy, and the throughput the prediction recovers. The oracle
row is the ceiling: it selects from the true SNR of the step it sends on.
"""

import sys

import numpy as np

from r2xsim.linkadapt import gains, run_policy
from r2xsim.scenarios import bundled_scenario_path, load_scenario, prepare_mcs

DELAYS = (3, 10, 30)
N_SEEDS = 5


def run(scn, method, seed, link):
    return run_policy(
        link,
        scn.inputs.policies[method],
        scn.inputs.payload_bytes,
        seed=seed,
        max_retx=scn.inputs.cfg.max_retx,
    )


def main():
    n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else N_SEEDS
    scn = load_scenario(bundled_scenario_path("mcs-ar1"))
    inputs = scn.inputs
    seeds = scn.seeds[:n_seeds]
    print(f"{scn.id}: {len(inputs.cells)} steps, rho={inputs.gain_map.shadowing_rho}, "
          f"sigma={inputs.gain_map.shadowing_sigma_db} dB, {len(seeds)} seeds")
    print()
    # One link table per seed, shared by every policy replayed on it.
    links = {seed: prepare_mcs(inputs, seed) for seed in seeds}

    oracle_tp = np.mean(
        [run(scn, "oracle", s, links[s]).mean_throughput_bps for s in seeds]
    )
    print(f"{'policy':<16} {'tput Mb/s':>10} {'mass(BLER<=0.1)':>16} {'vs delayed':>11}")
    print(f"{'oracle':<16} {oracle_tp / 1e6:>10.3f} {'':>16} {'':>11}")
    for d in DELAYS:
        rows = {}
        for kind in ("delayed", "predictive"):
            series = [run(scn, f"{kind}_{d}", s, links[s]) for s in seeds]
            rows[kind] = series
        tp_d = np.mean([s.mean_throughput_bps for s in rows["delayed"]])
        tp_p = np.mean([s.mean_throughput_bps for s in rows["predictive"]])
        mass_d = np.mean([s.bler_mass_at_or_below(0.1) for s in rows["delayed"]])
        mass_p = np.mean([s.bler_mass_at_or_below(0.1) for s in rows["predictive"]])
        per_seed = [gains(p, b)[0] for p, b in zip(rows["predictive"], rows["delayed"])]
        print(f"{'delayed_%d' % d:<16} {tp_d / 1e6:>10.3f} {mass_d:>16.3f} {'':>11}")
        print(f"{'predictive_%d' % d:<16} {tp_p / 1e6:>10.3f} {mass_p:>16.3f} "
              f"{np.mean(per_seed):>+10.1f}%")
    print()
    print("The stale policy budgets power for where the link was d steps ago;")
    print("deep in a fade that overshoots, out of one it undershoots. The map")
    print("prior plus the decaying AR(1) residual removes most of that loss.")


if __name__ == "__main__":
    main()
