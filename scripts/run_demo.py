#!/usr/bin/env python3
"""Run a small training trajectory and print the per-update metrics.

Shows the shrinking angle between the iterate and the target across
sweeps; the CSV-producing equivalent is the sphere-dmrg CLI.
"""

import argparse

from sphere_dmrg.engine import TrainConfig, train


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sites", type=int, default=6)
    parser.add_argument("--bond-dim", type=int, default=TrainConfig.chi)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--target", default="named:random:1")
    parser.add_argument("--max-sweeps", type=int, default=8)
    args = parser.parse_args()

    cfg = TrainConfig(
        n=args.sites, d=2, chi=args.bond_dim, seed=args.seed,
        target=args.target, max_sweeps=args.max_sweeps,
    )
    state, trajectory, reason = train(cfg)
    print(f"{'step':>4} {'sweep':>5} {'site':>4} dir {'overlap':>20} {'angle':>12}")
    for r in trajectory:
        print(f"{r.step:>4} {r.sweep:>5} {r.site:>4}  {r.direction}  "
              f"{r.overlap:>20.15f} {r.angle:>12.6e}")
    print(f"\nterminated: {reason} after {trajectory[-1].sweep + 1} sweeps, "
          f"final overlap {trajectory[-1].overlap:.15f}")


if __name__ == "__main__":
    main()
