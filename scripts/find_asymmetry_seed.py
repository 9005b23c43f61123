#!/usr/bin/env python3
"""Brute-force search for seeds exhibiting the membership asymmetry.

Scans initialization seeds for the pinned n=4, d=2, chi=2 scenario: after
an update at an interior site and a gauge shift, the new iterate must lie
in the next single-site subspace (projection norm 1) while the previous
iterate must have left it (projection norm < 1 - 1e-6). The first passing
seed is frozen into tests/test_acceptance.py.
"""

import argparse

from sphere_dmrg.engine import optimal_update
from sphere_dmrg.mps import dense_amplitudes, gauge_to, random_mps
from sphere_dmrg.oracle import project_onto_subspace_dense, subspace_basis_dense
from sphere_dmrg.target import DenseState, named_state


def check_seed(seed, n=4, d=2, chi=2, site=1):
    state = gauge_to(random_mps(n, d, chi, seed), site)
    target = named_state("random", n, d, seed=seed + 1000)
    psi_prev = dense_amplitudes(state)
    state, _, _ = optimal_update(state, target)
    psi_k = dense_amplitudes(state)
    state = gauge_to(state, state.center + 1)
    basis = subspace_basis_dense(state)
    _, norm_k = project_onto_subspace_dense(DenseState(n, d, psi_k), basis)
    _, norm_prev = project_onto_subspace_dense(DenseState(n, d, psi_prev), basis)
    ok = abs(norm_k - 1.0) <= 1e-10 and norm_prev < 1.0 - 1e-6
    return ok, norm_k, norm_prev


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-seed", type=int, default=50)
    args = parser.parse_args()
    for seed in range(args.max_seed):
        ok, norm_k, norm_prev = check_seed(seed)
        mark = "OK " if ok else "   "
        print(f"{mark}seed={seed:3d}  new-iterate norm={norm_k:.12f}  "
              f"previous norm={norm_prev:.12f}")
        if ok:
            print(f"\nfirst passing seed: {seed}")
            return
    print("no passing seed found")


if __name__ == "__main__":
    main()
