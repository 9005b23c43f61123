#!/usr/bin/env python3
"""Pin the golden final overlap for the chi=2 recovery regression.

Trains toward the dense realization of a seeded chi=2 MPS using the dense
oracle only (basis construction + dense projection at every site), never
the optimized engine path. The converged overlap is frozen into
tests/test_acceptance.py as RECOVERY_GOLDEN_OVERLAP.
"""

import dataclasses

from sphere_dmrg.engine import sweep_schedule
from sphere_dmrg.mps import gauge_to, mps_to_dense, random_mps
from sphere_dmrg.oracle import project_onto_subspace_dense, subspace_basis_dense

TARGET_SEED = 7
TRAIN_SEED = 8
N, D, CHI = 4, 2, 2
TOL = 1e-10


def oracle_update(state, target):
    basis = subspace_basis_dense(state)
    _, norm = project_onto_subspace_dense(target, basis)
    coeffs = basis.vectors @ target.amplitudes
    sites = list(state.sites)
    sites[state.center] = (coeffs / norm).reshape(sites[state.center].shape)
    return dataclasses.replace(state, sites=tuple(sites)), norm


def main():
    target = mps_to_dense(random_mps(N, D, CHI, TARGET_SEED))
    state = random_mps(N, D, CHI, TRAIN_SEED)
    prev_last = None
    for k in range(100):
        last = None
        for site, _ in sweep_schedule(N):
            state, last = oracle_update(gauge_to(state, site), target)
        print(f"sweep {k}: overlap {last!r}")
        if prev_last is not None and abs(last - prev_last) < TOL:
            print(f"\nconverged; golden overlap = {last!r}")
            return
        prev_last = last
    print("did not converge within 100 sweeps")


if __name__ == "__main__":
    main()
