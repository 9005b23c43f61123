#!/usr/bin/env python3
"""Pin the golden final overlap for the chi=2 recovery regression.

Trains toward the dense realization of a seeded chi=2 MPS using the dense
oracle only (basis construction + dense projection at every site), never
the optimized engine path. The converged overlap is frozen into
tests/test_acceptance.py as RECOVERY_GOLDEN_OVERLAP.
"""

import dataclasses

from sphere_dmrg.engine import sweep_schedule
from sphere_dmrg.mps import dense_amplitudes, gauge_to, random_mps
from sphere_dmrg.oracle import project_onto_subspace_dense, subspace_basis_dense
from sphere_dmrg.target import DenseState

TARGET_SEED = 7
TRAIN_SEED = 8
N, D, CHI = 4, 2, 2
TOL = 1e-10


def oracle_update(state, target):
    basis = subspace_basis_dense(state)
    _, norm = project_onto_subspace_dense(target, basis)
    coeffs = basis @ target.amplitudes
    sites = list(state.sites)
    sites[state.center] = (coeffs / norm).reshape(sites[state.center].shape)
    return dataclasses.replace(state, sites=tuple(sites)), norm


def golden_overlap(log=lambda line: None):
    """Sweep with the dense oracle until the overlap change drops below TOL.

    Returns the converged overlap, or None after 100 sweeps; ``log`` gets
    one line per sweep.
    """
    target = DenseState(N, D, dense_amplitudes(random_mps(N, D, CHI, TARGET_SEED)))
    state = random_mps(N, D, CHI, TRAIN_SEED)
    prev_last = None
    for k in range(100):
        last = None
        for site, _ in sweep_schedule(N):
            state, last = oracle_update(gauge_to(state, site), target)
        log(f"sweep {k}: overlap {last!r}")
        if prev_last is not None and abs(last - prev_last) < TOL:
            return last
        prev_last = last
    return None


def main():
    golden = golden_overlap(print)
    if golden is None:
        print("did not converge within 100 sweeps")
    else:
        print(f"\nconverged; golden overlap = {golden!r}")


if __name__ == "__main__":
    main()
