"""Cross-checks between the sweeping engine and the dense oracle."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .engine import (
    STALL_EPS,
    SweepCarry,
    TrainConfig,
    compute_projection_tensor,
    optimal_update,
    sweep,
    sweep_schedule,
)
from .mps import dense_amplitudes, gauge_to, random_mps
from .oracle import project_onto_subspace_dense, subspace_basis_dense
from .target import resolve_target

COEFF_TOL = 1e-12
STATE_TOL = 1e-10


def oracle_check(config: TrainConfig) -> list[str]:
    """Compare two sweeps of the engine against a dense-oracle replay.

    Runs ``sweep`` twice on the config's instance, as ``train`` does: the
    first time from a carry of the seeded random state alone, the second
    from the carry the first one returned. Then it replays
    ``sweep_schedule`` twice with the dense oracle: at each center it
    builds the subspace basis, projects the target onto it and moves to
    the normalized projection. At every step it checks that the
    projection coefficients equal the dense basis inner products, that
    ``optimal_update`` lands on the normalized dense projection, and that
    the overlap ``sweep`` recorded equals the oracle's projection norm;
    at the end, that the final state of the second sweep equals the
    oracle's. Returns a list of mismatch descriptions (empty = pass).
    """
    target = resolve_target(config.target, config.n, config.d)
    state = random_mps(config.n, config.d, config.chi, config.seed)
    records, carry = sweep(SweepCarry(state, target))
    more, carry = sweep(carry)
    records += more
    schedule = sweep_schedule(config.n) * 2
    mismatches: list[str] = []
    if len(records) != len(schedule):
        mismatches.append(f"sweep emitted {len(records)} records, expected {len(schedule)}")
    for k, ((site, direction), record) in enumerate(zip(schedule, records)):
        at = f"sweep {k // (2 * config.n - 1)}, site {site} ({direction})"
        state = gauge_to(state, site)
        basis = subspace_basis_dense(state)
        coeffs, _ = compute_projection_tensor(state, target)
        expected = basis @ target.amplitudes
        err = float(np.max(np.abs(coeffs.reshape(-1) - expected)))
        if err > COEFF_TOL:
            mismatches.append(
                f"{at}: projection coefficients differ by {err:.3e}"
            )
        dense_proj, norm = project_onto_subspace_dense(target, basis)
        updated, _, stalled = optimal_update(state, target)
        if not stalled:
            got = dense_amplitudes(updated)
            err = float(np.max(np.abs(got - dense_proj / norm)))
            if err > STATE_TOL:
                mismatches.append(
                    f"{at}: updated state differs from "
                    f"normalized dense projection by {err:.3e}"
                )
        if norm > STALL_EPS:
            sites = list(state.sites)
            sites[site] = (expected / norm).reshape(sites[site].shape)
            state = replace(state, sites=tuple(sites))
            overlap = norm
        else:
            overlap = float(dense_amplitudes(state) @ target.amplitudes)
        err = abs(record.overlap - overlap)
        if not err <= COEFF_TOL:
            mismatches.append(
                f"{at}: sweep recorded overlap "
                f"{record.overlap!r}, oracle projection norm {overlap!r}"
            )
    err = float(np.max(np.abs(
        dense_amplitudes(carry.state) - dense_amplitudes(state)
    )))
    if not err <= STATE_TOL:
        mismatches.append(
            f"final state of the second sweep differs from the oracle's by {err:.3e}"
        )
    return mismatches
