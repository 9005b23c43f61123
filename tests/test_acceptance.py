"""End-to-end acceptance battery.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion.
"""

import dataclasses
import itertools
import json
import math
import time

import numpy as np

from sphere_dmrg import engine, mps
from sphere_dmrg.engine import TrainConfig, optimal_update, sweep_schedule, train
from sphere_dmrg.cli import main
from sphere_dmrg.mps import (
    dense_amplitudes,
    gauge_defect,
    gauge_to,
    overlap_dense,
    random_mps,
)
from sphere_dmrg.oracle import project_onto_subspace_dense, subspace_basis_dense
from sphere_dmrg.target import DenseState, fold_slabs, named_state, resolve_target
from sphere_dmrg.verify import oracle_check

OVERLAP_SLACK = 1e-12


def report(line):
    print(f"\n[PASS] {line}")


def test_c1_monotone_trajectory():
    start = time.monotonic()
    combos = itertools.product(range(3, 9), (1, 2, 4), range(3))
    checked = 0
    for n, chi, seed in combos:
        if checked >= 50:
            break
        cfg = TrainConfig(
            n=n, d=2, chi=chi, seed=seed,
            target=f"named:random:{seed + 500}", max_sweeps=2, tol=1e-30,
        )
        state, traj, _ = train(cfg)
        # the last recorded overlap is a projection norm; it must equal the
        # final state's overlap with the target
        target = resolve_target(cfg.target, n, 2)
        assert abs(traj[-1].overlap - overlap_dense(state, target)) <= 1e-12, (n, chi, seed)
        for a, b in zip(traj, traj[1:]):
            if a.stalled or b.stalled:
                continue
            assert b.overlap >= a.overlap - OVERLAP_SLACK, (n, chi, seed, a, b)
            # non-increasing angle, with the overlap slack mapped through
            # arccos (a fixed radian slack is meaningless where the arccos
            # derivative diverges at overlap 1)
            bound = math.acos(min(1.0, max(-1.0, a.overlap - OVERLAP_SLACK)))
            assert b.angle <= bound, (n, chi, seed, a, b)
        checked += 1
    elapsed = time.monotonic() - start
    assert checked == 50
    assert elapsed < 30.0
    report(f"C1 monotone trajectory: 50 configs, {elapsed:.2f}s")


def test_c2_engine_oracle_equivalence():
    start = time.monotonic()
    runs = 0
    for n, d, chi in itertools.product(range(2, 7), (2, 3), (1, 2, 4)):
        for seed in range(10):
            cfg = TrainConfig(
                n=n, d=d, chi=chi, seed=seed, target=f"named:random:{seed + 9000}"
            )
            mismatches = oracle_check(cfg)
            assert not mismatches, (n, d, chi, seed, mismatches)
            runs += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(f"C2 engine-oracle equivalence: {runs} instances, {elapsed:.2f}s")


def test_c3_whole_space_collapse():
    for n in (2, 4, 6):
        chi = 2 ** (n // 2)
        cfg = TrainConfig(
            n=n, d=2, chi=chi, seed=n,
            target=f"named:random:{n + 70}", max_sweeps=1, tol=1e-30,
        )
        _, traj, _ = train(cfg)
        # row j < n of the first sweep is R-half site j
        middle = traj[n // 2]
        assert abs(middle.overlap - 1.0) < 1e-10, (n, middle)
    report("C3 whole-space collapse at the middle site (n=2,4,6)")


# The membership asymmetry, for n=4, d=2, chi=2: after an update at an
# interior site and a gauge shift, the new iterate must lie in the next
# single-site subspace (projection norm 1) while the previous iterate must
# have left it (projection norm < 1 - 1e-6). ASYMMETRY_SEED is the first
# initialization seed that shows it; C4 repeats the search.
ASYMMETRY_SEED = 0


def check_seed(seed, n=4, d=2, chi=2, site=1):
    state = gauge_to(random_mps(n, d, chi, seed), site)
    target = named_state(f"random:{seed + 1000}", n, d)
    psi_prev = dense_amplitudes(state)
    state, _, _ = optimal_update(state, target)
    psi_k = dense_amplitudes(state)
    state = gauge_to(state, state.center + 1)
    basis = subspace_basis_dense(state)
    _, norm_k = project_onto_subspace_dense(DenseState(n, d, psi_k), basis)
    _, norm_prev = project_onto_subspace_dense(DenseState(n, d, psi_prev), basis)
    ok = abs(norm_k - 1.0) <= 1e-10 and norm_prev < 1.0 - 1e-6
    return ok, norm_k, norm_prev


def test_c4_membership_asymmetry():
    seed = next((seed for seed in range(50) if check_seed(seed)[0]), None)
    assert seed == ASYMMETRY_SEED
    _, norm_k, norm_prev = check_seed(seed)
    report(
        f"C4 membership asymmetry: new iterate projects with norm {norm_k:.3e}, "
        f"previous with norm {norm_prev:.6f}"
    )


# The golden final overlap of the chi=2 recovery run: trained toward the
# dense realization of a seeded chi=2 MPS with the dense oracle only (basis
# construction and dense projection at every site), never the optimized
# engine path. C5 recomputes it and compares with ==.
RECOVERY_GOLDEN_OVERLAP = 0.9999999999999992
GOLDEN_TARGET_SEED = 7
GOLDEN_TRAIN_SEED = 8
GOLDEN_N, GOLDEN_D, GOLDEN_CHI = 4, 2, 2
GOLDEN_TOL = 1e-10


def oracle_update(state, target):
    basis = subspace_basis_dense(state)
    _, norm = project_onto_subspace_dense(target, basis)
    coeffs = basis @ target.amplitudes
    sites = list(state.sites)
    sites[state.center] = (coeffs / norm).reshape(sites[state.center].shape)
    return dataclasses.replace(state, sites=tuple(sites)), norm


def golden_overlap():
    """Sweep with the dense oracle until the overlap change drops below
    GOLDEN_TOL.

    Returns the converged overlap, or None after 100 sweeps.
    """
    n, d, chi = GOLDEN_N, GOLDEN_D, GOLDEN_CHI
    target = DenseState(n, d, dense_amplitudes(random_mps(n, d, chi, GOLDEN_TARGET_SEED)))
    state = random_mps(n, d, chi, GOLDEN_TRAIN_SEED)
    prev_last = None
    for _ in range(100):
        last = None
        for site, _ in sweep_schedule(n):
            state, last = oracle_update(gauge_to(state, site), target)
        if prev_last is not None and abs(last - prev_last) < GOLDEN_TOL:
            return last
        prev_last = last
    return None


def test_c5_exact_recovery_regression(tmp_path):
    amplitudes = dense_amplitudes(random_mps(4, 2, 2, seed=7))
    path = tmp_path / "target.json"
    path.write_text(json.dumps({
        "kind": "amplitudes", "n": 4, "d": 2,
        "amplitudes": amplitudes.tolist(),
    }))
    cfg = TrainConfig(
        n=4, d=2, chi=2, seed=8, target=f"file:{path}", tol=1e-10, max_sweeps=100
    )
    _, traj, reason = train(cfg)
    assert reason == "converged"
    assert abs(traj[-1].overlap - RECOVERY_GOLDEN_OVERLAP) <= 1e-9
    assert golden_overlap() == RECOVERY_GOLDEN_OVERLAP
    report(f"C5 exact recovery: converged at overlap {traj[-1].overlap!r}")


def test_c5_golden_never_runs_the_engine_fold(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the golden pipeline ran the engine's fold")

    for module in (engine, mps):
        for name in (
            "sweep", "_projection", "compute_projection_tensor", "optimal_update",
            "left_start", "left_env", "right_env",
        ):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert golden_overlap() == RECOVERY_GOLDEN_OVERLAP


# targets whose Schmidt rank is below the bond cap: the first update leaves a
# rank-deficient bond, which the following gauge shift must carry exactly
RANK_DEFICIENT_CASES = [
    ("named:uniform", 2),
    ("named:basis:5", 2),
    ("named:ghz", 4),
    ("named:w", 4),
    ("named:uniform", 8),
]


def test_rank_deficient_targets_converge():
    for spec, chi in RANK_DEFICIENT_CASES:
        cfg = TrainConfig(n=6, d=2, chi=chi, seed=0, target=spec, max_sweeps=10)
        state, traj, _ = train(cfg)
        assert traj[-1].overlap >= 1.0 - 1e-12, (spec, chi, traj[-1])
        target = resolve_target(spec, 6, 2)
        assert abs(traj[-1].overlap - overlap_dense(state, target)) <= 1e-12, (spec, chi)
        assert gauge_defect(state) < 1e-10, (spec, chi)
        assert not oracle_check(cfg), (spec, chi)
    report(f"rank-deficient targets: {len(RANK_DEFICIENT_CASES)} cases reach overlap 1")


def test_c6_gauge_noop_suite():
    moves = 0
    for seed in range(20):
        state = random_mps(6, 2, 4, seed=seed)
        reference = dense_amplitudes(state)
        for _ in range(25):
            step = 1 if state.center < state.n - 1 else -1
            # bounce between the chain ends
            if state.center == 0:
                step = 1
            state = gauge_to(state, state.center + step)
            dense = dense_amplitudes(state)
            assert np.linalg.norm(dense - reference) < 1e-12
            assert gauge_defect(state) < 1e-10
            reference = dense
            moves += 1
    assert moves == 500
    # left-moving pass
    for seed in range(20):
        state = gauge_to(random_mps(6, 2, 4, seed=seed + 100), 5)
        reference = dense_amplitudes(state)
        for _ in range(25):
            step = -1 if state.center > 0 else 1
            state = gauge_to(state, state.center + step)
            dense = dense_amplitudes(state)
            assert np.linalg.norm(dense - reference) < 1e-12
            assert gauge_defect(state) < 1e-10
            reference = dense
            moves += 1
    assert moves == 1000
    report("C6 gauge no-op suite: 1000 shifts, all < 1e-12 dense drift")


def test_c7_cli_determinism(tmp_path):
    # n = 4 is one slab of the column fold; n = 16 is a 512 KiB target,
    # whose middle-bond column fold at chi = 8 runs in two row slabs
    assert fold_slabs(2, 2**8, 2**8, 8) == 2
    for n, chi, sweeps in (("4", "2", "5"), ("16", "8", "4")):
        args = [
            "--sites", n, "--bond-dim", chi, "--seed", "3",
            "--target", "named:random:11", "--max-sweeps", sweeps,
        ]
        assert main(args + ["--out", str(tmp_path / n / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / n / "b")]) == 0
        for name in ("trajectory.csv", "final_mps.json"):
            a = (tmp_path / n / "a" / name).read_bytes()
            b = (tmp_path / n / "b" / name).read_bytes()
            assert a == b, (n, name)
    report("C7 CLI determinism: byte-identical trajectory.csv and final_mps.json, n=4 and n=16")


def test_c8_desk_scale_performance():
    cfg = TrainConfig(
        n=12, d=2, chi=16, seed=3,
        target="named:random:99", max_sweeps=50, tol=1e-30,
    )
    start = time.monotonic()
    _, traj, reason = train(cfg)
    elapsed = time.monotonic() - start
    assert reason == "sweep-limit"
    assert len(traj) == 50 * (2 * 12 - 1)
    assert elapsed < 10.0
    report(f"C8 desk-scale performance: n=12 chi=16, 50 sweeps in {elapsed:.2f}s")
