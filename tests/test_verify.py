import dataclasses
import itertools
import json

import numpy as np
import pytest

from sphere_dmrg import verify
from sphere_dmrg.cli import main
from sphere_dmrg.engine import TrainConfig
from sphere_dmrg.mps import bond_dims, random_mps
from sphere_dmrg.oracle import subspace_basis_dense

CONFIG = TrainConfig(n=4, chi=2, seed=3, target="named:random:11")


@pytest.fixture
def shifted_overlaps(monkeypatch):
    """Make ``verify.sweep`` record every overlap 1e-9 too high."""
    sweep = verify.sweep

    def shifted(*args):
        records, carry = sweep(*args)
        return [dataclasses.replace(r, overlap=r.overlap + 1e-9) for r in records], carry

    monkeypatch.setattr(verify, "sweep", shifted)


def test_reports_recorded_overlap_mismatch(shifted_overlaps):
    mismatches = verify.oracle_check(CONFIG)
    assert len(mismatches) == 2 * (2 * CONFIG.n - 1)
    assert all("recorded overlap" in m for m in mismatches)


def scaled_center(state, factor):
    sites = list(state.sites)
    sites[state.center] = factor * sites[state.center]
    return dataclasses.replace(state, sites=tuple(sites))


def scale_final_center(monkeypatch, factor):
    """Make ``verify.sweep`` scale the center core of its second state by ``factor``."""
    sweep, calls = verify.sweep, itertools.count()

    def scaled(carry):
        records, carry = sweep(carry)
        if next(calls) == 1:
            carry = dataclasses.replace(carry, state=scaled_center(carry.state, factor))
        return records, carry

    monkeypatch.setattr(verify, "sweep", scaled)


@pytest.fixture
def doubled_center(monkeypatch):
    """A non-unit final state: the engine fault a norm check would call invalid input."""
    scale_final_center(monkeypatch, 2.0)


# a sign flip of the center core keeps the norm and moves every amplitude;
# doubling it leaves the unit sphere
@pytest.mark.parametrize("factor", [-1.0, 2.0])
def test_reports_final_state_mismatch(monkeypatch, factor):
    scale_final_center(monkeypatch, factor)
    mismatches = verify.oracle_check(CONFIG)
    assert len(mismatches) == 1
    assert mismatches[0].startswith("final state of the second sweep differs")


def test_reports_projection_coefficient_mismatch(monkeypatch):
    project = verify.compute_projection_tensor

    def shifted(state, target):
        coeffs, norm = project(state, target)
        return coeffs + 1e-9, norm

    monkeypatch.setattr(verify, "compute_projection_tensor", shifted)
    mismatches = verify.oracle_check(CONFIG)
    assert len(mismatches) == 2 * (2 * CONFIG.n - 1)
    assert all("projection coefficients differ by 1.000e-09" in m for m in mismatches)


def test_reports_updated_state_mismatch(monkeypatch):
    update = verify.optimal_update

    def flipped(state, target):
        updated, overlap, stalled = update(state, target)
        return scaled_center(updated, -1.0), overlap, stalled

    monkeypatch.setattr(verify, "optimal_update", flipped)
    mismatches = verify.oracle_check(CONFIG)
    assert len(mismatches) == 2 * (2 * CONFIG.n - 1)
    assert all("updated state differs from normalized dense projection" in m for m in mismatches)


def test_reports_missing_record(monkeypatch):
    sweep, calls = verify.sweep, itertools.count()

    def dropped(carry):
        records, carry = sweep(carry)
        return records[:-1] if next(calls) == 1 else records, carry

    monkeypatch.setattr(verify, "sweep", dropped)
    expected = 2 * (2 * CONFIG.n - 1)
    mismatches = verify.oracle_check(CONFIG)
    assert mismatches[0] == f"sweep emitted {expected - 1} records, expected {expected}"


@pytest.mark.parametrize("n, d, chi, seed", [
    (4, 2, 2, 3), (5, 2, 2, 1), (4, 3, 2, 0), (6, 2, 4, 2), (3, 2, 1, 0),
])
def test_stalled_first_update_replays_clean(monkeypatch, tmp_path, n, d, chi, seed):
    # a target orthogonal to the first center's subspace stalls the first update
    basis = subspace_basis_dense(random_mps(n, d, chi, seed))
    v = np.random.default_rng(seed).standard_normal(d**n)
    v -= basis.T @ (basis @ v)
    path = tmp_path / "target.json"
    path.write_text(json.dumps({
        "kind": "amplitudes", "n": n, "d": d, "amplitudes": (v / np.linalg.norm(v)).tolist(),
    }))
    sweep, swept = verify.sweep, []

    def recorded(*args):
        result = sweep(*args)
        swept.extend(result[0])
        return result

    monkeypatch.setattr(verify, "sweep", recorded)
    config = TrainConfig(n=n, d=d, chi=chi, seed=seed, target=f"file:{path}")
    assert verify.oracle_check(config) == []
    assert swept[0].stalled


@pytest.mark.parametrize("fault", ["shifted_overlaps", "doubled_center"])
def test_cli_mismatch_exits_1_without_output(fault, request, tmp_path, capsys):
    request.getfixturevalue(fault)
    out = tmp_path / "out"
    code = main([
        "--sites", "4", "--bond-dim", "2", "--seed", "3",
        "--target", "named:random:11", "--out", str(out), "--oracle-check",
    ])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines and all(line.startswith("oracle mismatch: ") for line in lines)
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("n, d, chi, target", [
    (6, 2, 8, "named:random:1"),  # b = 3: the R half stops before the middle bond
    (7, 3, 9, "named:random:2"),  # b = 5
    (6, 2, 8, "named:ghz"),
    (6, 2, 4, "named:w"),  # b = 4
    (6, 2, 4, "named:basis:37"),
])
def test_saturated_tail_replays_clean(n, d, chi, target):
    # the oracle replays every row, including those the sweep repeats
    # past the first bond b at its right cap d**(n-b)
    dims = bond_dims(n, d, chi)
    assert min(j for j in range(1, n + 1) if dims[j] == d ** (n - j)) < n
    assert verify.oracle_check(TrainConfig(n=n, d=d, chi=chi, seed=0, target=target)) == []


@pytest.mark.parametrize("n, d, chi, target", [
    (6, 2, 1, "named:random:1"),  # a = 0: R-half site 0 of sweep 1 repeats
    (8, 2, 4, "named:random:2"),  # a = 2, b = 6: the center rests at 2
    (5, 2, 4, "named:random:3"),  # a = 2 >= b - 1: sweep 1 repeats every row
    (4, 3, 9, "named:random:4"),  # a = 2 >= b - 1, d = 3
    (1, 3, 2, "named:random:5"),
    (6, 2, 4, "named:w"),
])
def test_saturated_left_end_replays_clean(n, d, chi, target):
    # the oracle replays every row, including those repeated below rest = min(a, b-1)
    assert verify.oracle_check(TrainConfig(n=n, d=d, chi=chi, seed=0, target=target)) == []
