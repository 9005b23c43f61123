import dataclasses

import pytest

from sphere_dmrg import verify
from sphere_dmrg.cli import main
from sphere_dmrg.engine import TrainConfig

CONFIG = TrainConfig(n=4, chi=2, seed=3, target="named:random:11")


@pytest.fixture
def shifted_overlaps(monkeypatch):
    """Make ``verify.sweep`` record every overlap 1e-9 too high."""
    sweep = verify.sweep

    def shifted(*args):
        state, records, carry = sweep(*args)
        records = [dataclasses.replace(r, overlap=r.overlap + 1e-9) for r in records]
        return state, records, carry

    monkeypatch.setattr(verify, "sweep", shifted)


def test_reports_recorded_overlap_mismatch(shifted_overlaps):
    mismatches = verify.oracle_check(CONFIG)
    assert len(mismatches) == 2 * (2 * CONFIG.n - 1)
    assert all("recorded overlap" in m for m in mismatches)


def test_reports_final_state_mismatch(monkeypatch):
    sweep = verify.sweep

    def flipped(state, target, k, carry=None):
        state, records, carry = sweep(state, target, k, carry)
        if k == 1:
            # a sign flip of the center core keeps the norm and moves every amplitude
            sites = list(state.sites)
            sites[state.center] = -sites[state.center]
            state = dataclasses.replace(state, sites=tuple(sites))
        return state, records, carry

    monkeypatch.setattr(verify, "sweep", flipped)
    mismatches = verify.oracle_check(CONFIG)
    assert len(mismatches) == 1
    assert mismatches[0].startswith("final state of the second sweep differs")


def test_cli_mismatch_exits_1_without_output(shifted_overlaps, tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "--sites", "4", "--bond-dim", "2", "--seed", "3",
        "--target", "named:random:11", "--out", str(out), "--oracle-check",
    ])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines and all(line.startswith("oracle mismatch: ") for line in lines)
    assert list(out.iterdir()) == []
