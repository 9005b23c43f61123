import json
import os

import pytest

from sphere_dmrg.cli import CSV_HEADER, main
from sphere_dmrg.mps import mps_from_json_dict, mps_to_dense


def run(tmp_path, *extra, out="out"):
    args = [
        "--sites", "3", "--bond-dim", "2", "--seed", "1",
        "--target", "named:random:5", "--out", str(tmp_path / out),
    ]
    return main(args + list(extra))


class TestRunCommand:
    def test_ghz_example_writes_trajectory(self, tmp_path):
        out = tmp_path / "d"
        code = main([
            "--sites", "2", "--bond-dim", "2", "--seed", "1",
            "--target", "named:ghz", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert (out / "final_mps.json").exists()
        assert (out / "summary.json").exists()

    def test_identical_invocations_byte_identical(self, tmp_path):
        assert run(tmp_path, out="a") == 0
        assert run(tmp_path, out="b") == 0
        csv_a = (tmp_path / "a" / "trajectory.csv").read_bytes()
        csv_b = (tmp_path / "b" / "trajectory.csv").read_bytes()
        assert csv_a == csv_b

    def test_invalid_bond_dim_exit_2(self, tmp_path, capsys):
        code = main([
            "--sites", "2", "--bond-dim", "0", "--seed", "1",
            "--target", "named:ghz", "--out", str(tmp_path / "d"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "--bond-dim" in err
        assert err.count("\n") == 1

    def test_bad_target_spec_exit_2(self, tmp_path, capsys):
        code = run(tmp_path, "--target", "bogus:thing")
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_refuses_nonempty_dir(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "junk.txt").write_text("x")
        assert run(tmp_path) == 2
        assert "--force" in capsys.readouterr().err
        assert run(tmp_path, "--force") == 0

    def test_summary_matches_last_record(self, tmp_path):
        assert run(tmp_path) == 0
        out = tmp_path / "out"
        summary = json.loads((out / "summary.json").read_text())
        last = (out / "trajectory.csv").read_text().splitlines()[-1].split(",")
        assert summary["final_overlap"] == float(last[4])
        assert summary["final_angle"] == float(last[5])
        assert summary["termination"] in {"converged", "sweep-limit"}
        assert summary["sweeps_run"] == int(last[1]) + 1

    def test_row_count_and_overlap_range(self, tmp_path):
        assert run(tmp_path, "--max-sweeps", "3") == 0
        rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[1:]
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        n = 3
        assert len(rows) == summary["sweeps_run"] * (2 * n - 1)
        for row in rows:
            fields = row.split(",")
            assert fields[3] in {"L", "R"}
            assert fields[7] in {"0", "1"}
            overlap = float(fields[4])
            assert -1 - 1e-12 <= overlap <= 1 + 1e-12

    def test_final_mps_round_trips(self, tmp_path):
        assert run(tmp_path) == 0
        doc = json.loads((tmp_path / "out" / "final_mps.json").read_text())
        state = mps_from_json_dict(doc)
        assert state.n == 3
        dense = mps_to_dense(state).amplitudes
        assert abs(sum(x * x for x in dense) - 1.0) < 1e-10

    def test_file_target(self, tmp_path):
        tfile = tmp_path / "target.json"
        tfile.write_text(json.dumps(
            {"kind": "counts", "d": 2, "counts": {"000": 1, "111": 1}}
        ))
        code = run(tmp_path, "--target", f"counts:{tfile}")
        assert code == 0

    def test_nan_target_file_exit_2(self, tmp_path, capsys):
        tfile = tmp_path / "target.json"
        tfile.write_text(json.dumps(
            {"kind": "amplitudes", "n": 3, "d": 2,
             "amplitudes": [float("nan")] + [0.0] * 7}
        ))
        code = run(tmp_path, "--target", f"file:{tfile}")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("spec", [
        "named:basis:x",
        "file:{tmp}/absent.json",
        "file:{tmp}/truncated.json",
        "counts:{tmp}/no_d.json",
        "counts:{tmp}/string_count.json",
        "counts:{tmp}/bad_digit.json",
    ])
    def test_malformed_target_exit_2(self, tmp_path, capsys, spec):
        (tmp_path / "truncated.json").write_text('{"kind": "counts", "d": 2, "cou')
        for name, doc in [
            ("no_d", {"kind": "counts", "counts": {"000": 1}}),
            ("string_count", {"kind": "counts", "d": 2, "counts": {"000": "3"}}),
            ("bad_digit", {"kind": "counts", "d": 2, "counts": {"0a0": 1}}),
        ]:
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        code = run(tmp_path, "--target", spec.format(tmp=tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("extra, fragment", [
        (["--sites", "31"], "size guard"),
        (["--target", "counts:{tmp}/counts.json"], "size guard"),  # 31-digit key
        (["--out", "{tmp}/file"], "output directory"),
        (["--tol", "nan"], "--tol=nan"),
        (["--seed", "-1"], "--seed=-1"),
        (["--target", "named:random:-3"], "seed must be >= 0, got -3"),
    ])
    def test_invalid_input_exit_2(self, tmp_path, capsys, extra, fragment):
        (tmp_path / "counts.json").write_text(
            json.dumps({"kind": "counts", "d": 2, "counts": {"0" * 31: 1}})
        )
        (tmp_path / "file").write_text("x")
        code = run(tmp_path, *(arg.format(tmp=tmp_path) for arg in extra))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and fragment in err
        assert err.count("\n") == 1

    def test_oracle_check_passes(self, tmp_path):
        assert run(tmp_path, "--oracle-check") == 0

    def test_no_partial_output_on_failure(self, tmp_path):
        out = tmp_path / "d"
        code = main([
            "--sites", "2", "--bond-dim", "2", "--seed", "1",
            "--target", "named:random", "--out", str(out),  # missing seed
        ])
        assert code == 2
        assert not any(
            f for f in (os.listdir(out) if out.exists() else [])
            if not f.startswith(".")
        )
