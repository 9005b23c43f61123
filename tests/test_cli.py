import contextlib
import dataclasses
import errno
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphere_dmrg import cli, engine, verify
from sphere_dmrg.cli import CSV_HEADER, main
from sphere_dmrg.mps import dense_amplitudes, mps_from_json_dict


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

    @pytest.mark.parametrize("n, d", [(1, 2), (2, 2), (3, 2), (1, 3), (4, 3)])
    def test_rows_are_numbered_by_the_schedule(self, tmp_path, n, d):
        """Row k is step k, sweep k // (2n-1) and row k % (2n-1) of ``sweep_schedule``."""
        extra = ("--sites", str(n), "--phys-dim", str(d), "--max-sweeps", "3")
        assert run(tmp_path, *extra, "--target", "named:random:9") == 0
        rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[1:]
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        schedule = engine.sweep_schedule(n)
        assert len(schedule) == 2 * n - 1
        assert summary["sweeps_run"] == len(rows) // len(schedule) >= 1
        assert len(rows) % len(schedule) == 0
        for k, row in enumerate(rows):
            step, sweep, site, direction = row.split(",")[:4]
            site_, direction_ = schedule[k % len(schedule)]
            assert (step, sweep, site, direction) == (
                str(k), str(k // len(schedule)), str(site_), direction_,
            ), (n, d, k)

    @pytest.mark.parametrize("extra, stall_eps", [
        (("--bond-dim", "1", "--target", "named:basis:5"), None),
        # a raised threshold makes a share of the updates stall, overlaps below 0 included
        (("--sites", "6", "--target", "named:random:5"), 0.3),
        (("--sites", "4", "--phys-dim", "3", "--bond-dim", "3", "--target", "named:random:7"),
         None),
    ])
    def test_every_row_derives_angle_and_distance_from_its_overlap(
        self, tmp_path, monkeypatch, extra, stall_eps
    ):
        if stall_eps is not None:
            monkeypatch.setattr(engine, "STALL_EPS", stall_eps)
        assert run(tmp_path, "--max-sweeps", "4", *extra) == 0
        rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[1:]
        stalled = 0
        for row in rows:
            fields = row.split(",")
            overlap, angle, distance = map(float, fields[4:7])
            assert angle == math.acos(max(-1.0, min(1.0, overlap))), row
            assert distance == math.sqrt(max(0.0, 2.0 - 2.0 * overlap)), row
            stalled += fields[7] == "1"
        assert (stalled > 0) == (stall_eps is not None)

    def test_final_mps_round_trips(self, tmp_path):
        assert run(tmp_path) == 0
        doc = json.loads((tmp_path / "out" / "final_mps.json").read_text())
        state = mps_from_json_dict(doc)
        assert state.n == 3
        dense = dense_amplitudes(state)
        assert abs(sum(x * x for x in dense) - 1.0) < 1e-10

    @pytest.mark.parametrize("sites, bond_dim, center", [
        ("6", "1", 0), ("6", "4", 2), ("6", "8", 2),
    ])
    def test_final_mps_center_is_where_the_last_sweep_rests(
        self, tmp_path, sites, bond_dim, center
    ):
        # min(a, b - 1): the last bond at its left cap, the first at its right cap minus 1
        assert run(tmp_path, "--sites", sites, "--bond-dim", bond_dim) == 0
        doc = json.loads((tmp_path / "out" / "final_mps.json").read_text())
        assert doc["center"] == center

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
        "named:random:²",
        "named:basis:٣",
        "file:{tmp}/absent.json",
        "file:{tmp}/truncated.json",
        "counts:{tmp}/no_d.json",
        "counts:{tmp}/zero_d.json",
        "counts:{tmp}/string_count.json",
        "counts:{tmp}/bad_digit.json",
        "file:{tmp}/bool_amplitudes.json",
        "file:{tmp}/deep.json",
        "counts:{tmp}/deep.json",
        "counts:{tmp}/int_counts_past_float64.json",
        "counts:{tmp}/float_counts_past_float64.json",
        "file:{tmp}/norm_past_float64.json",
        "file:{tmp}/counts.json",  # file: reads only amplitudes documents
    ])
    def test_malformed_target_exit_2(self, tmp_path, capsys, spec):
        (tmp_path / "truncated.json").write_text('{"kind": "counts", "d": 2, "cou')
        (tmp_path / "deep.json").write_text("[" * 200_000)
        for name, doc in [
            ("counts", {"kind": "counts", "d": 2, "counts": {"000": 1, "111": 1}}),
            ("no_d", {"kind": "counts", "counts": {"000": 1}}),
            ("zero_d", {"kind": "counts", "d": 0, "counts": {"000": 1}}),
            ("string_count", {"kind": "counts", "d": 2, "counts": {"000": "3"}}),
            ("bad_digit", {"kind": "counts", "d": 2, "counts": {"0a0": 1}}),
            ("bool_amplitudes", {"kind": "amplitudes", "n": 3, "d": 2,
                                 "amplitudes": [True] + [False] * 7}),
            ("int_counts_past_float64", {"kind": "counts", "d": 2,
                                         "counts": {"011": 10**308, "100": 10**308}}),
            ("float_counts_past_float64", {"kind": "counts", "d": 2,
                                           "counts": {"011": 1e308, "100": 1e308}}),
            ("norm_past_float64", {"kind": "amplitudes", "n": 3, "d": 2,
                                   "amplitudes": [1e200] * 8}),
        ]:
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        code = run(tmp_path, "--target", spec.format(tmp=tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert os.listdir(tmp_path / "out") == []

    @pytest.mark.parametrize("extra, fragment", [
        (["--sites", "31"], "size guard"),
        (["--target", "counts:{tmp}/counts.json"], "has (n, d) = (31, 2)"),  # 31-digit key
        (["--out", "{tmp}/file"], "output directory"),
        (["--tol", "nan"], "--tol=nan"),
        (["--seed", "-1"], "--seed=-1"),
        (["--target", "named:random:-3"], "seed must be >= 0, got -3"),
        (["--target", "named:uniform:3"], "target 'uniform' takes no seed"),
        (["--sites", "0"], "got --sites=0"),
        (["--phys-dim", "1"], "got --phys-dim=1"),
        (["--bond-dim", "0"], "got --bond-dim=0"),
        (["--max-sweeps", "0"], "got --max-sweeps=0"),
        (["--tol", "inf"], "got --tol=inf"),
        (["--tol", "-1e-3"], "tol must be finite and > 0, got --tol=-0.001"),
        (["--tol", "-inf"], "tol must be finite and > 0, got --tol=-inf"),
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

    # every integer flag reads ASCII -?[0-9]+, the rule of named: integers
    @pytest.mark.parametrize("flag", ["--sites", "--phys-dim", "--bond-dim", "--seed",
                                      "--max-sweeps"])
    @pytest.mark.parametrize("value", ["1_0", "+3", " 3", "٣", "３"])
    def test_integer_flag_is_an_ascii_integer(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, flag, value)
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    # --tol reads ASCII decimal or exponent text (target.ascii_float), not
    # everything Python's float reads
    @pytest.mark.parametrize("value", ["1_0e-3", " 1e-3 ", "1e-3\n", "1.", "٣e-3", "１e-3",
                                       "0x1p-3", "infinit"])
    def test_tol_is_an_ascii_number(self, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "--tol", value)
        assert exc.value.code == 2
        assert "argument --tol" in capsys.readouterr().err

    @pytest.mark.parametrize("value, tol", [
        ("1e-3", 1e-3), (".5", 0.5), ("+2.5E-1", 0.25), ("3", 3.0), ("-1", -1.0),
        ("INF", math.inf), ("-Infinity", -math.inf),
    ])
    def test_tol_reads_decimal_exponent_and_inf_text(self, value, tol):
        args = cli.build_parser().parse_args(
            ["--sites", "3", "--bond-dim", "2", "--seed", "1", "--target", "named:w",
             "--out", "o", f"--tol={value}"]
        )
        assert args.tol == tol

    def test_oracle_check_passes(self, tmp_path):
        assert run(tmp_path, "--oracle-check") == 0

    @pytest.mark.parametrize("name", ["trajectory.csv", "summary.json"])
    def test_output_path_that_is_a_directory_exit_2(self, tmp_path, capsys, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert run(tmp_path, "--force") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "is a directory" in err
        assert err.count("\n") == 1
        # no temporary file left and no output file written
        assert os.listdir(out) == [name]

    def test_write_failure_exit_2_and_no_output(self, tmp_path, capsys, monkeypatch):
        mkstemp, made = tempfile.mkstemp, []

        def third_fails(*args, **kwargs):
            if len(made) == 2:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            made.append(None)
            return mkstemp(*args, **kwargs)

        monkeypatch.setattr(tempfile, "mkstemp", third_fails)
        assert run(tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "No space left" in err
        assert err.count("\n") == 1
        assert len(made) == 2
        assert os.listdir(tmp_path / "out") == []

    @pytest.mark.parametrize("stage", ["target", "write"])
    def test_out_of_memory_exit_1_in_one_line(self, tmp_path, capsys, monkeypatch, stage):
        # raised where the allocation would fail, without allocating
        def refuse(*args, **kwargs):
            raise MemoryError

        if stage == "target":
            monkeypatch.setattr(engine, "resolve_target", refuse)
        else:
            mkstemp, made = tempfile.mkstemp, []

            def third_refused(*args, **kwargs):
                if len(made) == 2:
                    refuse()
                made.append(None)
                return mkstemp(*args, **kwargs)

            monkeypatch.setattr(tempfile, "mkstemp", third_refused)
        assert run(tmp_path) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: out of memory")
        assert "Traceback" not in captured.err
        assert captured.err.count("\n") == 1
        assert f"{2**3 * 8} bytes" in captured.err  # d**n * 8 for --sites 3
        assert os.listdir(tmp_path / "out") == []

    @pytest.mark.parametrize("sites, bond_dim, target_bytes, basis_bytes, patched", [
        # the widest center at n=3, chi=2 is (2, 2, 2): 8 rows of 2**3 amplitudes
        (3, 2, 2**3 * 8, 8 * 2**3 * 8, "oracle"),
        # n=20, chi=8: (8, 2, 8), 128 rows of 2**20 amplitudes, 1 GiB
        (20, 8, 2**20 * 8, 2**30, "target"),
    ])
    def test_out_of_memory_under_oracle_check_names_the_basis(
        self, tmp_path, capsys, monkeypatch, sites, bond_dim, target_bytes, basis_bytes,
        patched,
    ):
        # raised where the allocation would fail, without allocating
        def refuse(*args, **kwargs):
            raise MemoryError

        if patched == "oracle":
            monkeypatch.setattr(verify, "subspace_basis_dense", refuse)
        else:
            monkeypatch.setattr(engine, "resolve_target", refuse)
        code = main([
            "--sites", str(sites), "--bond-dim", str(bond_dim), "--seed", "1",
            "--target", "named:random:5", "--out", str(tmp_path / "out"), "--oracle-check",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: out of memory")
        assert captured.err.count("\n") == 1
        assert f"needs {target_bytes} bytes" in captured.err
        assert f"largest subspace basis needs {basis_bytes} bytes" in captured.err
        assert os.listdir(tmp_path / "out") == []

    def test_non_finite_output_exit_1_and_no_output(self, tmp_path, capsys, monkeypatch):
        train = cli.train

        def nan_core(config):
            state, trajectory, reason = train(config)
            sites = (np.full_like(state.sites[0], np.nan),) + state.sites[1:]
            return dataclasses.replace(state, sites=sites), trajectory, reason

        monkeypatch.setattr(cli, "train", nan_core)
        assert run(tmp_path) == 1
        assert capsys.readouterr().err == (
            "error: Out of range float values are not JSON compliant\n"
        )
        assert os.listdir(tmp_path / "out") == []

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


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class TestBlasThreadCount:
    """A run writes the same bytes at one BLAS thread and at two."""

    @staticmethod
    def outputs(tmp_path, threads, spec):
        """``trajectory.csv`` and ``final_mps.json`` of a CLI subprocess at ``threads``."""
        out = tmp_path / f"threads{threads}"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, **dict.fromkeys(THREAD_VARIABLES, str(threads)))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run([
            sys.executable, "-m", "sphere_dmrg.cli", "--sites", "16", "--bond-dim", "8",
            "--seed", "0", "--max-sweeps", "3", "--target", spec, "--out", str(out),
        ], env=env, check=True)
        return [(out / name).read_bytes() for name in ("trajectory.csv", "final_mps.json")]

    @pytest.mark.parametrize("kind", ["named", "counts"])
    def test_outputs_do_not_depend_on_the_thread_count(self, tmp_path, kind):
        spec = "named:random:3"
        if kind == "counts":
            rng = np.random.default_rng(16)
            keys, counts = np.unique(rng.integers(0, 2**16, 50_000), return_counts=True)
            path = tmp_path / "counts.json"
            path.write_text(json.dumps({"kind": "counts", "d": 2, "counts": {
                format(int(k), "016b"): int(c) for k, c in zip(keys, counts)
            }}))
            spec = f"counts:{path}"
        assert self.outputs(tmp_path, 1, spec) == self.outputs(tmp_path, 2, spec)


# target documents by file name; the valid ones fit --sites 3 --phys-dim 2
DOCUMENTS = {
    "amplitudes.json": json.dumps({"kind": "amplitudes", "n": 3, "d": 2,
                                   "amplitudes": [0.5] * 4 + [0] * 4}),
    "counts.json": json.dumps({"kind": "counts", "d": 2, "counts": {"000": 3, "101": 1}}),
    "nan.json": '{"kind": "amplitudes", "n": 3, "d": 2, "amplitudes": [NaN, 1, 0, 0, 0, 0, 0, 0]}',
    "large_n.json": json.dumps({"kind": "amplitudes", "n": 40, "d": 2, "amplitudes": [1, 0]}),
    "string_count.json": json.dumps({"kind": "counts", "d": 2, "counts": {"000": "3"}}),
    "mps.json": json.dumps({"n": 1, "d": 2, "center": 0,
                            "tensors": [{"shape": [1, 2, 1], "data": [1, 0]}]}),
    "truncated.json": '{"kind": "counts", "d": 2, "cou',
}
# flag: (values a run can use, values it refuses); None leaves the flag out
FLAG_VALUES = {
    "--sites": (["1", "3", "6"], [None, "0", "-2", "x", "3.0", "1_0", "+3"]),
    "--phys-dim": ([None, "2", "3"], ["1", "0", "d", "1_0", "+3"]),
    "--bond-dim": (["1", "2", "4"], [None, "0", "-1", "c", "1_0", "+3"]),
    "--seed": (["0", "7"], [None, "-1", "s", "1_0", "+3"]),
    "--max-sweeps": (["1", "3"], ["0", "-1", "k", "1_0", "+3"]),  # never the default 100
    "--tol": ([None, "1e-10", "0.5"], ["nan", "-1", "0", "t", "inf", "1_0e-3", " 1e-3 ", "٣"]),
}
NAMED_SPECS = (
    ["named:uniform", "named:w", "named:basis:3", "named:random:4"],
    [None, "named:ghz", "named:basis:99", "named:basis:x", "named:random",
     "named:random:²", "named:random:-3", "named:uniform:3", "named:bogus", "bogus:x"],
)


def either(valid, invalid):
    """One of ``valid`` four times in five, else one of ``invalid``."""
    return st.integers(0, 4).flatmap(lambda i: st.sampled_from(valid if i else invalid))


class TestArgvProperty:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_exit_code_and_one_error_line(self, data):
        """main returns or exits with 0, 1 or 2, and code 2 prints one error: line."""
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in DOCUMENTS.items():
                with open(os.path.join(tmp, name), "w") as fh:
                    fh.write(text)
            os.mkdir(os.path.join(tmp, "nonempty"))
            open(os.path.join(tmp, "nonempty", "junk"), "w").close()
            paths = [os.path.join(tmp, name) for name in [*DOCUMENTS, "absent.json", ""]]
            values = dict(FLAG_VALUES)
            values["--target"] = (
                NAMED_SPECS[0] + ["file:" + paths[0], "counts:" + paths[1]],
                NAMED_SPECS[1] + [kind + path for kind in ("file:", "counts:") for path in paths],
            )
            values["--out"] = (
                [os.path.join(tmp, "fresh"), os.path.join(tmp, "nonempty")], [None, paths[0]],
            )
            argv = []
            for flag, (valid, invalid) in values.items():
                value = data.draw(either(valid, invalid))
                argv += [] if value is None else [flag, value]
            for flag in ("--force", "--oracle-check"):
                argv += data.draw(st.sampled_from([[], [flag]]))
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
        assert code in (0, 1, 2), (code, argv)
        if code == 2:
            error_lines = [line for line in stderr.getvalue().splitlines() if "error:" in line]
            assert len(error_lines) == 1, (argv, stderr.getvalue())
