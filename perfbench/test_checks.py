"""Self-test of the benchmark's output checks and of BENCHMARK.json.

Runs under pytest from the repository root, or directly:
``python3 perfbench/test_checks.py``.
"""

import json
import os
import tempfile

from checks import CSV_HEADER, Tally, check_run, read_cli_outputs
from layers import END_TO_END_UNITS, PER_LAYER_UNITS

HERE = os.path.dirname(os.path.abspath(__file__))


def _record_run(overlaps) -> Tally:
    tally = Tally()
    tally.record(check_run(overlaps, n=1, sweeps=len(overlaps),
                           last_overlap_dense=overlaps[-1], defect=0.0,
                           reference=overlaps[-1]))
    return tally


def _record_cli(summary_text: str) -> Tally:
    tally = Tally()
    with tempfile.TemporaryDirectory() as out:
        rows = [CSV_HEADER, "0,0,0,R,0.5,1.0471975511965979,1.0,0"]
        files = {
            "trajectory.csv": "\n".join(rows) + "\n",
            "final_mps.json": json.dumps({"n": 1, "d": 2, "center": 0, "tensors": []}),
            "summary.json": summary_text,
        }
        for name, text in files.items():
            with open(os.path.join(out, name), "w") as fh:
                fh.write(text)
        failures, _ = read_cli_outputs(out)
    tally.record(failures)
    return tally


def test_increasing_trajectory_passes():
    assert _record_run([0.1, 0.2, 0.3]).failed == 0


def test_decreasing_trajectory_counts_as_failure():
    tally = _record_run([0.1, 0.3, 0.2])
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "decreased" in tally.messages[0]


def test_finite_summary_passes():
    assert _record_cli('{"final_overlap": 0.5}').failed == 0


def test_nan_summary_counts_as_failure():
    tally = _record_cli('{"final_overlap": NaN}')
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "summary.json" in tally.messages[0]


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER_UNITS


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
