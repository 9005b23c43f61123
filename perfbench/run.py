#!/usr/bin/env python3
"""sphere-dmrg benchmark: time sweeps, runs and set-up, traced per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload fold-wide --seed 0 --seconds 35 --trace 0

Workloads (d=2, a fixed sweep count per unit, tol 1e-30 so none stops early):

- ``fold-wide``: ``train`` in-process at n=20, chi=8, 4 sweeps per unit.
- ``update-narrow``: ``train`` in-process at n=12, chi=16, 50 sweeps per unit.
- ``cli-counts``: the CLI as a subprocess, ``--target counts:<file>`` with
  200k samples over n=18, chi=8, 10 sweeps per unit.

The seed picks one of ``CASES`` input cases (seed mod ``CASES``), whose
final overlaps are pinned in ``references.json``. A run repeats units for
``--seconds`` (and until at least ``MIN_SWEEPS`` sweeps were timed) after
one warm-up unit, checks every unit's outputs, and prints a table of
metrics with units and sample counts, a JSON line with the machine and
settings, and last the one-line JSON result. With ``--trace 1`` units
alternate between untraced and traced, which gives the per-layer metrics
and the tracing overhead. See README.md for the metric definitions.
"""

import os

# One BLAS thread, set before numpy loads: with two threads on a 2-core
# machine single sweeps of fold-wide took twice as long as the rest.
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

from checks import OUTPUT_FILES, Tally, check_run, gauge_defect, read_cli_outputs  # noqa: E402
from layers import END_TO_END_UNITS, PER_LAYER_UNITS, SPAN_METRICS, engine_sites  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
CHILD = os.path.join(HERE, "cli_child.py")
REFERENCES = os.path.join(HERE, "references.json")

CASES = 16
# the 90th percentile keeps at least ten samples beyond it
MIN_SWEEPS = 100
MIN_UNITS = 5
# stop adding units here even if the minimums are not met, to end well
# inside three minutes
HARD_STOP_S = 150.0
COUNTS_SAMPLES = 200_000
TOL = 1e-30


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    chi: int
    sweeps: int
    cli: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fold-wide", n=20, chi=8, sweeps=4, cli=False),
        Workload("update-narrow", n=12, chi=16, sweeps=50, cli=False),
        Workload("cli-counts", n=18, chi=8, sweeps=10, cli=True),
    )
}


@dataclass
class Unit:
    """One train call or one CLI process, with its timings and check results."""

    traced: bool
    failures: list
    run_s: float = 0.0
    setup_s: float = 0.0
    sweep_ms: list = field(default_factory=list)
    final_overlap: float = float("nan")
    # traced units: span name -> [calls, total ns, self ns]
    layers: dict = field(default_factory=dict)
    # traced CLI units: the per-layer metrics measured outside spans
    extra: dict = field(default_factory=dict)
    peak_rss_kb: int = 0


def target_spec(case: int) -> str:
    return f"named:random:{1000 + case}"


def write_counts(n: int, case: int, path: str) -> dict:
    """Write a counts target of COUNTS_SAMPLES uniform draws over n bits."""
    import numpy as np

    rng = np.random.default_rng(1000 + case)
    keys, counts = np.unique(rng.integers(0, 2**n, COUNTS_SAMPLES), return_counts=True)
    doc = {
        "kind": "counts",
        "d": 2,
        "counts": {format(int(k), f"0{n}b"): int(c) for k, c in zip(keys, counts)},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return {"samples": COUNTS_SAMPLES, "distinct_keys": len(keys),
            "file_bytes": os.path.getsize(path)}


def import_package():
    """Import the package from this checkout's src, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "sphere_dmrg", "__init__.py")):
        raise RuntimeError(f"no sphere_dmrg package under {SRC}")
    sys.path.insert(0, SRC)
    import sphere_dmrg
    from sphere_dmrg import engine, mps, target

    if not os.path.abspath(sphere_dmrg.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported sphere_dmrg from {sphere_dmrg.__file__}")
    return engine, mps, target


def unit_timing(tracer: Tracer, begin: int, origin_ns: int, unit: Unit) -> None:
    """Set a unit's sweep times, set-up time and span totals from its spans."""
    cols = tracer.cols
    sweep_id = tracer.name_id("engine.sweep")
    sweeps = [
        (cols["start"][i], cols["end"][i])
        for i in range(begin, len(tracer))
        if cols["name"][i] == sweep_id
    ]
    unit.sweep_ms = [(e - s) / 1e6 for s, e in sweeps]
    if sweeps:
        unit.setup_s = (min(s for s, _ in sweeps) - origin_ns) / 1e9
    if unit.traced:
        unit.layers = tracer.totals(begin)


class Runner:
    """Builds a workload's inputs from its case and runs checked units."""

    def __init__(self, workload: Workload, case: int, workdir: str, reference):
        self.wl = workload
        self.case = case
        self.workdir = workdir
        self.reference = reference
        self.engine, self.mps, target_mod = import_package()
        os.makedirs(workdir, exist_ok=True)
        self.tracer = Tracer()
        self.units = 0
        if workload.cli:
            self.counts_path = os.path.join(workdir, "counts.json")
            self.inputs = write_counts(workload.n, case, self.counts_path)
            self.spec = f"counts:{self.counts_path}"
        else:
            self.spec = target_spec(case)
            self.inputs = {"target": self.spec}
        self.target = target_mod.resolve_target(self.spec, workload.n, 2)

    def check(self, overlaps, state) -> list:
        try:
            dense = self.mps.overlap_dense(state, self.target)
            defect = gauge_defect(state.sites, state.center)
        except Exception as exc:  # a malformed final state is a failed unit
            return [f"final state unusable: {type(exc).__name__}: {exc}"]
        return check_run(overlaps, self.wl.n, self.wl.sweeps, dense, defect, self.reference)

    def run_unit(self, traced: bool) -> Unit:
        self.units += 1
        self.tracer.unit = self.units
        return self._cli_unit(traced) if self.wl.cli else self._train_unit(traced)

    def _train_unit(self, traced: bool) -> Unit:
        engine = self.engine
        config = engine.TrainConfig(
            n=self.wl.n, d=2, chi=self.wl.chi, seed=self.case,
            max_sweeps=self.wl.sweeps, tol=TOL, target=self.spec,
        )
        tracer = self.tracer
        begin = len(tracer)
        start = time.perf_counter_ns()
        try:
            with tracer.patched(engine_sites(engine, self.mps, traced)), \
                    tracer.span("engine.train"):
                state, trajectory, _ = engine.train(config)
        except Exception as exc:  # a raising unit is a failed unit, not a crash
            return Unit(traced, [f"train raised {type(exc).__name__}: {exc}"])
        end = time.perf_counter_ns()
        overlaps = [r.overlap for r in trajectory]
        unit = Unit(traced, self.check(overlaps, state), run_s=(end - start) / 1e9,
                    final_overlap=overlaps[-1] if overlaps else float("nan"))
        unit_timing(tracer, begin, start, unit)
        return unit

    def _cli_unit(self, traced: bool) -> Unit:
        out = os.path.join(self.workdir, "out")
        report_path = os.path.join(self.workdir, "child.json")
        shutil.rmtree(out, ignore_errors=True)
        if os.path.exists(report_path):
            os.remove(report_path)
        argv = [
            sys.executable, CHILD, report_path, "1" if traced else "0",
            "--sites", str(self.wl.n), "--bond-dim", str(self.wl.chi),
            "--seed", str(self.case), "--max-sweeps", str(self.wl.sweeps),
            "--tol", repr(TOL), "--target", self.spec, "--out", out,
        ]
        start = time.perf_counter_ns()
        try:
            proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, timeout=120)
        except subprocess.TimeoutExpired:
            return Unit(traced, ["CLI did not exit within 120 s"])
        end = time.perf_counter_ns()
        if proc.returncode != 0:
            return Unit(traced, [f"CLI exited {proc.returncode}: {proc.stderr.strip()[-300:]}"])
        try:
            with open(report_path) as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            return Unit(traced, [f"no span report from the CLI process: {exc}"])
        failures, docs = read_cli_outputs(out)
        unit = Unit(traced, failures, run_s=(end - start) / 1e9,
                    peak_rss_kb=report["peak_rss_kb"])
        if "final_mps" in docs and "overlaps" in docs:
            overlaps = docs["overlaps"]
            try:
                state = self.mps.mps_from_json_dict(docs["final_mps"])
            except Exception as exc:  # a malformed document is a failed unit
                failures.append(f"final_mps.json does not load: {exc}")
            else:
                failures.extend(self.check(overlaps, state))
                unit.final_overlap = overlaps[-1] if overlaps else float("nan")
        begin = len(self.tracer)
        self.tracer.extend(self.units, report["spans"])
        unit_timing(self.tracer, begin, start, unit)
        if traced:
            unit.extra = {
                "cli.import_ms": report["import_ns"] / 1e6,
                "cli.write.ms": cli_write_ns(report["spans"]) / 1e6,
                "cli.out_bytes": sum(
                    os.path.getsize(os.path.join(out, name)) for name in OUTPUT_FILES
                ),
            }
        return unit


def cli_write_ns(spans: list) -> int:
    """Self time of ``cli.main`` after ``train`` returned."""
    main = next(s for s in spans if s["name"] == "cli.main")
    train = next(s for s in spans if s["name"] == "engine.train" and s["parent"] == main["id"])
    after = sum(
        s["end"] - s["start"] for s in spans
        if s["parent"] == main["id"] and s["start"] >= train["end"]
    )
    return main["end"] - train["end"] - after


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": BLAS_ENV,
    }


def last_level_cache() -> dict:
    """Size of the highest cache level as the kernel reports it for cpu0."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = {"level": None, "size": "unknown"}
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
            if best["level"] is None or level > best["level"]:
                best = {"level": level, "size": size}
    except OSError:
        pass
    return best


def upper_quartile(samples) -> float:
    return statistics.quantiles(samples, n=4)[2]


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[Tally, list]:
    """Run one checked warm-up unit, then units until time and samples suffice.

    With ``trace`` the units alternate untraced, traced, untraced, ...
    """
    tally = Tally()
    tally.record(runner.run_unit(False).failures)
    units: list[Unit] = []
    t0 = time.monotonic()
    while True:
        elapsed = time.monotonic() - t0
        if elapsed >= HARD_STOP_S or (
            elapsed >= seconds and (tally.failed or enough(units, trace))
        ):
            return tally, units
        unit = runner.run_unit(trace and len(units) % 2 == 1)
        tally.record(unit.failures)
        units.append(unit)


def trace_pairs(units: list) -> list:
    """(untraced, traced) neighbours that both produced timings."""
    return [
        (units[i], units[i + 1]) for i in range(0, len(units) - 1, 2)
        if units[i].sweep_ms and units[i + 1].sweep_ms
    ]


def enough(units: list, trace: bool) -> bool:
    if trace:
        return len(trace_pairs(units)) >= 3
    timed = [u for u in units if u.sweep_ms]
    return len(timed) >= MIN_UNITS and sum(len(u.sweep_ms) for u in timed) >= MIN_SWEEPS


def end_to_end(wl: Workload, units: list) -> tuple[dict, dict]:
    """End-to-end metrics and their sample counts over the timed units.

    Sweep and run times are upper quartiles, not medians: on a shared
    2-core host, per-sweep times of one run fall into a fast and a slow
    mode about 1.5x apart, and the median jumps between the two from run to
    run while the upper quartile stays in the slow one.
    """
    timed = [u for u in units if u.sweep_ms]
    sweeps = [x for u in timed for x in u.sweep_ms]
    tail = statistics.quantiles(sweeps, n=10)[-1]
    if wl.cli:
        peak_rss_kb, rss_samples = statistics.median(u.peak_rss_kb for u in timed), len(timed)
    else:
        peak_rss_kb, rss_samples = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, 1
    metrics = {
        "sweep_ms": upper_quartile(sweeps),
        "sweep_ms_p90": tail,
        "run_s": upper_quartile([u.run_s for u in timed]),
        "setup_s": statistics.median(u.setup_s for u in timed),
        "peak_rss_mb": peak_rss_kb / 1024,
    }
    samples = {
        "sweep_ms": f"{len(sweeps)} sweeps (p75; median {statistics.median(sweeps):.4f})",
        "sweep_ms_p90": f"{len(sweeps)} sweeps (p90, {sum(x > tail for x in sweeps)} beyond)",
        "run_s": f"{len(timed)} units (p75)",
        "setup_s": f"{len(timed)} units (median)",
        "peak_rss_mb": f"{rss_samples} process(es) (median of peaks)",
    }
    return metrics, samples


def layer_metrics(wl: Workload, units: list) -> tuple[dict, dict]:
    """Per-layer medians over traced units, and the tracing overhead.

    The overhead pairs each traced unit with the untraced one run just
    before it, so both see the same host load.
    """
    pairs = trace_pairs(units)
    traced = [t for _, t in pairs]
    fields = {"calls": (0, 1), "total": (1, 1e6), "self": (2, 1e6)}
    out = {}
    for name, _, span, fld in SPAN_METRICS:
        index, scale = fields[fld]
        out[name] = statistics.median(
            u.layers.get(span, [0, 0, 0])[index] / scale for u in traced
        )
    for name in ("cli.import_ms", "cli.write.ms", "cli.out_bytes"):
        # zero on the in-process workloads, which never run the CLI
        out[name] = statistics.median(u.extra.get(name, 0) for u in traced)
    out["target.bytes"] = 2**wl.n * 8
    out["trace.overhead_s"] = statistics.median(t.run_s - u.run_s for u, t in pairs)
    out["trace.overhead_pct"] = statistics.median(
        100 * (t.run_s - u.run_s) / u.run_s for u, t in pairs
    )
    samples = {name: f"{len(traced)} traced units (median)" for name in out}
    samples["target.bytes"] = "computed d**n * 8"
    for name in ("trace.overhead_s", "trace.overhead_pct"):
        samples[name] = f"{len(pairs)} untraced/traced pairs (median)"
    return out, samples


def run(wl: Workload, seed: int, seconds: float, trace: bool) -> int:
    case = seed % CASES
    with open(REFERENCES) as fh:
        reference = json.load(fh)[wl.name][case]
    workdir = os.path.join(WORK, f"{wl.name}-{seed}-{os.getpid()}")
    try:
        runner = Runner(wl, case, workdir, reference)
        tally, units = measure(runner, seconds, trace)
        if trace:
            runner.tracer.dump(os.path.join(WORK, f"spans-{wl.name}.npz"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len([u for u in units if u.sweep_ms]) < 2 or (trace and not trace_pairs(units)):
        print(f"error: too few units produced timings: {tally.messages}", file=sys.stderr)
        return 1

    if trace:
        metrics, samples = layer_metrics(wl, units)
        unit_of = PER_LAYER_UNITS
    else:
        metrics, samples = end_to_end(wl, units)
        unit_of = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{name:26s} {value:16.6f} {unit_of[name]:6s} n={samples[name]}")
    print(f"{'fail_rate':26s} {tally.fail_rate:16.6f} {'ratio':6s} "
          f"n={tally.attempted} units, {tally.failed} failed")
    for message in tally.messages:
        print(f"check failed: {message}")
    print(json.dumps({
        "machine": machine_info(),
        "settings": {
            "workload": wl.name, "seed": seed, "case": case, "seconds": seconds,
            "trace": int(trace), "n": wl.n, "d": 2, "chi": wl.chi,
            "sweeps_per_unit": wl.sweeps, "tol": TOL, "inputs": runner.inputs,
            # computed from d**n, next to the cache size the kernel reports;
            # no bandwidth is measured
            "target_bytes_computed": 2**wl.n * 8,
            "llc_reported": last_level_cache(),
        },
        "fail_rate": {"value": tally.fail_rate, "failed": tally.failed,
                      "attempted": tally.attempted},
    }))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        return run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
