"""Batch front end: run a training config, emit CSV + JSON artifacts."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
import tempfile
import time

from .engine import MetricRecord, TrainConfig, sweep_schedule, train
from .errors import InputError, SphereDMRGError
from .mps import bond_dims, mps_to_json_dict
from .target import UNSIGNED_FLOAT, ascii_float, ascii_int
from .verify import oracle_check

CSV_HEADER = "step,sweep,site,direction,overlap,angle,distance,stalled"
OUTPUT_FILES = ("trajectory.csv", "final_mps.json", "summary.json")
#: the flag that sets each TrainConfig field; each flag's dest is its field
FLAGS = {
    "n": "--sites", "d": "--phys-dim", "chi": "--bond-dim", "seed": "--seed",
    "max_sweeps": "--max-sweeps", "tol": "--tol", "target": "--target",
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sphere-dmrg",
        description=(
            "Fit a matrix product state to a dense unit target by exact "
            "single-site sweeping; writes the trajectory as CSV."
        ),
    )
    p.add_argument("--sites", dest="n", type=ascii_int, required=True, help="number of sites n")
    p.add_argument("--phys-dim", dest="d", type=ascii_int, default=TrainConfig.d,
                   help="local dimension d")
    p.add_argument("--bond-dim", dest="chi", type=ascii_int, required=True,
                   help="bond dimension cap")
    p.add_argument("--seed", type=ascii_int, required=True, help="initialization seed")
    p.add_argument("--max-sweeps", type=ascii_int, default=TrainConfig.max_sweeps)
    p.add_argument("--tol", type=ascii_float, default=TrainConfig.tol,
                   help="overlap-change convergence tolerance per sweep")
    p.add_argument("--target", required=True,
                   help="named:<name>[:<k>] | file:<amplitudes path> | counts:<counts path>;"
                        " basis:<k> takes an index and random:<seed> a seed, both ASCII"
                        " integers; uniform, ghz and w take none")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--force", action="store_true",
                   help="allow writing into a non-empty output directory")
    p.add_argument("--oracle-check", action="store_true",
                   help="also run the dense-oracle equivalence check")
    # argparse reads an argument that starts with "-" as an option unless it
    # matches this pattern, whose default differs across Python versions and
    # misses "-1e-3" and "-inf" on some; every negative ascii_float text is a
    # value here, so --tol's range check names it
    p._negative_number_matcher = re.compile(rf"-({UNSIGNED_FLOAT})\Z")
    return p


def _write_outputs(out: str, texts: tuple[str, ...]) -> None:
    """Write ``texts`` into ``out`` as ``OUTPUT_FILES``, each atomically.

    Every text goes to a temporary file first, and only then is each one
    renamed into place. An ``OSError`` raises ``InputError``; temporary
    files that were not renamed are removed.
    """
    pending = []  # temporary files not yet renamed into place
    try:
        for text in texts:
            fd, tmp = tempfile.mkstemp(dir=out, prefix=".tmp-")
            pending.append(tmp)
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
        for name in OUTPUT_FILES:
            os.replace(pending[0], os.path.join(out, name))
            pending.pop(0)
    except OSError as exc:
        raise InputError(f"cannot write output directory {out!r}: {exc}") from exc
    finally:
        for tmp in pending:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def _csv_text(trajectory: list[MetricRecord], n: int) -> str:
    """``trajectory.csv``: row k is step k, row k % (2n-1) of sweep k // (2n-1)."""
    schedule = sweep_schedule(n)
    rows = [CSV_HEADER]
    for k, r in enumerate(trajectory):
        sweep, row = divmod(k, len(schedule))
        site, direction = schedule[row]
        rows.append(
            f"{k},{sweep},{site},{direction},"
            f"{r.overlap!r},{r.angle!r},{r.distance!r},{int(r.stalled)}"
        )
    return "\n".join(rows) + "\n"


def config_from_args(args) -> TrainConfig:
    try:
        return TrainConfig(**{field: getattr(args, field) for field in FLAGS})
    except InputError as exc:
        msg = str(exc)
        for field, flag in FLAGS.items():
            msg = msg.replace(f"got {field}=", f"got {flag}=")
        raise InputError(msg) from exc


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except SphereDMRGError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 1
    except MemoryError:
        # valid input on a host too small for it: name what the run needs
        d, n = args.d, args.n
        need = f"the dense target of {d}**{n} float64 amplitudes needs {d**n * 8} bytes"
        if args.oracle_check:
            # oracle.subspace_basis_dense holds one (l*d*r, d**n) float64 array
            dims = bond_dims(n, d, args.chi)
            basis = max(dims[i] * d * dims[i + 1] for i in range(n)) * d**n * 8
            need += f", and the oracle's largest subspace basis needs {basis} bytes"
        print(f"error: out of memory: {need}", file=sys.stderr)
        return 1


def _run(args) -> int:
    """Train, check and write one run; invalid input raises InputError."""
    config = config_from_args(args)
    out = args.out
    try:
        os.makedirs(out, exist_ok=True)
        nonempty = bool(os.listdir(out))
    except OSError as exc:
        raise InputError(f"cannot use output directory {out!r}: {exc}") from exc
    if nonempty and not args.force:
        raise InputError(
            f"output directory {out!r} is not empty (pass --force to overwrite)"
        )
    for path in (os.path.join(out, name) for name in OUTPUT_FILES):
        if os.path.isdir(path):
            raise InputError(f"output path {path!r} is a directory")

    start = time.monotonic()
    state, trajectory, reason = train(config)
    elapsed = time.monotonic() - start

    if args.oracle_check:
        mismatches = oracle_check(config)
        if mismatches:
            for m in mismatches:
                print(f"oracle mismatch: {m}", file=sys.stderr)
            return 1

    last = trajectory[-1]
    summary = {
        "termination": reason,
        "sweeps_run": len(trajectory) // (2 * config.n - 1),
        "final_overlap": last.overlap,
        "final_angle": last.angle,
        "wall_seconds": elapsed,
    }
    # strict JSON, encoded before any file is written: a non-finite number
    # is a runtime failure, not an output
    try:
        mps_json = json.dumps(mps_to_json_dict(state), allow_nan=False)
        summary_json = json.dumps(summary, indent=2, allow_nan=False)
    except ValueError as exc:
        raise SphereDMRGError(str(exc)) from exc
    _write_outputs(out, (_csv_text(trajectory, config.n), mps_json + "\n", summary_json + "\n"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
