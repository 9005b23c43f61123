"""Batch front end: run a training config, emit CSV + JSON artifacts."""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

from .engine import MetricRecord, TrainConfig, train
from .errors import InputError, SphereDMRGError
from .mps import mps_to_json_dict
from .verify import oracle_check

CSV_HEADER = "step,sweep,site,direction,overlap,angle,distance,stalled"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sphere-dmrg",
        description=(
            "Fit a matrix product state to a dense unit target by exact "
            "single-site sweeping; writes the trajectory as CSV."
        ),
    )
    p.add_argument("--sites", type=int, required=True, help="number of sites n")
    p.add_argument("--phys-dim", type=int, default=2, help="local dimension d")
    p.add_argument("--bond-dim", type=int, required=True, help="bond dimension cap")
    p.add_argument("--seed", type=int, required=True, help="initialization seed")
    p.add_argument("--max-sweeps", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-10,
                   help="overlap-change convergence tolerance per sweep")
    p.add_argument("--target", required=True,
                   help="named:<name>[:seed] | file:<path> | counts:<path>")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--force", action="store_true",
                   help="allow writing into a non-empty output directory")
    p.add_argument("--oracle-check", action="store_true",
                   help="also run the dense-oracle equivalence check")
    return p


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _csv_row(r: MetricRecord) -> str:
    return (
        f"{r.step},{r.sweep},{r.site},{r.direction},"
        f"{r.overlap!r},{r.angle!r},{r.distance!r},{int(r.stalled)}"
    )


def config_from_args(args) -> TrainConfig:
    config = TrainConfig(
        n=args.sites,
        d=args.phys_dim,
        chi=args.bond_dim,
        seed=args.seed,
        max_sweeps=args.max_sweeps,
        tol=args.tol,
        target=args.target,
    )
    try:
        config.validate()
    except InputError as exc:
        flags = {
            "n": "--sites", "d": "--phys-dim", "chi": "--bond-dim", "seed": "--seed",
            "max_sweeps": "--max-sweeps", "tol": "--tol",
        }
        msg = str(exc)
        for field, flag in flags.items():
            msg = msg.replace(f"got {field}=", f"got {flag}=")
        raise InputError(msg) from exc
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = args.out
    try:
        os.makedirs(out, exist_ok=True)
        nonempty = bool(os.listdir(out))
    except OSError as exc:
        print(f"error: cannot use output directory {out!r}: {exc}", file=sys.stderr)
        return 2
    if nonempty and not args.force:
        print(f"error: output directory {out!r} is not empty "
              "(pass --force to overwrite)", file=sys.stderr)
        return 2

    start = time.monotonic()
    try:
        state, trajectory, reason = train(config)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SphereDMRGError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed = time.monotonic() - start

    if args.oracle_check:
        mismatches = oracle_check(config)
        if mismatches:
            for m in mismatches:
                print(f"oracle mismatch: {m}", file=sys.stderr)
            return 1

    rows = [CSV_HEADER] + [_csv_row(r) for r in trajectory]
    last = trajectory[-1]
    summary = {
        "termination": reason,
        "sweeps_run": last.sweep + 1,
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
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _atomic_write(os.path.join(out, "trajectory.csv"), "\n".join(rows) + "\n")
    _atomic_write(os.path.join(out, "final_mps.json"), mps_json + "\n")
    _atomic_write(os.path.join(out, "summary.json"), summary_json + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
