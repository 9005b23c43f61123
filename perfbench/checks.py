"""Output checks for one benchmark unit (one ``train`` call or one CLI run).

Every check reads only what the program hands back (the trajectory, the
final state, the output files) and the public ``overlap_dense``; none
depends on how the engine computes its updates. A unit fails when any
check returns a message, and the failure counts towards ``fail_rate``.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

MONOTONE_TOL = 1e-12
DENSE_OVERLAP_TOL = 1e-12
GAUGE_TOL = 1e-8
REFERENCE_TOL = 1e-9
CSV_HEADER = "step,sweep,site,direction,overlap,angle,distance,stalled"
OUTPUT_FILES = ("trajectory.csv", "final_mps.json", "summary.json")


class Tally:
    """Attempted and failed units, with the first ten distinct failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            for message in failures:
                if len(self.messages) < 10 and message not in self.messages:
                    self.messages.append(message)

    @property
    def fail_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def gauge_defect(sites, center: int) -> float:
    """Worst deviation from the isometry condition over the non-center cores."""
    worst = 0.0
    for j, core in enumerate(sites):
        l, d, r = core.shape
        if j < center:
            m = core.reshape(l * d, r)
            worst = max(worst, float(np.max(np.abs(m.T @ m - np.eye(r)))))
        elif j > center:
            m = core.reshape(l, d * r)
            worst = max(worst, float(np.max(np.abs(m @ m.T - np.eye(l)))))
    return worst


def check_run(overlaps, n: int, sweeps: int, last_overlap_dense: float,
              defect: float, reference: float | None) -> list[str]:
    """The five per-run checks shared by the in-process and CLI workloads."""
    failures = []
    rows = sweeps * (2 * n - 1)
    if len(overlaps) != rows:
        failures.append(f"{len(overlaps)} records, expected {rows}")
    for k in range(1, len(overlaps)):
        if overlaps[k] < overlaps[k - 1] - MONOTONE_TOL:
            failures.append(
                f"overlap decreased at record {k}: {overlaps[k - 1]!r} -> {overlaps[k]!r}"
            )
            break
    if not overlaps:
        return failures + ["empty trajectory"]
    last = overlaps[-1]
    if not abs(last - last_overlap_dense) <= DENSE_OVERLAP_TOL:
        failures.append(
            f"last record overlap {last!r} != overlap_dense {last_overlap_dense!r}"
        )
    if not defect <= GAUGE_TOL:
        failures.append(f"final gauge defect {defect:.3e} exceeds {GAUGE_TOL:g}")
    if reference is not None and not abs(last - reference) <= REFERENCE_TOL:
        failures.append(f"final overlap {last!r} != pinned reference {reference!r}")
    return failures


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON constant {token}")


def strict_json(text: str):
    """Parse JSON, rejecting NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def read_cli_outputs(out_dir: str) -> tuple[list[str], dict]:
    """Check the CLI's files; return (failures, parsed documents).

    The parsed documents are ``summary``, ``final_mps`` and ``overlaps``
    (the trajectory's overlap column), present only when they parsed.
    """
    failures: list[str] = []
    docs: dict = {}
    for name in ("summary.json", "final_mps.json"):
        try:
            with open(os.path.join(out_dir, name)) as fh:
                docs[name.removesuffix(".json")] = strict_json(fh.read())
        except (OSError, ValueError) as exc:
            failures.append(f"{name}: {exc}")
    try:
        with open(os.path.join(out_dir, "trajectory.csv"), newline="") as fh:
            header = fh.readline().rstrip("\n")
            if header != CSV_HEADER:
                failures.append(f"trajectory.csv header {header!r}")
            else:
                docs["overlaps"] = [float(row["overlap"]) for row in
                                    csv.DictReader(fh, fieldnames=header.split(","))]
    except (OSError, ValueError) as exc:
        failures.append(f"trajectory.csv: {exc}")
    return failures, docs
