"""Run the sphere-dmrg CLI in this process and report its spans.

Usage: cli_child.py REPORT TRACE [CLI ARGS...]

Calls ``sphere_dmrg.cli.main`` exactly as the ``sphere-dmrg`` console
script does, with the span wrappers of ``run.py`` installed (every layer
when TRACE is 1, only ``engine.sweep`` when it is 0). Writes REPORT as JSON
with the exit code, the import time, the peak RSS and the spans, then exits
with the CLI's own code.
"""

import time

STARTED_NS = time.perf_counter_ns()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from layers import cli_sites  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    report_path, trace, cli_args = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    t0 = time.perf_counter_ns()
    from sphere_dmrg import cli, engine, mps
    import_ns = time.perf_counter_ns() - t0

    tracer = Tracer()
    with tracer.patched(cli_sites(cli, engine, mps, trace)), tracer.span("cli.main"):
        code = cli.main(cli_args)
    report = {
        "code": code,
        "started_ns": STARTED_NS,
        "import_ns": import_ns,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.rows(),
    }
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
