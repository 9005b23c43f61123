"""The benchmark's metrics, and where it records the spans behind them.

The layers are the package modules ``target``, ``mps``, ``tensor``,
``engine`` and ``cli``; ``oracle`` and ``verify`` are verification-only
and never timed. Each public function is wrapped at the module attribute
through which its caller looks it up (``engine.contract`` and
``mps.contract`` both feed ``tensor.contract``), so the package itself
carries no timers.
"""

from __future__ import annotations


def engine_sites(engine, mps, trace: bool) -> list[tuple]:
    """(module, attribute, span name) to wrap around one ``train`` call.

    Untraced runs wrap only ``engine.sweep``: its spans give ``sweep_ms``
    and the start of the first sweep, at one wrapper call per sweep.
    """
    if not trace:
        return [(engine, "sweep", "engine.sweep")]
    return [
        (engine, "resolve_target", "target.resolve"),
        (engine, "random_mps", "mps.random_mps"),
        (engine, "sweep", "engine.sweep"),
        (engine, "optimal_update", "engine.update"),
        (engine, "compute_projection_tensor", "engine.fold"),
        (engine, "check_gauge", "mps.check_gauge"),
        (engine, "shift_center", "mps.shift_center"),
        (engine, "contract", "tensor.contract"),
        (mps, "contract", "tensor.contract"),
        (mps, "qr_orthonormalize", "tensor.qr"),
    ]


def cli_sites(cli, engine, mps, trace: bool) -> list[tuple]:
    """The engine sites plus ``train`` and the JSON encoder as ``cli.main`` sees them."""
    sites = [(cli, "train", "engine.train")] + engine_sites(engine, mps, trace)
    if trace:
        sites.append((cli, "mps_to_json_dict", "mps.to_json"))
    return sites


END_TO_END_UNITS = {
    "sweep_ms": "ms",
    "sweep_ms_p90": "ms",
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# (metric, unit, span name, field): field is "calls", "total" (the whole
# span) or "self" (the span minus its traced children). Values are per
# workload unit, one ``train`` call or one CLI process.
SPAN_METRICS = [
    ("engine.fold.calls", "count", "engine.fold", "calls"),
    ("engine.fold.ms", "ms", "engine.fold", "total"),
    ("engine.fold.self_ms", "ms", "engine.fold", "self"),
    ("tensor.contract.calls", "count", "tensor.contract", "calls"),
    ("tensor.contract.ms", "ms", "tensor.contract", "total"),
    ("mps.check_gauge.calls", "count", "mps.check_gauge", "calls"),
    ("mps.check_gauge.ms", "ms", "mps.check_gauge", "total"),
    ("mps.shift_center.calls", "count", "mps.shift_center", "calls"),
    ("mps.shift_center.self_ms", "ms", "mps.shift_center", "self"),
    ("tensor.qr.calls", "count", "tensor.qr", "calls"),
    ("tensor.qr.ms", "ms", "tensor.qr", "total"),
    ("engine.update.self_ms", "ms", "engine.update", "self"),
    ("engine.sweep.self_ms", "ms", "engine.sweep", "self"),
    ("target.resolve.ms", "ms", "target.resolve", "total"),
    ("mps.random_mps.ms", "ms", "mps.random_mps", "total"),
    ("mps.to_json.ms", "ms", "mps.to_json", "total"),
]

# Per-layer metrics that are not a sum over one span name.
OTHER_METRICS = [
    ("target.bytes", "bytes"),      # d**n * 8, computed from the sizes
    ("cli.import_ms", "ms"),        # importing sphere_dmrg.cli in the CLI process
    ("cli.write.ms", "ms"),         # cli.main self time after train returns
    ("cli.out_bytes", "bytes"),     # size of the three output files
    ("trace.overhead_s", "s"),      # traced run_s minus untraced run_s
    ("trace.overhead_pct", "%"),    # the same, as a share of untraced run_s
]

PER_LAYER_UNITS = {name: unit for name, unit, *_ in SPAN_METRICS + OTHER_METRICS}
