"""The benchmark wraps package functions by name; every name must resolve."""

import importlib.util
from pathlib import Path

from sphere_dmrg import cli, engine, mps

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_resolve():
    layers = load_layers()
    sites = layers.engine_sites(engine, mps, True) + layers.cli_sites(cli, engine, mps, True)
    missing = [
        f"{module.__name__}.{attr}" for module, attr, _ in sites
        if not callable(getattr(module, attr, None))
    ]
    assert not missing
