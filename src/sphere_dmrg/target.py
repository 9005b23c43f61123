"""Target unit vectors: amplitude-encoded counts, named states, files.

Index convention is big-endian throughout: site 0 is the most significant
digit of the basis-state index, so the digit string "100" (d=2, n=3) maps
to index 4.

Empirical counts are encoded as amplitudes sqrt(count(x) / total). This
non-negative square-root encoding is a documented convention of this
module; swap this module out to change it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DenseSizeError, InputError

#: dense vectors are refused beyond 2**DENSE_GUARD_BITS amplitudes
DENSE_GUARD_BITS = 30.0


def check_dense_guard(n: int, d: int, limit_bits: float = DENSE_GUARD_BITS) -> None:
    if n * math.log2(d) > limit_bits + 1e-9:
        raise DenseSizeError(
            f"dense vector of {d}**{n} amplitudes exceeds the "
            f"2**{limit_bits:g} size guard"
        )


@dataclass(frozen=True)
class DenseState:
    """Explicit length d**n amplitude vector with unit norm."""

    n: int
    d: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.float64)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (self.d**self.n,):
            raise InputError(
                f"expected {self.d}**{self.n} amplitudes, got shape {amps.shape}"
            )
        norm = float(np.linalg.norm(amps))
        # a NaN or Inf amplitude makes the norm NaN or Inf, and a NaN
        # would pass the unit-norm comparison below
        if not np.isfinite(norm):
            raise InputError("amplitudes must be finite (found NaN or Inf)")
        if abs(norm - 1.0) > 1e-12:
            raise InputError(f"amplitudes have norm {norm!r}, expected 1")

    @property
    def dim(self) -> int:
        return self.d**self.n


def index_of_string(digits: str, d: int) -> int:
    """Big-endian index of a digit string, e.g. "100" -> 4 for d=2."""
    idx = 0
    for ch in digits:
        v = int(ch)
        if not (0 <= v < d):
            raise InputError(f"digit {ch!r} out of range for d={d} in key {digits!r}")
        idx = idx * d + v
    return idx


def state_from_counts(counts: dict[str, int], d: int) -> DenseState:
    """Amplitude-encode an empirical distribution over digit strings."""
    if not counts:
        raise InputError("counts map is empty")
    keys = list(counts)
    n = len(keys[0])
    total = 0
    for key, c in counts.items():
        if len(key) != n:
            raise InputError(f"key {key!r} has length {len(key)}, expected {n}")
        if c <= 0:
            raise InputError(f"count for key {key!r} must be positive, got {c}")
        total += c
    check_dense_guard(n, d)
    amps = np.zeros(d**n)
    for key, c in counts.items():
        amps[index_of_string(key, d)] = math.sqrt(c / total)
    # sum of count/total is exactly the simplex; renormalize away rounding
    amps /= np.linalg.norm(amps)
    return DenseState(n=n, d=d, amplitudes=amps)


def named_state(name: str, n: int, d: int, seed: int | None = None) -> DenseState:
    """Build one of the named analytic targets.

    Supported names: uniform, ghz, w, basis:<k>, random. ghz and w require
    d=2; random requires a seed.
    """
    if n < 1 or d < 2:
        raise InputError(f"invalid sizes n={n}, d={d}")
    check_dense_guard(n, d)
    dim = d**n
    if name == "uniform":
        amps = np.full(dim, d ** (-n / 2))
    elif name == "ghz":
        if d != 2:
            raise InputError("ghz target requires d=2")
        amps = np.zeros(dim)
        amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    elif name == "w":
        if d != 2:
            raise InputError("w target requires d=2")
        amps = np.zeros(dim)
        for i in range(n):
            amps[2 ** (n - 1 - i)] = 1.0 / math.sqrt(n)
    elif name.startswith("basis:"):
        k = int(name.split(":", 1)[1])
        if not (0 <= k < dim):
            raise InputError(f"basis index {k} out of range [0, {dim})")
        amps = np.zeros(dim)
        amps[k] = 1.0
    elif name == "random":
        if seed is None:
            raise InputError("random target requires a seed")
        rng = np.random.default_rng(seed)
        amps = rng.standard_normal(dim)
        amps /= np.linalg.norm(amps)
    else:
        raise InputError(f"unknown target name {name!r}")
    return DenseState(n=n, d=d, amplitudes=amps)


def load_target_file(path: str, n: int, d: int) -> DenseState:
    """Load a target from a JSON file of kind "counts" or "amplitudes"."""
    with open(path) as fh:
        doc = json.load(fh)
    kind = doc.get("kind")
    if kind == "counts":
        state = state_from_counts(doc["counts"], d=int(doc["d"]))
    elif kind == "amplitudes":
        amps = np.asarray(doc["amplitudes"], dtype=np.float64)
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > 1e-6:
            raise InputError(f"amplitudes in {path} have norm {norm!r}")
        state = DenseState(
            n=int(doc["n"]), d=int(doc["d"]), amplitudes=amps / norm
        )
    else:
        raise InputError(f"unknown target file kind {kind!r} in {path}")
    if state.n != n or state.d != d:
        raise InputError(
            f"target in {path} has (n, d) = ({state.n}, {state.d}), "
            f"run requires ({n}, {d})"
        )
    return state


def resolve_target(spec: str, n: int, d: int) -> DenseState:
    """Resolve a target spec string: named:<name>[:seed] | file:<path> | counts:<path>."""
    if spec.startswith("named:"):
        rest = spec[len("named:"):]
        if rest.startswith("basis:"):
            return named_state(rest, n, d)
        parts = rest.rsplit(":", 1)
        if len(parts) == 2 and parts[1].lstrip("-").isdigit():
            return named_state(parts[0], n, d, seed=int(parts[1]))
        return named_state(rest, n, d)
    if spec.startswith("file:"):
        return load_target_file(spec[len("file:"):], n, d)
    if spec.startswith("counts:"):
        path = spec[len("counts:"):]
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("kind") != "counts":
            raise InputError(f"{path} is not a counts target file")
        state = state_from_counts(doc["counts"], d=int(doc["d"]))
        if state.n != n or state.d != d:
            raise InputError(
                f"counts in {path} describe (n, d) = ({state.n}, {state.d}), "
                f"run requires ({n}, {d})"
            )
        return state
    raise InputError(f"unrecognized target spec {spec!r}")
