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
import numbers
import re
import sys
from collections.abc import Collection
from dataclasses import dataclass

import numpy as np

from .errors import InputError

#: dense vectors are refused beyond 2**DENSE_GUARD_BITS amplitudes
DENSE_GUARD_BITS = 30.0


def check_dense_guard(n: int, d: int) -> None:
    if n * math.log2(d) > DENSE_GUARD_BITS + 1e-9:
        raise InputError(
            f"dense vector of {d}**{n} amplitudes exceeds the "
            f"2**{DENSE_GUARD_BITS:g} size guard"
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


def _digit_indices(keys: Collection[str], n: int, d: int) -> np.ndarray:
    """Big-endian int64 indices of length-n ASCII digit strings, each digit < d.

    One pass over a (len(keys), n) uint8 view of the keys; no wider array
    of that shape is built.
    """
    if n < 1:
        raise InputError("counts keys must be non-empty digit strings")
    try:
        raw = np.fromiter(keys, dtype=f"S{n}", count=len(keys))
    except UnicodeEncodeError:
        key = next(k for k in keys if not k.isascii())
        raise InputError(f"key {key!r} is not an ASCII digit string") from None
    digits = raw.view(np.uint8).reshape(len(keys), n)
    # a byte below '0' wraps to >= 208, so one bound catches every bad digit
    digits -= ord("0")
    limit = min(d, 10)
    if digits.max() >= limit:
        row = int(np.argmax((digits >= limit).any(axis=1)))
        key = list(keys)[row]
        ch = key[int(np.argmax(digits[row] >= limit))]
        raise InputError(f"digit {ch!r} out of range for d={d} in key {key!r}")
    idx = np.zeros(len(keys), dtype=np.int64)
    for j in range(n):
        idx *= d
        idx += digits[:, j]
    return idx


def state_from_counts(counts: dict[str, int], d: int) -> DenseState:
    """Amplitude-encode an empirical distribution over digit strings.

    Keys are equal-length ASCII digit strings with every digit below d;
    counts are positive numbers, read by ``number_array``, whose sum fits
    in a float64.
    """
    if not counts:
        raise InputError("counts map is empty")
    if d < 1:
        raise InputError(f"invalid local dimension d={d}")
    n = len(next(iter(counts)))
    if len(set(map(len, counts))) > 1:
        key = next(k for k in counts if len(k) != n)
        raise InputError(f"key {key!r} has length {len(key)}, expected {n}")
    weights = number_array(list(counts.values()), "counts map")
    if not weights.min() > 0:
        key, c = next((k, c) for k, c in counts.items() if not c > 0)
        raise InputError(f"count for key {key!r} must be positive, got {c}")
    check_dense_guard(n, d)
    idx = _digit_indices(counts, n, d)
    # the exact integer total keeps sqrt(count / total) bit-equal to the
    # per-key formula
    total = sum(counts.values())
    if total > sys.float_info.max:  # exact for an int total, true for inf
        raise InputError("counts sum past the float64 range")
    np.divide(weights, total, out=weights)
    np.sqrt(weights, out=weights)
    amps = np.zeros(d**n)
    amps[idx] = weights
    # sum of count/total is exactly the simplex; renormalize away rounding
    amps /= np.linalg.norm(amps)
    return DenseState(n=n, d=d, amplitudes=amps)


def _spec_integer(text: str) -> int | None:
    """``text`` as an int if it is ASCII ``-?[0-9]+`` (not "+3", " 3" or "٣"), else None."""
    if re.fullmatch(r"-?[0-9]+", text) is None:
        return None
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter converts
        raise InputError(f"integer of {len(text)} digits is too long") from None


def named_state(name: str, n: int, d: int, seed: int | None = None) -> DenseState:
    """Build one of the named analytic targets.

    Supported names: uniform, ghz, w, basis:<k>, random. ghz and w require
    d=2; random requires a seed, and no other name takes one.
    """
    if n < 1 or d < 2:
        raise InputError(f"invalid sizes n={n}, d={d}")
    if seed is not None and name != "random":
        raise InputError(f"target {name!r} takes no seed")
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
        k = _spec_integer(name[len("basis:"):])
        if k is None:
            raise InputError(f"basis index in {name!r} is not an integer")
        if not (0 <= k < dim):
            raise InputError(f"basis index {k} out of range [0, {dim})")
        amps = np.zeros(dim)
        amps[k] = 1.0
    elif name == "random":
        if seed is None:
            raise InputError("random target requires a seed")
        if seed < 0:
            raise InputError(f"random target seed must be >= 0, got {seed}")
        rng = np.random.default_rng(seed)
        amps = rng.standard_normal(dim)
        amps /= np.linalg.norm(amps)
    else:
        raise InputError(f"unknown target name {name!r}")
    return DenseState(n=n, d=d, amplitudes=amps)


def json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer; InputError for anything else.

    Bools are ints to Python, but not sizes.
    """
    if type(value) is not int:
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def number_array(values, what: str) -> np.ndarray:
    """float64 array of a JSON list of finite numbers; InputError for anything else.

    Bools, strings and nested lists are refused, not converted; so are NaN,
    Infinity and an integer too large for a float64.
    """
    if not isinstance(values, list):
        raise InputError(f"{what} must be a list of numbers, got {values!r:.40}")
    for kind in set(map(type, values)):
        if kind is bool or not issubclass(kind, numbers.Real):
            bad = next(v for v in values if type(v) is kind)
            raise InputError(f"{what} must hold only numbers, got {bad!r:.40}")
    try:
        array = np.asarray(values, dtype=np.float64)
    except OverflowError:
        raise InputError(f"{what} holds an integer too large for a float64") from None
    if not np.isfinite(array).all():
        raise InputError(f"{what} holds a NaN or Infinity")
    return array


def _check_sizes(path: str, file_n: int, file_d: int, n: int, d: int) -> None:
    if (file_n, file_d) != (n, d):
        raise InputError(
            f"target in {path} has (n, d) = ({file_n}, {file_d}), "
            f"run requires ({n}, {d})"
        )


def load_target_file(path: str, n: int, d: int, kind: str | None = None) -> DenseState:
    """Load a target from a JSON file of kind "counts" or "amplitudes".

    A given ``kind`` refuses files of the other kind.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    # ValueError: bad JSON or encoding; RecursionError: nesting too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read target file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"target file {path} does not hold a JSON object")
    file_kind = doc.get("kind")
    if kind is not None and file_kind != kind:
        raise InputError(f"{path} is not a {kind} target file")
    if file_kind not in ("counts", "amplitudes"):
        raise InputError(f"unknown target file kind {file_kind!r} in {path}")
    file_d = json_int(doc.get("d"), f"field 'd' in {path}")
    if file_kind == "counts":
        counts = doc.get("counts")
        if not isinstance(counts, dict):
            raise InputError(f"field 'counts' in {path} must be an object")
        if counts and file_d >= 1:  # state_from_counts refuses the rest
            # the first key's length is the file's n: compare it with the
            # run's before the d**n vector is built, after the guard on it
            file_n = len(next(iter(counts)))
            check_dense_guard(file_n, file_d)
            _check_sizes(path, file_n, file_d, n, d)
        return state_from_counts(counts, d=file_d)
    # before any size arithmetic, which the file's own n could make huge
    _check_sizes(path, json_int(doc.get("n"), f"field 'n' in {path}"), file_d, n, d)
    amps = number_array(doc.get("amplitudes"), f"field 'amplitudes' in {path}")
    with np.errstate(over="ignore"):  # a norm past float64 is inf, refused below
        norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > 1e-6:
        raise InputError(f"amplitudes in {path} have norm {norm!r}")
    amps /= norm
    return DenseState(n=n, d=d, amplitudes=amps)


def resolve_target(spec: str, n: int, d: int) -> DenseState:
    """Resolve a target spec string: named:<name>[:seed] | file:<path> | counts:<path>."""
    if spec.startswith("named:"):
        rest = spec[len("named:"):]
        name, colon, tail = rest.rpartition(":")
        # the integer after "basis:" is the index, not a seed
        seed = _spec_integer(tail) if colon and name != "basis" else None
        if seed is None and name == "random":
            raise InputError(f"seed {tail!r} in {spec!r} is not an integer")
        return named_state(rest if seed is None else name, n, d, seed=seed)
    if spec.startswith("file:"):
        return load_target_file(spec[len("file:"):], n, d)
    if spec.startswith("counts:"):
        return load_target_file(spec[len("counts:"):], n, d, kind="counts")
    raise InputError(f"unrecognized target spec {spec!r}")
