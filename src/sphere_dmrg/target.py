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


def unit_norm(amps: np.ndarray) -> float:
    """The 2-norm of a float64 vector, with the same bits at any BLAS thread count.

    numpy's own summation loop computes it. ``np.linalg.norm`` calls BLAS,
    and OpenBLAS splits the sum across its threads, which changes its last
    bits from n = 14 on.
    """
    return math.sqrt(np.einsum("i,i->", amps, amps))


#: target bytes per row slab of ``DenseState.column_fold``
SLAB_BYTES = 1 << 18


@dataclass(frozen=True)
class DenseState:
    """Explicit length d**n amplitude vector with unit norm.

    The MPS fold (``mps.left_start``, ``left_env``, ``right_env``) reads the
    target only through two products, ``row_fold`` and ``column_fold``,
    where the fold crosses the middle bond (and ``row_fold`` of a 1 x 1
    block at the start when n = 1). These are the only steps that read the
    whole vector.

    ``column_fold`` is T @ block.T with a block of only chi rows. As one
    product, OpenBLAS packs all of T before its kernel runs, and the fold
    took 2.4 to 4 times one streaming read of T at n = 20-22, chi = 8-16.
    Split into a stack of row slabs of about ``SLAB_BYTES`` each, every
    product is small enough for OpenBLAS's small-matrix path, and the fold
    took 17-39% less time at n = 18-22. The slab count is a power of d, so
    it divides the d**m rows; a target of one slab or less is a stack of
    one, which gives the single product's bytes. Slabs lose to the single
    product when the block is wide or the slabs are thin, so
    ``fold_slabs`` keeps them only where chi <= 16 and each slab has at
    least chi / 2 rows. Measured on the fold alone at ``SLAB_BYTES`` =
    256 KiB (one BLAS thread, OpenBLAS 0.3.31 Haswell kernels), slab time
    over single-product time, at d = 2 (n 17-25), d = 3 (n 11-16), d = 4
    (n 9-11) and d = 5 (n 7-9), chi 4-64:
    - where the rule slabs, 0.37-0.97, except for 1.01-1.07 on targets
      under 1.5 MB (at most 2.5 us) and 1.04 at d = 3, n = 13, chi = 16,
      which read 1.00 when measured again;
    - where it does not, slabs read 1.02-4.5 at chi >= 32, 1.16 at n = 18,
      chi = 20-24, and 1.06-1.18 at chi = 16 with 3-5 rows per slab. The
      rule gives up wins at chi = 20-24 from n = 20 on (0.68-0.86) and at
      some thin slabs with chi <= 16 (0.73-0.89).
    Outside that range of (d, chi) the rule is unmeasured. ``row_fold``
    stays one matmul: its slabs would each give a whole (chi, cols)
    partial product, and summing them needs a temporary that grows with
    the slab count (32 MiB at n = 22, chi = 16), which made that fold 2.2
    times slower there and 2.6 times at n = 24, chi = 8.
    """

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
        norm = unit_norm(amps)
        # a NaN or Inf amplitude makes the norm NaN or Inf, and a NaN
        # would pass the unit-norm comparison below
        if not np.isfinite(norm):
            raise InputError("amplitudes must be finite (found NaN or Inf)")
        if abs(norm - 1.0) > 1e-12:
            raise InputError(f"amplitudes have norm {norm!r}, expected 1")

    def row_fold(self, block: np.ndarray) -> np.ndarray:
        """block.T @ T, where T is the amplitudes read with ``len(block)`` rows."""
        return block.T @ self.amplitudes.reshape(block.shape[0], -1)

    def column_fold(self, block: np.ndarray) -> np.ndarray:
        """T @ block.T, where T is the amplitudes read with ``block.shape[1]`` columns.

        Computed over the row slabs that ``fold_slabs`` picks (see the class
        docstring).
        """
        t, cols = self.amplitudes, block.shape[1]
        rows = t.size // cols
        slabs = fold_slabs(self.d, rows, cols, block.shape[0])
        return np.matmul(t.reshape(slabs, rows // slabs, cols), block.T).reshape(rows, -1)


def fold_slabs(d: int, rows: int, cols: int, chi: int) -> int:
    """Row slabs of a (rows, cols) target for ``DenseState.column_fold`` with a chi-row block.

    The smallest power of d, at most ``rows``, that leaves each slab at most
    ``SLAB_BYTES``; or 1, the single product, where chi > 16 or a slab has
    fewer than chi / 2 rows.
    """
    slabs = 1
    while rows * cols * 8 > slabs * SLAB_BYTES and slabs < rows:
        slabs *= d
    return slabs if chi <= 16 and chi <= 2 * (rows // slabs) else 1


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
    amps /= unit_norm(amps)
    return DenseState(n=n, d=d, amplitudes=amps)


def ascii_int(text: str) -> int:
    """The int of ASCII ``-?[0-9]+`` text (not "+3", "1_0" or "٣"); ValueError otherwise."""
    if re.fullmatch(r"-?[0-9]+", text) is None:
        raise ValueError(f"{text!r} is not an integer")
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter converts
        raise ValueError(f"integer of {len(text)} digits is too long") from None


#: the text ``ascii_float`` reads, after its optional sign
UNSIGNED_FLOAT = r"([0-9]+(\.[0-9]+)?|\.[0-9]+)([eE][-+]?[0-9]+)?|(?i:inf|infinity|nan)"


def ascii_float(text: str) -> float:
    """The float of ASCII ``[-+]?(digits[.digits]|.digits)([eE][-+]?digits)?`` text.

    The spellings ``inf``, ``infinity`` and ``nan`` (any case, signed) read
    as float does, so a range check downstream can name them. Anything else,
    such as "1_0e-3", " 1e-3 " or "٣", raises ValueError.
    """
    if re.fullmatch(rf"[-+]?({UNSIGNED_FLOAT})", text) is None:
        raise ValueError(f"{text!r} is not a number")
    return float(text)


def named_state(name: str, n: int, d: int) -> DenseState:
    """Build the named analytic target ``<name>[:<k>]``.

    ``basis:<k>`` takes the basis index k and ``random:<seed>`` a seed, both
    ASCII integers; ``uniform``, ``ghz`` and ``w`` take none, and ghz and w
    require d=2.
    """
    head, colon, tail = name.partition(":")
    if head not in ("uniform", "ghz", "w", "basis", "random"):
        raise InputError(f"unknown target name {head!r}")
    if colon and head not in ("basis", "random"):
        raise InputError(f"target {head!r} takes no seed")
    if head == "random" and not colon:
        raise InputError("random target requires a seed")
    try:
        k = ascii_int(tail) if head in ("basis", "random") else None
    except ValueError as exc:
        what = "seed" if head == "random" else "basis index"
        raise InputError(f"{what} of target {head!r}: {exc}") from None
    if n < 1 or d < 2:
        raise InputError(f"invalid sizes n={n}, d={d}")
    check_dense_guard(n, d)
    dim = d**n
    if head == "uniform":
        amps = np.full(dim, d ** (-n / 2))
    elif head == "ghz":
        if d != 2:
            raise InputError("ghz target requires d=2")
        amps = np.zeros(dim)
        amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    elif head == "w":
        if d != 2:
            raise InputError("w target requires d=2")
        amps = np.zeros(dim)
        for i in range(n):
            amps[2 ** (n - 1 - i)] = 1.0 / math.sqrt(n)
    elif head == "basis":
        if not (0 <= k < dim):
            raise InputError(f"basis index {k} out of range [0, {dim})")
        amps = np.zeros(dim)
        amps[k] = 1.0
    else:  # random
        if k < 0:
            raise InputError(f"random target seed must be >= 0, got {k}")
        rng = np.random.default_rng(k)
        amps = rng.standard_normal(dim)
        amps /= unit_norm(amps)
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


def load_target_file(path: str, n: int, d: int, kind: str) -> DenseState:
    """Load a target from a JSON document of ``kind`` "counts" or "amplitudes".

    Anything but a JSON object of that kind is refused.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    # ValueError: bad JSON or encoding; RecursionError: nesting too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read target file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        article = "an" if kind == "amplitudes" else "a"
        raise InputError(f"{path} is not {article} {kind} target file")
    file_d = json_int(doc.get("d"), f"field 'd' in {path}")
    if kind == "counts":
        counts = doc.get("counts")
        if not isinstance(counts, dict):
            raise InputError(f"field 'counts' in {path} must be an object")
        if counts:  # state_from_counts refuses an empty map
            # the first key's length is the file's n: compare it with the
            # run's before anything else is read from the file
            _check_sizes(path, len(next(iter(counts))), file_d, n, d)
        return state_from_counts(counts, d=file_d)
    # before any size arithmetic, which the file's own n could make huge
    _check_sizes(path, json_int(doc.get("n"), f"field 'n' in {path}"), file_d, n, d)
    check_dense_guard(n, d)
    amps = number_array(doc.get("amplitudes"), f"field 'amplitudes' in {path}")
    with np.errstate(over="ignore"):  # a norm past float64 is inf, refused below
        norm = unit_norm(amps)
    if abs(norm - 1.0) > 1e-6:
        raise InputError(f"amplitudes in {path} have norm {norm!r}")
    amps /= norm
    return DenseState(n=n, d=d, amplitudes=amps)


def resolve_target(spec: str, n: int, d: int) -> DenseState:
    """Resolve named:<name>[:<k>], file:<amplitudes path> or counts:<counts path>.

    In a ``named:`` spec, basis:<k> takes an index and random:<seed> a seed,
    both ASCII integers; uniform, ghz and w take none.
    """
    if spec.startswith("named:"):
        return named_state(spec[len("named:"):], n, d)
    if spec.startswith("file:"):
        return load_target_file(spec[len("file:"):], n, d, "amplitudes")
    if spec.startswith("counts:"):
        return load_target_file(spec[len("counts:"):], n, d, "counts")
    raise InputError(f"unrecognized target spec {spec!r}")
