"""Matrix product states in mixed-canonical gauge.

A state is a chain of rank-3 cores with axis order
(left bond, physical, right bond). Everything left of the center is a
left isometry, everything right of it a right isometry, and the center
core carries the full norm, so a unit-norm center means the represented
dense vector sits on the unit sphere.

Operations return new MPS values; treat instances as immutable.

Moving the center splits the old center core into an isometry and a gauge
factor (``split_core``). Where the core's matrix is square, the bond is
saturated at its ``bond_dims`` cap and the identity already spans the whole
space, so the split is the identity and the core itself, exact and with no
QR; on the chain's saturated ends that skips the QR of every shift. Any
other core takes one plain QR (``qr_orthonormalize``), which serves
every non-square split; the shape-checked ``contract`` serves only dense
conversion. Cores are float64 numpy arrays in no fixed memory order: a
non-square left split returns the view ``q.T.reshape(...)``, not C-contiguous.

Contracting a chain with a dense target is split at the middle bond,
m = n // 2. The left environment of site i is the dense block of the cores
0..i-1, shape (d**i, chi), while i < m, and the target folded through
them, shape (chi, d**(n-i)), once i >= m. The right environment mirrors
this: the dense block of the cores i+1..n-1 while i >= m, the folded
target while i < m. Passing the middle bond is the one product that reads
the whole target; every other step is one small matmul through one core,
so a fold holds O(chi * d**(ceil(n/2) + 1)) numbers besides the target.
``left_start``, ``left_env`` and ``right_env`` are these steps; the
engine's sweep and ``overlap_dense`` are both built from them.

The fold takes the target itself, not its array, and reads it only
through ``DenseState``'s two products: ``row_fold`` (block.T @ T) on the
left crossing, and for n = 1 at the start, and ``column_fold``
(T @ block.T) on the right one. The column fold runs over cache-sized row
slabs, because OpenBLAS packs the whole target for a product with only chi
columns; the row fold stays one matmul, because summing its slabs' partial
products costs more than the packing saves. ``DenseState``'s docstring has the
measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractShapeError, GaugeError, InputError
from .target import DenseState, check_dense_guard, json_int, number_array

#: largest isometry defect a non-center core may have
GAUGE_TOL = 1e-8


@dataclass(frozen=True)
class MPS:
    """Chain of (chi_left, d, chi_right) cores with an orthogonality center."""

    sites: tuple[np.ndarray, ...]
    center: int

    @property
    def n(self) -> int:
        return len(self.sites)

    @property
    def d(self) -> int:
        return self.sites[0].shape[1]


def check_dims(state: MPS, target: DenseState) -> None:
    """Raise InputError unless ``state`` and ``target`` have the same (n, d)."""
    if target.n != state.n or target.d != state.d:
        raise InputError(
            f"dimension mismatch: state is ({state.n}, {state.d}), "
            f"target is ({target.n}, {target.d})"
        )


def bond_dims(n: int, d: int, chi: int) -> list[int]:
    """The n + 1 bond dimensions: 1 at the ends, chi capped at exact representability."""
    return [1] + [min(chi, d ** (i + 1), d ** (n - 1 - i)) for i in range(n - 1)] + [1]


def _validate_chain(sites) -> None:
    if sites[0].shape[0] != 1 or sites[-1].shape[2] != 1:
        raise InputError("boundary bonds must have dimension 1")
    for j in range(len(sites) - 1):
        if sites[j].shape[2] != sites[j + 1].shape[0]:
            raise InputError(
                f"bond mismatch between sites {j} and {j + 1}: "
                f"{sites[j].shape} vs {sites[j + 1].shape}"
            )


def _identity_defect(gram: np.ndarray) -> float:
    """Largest entry of |gram - I|, computed in place in ``gram``.

    ``gram`` is a fresh matmul product, so its flat view is contiguous.
    """
    flat = gram.reshape(-1)
    flat[:: gram.shape[0] + 1] -= 1.0
    return float(np.abs(flat, out=flat).max())


def left_defect(core: np.ndarray) -> float:
    """Deviation of a core from the left-isometry condition."""
    l, d, r = core.shape
    m = core.reshape(l * d, r)
    return _identity_defect(m.T @ m)


def right_defect(core: np.ndarray) -> float:
    """Deviation of a core from the right-isometry condition."""
    l, d, r = core.shape
    m = core.reshape(l, d * r)
    return _identity_defect(m @ m.T)


def gauge_defect(state: MPS) -> float:
    """Worst isometry defect over all non-center sites (NaN if any is NaN)."""
    j = state.center
    defects = [left_defect(core) for core in state.sites[:j]]
    defects += [right_defect(core) for core in state.sites[j + 1:]]
    return float(np.max(defects, initial=0.0))


def check_isometry(defect: float, site: int | None = None) -> None:
    """Raise GaugeError unless ``defect`` is at most ``GAUGE_TOL`` (NaN fails).

    The message names ``site`` when one is given.
    """
    if not defect <= GAUGE_TOL:
        where = "" if site is None else f" at site {site}"
        raise GaugeError(f"isometry defect {defect:.3e}{where} exceeds {GAUGE_TOL:g}")


def check_gauge(state: MPS) -> None:
    check_isometry(gauge_defect(state))


def random_mps(n: int, d: int, chi: int, seed: int) -> MPS:
    """Seeded Gaussian MPS, gauged to center 0 and normalized.

    Entries are drawn from numpy's default PCG64 generator; the stream is
    fixed by the seed, so identical arguments give identical states.
    """
    if n < 1 or d < 2 or chi < 1:
        raise InputError(f"invalid sizes n={n}, d={d}, chi={chi}")
    check_dense_guard(n, d)
    rng = np.random.default_rng(seed)
    dims = bond_dims(n, d, chi)
    draws = tuple(rng.standard_normal((dims[j], d, dims[j + 1])) for j in range(n))
    # right-canonicalize down to site 0, then normalize the center
    sites = gauge_to(MPS(sites=draws, center=n - 1), 0).sites
    return MPS(sites=(sites[0] / np.linalg.norm(sites[0]),) + sites[1:], center=0)


def qr_orthonormalize(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's thin QR of a matrix with rows >= cols, no rank check.

    Returns (q, t) with q.T @ q = I, q @ t = m and t upper-triangular,
    bit-stable for identical input. The signs of t's diagonal are
    LAPACK's: a thin QR is unique only up to them, as an MPS is only up
    to its gauge, and no record reads them. Householder QR keeps q
    orthonormal when ``m`` is rank-deficient, which is what a gauge shift
    needs: a bond wider than the state's Schmidt rank is redundant, not
    invalid. A matrix that is not 2-D, or has fewer rows than columns, is
    refused.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ContractShapeError(f"expected a rank-2 tensor, got shape {m.shape}")
    r, c = m.shape
    if r < c:
        raise ContractShapeError(f"need rows >= cols, got shape {m.shape}")
    return np.linalg.qr(m)


def split_core(core: np.ndarray, direction: str) -> tuple[np.ndarray, np.ndarray]:
    """Split a center core into an isometry core and its gauge factor t.

    ``"right"`` returns a left isometry q with core = q @ t, both read as
    (l*d, r) matrices, so t belongs to the left bond of the next core.
    ``"left"`` returns a right isometry q with core = t.T @ q, both read as
    (l, d*r) matrices, so t.T belongs to the right bond of the previous
    core. ``absorb_factor`` multiplies t in.

    A square matrix (l*d == r for ``"right"``, l == d*r for ``"left"``)
    means the bond is saturated at its ``bond_dims`` cap. The identity is
    then an orthonormal basis of the whole space, so q is the identity and
    t is the core itself: exact, with isometry defect 0, whatever the
    core's rank. Any other core is split by numpy's QR, which is not
    rank-checked: when the state's Schmidt rank at the bond is below the
    bond dimension, q is still an isometry and the split is still exact.
    """
    l, d, r = core.shape
    if direction == "right":
        if l * d == r:
            return np.eye(r).reshape(l, d, r), core.reshape(r, r)
        q, t = qr_orthonormalize(core.reshape(l * d, r))
        return q.reshape(l, d, r), t
    if direction == "left":
        if l == d * r:
            return np.eye(l).reshape(l, d, r), core.reshape(l, l).T
        q, t = qr_orthonormalize(core.reshape(l, d * r).T)
        return q.T.reshape(l, d, r), t
    raise InputError(f"direction must be 'left' or 'right', got {direction!r}")


def absorb_factor(core: np.ndarray, t: np.ndarray, direction: str) -> np.ndarray:
    """Multiply the factor t of a neighbour's ``split_core`` in ``direction`` into ``core``.

    After a right split t multiplies the left bond of ``core``, after a
    left split t.T multiplies its right bond.
    """
    if direction == "right":
        return (t @ core.reshape(t.shape[0], -1)).reshape(core.shape)
    return (core.reshape(-1, t.shape[0]) @ t.T).reshape(core.shape)


def shift_center(state: MPS, direction: str) -> MPS:
    """One step of ``gauge_to``: move the center one site left or right.

    Refuses a direction other than ``"left"`` or ``"right"``; ``gauge_to``
    bounds the step, so a step off either end is its out-of-range refusal.
    """
    step = {"left": -1, "right": 1}.get(direction)
    if step is None:
        raise InputError(f"direction must be 'left' or 'right', got {direction!r}")
    return gauge_to(state, state.center + step)


def gauge_to(state: MPS, center: int) -> MPS:
    """Walk the center to the given site without changing the state.

    The one center walk: each step splits the old center (``split_core``)
    and multiplies its gauge factor into the neighbour (``absorb_factor``).
    It reads only the cores it passes, which need not be isometries, so it
    also right-canonicalizes raw draws walked from the last site to site 0.
    """
    if not (0 <= center < state.n):
        raise InputError(f"center {center} out of range [0, {state.n})")
    cores = list(state.sites)
    for j in range(state.center, center):
        cores[j], t = split_core(cores[j], "right")
        cores[j + 1] = absorb_factor(cores[j + 1], t, "right")
    for j in range(state.center, center, -1):
        cores[j], t = split_core(cores[j], "left")
        cores[j - 1] = absorb_factor(cores[j - 1], t, "left")
    return MPS(sites=tuple(cores), center=center)


def contract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Contract the last axis of ``a`` with the first axis of ``b``.

    Output axes are the other axes of ``a`` followed by the other axes of
    ``b``: one reshape and one matmul.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim == 0 or b.ndim == 0 or a.shape[-1] != b.shape[0]:
        raise ContractShapeError(
            f"last axis of shape {a.shape} does not match first axis of shape {b.shape}"
        )
    k = b.shape[0]
    out = a.reshape(-1, k) @ b.reshape(k, -1)
    return out.reshape(a.shape[:-1] + b.shape[1:])


def dense_amplitudes(state: MPS) -> np.ndarray:
    """Raw big-endian amplitude vector, without the unit-norm check."""
    check_dense_guard(state.n, state.d)
    psi = np.ones((1, 1))
    for core in state.sites:
        psi = contract(psi, core).reshape(-1, core.shape[2])
    return psi.reshape(-1)


def left_start(m: int, target: DenseState) -> np.ndarray:
    """Left environment of site 0: the empty block, or for n = 1 the target as one row.

    For n = 1 the row fold of the empty block multiplies each amplitude by
    1.0, so the row holds the amplitudes exactly.
    """
    block = np.ones((1, 1))
    return block if m else target.row_fold(block)


def left_env(
    env: np.ndarray, core: np.ndarray, i: int, m: int, target: DenseState
) -> np.ndarray:
    """Left environment of site i + 1 from that of site i and the core at i.

    Reaching site m folds the target through the dense block: its row fold,
    the one product over the whole target.
    """
    l, d, r = core.shape
    if i >= m:
        return core.reshape(l * d, r).T @ env.reshape(l * d, -1)
    block = (env @ core.reshape(l, d * r)).reshape(-1, r)
    return target.row_fold(block) if i + 1 == m else block


def right_env(
    env: np.ndarray, core: np.ndarray, i: int, m: int, target: DenseState
) -> np.ndarray:
    """Right environment of site i - 1 from that of site i and the core at i.

    Reaching site m - 1 folds the target through the dense block: its
    column fold, the one product over the whole target.
    """
    l, d, r = core.shape
    if i < m:
        return env.reshape(-1, d * r) @ core.reshape(l, d * r).T
    block = (core.reshape(l * d, r) @ env).reshape(l, -1)
    return target.column_fold(block) if i == m else block


def overlap_dense(state: MPS, target: DenseState) -> float:
    """Inner product with a dense target, by the left fold through all n sites.

    Reads the target once, at the middle bond, and builds no array of the
    target's size; the gauge of ``state`` does not matter.
    """
    check_dims(state, target)
    m = state.n // 2
    env = left_start(m, target)
    for i, core in enumerate(state.sites):
        env = left_env(env, core, i, m, target)
    return float(env[0, 0])


def mps_to_json_dict(state: MPS) -> dict:
    return {
        "n": state.n,
        "d": state.d,
        "center": state.center,
        "tensors": [
            {"shape": list(core.shape), "data": core.reshape(-1).tolist()}
            for core in state.sites
        ],
    }


def mps_from_json_dict(doc: dict) -> MPS:
    """Rebuild an MPS from ``mps_to_json_dict`` output; InputError if malformed."""
    try:
        n, d, center = (json_int(doc[key], f"MPS field {key!r}") for key in ("n", "d", "center"))
        cores = [(tuple(entry["shape"]), entry["data"]) for entry in doc["tensors"]]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed MPS document: {exc!r}") from exc
    sites = []
    for j, (shape, data) in enumerate(cores):
        shape = tuple(json_int(v, f"shape entry of core {j}") for v in shape)
        if len(shape) != 3 or shape[1] != d or min(shape) < 1:
            raise InputError(f"core {j} has shape {shape}, expected (left, {d}, right)")
        data = number_array(data, f"data of core {j}")
        if data.shape != (math.prod(shape),):
            raise InputError(f"core {j} has {data.size} values for shape {shape}")
        sites.append(data.reshape(shape))
    if len(sites) != n:
        raise InputError(f"expected {n} tensors, got {len(sites)}")
    if not 0 <= center < n:
        raise InputError(f"center {center} outside [0, {n})")
    _validate_chain(sites)
    return MPS(sites=tuple(sites), center=center)
