"""Matrix product states in mixed-canonical gauge.

A state is a chain of rank-3 cores with axis order
(left bond, physical, right bond). Everything left of the center is a
left isometry, everything right of it a right isometry, and the center
core carries the full norm, so a unit-norm center means the represented
dense vector sits on the unit sphere.

Operations return new MPS values; treat instances as immutable.

Contracting a chain with a dense target is split at the middle bond,
m = n // 2. The left environment of site i is the dense block of the cores
0..i-1, shape (d**i, chi), while i < m, and the target folded through
them, shape (chi, d**(n-i)), once i >= m. The right environment mirrors
this: the dense block of the cores i+1..n-1 while i >= m, the folded
target while i < m. Passing the middle bond is the one matmul that reads
the whole target; every other step is one small matmul through one core,
so a fold holds O(chi * d**(ceil(n/2) + 1)) numbers besides the target.
``left_start``, ``left_env`` and ``right_env`` are these steps; the
engine's sweep and ``overlap_dense`` are both built from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import GaugeError, InputError
from .target import DenseState, check_dense_guard, json_int, number_array
from .tensor import contract, qr_orthonormalize

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


def bond_dim(n: int, d: int, chi: int, i: int) -> int:
    """Exact-representability cap for the bond between sites i and i+1."""
    return min(chi, d ** (i + 1), d ** (n - 1 - i))


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
    """Largest entry of |gram - I|, computed in place in ``gram``."""
    gram.flat[:: gram.shape[0] + 1] -= 1.0
    return float(np.max(np.abs(gram, out=gram)))


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


def check_isometry(defect: float, where: str = "") -> None:
    """Raise GaugeError unless ``defect`` is at most ``GAUGE_TOL`` (NaN fails)."""
    if not defect <= GAUGE_TOL:
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
    dims = [1] + [bond_dim(n, d, chi, i) for i in range(n - 1)] + [1]
    sites = [rng.standard_normal((dims[j], d, dims[j + 1])) for j in range(n)]
    # right-canonicalize down to site 0, then normalize the center
    for j in range(n - 1, 0, -1):
        shift_cores(sites, j, "left")
    sites[0] = sites[0] / np.linalg.norm(sites[0])
    _validate_chain(sites)
    return MPS(sites=tuple(sites), center=0)


def shift_cores(cores: list[np.ndarray], j: int, direction: str) -> int:
    """Move the center of ``cores`` from site j one site left or right, in place.

    Returns the new center; the represented state does not change. The QR
    is not rank-checked: when the state's Schmidt rank at the bond is below
    the bond dimension, the factor is still an isometry and the move is
    still exact.
    """
    l, d, r = cores[j].shape
    if direction == "right":
        if j == len(cores) - 1:
            raise InputError("cannot shift right at the last site")
        q, t = qr_orthonormalize(cores[j].reshape(l * d, r))
        cores[j] = q.reshape(l, d, r)
        nxt = cores[j + 1]
        cores[j + 1] = (t @ nxt.reshape(r, -1)).reshape(nxt.shape)
        return j + 1
    if direction == "left":
        if j == 0:
            raise InputError("cannot shift left at site 0")
        q, t = qr_orthonormalize(cores[j].reshape(l, d * r).T)
        cores[j] = q.T.reshape(l, d, r)
        prev = cores[j - 1]
        cores[j - 1] = (prev.reshape(-1, l) @ t.T).reshape(prev.shape)
        return j - 1
    raise InputError(f"direction must be 'left' or 'right', got {direction!r}")


def shift_center(state: MPS, direction: str) -> MPS:
    """Move the center one site left or right without changing the state."""
    sites = list(state.sites)
    center = shift_cores(sites, state.center, direction)
    return replace(state, sites=tuple(sites), center=center)


def gauge_to(state: MPS, center: int) -> MPS:
    """Shift the center to the given site."""
    if not (0 <= center < state.n):
        raise InputError(f"center {center} out of range [0, {state.n})")
    while state.center < center:
        state = shift_center(state, "right")
    while state.center > center:
        state = shift_center(state, "left")
    return state


def dense_amplitudes(state: MPS) -> np.ndarray:
    """Raw big-endian amplitude vector, without the unit-norm check."""
    check_dense_guard(state.n, state.d)
    psi = np.ones((1, 1))
    for core in state.sites:
        psi = contract(psi, core).reshape(-1, core.shape[2])
    return psi.reshape(-1)


def mps_to_dense(state: MPS) -> DenseState:
    """Contract the chain into the full amplitude vector (big-endian)."""
    return DenseState(n=state.n, d=state.d, amplitudes=dense_amplitudes(state))


def left_start(m: int, t: np.ndarray) -> np.ndarray:
    """Left environment of site 0: the empty block, or for n = 1 the target."""
    return np.ones((1, 1)) if m else t.reshape(1, -1)


def left_env(env: np.ndarray, core: np.ndarray, i: int, m: int, t: np.ndarray) -> np.ndarray:
    """Left environment of site i + 1 from that of site i and the core at i.

    Reaching site m folds the target through the dense block: the one
    matmul over the whole target.
    """
    l, d, r = core.shape
    if i >= m:
        return core.reshape(l * d, r).T @ env.reshape(l * d, -1)
    block = (env @ core.reshape(l, d * r)).reshape(-1, r)
    return block.T @ t.reshape(block.shape[0], -1) if i + 1 == m else block


def right_env(env: np.ndarray, core: np.ndarray, i: int, m: int, t: np.ndarray) -> np.ndarray:
    """Right environment of site i - 1 from that of site i and the core at i.

    Reaching site m - 1 folds the target through the dense block: the one
    matmul over the whole target.
    """
    l, d, r = core.shape
    if i < m:
        return env.reshape(-1, d * r) @ core.reshape(l, d * r).T
    block = (core.reshape(l * d, r) @ env).reshape(l, -1)
    return t.reshape(-1, block.shape[1]) @ block.T if i == m else block


def overlap_dense(state: MPS, target: DenseState) -> float:
    """Inner product with a dense target, by the left fold through all n sites.

    Reads the target once, at the middle bond, and builds no array of the
    target's size; the gauge of ``state`` does not matter.
    """
    check_dims(state, target)
    m, t = state.n // 2, target.amplitudes
    env = left_start(m, t)
    for i, core in enumerate(state.sites):
        env = left_env(env, core, i, m, t)
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
