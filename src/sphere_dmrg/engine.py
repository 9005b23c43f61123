"""Single-site sweeping engine.

Each update freezes every core except the center one. Because the frozen
cores are isometries, the states reachable by varying the center form a
linear subspace whose unit vectors are a lower-dimensional sphere; the
closest unit vector to the target is the normalized orthogonal
projection, and its coordinates are obtained by contracting the target
against the frozen cores. The engine performs that update, sweeps the
center along the chain, and records the trajectory.

The contraction is split at the middle bond, m = n // 2. The environment
of the center at site i on its left is the dense block of the cores
0..i-1, shape (d**i, chi), while i < m, and the target folded through
them, shape (chi, d**(n-i)), once i >= m. The right environment mirrors
this: the dense block of the cores i+1..n-1 while i >= m, the folded
target while i < m. Passing the middle bond is the one matmul that reads
the whole target; every other step is one small matmul through one core.
A sweep carries its environments along, so it holds
O(chi * d**(ceil(n/2) + 1)) numbers besides the target instead of
rebuilding target-sized blocks at every update. It ends with the center at
site 0 and every right environment of its final state built, which the
next sweep reuses in place of its opening right fold. So the first sweep
of a run reads the target three times (the right fold at its start, then
one crossing in each direction) and every later sweep reads it twice.

An update whose projection norm is at or below ``STALL_EPS`` stalls: it
keeps the state and records the overlap the state already has, which lies
in the single-site subspace and so is read off the projection coefficients
without another pass over the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError
from .mps import (
    MPS,
    check_gauge,
    check_isometry,
    left_defect,
    random_mps,
    right_defect,
    shift_cores,
)
from .mps import shift_center  # noqa: F401  (perfbench/layers.py wraps engine.shift_center)
from .target import DenseState, resolve_target
from .tensor import contract  # noqa: F401  (perfbench/layers.py wraps engine.contract)

#: projection norm at or below which an update stalls
STALL_EPS = 1e-14


@dataclass(frozen=True)
class ProjectionTensor:
    """Coordinates of the target's projection onto the single-site subspace."""

    coeffs: np.ndarray
    norm: float


@dataclass(frozen=True)
class MetricRecord:
    """One row of the training trajectory."""

    step: int
    sweep: int
    site: int
    direction: str  # "L" or "R"
    overlap: float
    angle: float
    distance: float
    stalled: bool


@dataclass(frozen=True)
class TrainConfig:
    n: int
    d: int = 2
    chi: int = 2
    seed: int = 0
    max_sweeps: int = 100
    tol: float = 1e-10
    target: str = "named:uniform"

    def validate(self) -> None:
        if self.n < 1:
            raise InputError(f"n must be >= 1, got n={self.n}")
        if self.d < 2:
            raise InputError(f"d must be >= 2, got d={self.d}")
        if self.chi < 1:
            raise InputError(f"chi must be >= 1, got chi={self.chi}")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got seed={self.seed}")
        if self.max_sweeps < 1:
            raise InputError(f"max_sweeps must be >= 1, got max_sweeps={self.max_sweeps}")
        # written so that NaN fails too
        if not self.tol > 0:
            raise InputError(f"tol must be > 0, got tol={self.tol}")


def sweep_schedule(n: int) -> list[tuple[int, str]]:
    """(site, direction) of each update in one sweep: 0..n-1 R, then n-2..0 L."""
    return [(i, "R") for i in range(n)] + [(i, "L") for i in range(n - 2, -1, -1)]


def _check_dims(state: MPS, target: DenseState) -> None:
    if target.n != state.n or target.d != state.d:
        raise InputError(
            f"dimension mismatch: state is ({state.n}, {state.d}), "
            f"target is ({target.n}, {target.d})"
        )


def _left_start(m: int, t: np.ndarray) -> np.ndarray:
    """Left environment of site 0: the empty block, or for n = 1 the target."""
    return np.ones((1, 1)) if m else t.reshape(1, -1)


def _left_env(env: np.ndarray, core: np.ndarray, i: int, m: int, t: np.ndarray) -> np.ndarray:
    """Left environment of site i + 1 from that of site i and the left isometry at i.

    Reaching site m folds the target through the dense block: the one
    matmul over the whole target.
    """
    l, d, r = core.shape
    if i >= m:
        return core.reshape(l * d, r).T @ env.reshape(l * d, -1)
    block = (env @ core.reshape(l, d * r)).reshape(-1, r)
    return block.T @ t.reshape(block.shape[0], -1) if i + 1 == m else block


def _right_env(env: np.ndarray, core: np.ndarray, i: int, m: int, t: np.ndarray) -> np.ndarray:
    """Right environment of site i - 1 from that of site i and the right isometry at i.

    Reaching site m - 1 folds the target through the dense block: the one
    matmul over the whole target.
    """
    l, d, r = core.shape
    if i < m:
        return env.reshape(-1, d * r) @ core.reshape(l, d * r).T
    block = (core.reshape(l * d, r) @ env).reshape(l, -1)
    return t.reshape(-1, block.shape[1]) @ block.T if i == m else block


def _projection(left: np.ndarray, right: np.ndarray, i: int, m: int, shape) -> ProjectionTensor:
    """Projection coefficients at site i from its two environments."""
    l, d, r = shape
    if i < m:
        coeffs = (left.T @ right.reshape(left.shape[0], d * r)).reshape(l, d, r)
    else:
        coeffs = (left.reshape(l * d, -1) @ right.T).reshape(l, d, r)
    flat = coeffs.reshape(-1)
    # the value np.linalg.norm computes, without its dispatch overhead
    return ProjectionTensor(coeffs=coeffs, norm=math.sqrt(flat @ flat))


def compute_projection_tensor(state: MPS, target: DenseState) -> ProjectionTensor:
    """Contract the target against the frozen isometries around the center.

    Builds both environments from the chain ends with the same steps that
    ``sweep`` carries along, reading the target once.
    """
    _check_dims(state, target)
    check_gauge(state)
    n, c, m, t = state.n, state.center, state.n // 2, target.amplitudes
    left = _left_start(m, t)
    for i in range(c):
        left = _left_env(left, state.sites[i], i, m, t)
    right = np.ones((1, 1))
    for i in range(n - 1, c, -1):
        right = _right_env(right, state.sites[i], i, m, t)
    return _projection(left, right, c, m, state.sites[c].shape)


def _closest_point(
    cores: list[np.ndarray],
    site: int,
    proj: ProjectionTensor,
    *,
    step: int,
    sweep_index: int,
    direction: str,
) -> MetricRecord:
    """Set the center ``cores[site]`` to the normalized projection and record the step."""
    if proj.norm <= STALL_EPS:
        # the state lies in the subspace, so its overlap is its center's
        # inner product with the projection coefficients
        overlap = float(np.vdot(cores[site], proj.coeffs))
        stalled = True
    else:
        cores[site] = proj.coeffs / proj.norm
        overlap = proj.norm
        stalled = False
    return MetricRecord(
        step=step,
        sweep=sweep_index,
        site=site,
        direction=direction,
        overlap=overlap,
        angle=math.acos(max(-1.0, min(1.0, overlap))),
        distance=math.sqrt(max(0.0, 2.0 - 2.0 * overlap)),
        stalled=stalled,
    )


def optimal_update(
    state: MPS,
    target: DenseState,
    *,
    step: int = 0,
    sweep_index: int = 0,
    direction: str = "R",
) -> tuple[MPS, MetricRecord]:
    """Replace the center core with the closest-point solution.

    The new center is the normalized projection tensor, so the updated
    state is the unit vector of the current subspace closest to the
    target and its overlap equals the projection norm. If the projection
    norm is at or below ``STALL_EPS`` the state is returned unchanged, the
    record is flagged as stalled and its overlap is taken from the
    projection coefficients, with no further read of the target.
    """
    proj = compute_projection_tensor(state, target)
    sites = list(state.sites)
    record = _closest_point(
        sites, state.center, proj, step=step, sweep_index=sweep_index, direction=direction
    )
    if record.stalled:
        return state, record
    return replace(state, sites=tuple(sites)), record


@dataclass(frozen=True)
class SweepCarry:
    """The right environments of ``state`` against ``target``.

    ``sweep`` returns one for the state it returns; handed back with that
    very state and target, it replaces the next sweep's opening right fold.
    """

    state: MPS
    target: DenseState
    right: tuple[np.ndarray, ...]


def sweep(
    state: MPS,
    target: DenseState,
    sweep_index: int,
    step_offset: int = 0,
    carry: SweepCarry | None = None,
) -> tuple[MPS, list[MetricRecord], SweepCarry]:
    """One full sweep of ``optimal_update`` steps over ``sweep_schedule(n)``.

    Emits 2n-1 records (1 for n=1) and returns with the center at site 0,
    together with the right environments of the returned state. The
    environments are carried from step to step (see the module docstring).
    ``carry`` is used only if its state and target are the very objects
    passed here, as ``train`` passes them; the sweep then reads the target
    twice. Otherwise it folds the right environments from the chain end
    first and reads the target three times. The whole gauge is checked
    once at the start; after that only the isometry each gauge shift
    produces can change, and it is checked right after its shift.
    """
    if state.center != 0:
        raise InputError(f"sweep requires center 0, got {state.center}")
    _check_dims(state, target)
    check_gauge(state)
    n, m, t = state.n, state.n // 2, target.amplitudes
    cores = list(state.sites)
    # left[i] / right[i]: the environments of site i (see the module docstring)
    left = [_left_start(m, t)] + [None] * (n - 1)
    if carry is not None and carry.state is state and carry.target is target:
        right = list(carry.right)
    else:
        right = [None] * (n - 1) + [np.ones((1, 1))]
        for i in range(n - 1, 0, -1):
            right[i - 1] = _right_env(right[i], cores[i], i, m, t)
    records: list[MetricRecord] = []
    for k, (site, direction) in enumerate(sweep_schedule(n)):
        if direction == "R" and site > 0:
            shift_cores(cores, site - 1, "right")
            core = cores[site - 1]
            check_isometry(left_defect(core), f" at site {site - 1}")
            left[site] = _left_env(left[site - 1], core, site - 1, m, t)
        elif direction == "L":
            shift_cores(cores, site + 1, "left")
            core = cores[site + 1]
            check_isometry(right_defect(core), f" at site {site + 1}")
            right[site] = _right_env(right[site + 1], core, site + 1, m, t)
        proj = _projection(left[site], right[site], site, m, cores[site].shape)
        records.append(_closest_point(
            cores, site, proj, step=step_offset + k, sweep_index=sweep_index,
            direction=direction,
        ))
    state = MPS(sites=tuple(cores), center=0, d=state.d)
    return state, records, SweepCarry(state=state, target=target, right=tuple(right))


def train(config: TrainConfig) -> tuple[MPS, list[MetricRecord], str]:
    """Run sweeps until the per-sweep overlap change drops below tol.

    Returns (final state, full trajectory, termination reason), where the
    reason is "converged" or "sweep-limit". Deterministic in the config.
    """
    config.validate()
    target = resolve_target(config.target, config.n, config.d)
    state = random_mps(config.n, config.d, config.chi, config.seed)
    trajectory: list[MetricRecord] = []
    reason = "sweep-limit"
    prev_last = None
    carry = None
    for k in range(config.max_sweeps):
        state, records, carry = sweep(state, target, k, len(trajectory), carry)
        trajectory.extend(records)
        last = records[-1].overlap
        if prev_last is not None and abs(last - prev_last) < config.tol:
            reason = "converged"
            break
        prev_last = last
    return state, trajectory, reason
