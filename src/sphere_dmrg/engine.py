"""Single-site sweeping engine.

Each update freezes every core except the center one. Because the frozen
cores are isometries, the states reachable by varying the center form a
linear subspace whose unit vectors are a lower-dimensional sphere; the
closest unit vector to the target is the normalized orthogonal
projection, and its coordinates are obtained by contracting the target
against the frozen cores. The engine performs that update, sweeps the
center along the chain, and records the trajectory.

The target is contracted against the frozen cores by the middle-bond fold
of ``mps`` (``left_start``, ``left_env``, ``right_env``; see that module's
docstring). A sweep carries its environments along instead of rebuilding
target-sized blocks at every update. It ends with the center at site 0 and
every right environment of its final state built, which the next sweep
reuses in place of its opening right fold. So the first sweep of a run
reads the target three times (the right fold at its start, then one
crossing in each direction) and every later sweep reads it twice.

An update whose projection norm is at or below ``STALL_EPS`` stalls: it
keeps the state and records the overlap the state already has, which lies
in the single-site subspace and so is read off the projection coefficients
without another pass over the target.

Moving the center splits the old center core into an isometry and a
gauge factor t (``mps.split_core``). The projection reads only
the two environments, not the new center core, and an update that does not
stall overwrites that core. So the sweep keeps t and multiplies it into
the new center (``mps.absorb_factor``) only when the update stalls; the
states and records are the same as with the eager walk of ``mps.gauge_to``.

Every core a shift makes is checked for isometry right after the shift
(``mps.check_isometry``). ``sweep`` checks the whole gauge
(``mps.check_gauge``) only of a state that a sweep did not return itself.
Handed back the carry of the state it returned, it skips that check: each
non-center core of that state was made, and checked, by a shift of that
sweep, and nothing wrote to it afterwards. Handing back a carry asserts
that its state's cores are unchanged, which its right environments assume
anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError
from .mps import (
    MPS,
    absorb_factor,
    check_dims,
    check_gauge,
    check_isometry,
    left_defect,
    left_env,
    left_start,
    random_mps,
    right_defect,
    right_env,
    split_core,
)
# perfbench/layers.py wraps engine.contract and engine.shift_center
from .mps import contract, shift_center  # noqa: F401
from .target import DenseState, resolve_target

#: projection norm at or below which an update stalls
STALL_EPS = 1e-14


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

    def __post_init__(self) -> None:
        for field, low in (("n", 1), ("d", 2), ("chi", 1), ("seed", 0), ("max_sweeps", 1)):
            value = getattr(self, field)
            if value < low:
                raise InputError(f"{field} must be >= {low}, got {field}={value}")
        # written so that NaN fails too
        if not self.tol > 0:
            raise InputError(f"tol must be > 0, got tol={self.tol}")


def sweep_schedule(n: int) -> list[tuple[int, str]]:
    """(site, direction) of each update in one sweep: 0..n-1 R, then n-2..0 L."""
    return [(i, "R") for i in range(n)] + [(i, "L") for i in range(n - 2, -1, -1)]


def _projection(
    left: np.ndarray, right: np.ndarray, i: int, m: int, shape
) -> tuple[np.ndarray, float]:
    """Projection coefficients at site i and their norm, from its two environments."""
    l, d, r = shape
    if i < m:
        coeffs = (left.T @ right.reshape(left.shape[0], d * r)).reshape(l, d, r)
    else:
        coeffs = (left.reshape(l * d, -1) @ right.T).reshape(l, d, r)
    flat = coeffs.reshape(-1)
    # the value np.linalg.norm computes, without its dispatch overhead
    return coeffs, math.sqrt(flat @ flat)


def compute_projection_tensor(state: MPS, target: DenseState) -> tuple[np.ndarray, float]:
    """Contract the target against the frozen isometries around the center.

    Returns the projection coefficients and their norm, the pair that
    ``_projection`` gives ``sweep``. Builds both environments from the
    chain ends with the same steps that ``sweep`` carries along, reading
    the target once.
    """
    check_dims(state, target)
    check_gauge(state)
    n, c, m, t = state.n, state.center, state.n // 2, target.amplitudes
    left = left_start(m, t)
    for i in range(c):
        left = left_env(left, state.sites[i], i, m, t)
    right = np.ones((1, 1))
    for i in range(n - 1, c, -1):
        right = right_env(right, state.sites[i], i, m, t)
    return _projection(left, right, c, m, state.sites[c].shape)


def _closest_point(
    cores: list[np.ndarray],
    site: int,
    coeffs: np.ndarray,
    norm: float,
    step: int,
    sweep_index: int,
    direction: str,
) -> MetricRecord:
    """Set the center ``cores[site]`` to the normalized projection and record the step."""
    if norm <= STALL_EPS:
        # the state lies in the subspace, so its overlap is its center's
        # inner product with the projection coefficients
        overlap = float(np.vdot(cores[site], coeffs))
        stalled = True
    else:
        cores[site] = coeffs / norm
        overlap = norm
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


def optimal_update(state: MPS, target: DenseState) -> tuple[MPS, MetricRecord]:
    """Replace the center core with the closest-point solution.

    The new center is the normalized projection tensor, so the updated
    state is the unit vector of the current subspace closest to the
    target and its overlap equals the projection norm. If the projection
    norm is at or below ``STALL_EPS`` the state is returned unchanged, the
    record is flagged as stalled and its overlap is taken from the
    projection coefficients, with no further read of the target. The
    record is numbered as step 0 of sweep 0, direction "R".
    """
    coeffs, norm = compute_projection_tensor(state, target)
    sites = list(state.sites)
    record = _closest_point(sites, state.center, coeffs, norm, 0, 0, "R")
    if record.stalled:
        return state, record
    return replace(state, sites=tuple(sites)), record


@dataclass(frozen=True)
class SweepCarry:
    """The right environments of ``state`` against ``target``.

    ``sweep`` returns one for the state it returns; handed back with that
    very state and target, it replaces the next sweep's opening right fold
    and its whole-gauge check. Handing it back asserts that the cores of
    ``state`` are unchanged since that sweep checked each one.
    """

    state: MPS
    target: DenseState
    right: tuple[np.ndarray, ...]


def sweep(
    state: MPS,
    target: DenseState,
    sweep_index: int,
    carry: SweepCarry | None = None,
) -> tuple[MPS, list[MetricRecord], SweepCarry]:
    """One full sweep of ``optimal_update`` steps over ``sweep_schedule(n)``.

    Emits 2n-1 records (1 for n=1) and returns with the center at site 0,
    together with the right environments of the returned state. Record k
    of the sweep is step ``sweep_index * (2n-1) + k`` of the run. The
    environments are carried from step to step (see the module docstring).
    ``carry`` is used only if its state and target are the very objects
    passed here, as ``train`` passes them; the sweep then reads the target
    twice and skips the whole-gauge check, because that sweep checked each
    core of the state it returned when a shift made it. Otherwise it checks
    the whole gauge, folds the right environments from the chain end and
    reads the target three times. After that only the isometry each gauge
    shift produces can change, and it is checked right after its shift. A
    shift keeps its gauge factor and applies it to the new center only when
    the update there stalls (see the module docstring).
    """
    if state.center != 0:
        raise InputError(f"sweep requires center 0, got {state.center}")
    check_dims(state, target)
    n, m, t = state.n, state.n // 2, target.amplitudes
    cores = list(state.sites)
    # left[i] / right[i]: the environments of site i (see the mps module docstring)
    left = [left_start(m, t)] + [None] * (n - 1)
    if carry is not None and carry.state is state and carry.target is target:
        # the sweep that returned state checked each of its isometries
        right = list(carry.right)
    else:
        check_gauge(state)
        right = [None] * (n - 1) + [np.ones((1, 1))]
        for i in range(n - 1, 0, -1):
            right[i - 1] = right_env(right[i], cores[i], i, m, t)
    schedule = sweep_schedule(n)
    records: list[MetricRecord] = []
    factor = None  # the gauge factor the center core is owed by the last shift
    for k, (site, direction) in enumerate(schedule, start=sweep_index * len(schedule)):
        if direction == "R" and site > 0:
            core, factor = split_core(cores[site - 1], "right")
            cores[site - 1] = core
            check_isometry(left_defect(core), site - 1)
            left[site] = left_env(left[site - 1], core, site - 1, m, t)
        elif direction == "L":
            core, factor = split_core(cores[site + 1], "left")
            cores[site + 1] = core
            check_isometry(right_defect(core), site + 1)
            right[site] = right_env(right[site + 1], core, site + 1, m, t)
        coeffs, norm = _projection(left[site], right[site], site, m, cores[site].shape)
        if norm <= STALL_EPS and factor is not None:
            side = "right" if direction == "R" else "left"
            cores[site] = absorb_factor(cores[site], factor, side)
        records.append(_closest_point(cores, site, coeffs, norm, k, sweep_index, direction))
    state = MPS(sites=tuple(cores), center=0)
    return state, records, SweepCarry(state=state, target=target, right=tuple(right))


def train(config: TrainConfig) -> tuple[MPS, list[MetricRecord], str]:
    """Run sweeps until the per-sweep overlap change drops below tol.

    Returns (final state, full trajectory, termination reason), where the
    reason is "converged" or "sweep-limit". Deterministic in the config.
    """
    target = resolve_target(config.target, config.n, config.d)
    state = random_mps(config.n, config.d, config.chi, config.seed)
    trajectory: list[MetricRecord] = []
    reason = "sweep-limit"
    prev_last = None
    carry = None
    for k in range(config.max_sweeps):
        state, records, carry = sweep(state, target, k, carry)
        trajectory.extend(records)
        last = records[-1].overlap
        if prev_last is not None and abs(last - prev_last) < config.tol:
            reason = "converged"
            break
        prev_last = last
    return state, trajectory, reason
