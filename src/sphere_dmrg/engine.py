"""Single-site sweeping engine.

Each update freezes every core except the center one. Because the frozen
cores are isometries, the states reachable by varying the center form a
linear subspace whose unit vectors are a lower-dimensional sphere; the
closest unit vector to the target is the normalized orthogonal
projection, and its coordinates are obtained by contracting the target
against the frozen cores. The engine performs that update, sweeps the
center along the chain, and records what each update measured: its
place in the run, its overlap with the target and whether it stalled.

The target is contracted against the frozen cores by the middle-bond fold
of ``mps`` (``left_start``, ``left_env``, ``right_env``; see that module's
docstring). A sweep carries its environments along instead of rebuilding
target-sized blocks at every update, and hands the next sweep the
environments around the center it ends at (``SweepCarry``). So the first
sweep of a run reads the target at most three times (the right fold at its
start, then at most one crossing in each direction) and every later sweep
at most twice; a later sweep whose window (below) does not straddle the
middle bond never reads it.

One window rule decides which rows of a sweep update. Let b >= 1 be the
first bond whose dimension is at its right cap d**(n-b) (see
``mps.bond_dims``; bond n counts as 1, so b <= n), a the last bond j >= 1
at its left cap d**j (0 if there is none) and rest = min(a, b - 1).
Updates run only at R-half sites start+1..b-1 and L-half sites b-2..rest,
where start is -1 in a fresh sweep and rest in a carried one; every other
row repeats the record before it, with its own step, site and direction.
The state a sweep returns has its center at rest.

Why the repeated rows are exact. Cores b..n-1 are square right isometries,
a square orthogonal block, so the update at R-half site b-1 moves to the
closest unit vector of S = (the isometries left of b-1) times every state
of sites b-1..n-1. Every update the schedule makes after it up to L-half
site b-1 has a subspace containing that vector and contained in S, so it
would return the same state with the same projection norm, and stall
exactly when the update at b-1 stalled. The left end mirrors this: bonds
0..a are at their left caps, so the block of cores 0..a-1 is square
orthogonal and the update at L-half site a moves to the closest unit
vector of (every state of sites 0..a) times the isometries right of a,
which L-half sites a-1..0 and, in the next sweep, R-half sites 0..a cannot
leave. A chain with a >= b - 1 spans the whole space at R-half site b-1,
so its later sweeps make no update at all. Cores b..n-1 of the returned
state are the input's own arrays and so are cores 0..rest-1 of a carried
sweep's; their environments are carried untouched.

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
(``mps.check_gauge``) only of a state that a sweep did not return itself,
and such a state must have its center at 0. Handed back the carry of the
state it returned, it skips that check: each non-center core of that state
was made, and checked, by a shift of that sweep or of the fresh sweep that
began the chain of carries, or is one of cores b..n-1, which that fresh
sweep checked with the whole gauge; no sweep since wrote to any of them.
Handing back a carry asserts that its state's cores are unchanged, which
its environments assume anyway.
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
    """One row of the training trajectory; angle and distance derive from overlap."""

    step: int
    sweep: int
    site: int
    direction: str  # "L" or "R"
    overlap: float
    stalled: bool

    @property
    def angle(self) -> float:
        """Geodesic angle to the target on the unit sphere, arccos(overlap)."""
        return math.acos(max(-1.0, min(1.0, self.overlap)))

    @property
    def distance(self) -> float:
        """Chord distance to the target, sqrt(2 - 2 overlap)."""
        return math.sqrt(max(0.0, 2.0 - 2.0 * self.overlap))


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
        # written so that NaN fails too; an infinite tol converges unchecked
        if not 0 < self.tol < math.inf:
            raise InputError(f"tol must be finite and > 0, got tol={self.tol}")


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
    n, c, m = state.n, state.center, state.n // 2
    left = left_start(m, target)
    for i in range(c):
        left = left_env(left, state.sites[i], i, m, target)
    right = np.ones((1, 1))
    for i in range(n - 1, c, -1):
        right = right_env(right, state.sites[i], i, m, target)
    return _projection(left, right, c, m, state.sites[c].shape)


def _closest_point(
    cores: list[np.ndarray], site: int, coeffs: np.ndarray, norm: float
) -> tuple[float, bool]:
    """Set ``cores[site]`` to the normalized projection; return (overlap, stalled)."""
    if norm <= STALL_EPS:
        # the state lies in the subspace, so its overlap is its center's
        # inner product with the projection coefficients
        return float(np.vdot(cores[site], coeffs)), True
    cores[site] = coeffs / norm
    return norm, False


def optimal_update(state: MPS, target: DenseState) -> tuple[MPS, float, bool]:
    """Replace the center core with the closest-point solution.

    Returns (state, overlap, stalled). The new center is the normalized
    projection tensor, so the updated state is the unit vector of the
    current subspace closest to the target and its overlap equals the
    projection norm. If the projection norm is at or below ``STALL_EPS``
    the input state object is returned, stalled is True and the overlap is
    taken from the projection coefficients, with no further read of the
    target.
    """
    coeffs, norm = compute_projection_tensor(state, target)
    sites = list(state.sites)
    overlap, stalled = _closest_point(sites, state.center, coeffs, norm)
    return (state if stalled else replace(state, sites=tuple(sites))), overlap, stalled


@dataclass(frozen=True)
class SweepCarry:
    """What a sweep leaves the next one: environments around the center, and a record.

    ``left`` holds the left environments of sites 0..c and ``right`` the
    right environments of sites c..n-1 of ``state`` against ``target``,
    with c the center; ``record`` is the sweep's last record, which the
    next sweep's R-half rows 0..c repeat. ``sweep`` returns one for the
    state it returns; handed back with that very state and target, it
    replaces the next sweep's opening right fold and its whole-gauge check.
    Handing it back asserts that the cores of ``state`` are unchanged since
    a sweep checked each one.
    """

    state: MPS
    target: DenseState
    left: tuple[np.ndarray, ...]
    right: tuple[np.ndarray, ...]
    record: MetricRecord


def sweep(
    state: MPS,
    target: DenseState,
    sweep_index: int,
    carry: SweepCarry | None = None,
) -> tuple[MPS, list[MetricRecord], SweepCarry]:
    """One full sweep of ``optimal_update`` steps over ``sweep_schedule(n)``.

    Emits 2n-1 records (1 for n=1) and returns the state with its center
    at rest, together with the carry for the next sweep. Record k of the
    sweep is step ``sweep_index * (2n-1) + k`` of the run. Updates run
    only at R-half sites start+1..b-1 and L-half sites b-2..rest (the
    window rule of the module docstring); every other row repeats the
    overlap and stall of the record before it, which is what its update
    would measure. ``carry`` is used only if its state and target are the
    very objects passed here, as ``train`` passes them: start is then rest,
    so R-half rows 0..rest repeat the carry's record, the sweep reads the
    target at most twice and it skips the whole-gauge check, because each
    core of that state was checked when it was made or taken unchanged
    from a checked input. Otherwise the state must have its center at 0
    (``InputError`` if not), start is -1, and the sweep checks the whole
    gauge, folds the right environments from the chain end and reads the
    target at most three times. After that only the isometry each gauge
    shift produces can change, and it is checked right after its shift. A
    shift keeps its gauge factor and applies it to the new center only when
    the update there stalls (see the module docstring).
    """
    own = carry is not None and carry.state is state and carry.target is target
    if not own and state.center != 0:
        raise InputError(f"sweep requires center 0, got {state.center}")
    check_dims(state, target)
    n, d, m = state.n, state.d, state.n // 2
    cores = list(state.sites)
    # a / b: the last bond at its left cap d**a, the first at its right cap
    # d**(n-b), bond n counting as 1
    a = max((j for j in range(1, n) if cores[j].shape[0] == d**j), default=0)
    b = next((j for j in range(1, n) if cores[j].shape[0] == d ** (n - j)), n)
    rest = min(a, b - 1)
    # left[i] / right[i]: the environments of site i (see the mps module docstring)
    if own:
        # the sweeps that made state checked each of its isometries
        left = list(carry.left) + [None] * (n - 1 - rest)
        right = [None] * rest + list(carry.right)
        start, last = rest, carry.record
    else:
        check_gauge(state)
        left = [left_start(m, target)] + [None] * (n - 1)
        right = [None] * (n - 1) + [np.ones((1, 1))]
        for i in range(n - 1, 0, -1):
            right[i - 1] = right_env(right[i], cores[i], i, m, target)
        start, last = -1, None
    schedule = sweep_schedule(n)
    first = sweep_index * len(schedule)
    records: list[MetricRecord] = []
    factor = None  # the gauge factor the center core is owed by the last shift
    for k, (site, direction) in enumerate(schedule, start=first):
        j = k - first
        if not (start < j < b or 2 * n - b <= j <= 2 * n - 2 - rest):
            # outside the window an update cannot move the state
            last = MetricRecord(k, sweep_index, site, direction, last.overlap, last.stalled)
            records.append(last)
            continue
        if direction == "R" and site > 0:
            core, factor = split_core(cores[site - 1], "right")
            cores[site - 1] = core
            check_isometry(left_defect(core), site - 1)
            left[site] = left_env(left[site - 1], core, site - 1, m, target)
        elif direction == "L":
            core, factor = split_core(cores[site + 1], "left")
            cores[site + 1] = core
            check_isometry(right_defect(core), site + 1)
            right[site] = right_env(right[site + 1], core, site + 1, m, target)
        coeffs, norm = _projection(left[site], right[site], site, m, cores[site].shape)
        if norm <= STALL_EPS and factor is not None:
            side = "right" if direction == "R" else "left"
            cores[site] = absorb_factor(cores[site], factor, side)
        overlap, stalled = _closest_point(cores, site, coeffs, norm)
        last = MetricRecord(k, sweep_index, site, direction, overlap, stalled)
        records.append(last)
    state = MPS(sites=tuple(cores), center=rest)
    return state, records, SweepCarry(
        state=state, target=target, left=tuple(left[:rest + 1]),
        right=tuple(right[rest:]), record=last,
    )


def train(config: TrainConfig) -> tuple[MPS, list[MetricRecord], str]:
    """Run sweeps until the per-sweep overlap change drops below tol.

    Returns (final state, full trajectory, termination reason), where the
    reason is "converged" or "sweep-limit". The final state has its center
    where the last sweep left it, at rest (see the module docstring).
    Deterministic in the config.
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
