"""Single-site sweeping engine.

Each update freezes every core except the center one. Because the frozen
cores are isometries, the states reachable by varying the center form a
linear subspace whose unit vectors are a lower-dimensional sphere; the
closest unit vector to the target is the normalized orthogonal
projection, and its coordinates are obtained by contracting the target
against the frozen cores. The engine performs that update, sweeps the
center along the chain, and records what each update measured: its
overlap with the target and whether it stalled. A record's place in the
run is its index: row k of a run is row k % (2n-1) of ``sweep_schedule(n)``
in sweep k // (2n-1).

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
where start is -1 for a carry without a record (center 0) and rest for
one with a record (center rest); every other row repeats the record
before it.
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
state are the input's own arrays and so are cores 0..rest-1 when the
carry has a record; their environments are carried untouched.

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
(``mps.check_isometry``). A sweep starts from a ``SweepCarry``: the state
and the target, the record before the sweep's first row, and the
environments around the state's center. A carry without environments, such
as ``SweepCarry(random_mps(...), target)`` or a state read back from a file,
gets one whole-gauge check (``mps.check_gauge``), and its environments are
folded from the chain ends (``_chain_end_environments``). The carry a sweep
returns holds the environments it carried, so the next sweep skips both:
each non-center core of its state was made, and checked, by a shift of
that sweep or of an earlier one, or is one of cores b..n-1, which the
first sweep checked with the whole gauge; no sweep since wrote to any of
them. A carry with environments asserts that its state's cores are
unchanged since they were checked, which the environments assume anyway.
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
    """What one update measured; angle and distance derive from overlap.

    The row's place in the run (step, sweep, site, direction) is its index
    in the trajectory and ``sweep_schedule``, not a field.
    """

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


def _chain_end_environments(
    state: MPS, target: DenseState
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The left environments of sites 0..c and the right ones of c..n-1, c the center.

    Folds the target from the chain ends, the left side first, with the
    steps that ``sweep`` carries along, so the environments equal a
    carried sweep's bit for bit given the same cores. Reads the target at
    most once: only the fold across the middle bond reads all of it.
    """
    n, c, m = state.n, state.center, state.n // 2
    left = [left_start(m, target)]
    for i in range(c):
        left.append(left_env(left[i], state.sites[i], i, m, target))
    right = [np.ones((1, 1))]
    for i in range(n - 1, c, -1):
        right.insert(0, right_env(right[0], state.sites[i], i, m, target))
    return left, right


def compute_projection_tensor(state: MPS, target: DenseState) -> tuple[np.ndarray, float]:
    """Contract the target against the frozen isometries around the center.

    Returns the projection coefficients and their norm, the pair that
    ``_projection`` gives ``sweep``, from the environments of
    ``_chain_end_environments``.
    """
    check_dims(state, target)
    check_gauge(state)
    left, right = _chain_end_environments(state, target)
    return _projection(
        left[-1], right[0], state.center, state.n // 2, state.sites[state.center].shape
    )


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
    """What a sweep starts from: a state, its target, a record and the environments.

    ``record`` is the record before the sweep's first row, ``None`` for
    the first sweep of a run. A sweep with a record starts at rest and its
    R-half rows 0..rest repeat that record; without one it starts at
    center 0. ``left`` holds the left environments of sites 0..c and
    ``right`` the right environments of sites c..n-1 of ``state`` against
    ``target``, with c the center, or both are ``None``: the sweep then
    checks the whole gauge once and folds them from the chain ends.
    ``sweep`` returns a carry with both, for the state it returns.
    """

    state: MPS
    target: DenseState
    record: MetricRecord | None = None
    left: tuple[np.ndarray, ...] | None = None
    right: tuple[np.ndarray, ...] | None = None


def sweep(carry: SweepCarry) -> tuple[list[MetricRecord], SweepCarry]:
    """One full sweep of ``optimal_update`` steps over ``sweep_schedule(n)``.

    Emits 2n-1 records (1 for n=1), record j for row j of the schedule,
    and returns them with the carry for the next sweep, whose state has
    its center at rest. Updates run only at R-half sites start+1..b-1 and
    L-half sites b-2..rest (the window rule of the module docstring);
    every other row repeats the record before it, which is what its
    update would measure.
    Without a record in ``carry``, start is -1 and the state must have its
    center at 0; with one, start is rest, the center must be at rest and
    R-half rows 0..rest repeat that record. Any other center is an
    ``InputError``. A carry without environments gets one whole-gauge
    check and the fold from the chain ends, so that sweep reads the target
    at most three times; a carry with them, such as the one a sweep
    returns, skips both, and the sweep reads the target at most twice.
    After that only the isometry each gauge shift produces can change, and
    it is checked right after its shift. A shift keeps its gauge factor
    and applies it to the new center only when the update there stalls
    (see the module docstring).
    """
    state, target, last = carry.state, carry.target, carry.record
    check_dims(state, target)
    n, d, m = state.n, state.d, state.n // 2
    cores = list(state.sites)
    # a / b: the last bond at its left cap d**a, the first at its right cap
    # d**(n-b), bond n counting as 1
    a = max((j for j in range(1, n) if cores[j].shape[0] == d**j), default=0)
    b = next((j for j in range(1, n) if cores[j].shape[0] == d ** (n - j)), n)
    rest = min(a, b - 1)
    start = -1 if last is None else rest
    if state.center != max(start, 0):
        raise InputError(f"sweep requires center {max(start, 0)}, got {state.center}")
    if carry.left is None:
        check_gauge(state)
        left, right = _chain_end_environments(state, target)
    else:
        # the sweeps that made state checked each of its isometries
        left, right = list(carry.left), list(carry.right)
    # left[i] / right[i]: the environments of site i (see the mps module docstring)
    left += [None] * (n - len(left))
    right = [None] * (n - len(right)) + right
    records: list[MetricRecord] = []
    factor = None  # the gauge factor the center core is owed by the last shift
    for j, (site, direction) in enumerate(sweep_schedule(n)):
        if not (start < j < b or 2 * n - b <= j <= 2 * n - 2 - rest):
            # outside the window an update cannot move the state
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
        last = MetricRecord(overlap, stalled)
        records.append(last)
    state = MPS(sites=tuple(cores), center=rest)
    return records, SweepCarry(state, target, last, tuple(left[:rest + 1]), tuple(right[rest:]))


def train(config: TrainConfig) -> tuple[MPS, list[MetricRecord], str]:
    """Run sweeps until the per-sweep overlap change drops below tol.

    Returns (final state, full trajectory, termination reason), where the
    reason is "converged" or "sweep-limit". The first sweep starts from a
    carry of the seeded random state alone; the final state is the last
    carry's, with its center where the last sweep left it, at rest (see
    the module docstring). Deterministic in the config.
    """
    target = resolve_target(config.target, config.n, config.d)
    carry = SweepCarry(random_mps(config.n, config.d, config.chi, config.seed), target)
    trajectory: list[MetricRecord] = []
    reason = "sweep-limit"
    prev_last = None
    for _ in range(config.max_sweeps):
        records, carry = sweep(carry)
        trajectory.extend(records)
        last = records[-1].overlap
        if prev_last is not None and abs(last - prev_last) < config.tol:
            reason = "converged"
            break
        prev_last = last
    return carry.state, trajectory, reason
