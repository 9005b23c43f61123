import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from sphere_dmrg import engine, mps
from sphere_dmrg.engine import (
    STALL_EPS,
    MetricRecord,
    SweepCarry,
    TrainConfig,
    compute_projection_tensor,
    optimal_update,
    sweep,
    sweep_schedule,
    train,
)
from sphere_dmrg.errors import GaugeError, InputError
from sphere_dmrg.mps import MPS, dense_amplitudes, gauge_to, overlap_dense, random_mps
from sphere_dmrg.oracle import project_onto_subspace_dense, subspace_basis_dense
from sphere_dmrg.target import DenseState, named_state


def fixed_site1_mps():
    """n=2 MPS, center 0, with site 1 pinned to the basis state e0."""
    a0 = np.zeros((1, 2, 1))
    a0[0, 0, 0] = 1.0
    a1 = np.zeros((1, 2, 1))
    a1[0, 0, 0] = 1.0
    return MPS(sites=(a0, a1), center=0)


def saturated_bond(state):
    """The smallest b >= 1 from which every core is square as an (l, d*r) matrix.

    Cores b..n-1 then form a square orthogonal block, so bond b sits at its
    right cap d**(n-b); b = n when the last core is not square.
    """
    shapes = [core.shape for core in state.sites]
    return next(
        b for b in range(1, state.n + 1) if all(l == d * r for l, d, r in shapes[b:])
    )


def left_cap(state):
    """The largest a >= 0 before which every core is square as an (l*d, r) matrix.

    Bonds 0..a are then at their left caps d**j, so cores 0..a-1 form a
    square orthogonal block once they are left isometries; a = 0 when core
    0 is not square, as with chi < d.
    """
    shapes = [core.shape for core in state.sites]
    return next(a for a in range(state.n, -1, -1) if all(l * d == r for l, d, r in shapes[:a]))


def rest_site(state):
    """Where a sweep leaves the center: min(a, b - 1)."""
    return min(left_cap(state), saturated_bond(state) - 1)


def updated_rows(state, carried):
    """(site, direction) of each update one sweep of ``state`` makes.

    R-half sites start+1..b-1, then L-half sites b-2..rest, where start is
    rest for a sweep whose carry has a record and -1 for one without;
    every other row of the schedule repeats the record before it.
    """
    b, rest = saturated_bond(state), rest_site(state)
    start = rest if carried else -1
    return [(i, "R") for i in range(start + 1, b)] + [(i, "L") for i in range(b - 2, rest - 1, -1)]


class TestComputeProjectionTensor:
    def test_single_site_whole_space(self):
        state = random_mps(1, 2, 3, seed=0)
        target = named_state("random:1", 1, 2)
        coeffs, norm = compute_projection_tensor(state, target)
        np.testing.assert_allclose(
            coeffs, target.amplitudes.reshape(1, 2, 1), atol=1e-15
        )
        assert abs(norm - 1.0) < 1e-12

    def test_orthogonal_target_zero_coeffs(self):
        state = fixed_site1_mps()
        target = named_state("basis:1", 2, 2)  # the state |01>
        coeffs, norm = compute_projection_tensor(state, target)
        np.testing.assert_array_equal(coeffs, np.zeros((1, 2, 1)))
        assert norm == 0.0

    def test_matches_dense_basis_oracle(self):
        for seed in range(5):
            state = gauge_to(random_mps(4, 2, 2, seed=seed), seed % 4)
            target = named_state(f"random:{seed + 100}", 4, 2)
            coeffs, norm = compute_projection_tensor(state, target)
            basis = subspace_basis_dense(state)
            expected = basis @ target.amplitudes
            np.testing.assert_allclose(coeffs.reshape(-1), expected, atol=1e-12)
            assert abs(norm - np.linalg.norm(expected)) < 1e-12

    def test_gauge_violation_refused(self):
        state = random_mps(4, 2, 2, seed=1)
        sites = list(state.sites)
        sites[3] = sites[3] * 2.0
        broken = dataclasses.replace(state, sites=tuple(sites))
        with pytest.raises(GaugeError):
            compute_projection_tensor(broken, named_state("uniform", 4, 2))

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            compute_projection_tensor(
                random_mps(3, 2, 2, seed=0), named_state("uniform", 4, 2)
            )


class TestOptimalUpdate:
    def test_single_site_reaches_target(self):
        state = random_mps(1, 2, 3, seed=2)
        target = named_state("random:3", 1, 2)
        new_state, overlap, stalled = optimal_update(state, target)
        np.testing.assert_allclose(
            dense_amplitudes(new_state), target.amplitudes, atol=1e-14
        )
        assert abs(overlap - 1.0) < 1e-12
        assert not stalled

    def test_stall_keeps_state_bitwise(self):
        state = fixed_site1_mps()
        target = named_state("basis:1", 2, 2)
        new_state, overlap, stalled = optimal_update(state, target)
        assert stalled
        assert new_state is state
        assert abs(overlap) < 1e-14

    def test_stalled_overlap_equals_dense_overlap(self):
        # |00> sees the target only through its 1e-15 amplitude on |00>,
        # a projection norm below STALL_EPS
        state = fixed_site1_mps()
        amps = np.array([1e-15, math.sqrt(1 - 1e-30), 0.0, 0.0])
        target = DenseState(n=2, d=2, amplitudes=amps)
        assert compute_projection_tensor(state, target)[1] <= STALL_EPS
        _, overlap, stalled = optimal_update(state, target)
        assert stalled
        assert math.isclose(overlap, 1e-15, rel_tol=1e-9)
        assert abs(overlap - overlap_dense(state, target)) <= 1e-15

    def test_matches_normalized_dense_projection(self):
        for seed in range(5):
            state = gauge_to(random_mps(3, 2, 2, seed=seed), 1)
            target = named_state(f"random:{seed + 200}", 3, 2)
            basis = subspace_basis_dense(state)
            proj, norm = project_onto_subspace_dense(target, basis)
            new_state, overlap, _ = optimal_update(state, target)
            np.testing.assert_allclose(
                dense_amplitudes(new_state), proj / norm, atol=1e-10
            )
            assert abs(overlap - norm) < 1e-12

    def test_no_sampled_candidate_beats_update(self):
        state = gauge_to(random_mps(4, 2, 2, seed=11), 2)
        target = named_state("random:12", 4, 2)
        basis = subspace_basis_dense(state)
        _, overlap, _ = optimal_update(state, target)
        rng = np.random.default_rng(99)
        coeffs = rng.standard_normal((1000, len(basis)))
        coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
        candidates = coeffs @ basis
        overlaps = candidates @ target.amplitudes
        assert np.max(overlaps) <= overlap + 1e-12

    def test_record_consistency(self):
        state = gauge_to(random_mps(4, 2, 2, seed=21), 1)
        target = named_state("random:22", 4, 2)
        _, overlap, stalled = optimal_update(state, target)
        rec = MetricRecord(overlap, stalled)
        assert -1.0 - 1e-12 <= rec.overlap <= 1.0 + 1e-12
        assert abs(rec.distance**2 + 2 * rec.overlap - 2.0) < 1e-12
        assert abs(rec.angle - math.acos(min(1.0, max(-1.0, rec.overlap)))) < 1e-15
        assert abs(rec.distance - 2 * math.sin(rec.angle / 2)) < 1e-10

    @pytest.mark.parametrize("overlap, angle, distance", [
        (1.0 + 2**-52, 0.0, 0.0),  # both clamps act
        (-1.0 - 2**-52, math.pi, 2.0),  # 4 + 2**-51 rounds to 4
        (1.0, 0.0, 0.0),
        (0.0, math.pi / 2, math.sqrt(2.0)),
    ])
    def test_record_derives_angle_and_distance(self, overlap, angle, distance):
        rec = MetricRecord(overlap, False)
        assert (rec.angle, rec.distance) == (angle, distance)

    def test_record_stores_only_what_the_update_measured(self):
        names = [f.name for f in dataclasses.fields(MetricRecord)]
        assert names == ["overlap", "stalled"]

    def test_invariants_after_update(self):
        from sphere_dmrg.mps import gauge_defect

        state = gauge_to(random_mps(5, 2, 4, seed=31), 3)
        target = named_state("random:32", 5, 2)
        new_state, _, _ = optimal_update(state, target)
        assert gauge_defect(new_state) < 1e-10
        assert abs(np.linalg.norm(dense_amplitudes(new_state)) - 1.0) < 1e-10


class TestSweep:
    def test_fixed_point(self):
        state = random_mps(4, 2, 2, seed=41)
        target = DenseState(4, 2, dense_amplitudes(state))
        before = target.amplitudes
        records, carry = sweep(SweepCarry(state, target))
        for rec in records:
            assert abs(rec.overlap - 1.0) < 1e-10
        assert np.linalg.norm(dense_amplitudes(carry.state) - before) < 1e-10

    def test_schedule_and_record_count(self):
        state = random_mps(4, 2, 2, seed=42)
        target = named_state("random:43", 4, 2)
        records, _ = sweep(SweepCarry(state, target))
        assert len(records) == len(sweep_schedule(4)) == 7

    def test_single_site_chain(self):
        state = random_mps(1, 2, 1, seed=1)
        target = named_state("random:2", 1, 2)
        records, _ = sweep(SweepCarry(state, target))
        assert len(records) == 1

    def test_requires_center_zero(self):
        state = gauge_to(random_mps(3, 2, 2, seed=0), 1)
        with pytest.raises(InputError, match=r"^sweep requires center 0, got 1$"):
            sweep(SweepCarry(state, named_state("uniform", 3, 2)))

    def test_monotone_overlap(self):
        for seed in range(5):
            state = random_mps(5, 2, 2, seed=seed)
            target = named_state(f"random:{seed + 300}", 5, 2)
            records, _ = sweep(SweepCarry(state, target))
            for a, b in zip(records, records[1:]):
                if not (a.stalled or b.stalled):
                    assert b.overlap >= a.overlap - 1e-12


class TestSweepFold:
    """``sweep`` carries its environments; it must agree with from-scratch updates."""

    def test_schedule(self):
        assert sweep_schedule(1) == [(0, "R")]
        assert sweep_schedule(3) == [(0, "R"), (1, "R"), (2, "R"), (1, "L"), (0, "L")]

    def test_matches_update_replay(self):
        """Updated rows match ``optimal_update``; a repeated row is what its update measures."""
        for n, d, chi in itertools.product(range(1, 10), (2, 3), (1, 2, 3, 16)):
            start = random_mps(n, d, chi, seed=n + chi)
            target = named_state(f"random:{100 + n}", n, d)
            state, replay, carry, prev = start, start, SweepCarry(start, target), None
            schedule = sweep_schedule(n)
            for k in range(2):
                updated = updated_rows(state, carried=k > 0)
                records, carry = sweep(carry)
                state = carry.state
                assert len(records) == len(schedule)
                for rec, (site, direction) in zip(records, schedule):
                    moved, overlap, stalled = optimal_update(gauge_to(replay, site), target)
                    assert rec.stalled == stalled, (n, d, chi, rec)
                    assert abs(rec.overlap - overlap) < 1e-12, (n, d, chi, rec)
                    if (site, direction) in updated:
                        replay = moved
                    else:
                        assert (rec.overlap, rec.stalled) == (prev.overlap, prev.stalled)
                        np.testing.assert_allclose(
                            dense_amplitudes(moved), dense_amplitudes(replay), atol=1e-10,
                        )
                    prev = rec
                assert state.center == replay.center == rest_site(start), (n, d, chi)
            np.testing.assert_allclose(
                dense_amplitudes(state), dense_amplitudes(replay),
                atol=1e-12,
            )

    @staticmethod
    def sweep_traced(state, target):
        """``sweep``'s records and the peak bytes it allocates."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            records, _ = sweep(SweepCarry(state, target))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return records, peak - base

    def test_working_set_below_half_the_target(self):
        n, chi = 18, 8
        state = random_mps(n, 2, chi, seed=5)
        target = named_state("random:6", n, 2)
        _, peak = self.sweep_traced(state, target)
        assert peak < target.amplitudes.nbytes / 2

    def test_stalled_sweep_working_set_below_half_the_target(self):
        # |0...0> against a basis state with sites 0 and 1 set: every
        # single-site subspace is orthogonal to the target, so every step stalls
        n = 18
        zero = np.zeros((1, 2, 1))
        zero[0, 0, 0] = 1.0
        state = MPS(sites=(zero,) * n, center=0)
        target = named_state(f"basis:{3 << (n - 2)}", n, 2)
        records, peak = self.sweep_traced(state, target)
        assert all(rec.stalled and rec.overlap == 0.0 for rec in records)
        assert peak < target.amplitudes.nbytes / 2

    def test_gauge_violation_refused(self):
        state = random_mps(4, 2, 2, seed=1)
        sites = list(state.sites)
        sites[2] = sites[2] * 2.0
        broken = dataclasses.replace(state, sites=tuple(sites))
        with pytest.raises(GaugeError):
            sweep(SweepCarry(broken, named_state("uniform", 4, 2)))

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            sweep(SweepCarry(random_mps(3, 2, 2, seed=0), named_state("uniform", 4, 2)))


class TestSweepGaugeFactor:
    """A shift keeps its gauge factor and applies it only when the next update stalls."""

    @pytest.mark.parametrize("n, d, chi", [
        (4, 2, 2), (6, 2, 4), (7, 3, 5), (10, 2, 16), (9, 2, 3), (12, 2, 16), (5, 3, 9),
    ])
    def test_stalls_match_update_replay_bitwise(self, monkeypatch, n, d, chi):
        target = named_state(f"random:{100 + n}", n, d)
        schedule = sweep_schedule(n)
        mid_sweep_stalls = 0
        for eps in (1e-14, 0.1, 0.3, 0.6):
            # a share of the updates stall, most of them after a shift whose
            # factor is not the identity
            monkeypatch.setattr(engine, "STALL_EPS", eps)
            state = replay = random_mps(n, d, chi, seed=n + chi)
            carry = SweepCarry(state, target)
            for k in range(2):
                updated = updated_rows(state, carried=k > 0)
                records, carry = sweep(carry)
                state = carry.state
                assert len(records) == len(schedule)
                for j, (rec, row) in enumerate(zip(records, schedule)):
                    if row not in updated:
                        # the replay stays put and the row repeats the one before
                        prev = records[j - 1] if j else last
                        assert (rec.overlap, rec.stalled) == (prev.overlap, prev.stalled), (
                            eps, rec,
                        )
                        continue
                    replay, overlap, stalled = optimal_update(gauge_to(replay, row[0]), target)
                    assert (rec.overlap, rec.stalled) == (overlap, stalled), (
                        eps, rec,
                    )
                    mid_sweep_stalls += rec.stalled and j > 0
                last = records[-1]
                assert replay.center == state.center == rest_site(state)
                assert [c.tobytes() for c in state.sites] == [
                    c.tobytes() for c in replay.sites
                ], (eps, k)
        assert mid_sweep_stalls > 0

    @staticmethod
    def wrap_qr(monkeypatch, doubled_from=math.inf):
        """Count calls of the wrapped QR lookup; from call ``doubled_from`` on, return 2 q."""
        calls = []
        qr = mps.qr_orthonormalize

        def wrapped(m):
            calls.append(None)
            q, t = qr(m)
            return (2.0 * q if len(calls) >= doubled_from else q), t

        monkeypatch.setattr(mps, "qr_orthonormalize", wrapped)
        return calls

    @staticmethod
    def non_square_shifts(state, carried):
        """Shifts of one sweep out of a core whose matrix is not square.

        The shift before each update of ``updated_rows`` but the first of a
        sweep without a record: an R-half update at site i shifts out of site
        i-1, read as an (l*d, r) matrix, an L-half one out of site i+1, read
        as (l, d*r).
        Shifts keep the core shapes, so the state's shapes decide every shift.
        """
        shapes = [core.shape for core in state.sites]
        return sum(
            l * d != r if direction == "R" else l != d * r
            for i, direction in updated_rows(state, carried) if (i, direction) != (0, "R")
            for l, d, r in [shapes[i - 1] if direction == "R" else shapes[i + 1]]
        )

    @pytest.mark.parametrize(
        "n, d, chi",
        [(1, 2, 3), (2, 2, 3), (5, 2, 3), (9, 2, 3), (12, 2, 16), (7, 3, 5), (6, 3, 2),
         (4, 2, 4), (5, 2, 4)],
    )
    def test_one_qr_per_non_square_shift_none_per_square_one(self, monkeypatch, n, d, chi):
        state = random_mps(n, d, chi, seed=n)
        target = named_state(f"random:{n + 1}", n, d)
        if chi < d:
            # every bond is chi < d, so no core's matrix is square; a
            # carried sweep repeats R-half site 0 and still shifts out of it
            assert self.non_square_shifts(state, carried=False) == 2 * n - 2
            assert self.non_square_shifts(state, carried=True) == 2 * n - 2
        if (n, chi) == (12, 16):
            # rest = 4, b = 8: a carried sweep shifts out of 4..6 and 7..5
            assert self.non_square_shifts(state, carried=True) == 6
        calls = self.wrap_qr(monkeypatch)
        carry = SweepCarry(state, target)
        for k in range(3):
            expected = self.non_square_shifts(carry.state, carried=k > 0)
            calls.clear()
            _, carry = sweep(carry)
            assert len(calls) == expected, k

    def test_failed_right_shift_names_its_site(self, monkeypatch):
        state = random_mps(4, 2, 2, seed=3)
        target = named_state("random:4", 4, 2)
        # the core at site 0 is (1, 2, 2), square; the first QR leaves site 1
        self.wrap_qr(monkeypatch, doubled_from=1)
        with pytest.raises(GaugeError, match=r"^isometry defect \S+ at site 1 exceeds 1e-08$"):
            sweep(SweepCarry(state, target))

    def test_failed_left_shift_names_its_site(self, monkeypatch):
        # (n, chi) = (4, 2) ends the R half after one QR (site 1), and so
        # does (6, 4), whose sites 0 and 1 are square
        for n, chi, r_half_qrs in ((4, 2, 1), (6, 4, 1)):
            target = named_state("random:4", n, 2)
            state = random_mps(n, 2, chi, seed=3)
            b = saturated_bond(state)
            assert rest_site(state) < b - 1
            shapes = [core.shape for core in state.sites]
            assert sum(l * d != r for l, d, r in shapes[:b - 1]) == r_half_qrs
            # the L half's first shift leaves the R half's last center, site
            # b-1, whose core is not square, so it makes the next QR
            l, d, r = shapes[b - 1]
            assert l != d * r
            self.wrap_qr(monkeypatch, doubled_from=r_half_qrs + 1)
            message = rf"^isometry defect \S+ at site {b - 1} exceeds 1e-08$"
            with pytest.raises(GaugeError, match=message):
                sweep(SweepCarry(state, target))
            monkeypatch.undo()


def assert_same_sweep(a, b):
    """Two ``sweep`` results have bit-equal records and final cores."""
    (records_a, carry_a), (records_b, carry_b) = a, b
    assert records_a == records_b
    assert [c.tobytes() for c in carry_a.state.sites] == [
        c.tobytes() for c in carry_b.state.sites
    ]


class TestSweepCarry:
    """``sweep`` reuses the environments and the last record of the carry it returned."""

    GRID = list(itertools.product(range(1, 10), (2, 3), (1, 2, 3, 16)))

    @staticmethod
    def environments(state, target):
        """The left environments of sites 0..c and right ones of c..n-1, built from the ends."""
        n, c, m = state.n, state.center, state.n // 2
        left = [mps.left_start(m, target)]
        for i in range(c):
            left.append(mps.left_env(left[-1], state.sites[i], i, m, target))
        right = [np.ones((1, 1))]
        for i in range(n - 1, c, -1):
            right.insert(0, mps.right_env(right[0], state.sites[i], i, m, target))
        return left, right

    def test_carried_sweep_matches_fresh(self):
        for n, d, chi in self.GRID:
            target = named_state(f"random:{100 + n}", n, d)
            first = sweep(SweepCarry(random_mps(n, d, chi, seed=n + chi), target))
            state = first[1].state
            carried = sweep(first[1])
            for _, new_carry in (first, carried):
                # each carry holds the environments of its own state, bit for bit
                left, right = self.environments(new_carry.state, target)
                assert [e.tobytes() for e in new_carry.left] == [e.tobytes() for e in left]
                assert [e.tobytes() for e in new_carry.right] == [e.tobytes() for e in right]
            if state.center == 0:
                # rest = 0: R-half site 0 has the environments of the last
                # update, so repeating its record is what a sweep without
                # a record computes
                assert_same_sweep(carried, sweep(SweepCarry(state, target)))
            else:
                # a sweep without a record of the same vector walks back to
                # 0 and updates R-half sites 0..rest again, with other rounding
                fresh = sweep(SweepCarry(gauge_to(state, 0), target))
                assert len(carried[0]) == len(fresh[0])
                for a, b in zip(carried[0], fresh[0]):
                    assert a.stalled == b.stalled, (n, d, chi)
                    assert abs(a.overlap - b.overlap) < 1e-12, (n, d, chi)

    def test_state_and_record_alone_sweep_as_the_carry_does(self):
        """A returned state and its last record, without environments, resume bit for bit.

        The environments folded from the chain ends equal the carried ones
        (``test_carried_sweep_matches_fresh``), so the resumed sweep makes
        the carried sweep's every product; it adds one whole-gauge check.
        """
        for n, d, chi in self.GRID:
            target = named_state(f"random:{100 + n}", n, d)
            _, carry = sweep(SweepCarry(random_mps(n, d, chi, seed=n + chi), target))
            state, rest = carry.state, carry.state.center
            resumed = sweep(SweepCarry(state, target, carry.record))
            carried = sweep(carry)
            assert_same_sweep(resumed, carried)
            for a, b in ((resumed[1].left, carried[1].left), (resumed[1].right, carried[1].right)):
                assert [e.tobytes() for e in a] == [e.tobytes() for e in b], (n, d, chi)
            if n > 1:
                # with a record the center must be at rest
                other = 0 if rest else 1
                message = rf"^sweep requires center {rest}, got {other}$"
                with pytest.raises(InputError, match=message):
                    sweep(SweepCarry(gauge_to(state, other), target, carry.record))

    @staticmethod
    def count_crossings(monkeypatch):
        """Middle-bond crossings per ``engine.sweep`` call, one list entry per sweep.

        A crossing is one call of the target's row or column fold, the two
        products that read the whole target.
        """
        crossings = []
        row_fold, column_fold, sweep_fn = (
            DenseState.row_fold, DenseState.column_fold, engine.sweep,
        )

        def counted_row_fold(self, block):
            crossings[-1] += 1
            return row_fold(self, block)

        def counted_column_fold(self, block):
            crossings[-1] += 1
            return column_fold(self, block)

        def counted_sweep(*args, **kwargs):
            crossings.append(0)
            return sweep_fn(*args, **kwargs)

        monkeypatch.setattr(DenseState, "row_fold", counted_row_fold)
        monkeypatch.setattr(DenseState, "column_fold", counted_column_fold)
        monkeypatch.setattr(engine, "sweep", counted_sweep)
        return crossings

    def test_train_reads_the_target_twice_per_later_sweep(self, monkeypatch):
        """Crossing the middle bond is the one step that reads the whole target."""
        crossings = self.count_crossings(monkeypatch)
        for n in (3, 5, 8):
            crossings.clear()
            train(TrainConfig(n=n, chi=1, seed=1, target="named:random:3",
                              max_sweeps=4, tol=1e-30))
            assert crossings == [3, 2, 2, 2], n

    @pytest.mark.parametrize("n, chi, expected", [
        (4, 4, [1, 0, 0, 0]),  # b = 2 = n // 2
        (6, 8, [1, 0, 0, 0]),  # b = 3 = n // 2
        (5, 4, [2, 0, 0, 0]),  # b = 3 > n // 2, but a = 2 >= b - 1
        (8, 4, [3, 2, 2, 2]),  # a = 2 < n // 2 < b = 6
    ])
    def test_saturated_middle_bond_is_crossed_only_by_the_opening_fold(
        self, monkeypatch, n, chi, expected
    ):
        """A later sweep crosses the middle bond m only if rest < m <= b - 1.

        With b <= n // 2 neither half-sweep shifts across it; a chain with
        a >= b - 1 makes no update after its first sweep.
        """
        target = named_state("random:3", n, 2)
        carry = SweepCarry(random_mps(n, 2, chi, seed=1), target)
        crossings = self.count_crossings(monkeypatch)
        for _ in range(4):
            _, carry = engine.sweep(carry)
        assert crossings == expected


class TestSaturatedTail:
    """Past the first bond b at its right cap, a sweep repeats its update at R-half site b-1."""

    @pytest.mark.parametrize("n, d, chi", [
        (2, 2, 2), (4, 2, 4), (6, 2, 8), (7, 3, 9), (12, 2, 16), (5, 3, 9),
    ])
    @pytest.mark.parametrize("eps", [STALL_EPS, 1.1])
    def test_repeated_rows_copy_r_half_site_b_minus_1(self, monkeypatch, n, d, chi, eps):
        # no projection norm exceeds 1, so eps = 1.1 stalls every update
        monkeypatch.setattr(engine, "STALL_EPS", eps)
        state = random_mps(n, d, chi, seed=n)
        target = named_state(f"random:{n + 1}", n, d)
        b = saturated_bond(state)
        assert b < n
        records, _ = sweep(SweepCarry(state, target))
        assert len(records) == 2 * n - 1
        # row b-1 of the schedule is R-half site b-1
        assert sweep_schedule(n)[b - 1] == (b - 1, "R")
        source = records[b - 1]
        assert source.stalled == (eps > 1)
        repeated = records[b:2 * n - b]
        assert len(repeated) == 2 * (n - b)
        for rec in repeated:
            assert (rec.overlap, rec.stalled) == (source.overlap, source.stalled)

    @pytest.mark.parametrize("n, d, chi", [
        (1, 2, 1), (3, 2, 1), (8, 2, 1), (5, 3, 2), (4, 2, 4), (6, 2, 8), (7, 3, 9), (9, 2, 16),
        (5, 2, 4), (3, 3, 9), (1, 3, 2), (4, 3, 1), (12, 2, 16),
    ])
    def test_one_projection_per_update_made(self, monkeypatch, n, d, chi):
        """Projections at 0..b-1 R and b-2..rest L without a record, from rest+1 with one.

        So a later sweep makes 2(b-1-rest) projections: none on a chain
        with a >= b - 1, such as (5, 2, 4) and (6, 2, 8); chi < d gives
        b = n and rest = 0, so only its R-half site 0 repeats.
        """
        state = random_mps(n, d, chi, seed=n)
        target = named_state(f"random:{n + 1}", n, d)
        b, rest = saturated_bond(state), rest_site(state)
        if chi < d:
            assert (b, rest) == (n, 0)
        if (n, chi) == (12, 16):
            assert (b, rest) == (8, 4)
        sites = []
        projection = engine._projection

        def recorded(left, right, i, m, shape):
            sites.append(i)
            return projection(left, right, i, m, shape)

        monkeypatch.setattr(engine, "_projection", recorded)
        _, carry = sweep(SweepCarry(state, target))
        assert sites == list(range(b)) + list(range(b - 2, rest - 1, -1))
        for _ in range(2):
            sites.clear()
            _, carry = sweep(carry)
            assert sites == list(range(rest + 1, b)) + list(range(b - 2, rest - 1, -1))
            assert len(sites) == 2 * (b - 1 - rest)


class TestSaturatedLeftEnd:
    """Below rest = min(a, b-1), a the last bond at its left cap, no update can move the state."""

    @pytest.mark.parametrize("n, d, chi", [
        (1, 2, 1), (1, 3, 2), (5, 2, 1), (4, 3, 2), (6, 2, 4), (12, 2, 16), (7, 3, 9),
        (5, 2, 4), (6, 2, 8), (3, 3, 9),
    ])
    @pytest.mark.parametrize("eps", [STALL_EPS, 1.1])
    def test_repeated_rows_copy_the_record_before(self, monkeypatch, n, d, chi, eps):
        # no projection norm exceeds 1, so eps = 1.1 stalls every update
        monkeypatch.setattr(engine, "STALL_EPS", eps)
        state = random_mps(n, d, chi, seed=n)
        target = named_state(f"random:{n + 1}", n, d)
        rest = rest_site(state)
        records, carry = sweep(SweepCarry(state, target))
        # L-half rows rest-1..0 of a first sweep repeat the row of L-half site rest
        assert sweep_schedule(n)[2 * n - 2 - rest][0] == rest
        source = records[2 * n - 2 - rest]
        assert source.stalled == (eps > 1)
        for rec in records[2 * n - 1 - rest:]:
            assert (rec.overlap, rec.stalled) == (source.overlap, source.stalled)
        assert carry.record == records[-1] and carry.state.center == rest
        # R-half rows 0..rest of a carried sweep repeat the carry's record
        assert sweep_schedule(n)[:rest + 1] == [(i, "R") for i in range(rest + 1)]
        for _ in range(2):
            before = records[-1]
            records, carry = sweep(carry)
            assert len(records) == 2 * n - 1
            for rec in records[:rest + 1]:
                assert (rec.overlap, rec.stalled) == (before.overlap, before.stalled)
            assert carry.state.center == rest


class TestSweepGaugeCheck:
    """The whole gauge is checked for every carry without environments."""

    @staticmethod
    def count_gauge_checks(monkeypatch):
        calls = []
        check_gauge = engine.check_gauge

        def counted(state):
            calls.append(state)
            return check_gauge(state)

        monkeypatch.setattr(engine, "check_gauge", counted)
        return calls

    def test_train_checks_the_whole_gauge_once(self, monkeypatch):
        calls = self.count_gauge_checks(monkeypatch)
        n = 5
        _, trajectory, _ = train(TrainConfig(n=n, chi=2, seed=1, target="named:random:3",
                                             max_sweeps=4, tol=1e-30))
        assert len(trajectory) == 4 * (2 * n - 1)
        assert len(calls) == 1

    def test_only_the_own_carry_skips_the_check(self, monkeypatch):
        """A carry without environments is checked once, a returned one never."""
        n, d, chi = 6, 2, 2
        target = named_state("random:7", n, d)
        start = random_mps(n, d, chi, seed=1)
        _, carry = sweep(SweepCarry(start, target))
        state = carry.state
        assert state.center == rest_site(state) == 1
        calls = self.count_gauge_checks(monkeypatch)
        # None: refused, as a state at center 1 without a record
        cases = [
            ("center 1, no record", SweepCarry(state, target), None),
            ("center 0, no record", SweepCarry(start, target), 1),
            ("center rest, the last record", SweepCarry(state, target, carry.record), 1),
            ("returned carry", carry, 0),
        ]
        for name, first, expected in cases:
            calls.clear()
            if expected is None:
                with pytest.raises(InputError, match="sweep requires center 0"):
                    sweep(first)
                expected = 0
            else:
                sweep(first)
            assert len(calls) == expected, name

    @pytest.mark.parametrize("site", [1, 3, 5])
    def test_changed_core_with_the_old_carry_refused(self, site):
        """A changed core comes to a sweep in a carry without environments, which is checked."""
        n = 6
        target = named_state("random:7", n, 2)
        _, carry = sweep(SweepCarry(random_mps(n, 2, 2, seed=1), target))
        sites = list(carry.state.sites)
        sites[site] = sites[site] * 2.0
        broken = MPS(sites=tuple(sites), center=0)
        with pytest.raises(GaugeError):
            sweep(SweepCarry(broken, target))

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    @pytest.mark.parametrize("chi", [1, 3, 16])
    def test_returned_cores_were_checked_when_made(self, monkeypatch, n, chi):
        """Cores rest+1..b-1 of the returned state are the ones its L-half shifts checked.

        Cores 0..rest-1 and b..n-1 are the input's own, which the fresh
        sweep that began the carry chain made and checked, or checked whole.
        """
        target = named_state(f"random:{n + 1}", n, 2)
        _, carry = sweep(SweepCarry(random_mps(n, 2, chi, seed=n), target))
        state = carry.state
        b, rest = saturated_bond(state), rest_site(state)
        sites, right_cores = [], []
        check_isometry, right_defect = engine.check_isometry, engine.right_defect

        def recorded_check(defect, site=None):
            sites.append(site)
            return check_isometry(defect, site)

        def recorded_defect(core):
            right_cores.append(core)
            return right_defect(core)

        monkeypatch.setattr(engine, "check_isometry", recorded_check)
        monkeypatch.setattr(engine, "right_defect", recorded_defect)
        returned = sweep(carry)[1].state
        assert len(sites) == 2 * (b - 1 - rest)
        l_half = sites[b - 1 - rest:]
        assert sorted(l_half) == list(range(rest + 1, b))
        assert len(right_cores) == b - 1 - rest
        for site, core in zip(l_half, right_cores):
            assert returned.sites[site] is core, site
        for site in [*range(rest), *range(b, n)]:
            assert returned.sites[site] is state.sites[site], site


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("n", 0), ("d", 1), ("chi", 0), ("seed", -1), ("max_sweeps", 0),
        ("tol", 0.0), ("tol", math.nan), ("tol", math.inf),
    ])
    def test_bad_field_refused_when_built(self, field, value):
        with pytest.raises(InputError, match=f"got {field}="):
            TrainConfig(**{"n": 3, field: value})
        with pytest.raises(InputError, match=f"got {field}="):
            dataclasses.replace(TrainConfig(n=3), **{field: value})


class TestTrain:
    def test_sweep_limit(self):
        cfg = TrainConfig(n=4, chi=2, seed=1, target="named:random:5", max_sweeps=1)
        _, traj, reason = train(cfg)
        assert reason == "sweep-limit"
        assert len(traj) == 7

    def test_whole_space_middle_site_collapse(self):
        cfg = TrainConfig(
            n=4, chi=4, seed=2, target="named:random:6", max_sweeps=1, tol=1e-10
        )
        _, traj, _ = train(cfg)
        # row j < n of the first sweep is R-half site j
        middle = traj[2]
        assert abs(middle.overlap - 1.0) < 1e-10

    def test_converged(self):
        cfg = TrainConfig(
            n=4, chi=4, seed=3, target="named:random:7", max_sweeps=50, tol=1e-10
        )
        _, traj, reason = train(cfg)
        assert reason == "converged"
        assert abs(traj[-1].overlap - 1.0) < 1e-9

    def test_deterministic(self):
        cfg = TrainConfig(n=5, chi=2, seed=4, target="named:random:8", max_sweeps=3)
        out1 = train(cfg)
        out2 = train(cfg)
        assert out1[1] == out2[1]
        assert out1[2] == out2[2]
        for a, b in zip(out1[0].sites, out2[0].sites):
            assert a.tobytes() == b.tobytes()

    def test_global_step_numbering(self):
        # d=3 and the one- and two-site chains besides the n=3 case
        for n, d in [(3, 2), (1, 2), (2, 2), (1, 3), (2, 3), (4, 3)]:
            cfg = TrainConfig(n=n, d=d, chi=2, seed=5, target="named:random:9", max_sweeps=3)
            state, traj, _ = train(cfg)
            # the last recorded overlap is the final state's overlap with the target
            target = named_state("random:9", n, d)
            assert abs(traj[-1].overlap - overlap_dense(state, target)) <= 1e-12, (n, d)

    @pytest.mark.parametrize("n, d, chi, rest", [
        (1, 2, 1, 0), (5, 2, 1, 0), (6, 2, 4, 2), (12, 2, 16, 4), (6, 2, 8, 2), (7, 3, 9, 2),
    ])
    def test_final_center_is_rest(self, n, d, chi, rest):
        """``train`` does not walk the center back to 0 after its last sweep."""
        cfg = TrainConfig(n=n, d=d, chi=chi, seed=1, target="named:random:9",
                          max_sweeps=3, tol=1e-30)
        state, traj, _ = train(cfg)
        assert state.center == rest_site(state) == rest
        target = named_state("random:9", n, d)
        assert abs(traj[-1].overlap - overlap_dense(state, target)) <= 1e-12

    def test_invalid_config_rejected_before_running(self):
        with pytest.raises(InputError):
            train(TrainConfig(n=3, chi=2, tol=-1.0))
        with pytest.raises(InputError):
            train(TrainConfig(n=3, chi=2, tol=math.nan))
        with pytest.raises(InputError):
            train(TrainConfig(n=3, chi=2, target="named:nope"))
