import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from sphere_dmrg import engine, mps
from sphere_dmrg.engine import (
    STALL_EPS,
    TrainConfig,
    compute_projection_tensor,
    optimal_update,
    sweep,
    sweep_schedule,
    train,
)
from sphere_dmrg.errors import GaugeError, InputError
from sphere_dmrg.mps import MPS, gauge_to, mps_to_dense, overlap_dense, random_mps
from sphere_dmrg.oracle import project_onto_subspace_dense, subspace_basis_dense
from sphere_dmrg.target import DenseState, named_state


def fixed_site1_mps():
    """n=2 MPS, center 0, with site 1 pinned to the basis state e0."""
    a0 = np.zeros((1, 2, 1))
    a0[0, 0, 0] = 1.0
    a1 = np.zeros((1, 2, 1))
    a1[0, 0, 0] = 1.0
    return MPS(sites=(a0, a1), center=0)


class TestComputeProjectionTensor:
    def test_single_site_whole_space(self):
        state = random_mps(1, 2, 3, seed=0)
        target = named_state("random", 1, 2, seed=1)
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
            target = named_state("random", 4, 2, seed=seed + 100)
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
        target = named_state("random", 1, 2, seed=3)
        new_state, rec = optimal_update(state, target)
        np.testing.assert_allclose(
            mps_to_dense(new_state).amplitudes, target.amplitudes, atol=1e-14
        )
        assert abs(rec.overlap - 1.0) < 1e-12
        assert not rec.stalled

    def test_stall_keeps_state_bitwise(self):
        state = fixed_site1_mps()
        target = named_state("basis:1", 2, 2)
        new_state, rec = optimal_update(state, target)
        assert rec.stalled
        assert new_state is state
        assert abs(rec.overlap) < 1e-14

    def test_stalled_overlap_equals_dense_overlap(self):
        # |00> sees the target only through its 1e-15 amplitude on |00>,
        # a projection norm below STALL_EPS
        state = fixed_site1_mps()
        amps = np.array([1e-15, math.sqrt(1 - 1e-30), 0.0, 0.0])
        target = DenseState(n=2, d=2, amplitudes=amps)
        assert compute_projection_tensor(state, target)[1] <= STALL_EPS
        _, rec = optimal_update(state, target)
        assert rec.stalled
        assert math.isclose(rec.overlap, 1e-15, rel_tol=1e-9)
        assert abs(rec.overlap - overlap_dense(state, target)) <= 1e-15

    def test_matches_normalized_dense_projection(self):
        for seed in range(5):
            state = gauge_to(random_mps(3, 2, 2, seed=seed), 1)
            target = named_state("random", 3, 2, seed=seed + 200)
            basis = subspace_basis_dense(state)
            proj, norm = project_onto_subspace_dense(target, basis)
            new_state, rec = optimal_update(state, target)
            np.testing.assert_allclose(
                mps_to_dense(new_state).amplitudes, proj / norm, atol=1e-10
            )
            assert abs(rec.overlap - norm) < 1e-12

    def test_no_sampled_candidate_beats_update(self):
        state = gauge_to(random_mps(4, 2, 2, seed=11), 2)
        target = named_state("random", 4, 2, seed=12)
        basis = subspace_basis_dense(state)
        _, rec = optimal_update(state, target)
        rng = np.random.default_rng(99)
        coeffs = rng.standard_normal((1000, len(basis)))
        coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
        candidates = coeffs @ basis
        overlaps = candidates @ target.amplitudes
        assert np.max(overlaps) <= rec.overlap + 1e-12

    def test_record_consistency(self):
        state = gauge_to(random_mps(4, 2, 2, seed=21), 1)
        target = named_state("random", 4, 2, seed=22)
        _, rec = optimal_update(state, target)
        assert -1.0 - 1e-12 <= rec.overlap <= 1.0 + 1e-12
        assert abs(rec.distance**2 + 2 * rec.overlap - 2.0) < 1e-12
        assert abs(rec.angle - math.acos(min(1.0, max(-1.0, rec.overlap)))) < 1e-15
        assert abs(rec.distance - 2 * math.sin(rec.angle / 2)) < 1e-10

    def test_invariants_after_update(self):
        from sphere_dmrg.mps import gauge_defect

        state = gauge_to(random_mps(5, 2, 4, seed=31), 3)
        target = named_state("random", 5, 2, seed=32)
        new_state, _ = optimal_update(state, target)
        assert gauge_defect(new_state) < 1e-10
        assert abs(np.linalg.norm(mps_to_dense(new_state).amplitudes) - 1.0) < 1e-10


class TestSweep:
    def test_fixed_point(self):
        state = random_mps(4, 2, 2, seed=41)
        target = mps_to_dense(state)
        before = target.amplitudes
        new_state, records, _ = sweep(state, target, 0)
        for rec in records:
            assert abs(rec.overlap - 1.0) < 1e-10
        assert np.linalg.norm(mps_to_dense(new_state).amplitudes - before) < 1e-10

    def test_schedule_and_record_count(self):
        state = random_mps(4, 2, 2, seed=42)
        target = named_state("random", 4, 2, seed=43)
        _, records, _ = sweep(state, target, 3)
        assert len(records) == 7
        assert [r.site for r in records] == [0, 1, 2, 3, 2, 1, 0]
        assert [r.direction for r in records] == ["R"] * 4 + ["L"] * 3
        # sweeps 0-2 emitted steps 0-20
        assert [r.step for r in records] == list(range(21, 28))
        assert all(r.sweep == 3 for r in records)

    def test_single_site_chain(self):
        state = random_mps(1, 2, 1, seed=1)
        target = named_state("random", 1, 2, seed=2)
        _, records, _ = sweep(state, target, 0)
        assert len(records) == 1

    def test_requires_center_zero(self):
        state = gauge_to(random_mps(3, 2, 2, seed=0), 1)
        with pytest.raises(InputError):
            sweep(state, named_state("uniform", 3, 2), 0)

    def test_monotone_overlap(self):
        for seed in range(5):
            state = random_mps(5, 2, 2, seed=seed)
            target = named_state("random", 5, 2, seed=seed + 300)
            _, records, _ = sweep(state, target, 0)
            for a, b in zip(records, records[1:]):
                if not (a.stalled or b.stalled):
                    assert b.overlap >= a.overlap - 1e-12


class TestSweepFold:
    """``sweep`` carries its environments; it must agree with from-scratch updates."""

    def test_schedule(self):
        assert sweep_schedule(1) == [(0, "R")]
        assert sweep_schedule(3) == [(0, "R"), (1, "R"), (2, "R"), (1, "L"), (0, "L")]

    def test_matches_update_replay(self):
        for n, d, chi in itertools.product(range(1, 10), (2, 3), (1, 2, 3, 16)):
            start = random_mps(n, d, chi, seed=n + chi)
            target = named_state("random", n, d, seed=100 + n)
            state, replay = start, start
            schedule = sweep_schedule(n)
            for k in range(2):
                state, records, _ = sweep(state, target, k)
                for j, (rec, (site, direction)) in enumerate(zip(records, schedule)):
                    replay, expected = optimal_update(gauge_to(replay, site), target)
                    assert (rec.step, rec.sweep, rec.site, rec.direction, rec.stalled) == (
                        k * len(schedule) + j, k, expected.site, direction, expected.stalled,
                    ), (n, d, chi)
                    assert abs(rec.overlap - expected.overlap) < 1e-12, (n, d, chi, rec)
                assert len(records) == len(schedule)
                replay = gauge_to(replay, 0)
            np.testing.assert_allclose(
                mps_to_dense(state).amplitudes, mps_to_dense(replay).amplitudes,
                atol=1e-12,
            )

    @staticmethod
    def sweep_traced(state, target):
        """``sweep``'s records and the peak bytes it allocates."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, records, _ = sweep(state, target, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return records, peak - base

    def test_working_set_below_half_the_target(self):
        n, chi = 18, 8
        state = random_mps(n, 2, chi, seed=5)
        target = named_state("random", n, 2, seed=6)
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
            sweep(broken, named_state("uniform", 4, 2), 0)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            sweep(random_mps(3, 2, 2, seed=0), named_state("uniform", 4, 2), 0)


class TestSweepGaugeFactor:
    """A shift keeps its gauge factor and applies it only when the next update stalls."""

    @pytest.mark.parametrize("n, d, chi", [(4, 2, 2), (6, 2, 4), (7, 3, 5), (10, 2, 16)])
    def test_stalls_match_update_replay_bitwise(self, monkeypatch, n, d, chi):
        target = named_state("random", n, d, seed=100 + n)
        schedule = sweep_schedule(n)
        mid_sweep_stalls = 0
        for eps in (0.1, 0.3, 0.6):
            # a share of the updates stall, most of them after a shift whose
            # factor is not the identity
            monkeypatch.setattr(engine, "STALL_EPS", eps)
            state = replay = random_mps(n, d, chi, seed=n + chi)
            carry = None
            for k in range(2):
                state, records, carry = sweep(state, target, k, carry)
                for rec, (site, _) in zip(records, schedule):
                    replay, expected = optimal_update(gauge_to(replay, site), target)
                    assert (rec.overlap, rec.stalled) == (expected.overlap, expected.stalled), (
                        eps, rec,
                    )
                    mid_sweep_stalls += rec.stalled and rec.step % len(schedule) > 0
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
    def non_square_shifts(state):
        """Shifts of one sweep out of a core whose matrix is not square.

        The R half shifts out of sites 0..n-2, each core read as an (l*d, r)
        matrix; the L half out of sites n-1..1, read as (l, d*r). Shifts keep
        the core shapes, so the state's shapes decide every shift.
        """
        shapes = [core.shape for core in state.sites]
        return sum(l * d != r for l, d, r in shapes[:-1]) + sum(
            l != d * r for l, d, r in shapes[1:]
        )

    @pytest.mark.parametrize(
        "n, d, chi",
        [(1, 2, 3), (2, 2, 3), (5, 2, 3), (9, 2, 3), (12, 2, 16), (7, 3, 5), (6, 3, 2)],
    )
    def test_one_qr_per_non_square_shift_none_per_square_one(self, monkeypatch, n, d, chi):
        state = random_mps(n, d, chi, seed=n)
        target = named_state("random", n, d, seed=n + 1)
        expected = self.non_square_shifts(state)
        if chi < d:
            # every bond is chi < d, so no core's matrix is square
            assert expected == 2 * n - 2
        calls = self.wrap_qr(monkeypatch)
        sweep(state, target, 0)
        assert len(calls) == expected

    def test_failed_right_shift_names_its_site(self, monkeypatch):
        state = random_mps(4, 2, 2, seed=3)
        target = named_state("random", 4, 2, seed=4)
        # the core at site 0 is (1, 2, 2), square; the first QR leaves site 1
        self.wrap_qr(monkeypatch, doubled_from=1)
        with pytest.raises(GaugeError, match=r"^isometry defect \S+ at site 1 exceeds 1e-08$"):
            sweep(state, target, 0)

    def test_failed_left_shift_names_its_site(self, monkeypatch):
        n = 4
        state = random_mps(n, 2, 2, seed=3)
        target = named_state("random", n, 2, seed=4)
        # the R half-sweep makes n - 2 good QRs; the first L shift leaves the
        # square (2, 2, 1) core at site n - 1 without one, the next QR leaves
        # site n - 2
        self.wrap_qr(monkeypatch, doubled_from=n - 1)
        message = rf"^isometry defect \S+ at site {n - 2} exceeds 1e-08$"
        with pytest.raises(GaugeError, match=message):
            sweep(state, target, 0)


def assert_same_sweep(a, b):
    """Two ``sweep`` results have bit-equal records and final cores."""
    (state_a, records_a, _), (state_b, records_b, _) = a, b
    assert records_a == records_b
    assert [c.tobytes() for c in state_a.sites] == [c.tobytes() for c in state_b.sites]


class TestSweepCarry:
    """``sweep`` reuses the right environments of the state it returned."""

    def test_carried_sweep_matches_fresh(self):
        for n, d, chi in itertools.product(range(1, 10), (2, 3), (1, 2, 3, 16)):
            target = named_state("random", n, d, seed=100 + n)
            state, _, carry = sweep(random_mps(n, d, chi, seed=n + chi), target, 0)
            carried = sweep(state, target, 1, carry)
            fresh = sweep(state, target, 1)
            assert_same_sweep(carried, fresh)
            assert [e.tobytes() for e in carried[2].right] == [
                e.tobytes() for e in fresh[2].right
            ], (n, d, chi)

    def test_foreign_carry_ignored(self):
        n, d, chi = 6, 2, 2
        target = named_state("random", n, d, seed=7)
        other_target = named_state("random", n, d, seed=8)
        state, _, carry = sweep(random_mps(n, d, chi, seed=1), target, 0)
        _, _, other_carry = sweep(random_mps(n, d, chi, seed=2), target, 0)
        # a carry built for another state, or for another target
        assert_same_sweep(sweep(state, target, 1, other_carry), sweep(state, target, 1))
        assert_same_sweep(
            sweep(state, other_target, 1, carry), sweep(state, other_target, 1)
        )

    def test_train_reads_the_target_twice_per_later_sweep(self, monkeypatch):
        """Crossing the middle bond is the one step that reads the whole target."""
        crossings = []
        left_env, right_env, sweep_fn = engine.left_env, engine.right_env, engine.sweep

        def counted_left(env, core, i, m, t):
            crossings[-1] += i + 1 == m
            return left_env(env, core, i, m, t)

        def counted_right(env, core, i, m, t):
            crossings[-1] += i == m
            return right_env(env, core, i, m, t)

        def counted_sweep(*args, **kwargs):
            crossings.append(0)
            return sweep_fn(*args, **kwargs)

        monkeypatch.setattr(engine, "left_env", counted_left)
        monkeypatch.setattr(engine, "right_env", counted_right)
        monkeypatch.setattr(engine, "sweep", counted_sweep)
        for n in (3, 5, 8):
            crossings.clear()
            train(TrainConfig(n=n, chi=1, seed=1, target="named:random:3",
                              max_sweeps=4, tol=1e-30))
            assert crossings == [3, 2, 2, 2], n


class TestSweepGaugeCheck:
    """The whole gauge is checked for every state a sweep did not return itself."""

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
        n, d, chi = 6, 2, 2
        target = named_state("random", n, d, seed=7)
        other_target = named_state("random", n, d, seed=8)
        state, _, carry = sweep(random_mps(n, d, chi, seed=1), target, 0)
        _, _, other_carry = sweep(random_mps(n, d, chi, seed=2), target, 0)
        calls = self.count_gauge_checks(monkeypatch)
        cases = [
            ("no carry", (state, target, 1, None), 1),
            ("foreign carry", (state, target, 1, other_carry), 1),
            ("carry for another target", (state, other_target, 1, carry), 1),
            ("new MPS object", (dataclasses.replace(state), target, 1, carry), 1),
            ("own carry", (state, target, 1, carry), 0),
        ]
        for name, args, expected in cases:
            calls.clear()
            sweep(*args)
            assert len(calls) == expected, name

    @pytest.mark.parametrize("site", [1, 3, 5])
    def test_changed_core_with_the_old_carry_refused(self, site):
        n = 6
        target = named_state("random", n, 2, seed=7)
        state, _, carry = sweep(random_mps(n, 2, 2, seed=1), target, 0)
        sites = list(state.sites)
        sites[site] = sites[site] * 2.0
        broken = MPS(sites=tuple(sites), center=0)
        with pytest.raises(GaugeError):
            sweep(broken, target, 1, carry)

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    @pytest.mark.parametrize("chi", [1, 3, 16])
    def test_returned_cores_were_checked_when_made(self, monkeypatch, n, chi):
        """Each non-center core of the returned state is the one its L-half shift checked."""
        target = named_state("random", n, 2, seed=n + 1)
        state, _, carry = sweep(random_mps(n, 2, chi, seed=n), target, 0)
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
        returned, _, _ = sweep(state, target, 1, carry)
        assert len(sites) == 2 * n - 2
        l_half = sites[n - 1:]
        assert sorted(l_half) == list(range(1, n))
        assert len(right_cores) == n - 1
        for site, core in zip(l_half, right_cores):
            assert returned.sites[site] is core, site


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("n", 0), ("d", 1), ("chi", 0), ("seed", -1), ("max_sweeps", 0),
        ("tol", 0.0), ("tol", math.nan),
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
        middle = [r for r in traj if r.direction == "R" and r.site == 2][0]
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
            assert [r.step for r in traj] == list(range(len(traj))), (n, d)
            # the last recorded overlap is the final state's overlap with the target
            target = named_state("random", n, d, seed=9)
            assert abs(traj[-1].overlap - overlap_dense(state, target)) <= 1e-12, (n, d)

    def test_invalid_config_rejected_before_running(self):
        with pytest.raises(InputError):
            train(TrainConfig(n=3, chi=2, tol=-1.0))
        with pytest.raises(InputError):
            train(TrainConfig(n=3, chi=2, tol=math.nan))
        with pytest.raises(InputError):
            train(TrainConfig(n=3, chi=2, target="named:nope"))
