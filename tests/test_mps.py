import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphere_dmrg import engine, mps
from sphere_dmrg.engine import TrainConfig, train
from sphere_dmrg.errors import ContractShapeError, InputError
from sphere_dmrg.mps import (
    MPS,
    absorb_factor,
    contract,
    dense_amplitudes,
    gauge_defect,
    gauge_to,
    left_defect,
    mps_from_json_dict,
    mps_to_json_dict,
    overlap_dense,
    qr_orthonormalize,
    random_mps,
    right_defect,
    shift_center,
    split_core,
)
from sphere_dmrg.target import DenseState, named_state, resolve_target

from conftest import loop_contract


# any JSON value: scalars of every JSON type (with integers past float64
# range) and small lists or objects of them
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10) | st.integers()
    | st.just(10**400) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def retyped(value):
    """``value`` under other JSON types: a float, a string, a bool, a list."""
    if isinstance(value, (int, float)) and math.isfinite(value):
        return [float(value), int(value), str(value), bool(value), [value]]
    return [str(value), [value]]


def product_state_mps(bits, d=2):
    """MPS for a computational basis product state, all bonds 1."""
    sites = []
    for b in bits:
        core = np.zeros((1, d, 1))
        core[0, b, 0] = 1.0
        sites.append(core)
    return MPS(sites=tuple(sites), center=0)


def ghz_mps():
    """Hand-built chi=2 GHZ chain on 3 sites, center at the last site."""
    a0 = np.zeros((1, 2, 2))
    a0[0, 0, 0] = a0[0, 1, 1] = 1.0
    a1 = np.zeros((2, 2, 2))
    a1[0, 0, 0] = a1[1, 1, 1] = 1.0
    a2 = np.zeros((2, 2, 1))
    a2[0, 0, 0] = a2[1, 1, 0] = 1.0 / math.sqrt(2.0)
    return MPS(sites=(a0, a1, a2), center=2)


def shifted_by_formula(cores, j, direction):
    """The cores after one shift of the center from site j, written out.

    A square matrix moves as the identity and the core itself; any other
    takes numpy's QR as it is.
    """
    cores = list(cores)
    l, d, r = cores[j].shape
    if direction == "right":
        if l * d == r:
            t = cores[j].reshape(r, r)
            cores[j] = np.eye(r).reshape(l, d, r)
        else:
            q, t = np.linalg.qr(cores[j].reshape(l * d, r))
            cores[j] = q.reshape(l, d, r)
        nxt = cores[j + 1]
        cores[j + 1] = (t @ nxt.reshape(r, -1)).reshape(nxt.shape)
    else:
        if l == d * r:
            t_transposed = cores[j].reshape(l, l)
            cores[j] = np.eye(l).reshape(l, d, r)
        else:
            q, t = np.linalg.qr(cores[j].reshape(l, d * r).T)
            cores[j] = q.T.reshape(l, d, r)
            t_transposed = t.T
        prev = cores[j - 1]
        cores[j - 1] = (prev.reshape(-1, l) @ t_transposed).reshape(prev.shape)
    return cores


def walked_by_formula(cores, start, stop):
    """The cores after ``shifted_by_formula`` steps from site start to site stop."""
    step = 1 if stop > start else -1
    for j in range(start, stop, step):
        cores = shifted_by_formula(cores, j, "right" if step == 1 else "left")
    return cores


# (n, d, chi): bonds saturated at their cap (square shifts), bonds below
# it (QR shifts) and chains with both
WALK_SIZES = [(1, 3, 2), (2, 2, 1), (4, 2, 4), (4, 3, 2), (4, 3, 9), (5, 2, 4), (6, 2, 3), (7, 3, 5)]


class TestRandomMPS:
    def test_single_site_shape(self):
        state = random_mps(1, 2, 7, seed=0)
        assert state.sites[0].shape == (1, 2, 1)
        assert abs(np.linalg.norm(state.sites[0]) - 1.0) < 1e-12

    def test_bond_cap_formula(self):
        state = random_mps(4, 2, 8, seed=0)
        assert [c.shape[2] for c in state.sites[:-1]] == [2, 4, 2]
        state = random_mps(4, 2, 3, seed=0)
        assert [c.shape[2] for c in state.sites[:-1]] == [2, 3, 2]

    def test_deterministic(self):
        s1 = random_mps(4, 2, 3, seed=9)
        s2 = random_mps(4, 2, 3, seed=9)
        for a, b in zip(s1.sites, s2.sites):
            assert a.tobytes() == b.tobytes()

    def test_invariants_hold(self):
        state = random_mps(5, 2, 4, seed=2)
        assert state.center == 0
        assert gauge_defect(state) < 1e-10
        assert abs(np.linalg.norm(state.sites[0]) - 1.0) < 1e-10

    def test_size_guard(self):
        with pytest.raises(InputError):
            random_mps(31, 2, 2, seed=0)

    @pytest.mark.parametrize("n,d,chi", [(0, 2, 2), (3, 1, 2), (3, 2, 0)])
    def test_invalid_dims(self, n, d, chi):
        with pytest.raises(InputError):
            random_mps(n, d, chi, seed=0)

    @pytest.mark.parametrize("n, d, chi", WALK_SIZES)
    def test_right_to_left_walk_over_the_draws(self, n, d, chi):
        seed = 3 * n + chi
        rng = np.random.default_rng(seed)
        dims = [1] + [min(chi, d ** (i + 1), d ** (n - 1 - i)) for i in range(n - 1)] + [1]
        draws = [rng.standard_normal((dims[j], d, dims[j + 1])) for j in range(n)]
        expected = walked_by_formula(draws, n - 1, 0)
        expected[0] = expected[0] / np.linalg.norm(expected[0])
        state = random_mps(n, d, chi, seed)
        assert state.center == 0
        assert [(c.shape, c.tobytes()) for c in state.sites] == [
            (c.shape, c.tobytes()) for c in expected
        ]


class TestShiftCenter:
    def test_product_state_exact(self):
        state = product_state_mps([0, 0])
        shifted = shift_center(state, "right")
        assert shifted.center == 1
        np.testing.assert_array_equal(
            dense_amplitudes(shifted), [1.0, 0.0, 0.0, 0.0]
        )

    def test_rank_deficient_bond_shifts_exactly(self):
        # a product state carried on a bond of dimension 2
        a0 = np.zeros((1, 2, 2))
        a0[0, 0, 0] = 1.0
        a1 = np.eye(2).reshape(2, 2, 1)
        state = MPS(sites=(a0, a1), center=0)
        shifted = shift_center(state, "right")
        np.testing.assert_allclose(
            dense_amplitudes(shifted), [1.0, 0.0, 0.0, 0.0], atol=1e-15
        )
        assert left_defect(shifted.sites[0]) < 1e-12
        back = shift_center(shifted, "left")
        assert right_defect(back.sites[1]) < 1e-12

    def test_dense_state_preserved(self):
        state = random_mps(4, 2, 3, seed=4)
        before = dense_amplitudes(state)
        state = shift_center(state, "right")
        after = dense_amplitudes(state)
        assert np.linalg.norm(before - after) <= 1e-12

    def test_left_isometry_after_right_shift(self):
        state = random_mps(4, 2, 3, seed=4)
        j = state.center
        shifted = shift_center(state, "right")
        assert left_defect(shifted.sites[j]) < 1e-10

    def test_right_isometry_after_left_shift(self):
        state = gauge_to(random_mps(4, 2, 3, seed=4), 2)
        shifted = shift_center(state, "left")
        assert right_defect(shifted.sites[2]) < 1e-10

    def test_boundary_errors(self):
        state = random_mps(3, 2, 2, seed=0)
        with pytest.raises(InputError, match=r"^center -1 out of range \[0, 3\)$"):
            shift_center(state, "left")
        with pytest.raises(InputError, match=r"^center 3 out of range \[0, 3\)$"):
            shift_center(gauge_to(state, 2), "right")

    def test_bad_direction(self):
        with pytest.raises(InputError, match="^direction must be 'left' or 'right', got 'up'$"):
            shift_center(random_mps(3, 2, 2, seed=0), "up")

    @pytest.mark.parametrize("direction", ["right", "left"])
    @pytest.mark.parametrize("kind", ["random", "zero column", "equal columns"])
    def test_split_then_absorb_is_the_shift(self, direction, kind):
        rng = np.random.default_rng(17)
        cores = [rng.standard_normal(shape) for shape in ((1, 2, 3), (3, 2, 3), (3, 2, 1))]
        # the columns of the matrix the QR sees: right bonds for a right
        # split, left bonds for a left split
        columns = np.moveaxis(cores[1], 2 if direction == "right" else 0, 0)
        if kind == "zero column":
            columns[1] = 0.0
        elif kind == "equal columns":
            columns[2] = columns[0]
        expected = shifted_by_formula(cores, 1, direction)
        k = 2 if direction == "right" else 0
        shifted = shift_center(MPS(sites=tuple(cores), center=1), direction)
        assert shifted.center == k
        q, t = split_core(cores[1], direction)
        split = [q, absorb_factor(cores[k], t, direction)]
        for got in ([shifted.sites[1], shifted.sites[k]], split):
            assert [c.shape for c in got] == [expected[1].shape, expected[k].shape]
            assert [c.tobytes() for c in got] == [expected[1].tobytes(), expected[k].tobytes()]

    @given(seed=st.integers(0, 1000), moves=st.lists(st.booleans(), max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_gauge_invariance_walk(self, seed, moves):
        state = random_mps(4, 2, 3, seed=seed)
        reference = dense_amplitudes(state)
        for go_right in moves:
            if go_right and state.center < state.n - 1:
                state = shift_center(state, "right")
            elif not go_right and state.center > 0:
                state = shift_center(state, "left")
            assert np.linalg.norm(dense_amplitudes(state) - reference) <= 1e-12 * (
                len(moves) or 1
            )
            assert gauge_defect(state) < 1e-10


class TestSquareSplit:
    """A core whose matrix is square splits into the identity and itself, with no QR."""

    @staticmethod
    def count_qr(monkeypatch):
        calls = []
        qr = mps.qr_orthonormalize

        def counted(m):
            calls.append(m.shape)
            return qr(m)

        monkeypatch.setattr(mps, "qr_orthonormalize", counted)
        return calls

    @staticmethod
    def chain(center_core, rng):
        """Three cores around ``center_core`` at site 1, with matching bonds."""
        l, d, r = center_core.shape
        return [rng.standard_normal((1, d, l)), center_core, rng.standard_normal((r, d, 1))]

    @staticmethod
    def assert_exact_split(chain, direction):
        """``split_core`` plus ``absorb_factor`` at site 1 keep the dense vector."""
        before = dense_amplitudes(MPS(sites=tuple(chain), center=1))
        q, t = split_core(chain[1], direction)
        k = 2 if direction == "right" else 0
        after = list(chain)
        after[1], after[k] = q, absorb_factor(chain[k], t, direction)
        defect = left_defect(q) if direction == "right" else right_defect(q)
        assert defect == 0.0
        np.testing.assert_allclose(
            dense_amplitudes(MPS(sites=tuple(after), center=k)), before, rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("direction", ["right", "left"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_identity_and_the_core_itself(self, monkeypatch, direction, d):
        rng = np.random.default_rng(10 * d)
        # (l, d, l*d) for a right split, (d*r, d, r) for a left one
        shape = (2, d, 2 * d) if direction == "right" else (2 * d, d, 2)
        chain = self.chain(rng.standard_normal(shape), rng)
        calls = self.count_qr(monkeypatch)
        q, t = split_core(chain[1], direction)
        assert q.shape == shape
        assert q.tobytes() == np.eye(2 * d).tobytes()
        assert (t if direction == "right" else t.T).tobytes() == chain[1].tobytes()
        self.assert_exact_split(chain, direction)
        assert calls == []

    @pytest.mark.parametrize("direction", ["right", "left"])
    @pytest.mark.parametrize("kind", ["zero", "rank one"])
    def test_rank_deficient_square_core(self, direction, kind):
        rng = np.random.default_rng(5)
        u, v = rng.standard_normal(4), rng.standard_normal(4)
        matrix = np.zeros((4, 4)) if kind == "zero" else np.outer(u, v)
        # the (4, 4) matrix the split reads, as a core
        core = matrix.reshape(2, 2, 4) if direction == "right" else matrix.reshape(4, 2, 2)
        q, t = split_core(core, direction)
        if direction == "right":
            np.testing.assert_array_equal(q.reshape(4, 4) @ t, matrix)
        else:
            np.testing.assert_array_equal(t.T @ q.reshape(4, 4), matrix)
        self.assert_exact_split(self.chain(core, rng), direction)

    @pytest.mark.parametrize(
        "shape, direction",
        [((2, 2, 3), "right"), ((1, 3, 2), "right"), ((3, 2, 2), "left"), ((2, 3, 1), "left")],
    )
    def test_non_square_core_takes_one_qr(self, monkeypatch, shape, direction):
        core = np.random.default_rng(3).standard_normal(shape)
        calls = self.count_qr(monkeypatch)
        split_core(core, direction)
        assert len(calls) == 1

    @pytest.mark.parametrize("center, direction", [(0, "right"), (1, "left")])
    def test_bond_past_its_cap_still_refused(self, center, direction):
        """A document with a bond past its cap is refused at load, naming the core.

        (1, 2, 3) has l*d < r and (3, 2, 1) has l > d*r: neither splits by
        a tall QR. The same chain at the cap, bond 2, loads and shifts from
        ``center`` in ``direction``.
        """
        def doc(bond):
            return {"n": 2, "d": 2, "center": center, "tensors": [
                {"shape": [1, 2, bond], "data": [0.5] * 2 * bond},
                {"shape": [bond, 2, 1], "data": [0.5] * 2 * bond},
            ]}

        with pytest.raises(InputError, match=r"^core 0 has shape \(1, 2, 3\): "):
            mps_from_json_dict(doc(3))
        assert shift_center(mps_from_json_dict(doc(2)), direction).center == 1 - center


class TestContract:
    def test_identity_contraction(self):
        out = contract(np.eye(2), np.array([3.0, 7.0]))
        np.testing.assert_array_equal(out, [3.0, 7.0])

    def test_dot_product_scalar(self):
        out = contract(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert out.shape == ()
        assert float(out) == 11.0

    def test_seeded_232_against_loop_oracle(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((2, 2, 3))
        b = rng.standard_normal((3, 2))
        out = contract(a, b)
        expected = loop_contract(a, b)
        np.testing.assert_allclose(out, expected, atol=1e-13)

    def test_output_axis_order(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 4, 3))
        b = rng.standard_normal((3, 5, 6))
        out = contract(a, b)
        assert out.shape == (2, 4, 5, 6)

    @pytest.mark.parametrize(
        "shape_a, shape_b",
        [
            ((2, 3), (2, 3)),   # paired lengths differ
            ((), (3, 2)),       # no last axis
            ((2, 3), ()),       # no first axis
        ],
    )
    def test_bad_shapes_raise(self, shape_a, shape_b):
        with pytest.raises(ContractShapeError):
            contract(np.zeros(shape_a), np.zeros(shape_b))

    def test_error_names_shapes(self):
        with pytest.raises(ContractShapeError, match=r"\(2, 3\)"):
            contract(np.zeros((2, 3)), np.zeros((2, 3)))

    @given(alpha=st.floats(-10, 10, allow_nan=False), seed=st.integers(0, 10**6))
    def test_bilinearity(self, alpha, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        lhs = contract(alpha * a, b)
        rhs = alpha * contract(a, b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12 * max(1.0, abs(alpha)))

    def test_small_shape_sweep_against_loop_oracle(self):
        # ranks up to 4, axis lengths up to 4, seeded shapes
        rng = np.random.default_rng(7)
        for rank_a in range(1, 5):
            for rank_b in range(1, 5):
                for _ in range(4):
                    shape_a = list(rng.integers(1, 5, size=rank_a))
                    shape_b = list(rng.integers(1, 5, size=rank_b))
                    shape_b[0] = shape_a[-1]
                    a = rng.standard_normal(shape_a)
                    b = rng.standard_normal(shape_b)
                    out = contract(a, b)
                    expected = loop_contract(a, b)
                    np.testing.assert_allclose(out, expected, atol=1e-12)


class TestQROrthonormalize:
    def test_single_column(self):
        m = np.array([[3.0], [4.0]])
        q, t = qr_orthonormalize(m)
        # one column is fixed up to its sign, which is LAPACK's
        sign = np.sign(t[0, 0])
        np.testing.assert_allclose(sign * q, [[0.6], [0.8]], atol=1e-15)
        np.testing.assert_allclose(sign * t, [[5.0]], atol=1e-15)
        np.testing.assert_allclose(q @ t, m, atol=1e-15)

    def test_orthonormal_fixed_point(self):
        rng = np.random.default_rng(3)
        q0, _ = qr_orthonormalize(rng.standard_normal((5, 3)))
        q, t = qr_orthonormalize(q0)
        np.testing.assert_allclose(q, q0, atol=1e-12)
        np.testing.assert_allclose(t, np.eye(3), atol=1e-12)

    def test_seeded_6x3_reconstruction(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((6, 3))
        q, t = qr_orthonormalize(m)
        np.testing.assert_allclose(q @ t, m, atol=1e-12)
        np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-12)
        assert np.allclose(t, np.triu(t))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((7, 4))
        q1, t1 = qr_orthonormalize(m)
        q2, t2 = qr_orthonormalize(m.copy())
        assert q1.tobytes() == q2.tobytes()
        assert t1.tobytes() == t2.tobytes()

    def test_rank_deficient_still_orthonormal(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        q, t = qr_orthonormalize(m)
        np.testing.assert_allclose(q @ t, m, atol=1e-12)
        np.testing.assert_allclose(q.T @ q, np.eye(2), atol=1e-12)
        assert np.allclose(t, np.triu(t))

    @pytest.mark.parametrize("kind", ["random", "zero column", "equal columns", "all zero"])
    def test_matches_numpy_qr_bytes(self, kind):
        rng = np.random.default_rng(29)
        for rows in range(1, 33):
            for cols in sorted({1, min(2, rows), (rows + 1) // 2, rows}):
                m = rng.standard_normal((rows, cols))
                if kind == "zero column":
                    m[:, cols // 2] = 0.0
                elif kind == "equal columns":
                    m[:, -1] = m[:, 0]
                elif kind == "all zero":
                    m[:] = 0.0
                q, t = qr_orthonormalize(m)
                q_ref, t_ref = np.linalg.qr(m.copy())
                assert (q.tobytes(), t.tobytes()) == (q_ref.tobytes(), t_ref.tobytes()), (
                    kind, rows, cols,
                )


class TestQRSignInvariance:
    """No record reads the signs of R's diagonal: a thin QR is unique only up to them."""

    @staticmethod
    def sign_flipped(monkeypatch, seed):
        """Patch ``mps.qr_orthonormalize`` to negate a seeded random subset of
        q's columns and the matching rows of t; return the list of flip counts."""
        plain = mps.qr_orthonormalize
        rng = np.random.default_rng(seed)
        flips = []

        def flipped(m):
            q, t = plain(m)
            signs = np.where(rng.random(q.shape[1]) < 0.5, -1.0, 1.0)
            q *= signs
            t *= signs[:, None]
            flips.append(int((signs < 0).sum()))
            return q, t

        monkeypatch.setattr(mps, "qr_orthonormalize", flipped)
        return flips

    @staticmethod
    def fingerprint(state, records):
        rows = [(r.overlap.hex(), r.stalled) for r in records]
        return rows, state.center, [np.abs(core) for core in state.sites]

    def assert_same_run(self, plain, flipped):
        rows, center, cores = plain
        assert flipped[0] == rows
        assert flipped[1] == center
        assert len(flipped[2]) == len(cores)
        for a, b in zip(flipped[2], cores):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def trained(self, monkeypatch, config, seed):
        plain = self.fingerprint(*train(config)[:2])
        flips = self.sign_flipped(monkeypatch, seed)
        flipped = self.fingerprint(*train(config)[:2])
        monkeypatch.undo()
        return plain, flipped, flips

    @pytest.mark.parametrize("d", [2, 3])
    def test_train_records_ignore_the_signs(self, monkeypatch, d):
        # C1/C2-sized chains, with bonds below their cap (QR shifts), at
        # it (square shifts) and both
        flipped_any = 0
        for n in range(1, 10):
            for chi in (1, 2, 3, 4, 8, 16):
                config = TrainConfig(
                    n=n, d=d, chi=chi, seed=n + chi,
                    target=f"named:random:{100 * n + chi}", max_sweeps=3, tol=1e-30,
                )
                plain, flipped, flips = self.trained(monkeypatch, config, seed=n * chi)
                self.assert_same_run(plain, flipped)
                flipped_any += sum(flips)
        assert flipped_any > 0

    @pytest.mark.parametrize("name", ["uniform", "ghz", "w", "basis:5"])
    def test_low_rank_targets_ignore_the_signs(self, monkeypatch, name):
        # Schmidt ranks below the bond cap: rank-deficient QRs
        config = TrainConfig(n=7, d=2, chi=4, seed=1, target=f"named:{name}", max_sweeps=3)
        plain, flipped, flips = self.trained(monkeypatch, config, seed=7)
        self.assert_same_run(plain, flipped)
        assert sum(flips) > 0

    @pytest.mark.parametrize("n, d, chi", [(8, 2, 16), (5, 3, 9)])
    def test_saturated_middle_bond_ignores_the_signs(self, monkeypatch, n, d, chi):
        assert mps.bond_dims(n, d, chi)[n // 2] == d ** (n // 2)
        config = TrainConfig(n=n, d=d, chi=chi, seed=2, target="named:random:3", max_sweeps=4)
        plain, flipped, flips = self.trained(monkeypatch, config, seed=n)
        self.assert_same_run(plain, flipped)
        assert sum(flips) > 0

    def test_stalled_rows_ignore_the_signs(self, monkeypatch):
        # no projection norm exceeds 1, so every update stalls and each
        # shift's factor is multiplied into the next center
        monkeypatch.setattr(engine, "STALL_EPS", 1.1)
        config = TrainConfig(n=6, d=2, chi=3, seed=4, target="named:random:5", max_sweeps=3)
        plain = self.fingerprint(*train(config)[:2])
        flips = self.sign_flipped(monkeypatch, seed=6)
        flipped = self.fingerprint(*train(config)[:2])
        assert all(stalled for _, stalled in plain[0])
        self.assert_same_run(plain, flipped)
        assert sum(flips) > 0

    def test_all_stalled_sweep_ignores_the_signs(self, monkeypatch):
        # |0...0> against a basis state with sites 0 and 1 set: every
        # single-site subspace is orthogonal to the target
        n = 8
        zero = np.zeros((1, 2, 1))
        zero[0, 0, 0] = 1.0
        state = MPS(sites=(zero,) * n, center=0)
        target = named_state(f"basis:{3 << (n - 2)}", n, 2)
        swept = engine.sweep(engine.SweepCarry(state, target))
        plain = self.fingerprint(swept[1].state, swept[0])
        flips = self.sign_flipped(monkeypatch, seed=8)
        swept = engine.sweep(engine.SweepCarry(state, target))
        flipped = self.fingerprint(swept[1].state, swept[0])
        assert all(stalled and overlap == (0.0).hex() for overlap, stalled in plain[0])
        self.assert_same_run(plain, flipped)
        assert sum(flips) > 0


class TestDenseAmplitudes:
    def test_basis_product_state(self):
        state = product_state_mps([0, 0, 0])
        amps = dense_amplitudes(state)
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_array_equal(amps, expected)

    def test_big_endian_convention(self):
        # |100> must land at index 4
        amps = dense_amplitudes(product_state_mps([1, 0, 0]))
        assert amps[4] == 1.0

    def test_ghz(self):
        amps = dense_amplitudes(ghz_mps())
        expected = np.zeros(8)
        expected[0] = expected[7] = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(amps, expected, atol=1e-15)

    def test_random_unit_norm(self):
        for seed in range(5):
            amps = dense_amplitudes(random_mps(5, 2, 4, seed=seed))
            assert abs(np.linalg.norm(amps) - 1.0) < 1e-10

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("chi", [1, 2, 4])
    def test_amplitudes_are_products_of_core_slices(self, d, chi):
        """Amplitude of i0...i_{n-1} = sites[0][:, i0, :] @ ... @ sites[n-1][:, i_{n-1}, :]."""
        for n in range(1, 7):
            base = random_mps(n, d, chi, seed=100 * n + 10 * d + chi)
            for center in sorted({0, n - 1}):
                state = gauge_to(base, center)
                amps = dense_amplitudes(state)
                assert amps.shape == (d**n,)
                for index, digits in enumerate(itertools.product(range(d), repeat=n)):
                    block = np.eye(1)
                    for core, i in zip(state.sites, digits):
                        block = block @ core[:, i, :]
                    np.testing.assert_allclose(amps[index], block[0, 0], rtol=0, atol=1e-14)

    def test_contracts_once_per_core_through_the_module_attribute(self, monkeypatch):
        # the benchmark times dense conversion at mps.contract, so the
        # call has to go through that attribute
        calls = []

        def counted(a, b):
            calls.append(b.shape)
            return contract(a, b)

        monkeypatch.setattr(mps, "contract", counted)
        state = random_mps(5, 2, 3, seed=2)
        dense_amplitudes(state)
        assert calls == [core.shape for core in state.sites]


def test_engine_reexports_are_the_mps_functions():
    # the benchmark wraps these names on the engine module
    assert engine.contract is mps.contract
    assert engine.shift_center is mps.shift_center


class TestOverlapDense:
    def test_self_overlap(self):
        state = random_mps(4, 2, 3, seed=6)
        assert abs(overlap_dense(state, DenseState(4, 2, dense_amplitudes(state))) - 1.0) < 1e-12

    def test_orthogonal_basis_states(self):
        state = product_state_mps([0, 0, 0])
        target = DenseState(3, 2, dense_amplitudes(product_state_mps([1, 1, 1])))
        assert overlap_dense(state, target) == 0.0

    def test_matches_dense_dot(self):
        state = random_mps(5, 2, 4, seed=8)
        target = named_state("random:21", 5, 2)
        dense = dense_amplitudes(state)
        assert abs(overlap_dense(state, target) - dense @ target.amplitudes) < 1e-12

    def test_dimension_mismatch(self):
        state = random_mps(3, 2, 2, seed=0)
        with pytest.raises(InputError):
            overlap_dense(state, named_state("uniform", 4, 2))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("d, name", [
        (2, "ghz"), (2, "w"), (2, "basis"), (2, "random"), (3, "basis"), (3, "random"),
    ])
    def test_matches_left_to_right_dense_dot(self, n, d, name):
        spec = {"basis": f"named:basis:{d**n // 3}", "random": "named:random:5"}
        spec = spec.get(name, f"named:{name}")
        target = resolve_target(spec, n, d)
        # chi 4 is above the Schmidt rank of ghz, w and basis targets, so
        # the fitted state has rank-deficient bonds
        for chi in (1, 2, 4):
            config = TrainConfig(n=n, d=d, chi=chi, seed=2, target=spec, max_sweeps=3)
            fitted, _, _ = train(config)
            for state in (random_mps(n, d, chi, seed=3), gauge_to(fitted, n // 2)):
                expected = dense_amplitudes(state) @ target.amplitudes
                assert abs(overlap_dense(state, target) - expected) <= 1e-12, (chi, state.center)

    def test_no_target_sized_temporaries(self):
        state = random_mps(16, 2, 8, seed=4)
        target = named_state("random:9", 16, 2)
        tracemalloc.start()
        try:
            overlap_dense(state, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < target.amplitudes.nbytes / 4


class TestGaugeTo:
    def test_isometry_suite_all_centers(self):
        base = random_mps(5, 2, 4, seed=13)
        reference = dense_amplitudes(base)
        for c in range(5):
            state = gauge_to(base, c)
            assert state.center == c
            for j in range(5):
                if j < c:
                    assert left_defect(state.sites[j]) < 1e-10
                elif j > c:
                    assert right_defect(state.sites[j]) < 1e-10
            assert abs(np.linalg.norm(state.sites[c]) - 1.0) < 1e-10
            assert np.linalg.norm(dense_amplitudes(state) - reference) < 1e-11

    @pytest.mark.parametrize("n, d, chi", WALK_SIZES)
    def test_walk_is_the_formula_step_by_step(self, n, d, chi):
        first = random_mps(n, d, chi, seed=n + chi)
        last = MPS(sites=tuple(walked_by_formula(first.sites, 0, n - 1)), center=n - 1)
        for start in (first, last):
            for c in range(n):
                expected = walked_by_formula(start.sites, start.center, c)
                state = gauge_to(start, c)
                assert state.center == c
                assert [(core.shape, core.tobytes()) for core in state.sites] == [
                    (core.shape, core.tobytes()) for core in expected
                ]

    @pytest.mark.parametrize("center", [-1, 4])
    def test_center_out_of_range(self, center):
        with pytest.raises(InputError, match=rf"^center {center} out of range \[0, 4\)$"):
            gauge_to(random_mps(4, 2, 2, seed=0), center)

    def test_split_core_bad_direction(self):
        core = random_mps(3, 2, 2, seed=0).sites[1]
        with pytest.raises(InputError, match="^direction must be 'left' or 'right', got 'up'$"):
            split_core(core, "up")


class TestSerialization:
    def test_round_trip_exact(self):
        state = gauge_to(random_mps(4, 2, 3, seed=17), 2)
        doc = json.loads(json.dumps(mps_to_json_dict(state)))
        back = mps_from_json_dict(doc)
        assert back.n == state.n and back.d == state.d and back.center == state.center
        for a, b in zip(state.sites, back.sites):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("field, value", [
        ("center", 3),
        ("center", -1),
        ("d", 3),
        ("data", [0.0] * 3),
        ("data", [math.nan] * 4),
        ("data", [math.inf] * 4),
        ("data", ["a"] * 4),
        ("data", [True, False, False, True]),
        ("data", [10**400] * 4),
        ("n", None),
        ("n", 3.7),
        ("d", 2.0),
        ("center", False),
        ("shape", [1, 2.0, 2]),
    ])
    def test_rejects_malformed_document(self, field, value):
        doc = json.loads(json.dumps(mps_to_json_dict(random_mps(3, 2, 2, seed=1))))
        if field == "data":
            doc["tensors"][0] = {"shape": [1, 2, 2], "data": value}
        elif field == "shape":
            doc["tensors"][0]["shape"] = value
        elif value is None:
            del doc[field]
        else:
            doc[field] = value
        with pytest.raises(InputError):
            mps_from_json_dict(doc)

    @pytest.mark.parametrize("n, shapes, message", [
        (1, [(2, 2, 1)], "boundary bonds must have dimension 1"),
        (2, [(1, 2, 1), (2, 2, 1)], "bond mismatch between sites 0 and 1"),
        (2, [(1, 2, 1)], "expected 2 tensors, got 1"),
    ])
    def test_rejects_malformed_chain(self, n, shapes, message):
        doc = {"n": n, "d": 2, "center": 0, "tensors": [
            {"shape": list(shape), "data": [0.5] * math.prod(shape)} for shape in shapes
        ]}
        with pytest.raises(InputError, match=message):
            mps_from_json_dict(doc)

    @given(
        n=st.integers(1, 6), d=st.integers(2, 3), chi=st.integers(1, 4),
        seed=st.integers(0, 2**32), data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_loads_or_refuses_any_document(self, n, d, chi, seed, data):
        state = gauge_to(random_mps(n, d, chi, seed), data.draw(st.integers(0, n - 1)))
        doc = mps_to_json_dict(state)
        for back in (mps_from_json_dict(doc), mps_from_json_dict(json.loads(json.dumps(doc)))):
            assert (back.n, back.d, back.center) == (state.n, state.d, state.center)
            assert [c.shape for c in back.sites] == [c.shape for c in state.sites]
            assert [c.tobytes() for c in back.sites] == [c.tobytes() for c in state.sites]
        # replace one field, shape, data list or entry of a JSON copy, either
        # by any JSON value or by the same value under another JSON type
        doc = json.loads(json.dumps(doc))
        core = doc["tensors"][data.draw(st.integers(0, n - 1))]
        holder, key = data.draw(st.sampled_from([
            (doc, "n"), (doc, "d"), (doc, "center"), (doc, "tensors"),
            (core, "shape"), (core, "data"),
        ]))
        if data.draw(st.booleans()) and isinstance(holder[key], list) and holder[key]:
            holder, key = holder[key], data.draw(st.integers(0, len(holder[key]) - 1))
        holder[key] = data.draw(JSON_VALUES | st.sampled_from(retyped(holder[key])))
        try:
            loaded = mps_from_json_dict(doc)
        except InputError:
            return
        # only integer sizes and non-bool numbers load, and they load as written
        sizes = [doc["n"], doc["d"], doc["center"]]
        sizes += [v for core in doc["tensors"] for v in core["shape"]]
        assert all(type(v) is int for v in sizes), sizes
        assert not any(type(x) is bool for core in doc["tensors"] for x in core["data"])
        assert mps_to_json_dict(loaded) == doc

    @given(
        n=st.integers(1, 6), d=st.integers(2, 3), seed=st.integers(0, 2**32), data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_loaded_chain_walks_to_either_end(self, n, d, seed, data):
        """A document of any bonds 1-6 is refused, or the walk splits it exactly."""
        bonds = [1] + data.draw(st.lists(st.integers(1, 6), min_size=n - 1, max_size=n - 1)) + [1]
        rng = np.random.default_rng(seed)
        shapes = [(bonds[j], d, bonds[j + 1]) for j in range(n)]
        doc = {"n": n, "d": d, "center": data.draw(st.integers(0, n - 1)), "tensors": [
            {"shape": list(shape), "data": rng.standard_normal(math.prod(shape)).tolist()}
            for shape in shapes
        ]}
        tall = all(r <= l * d and l <= d * r for l, _, r in shapes)
        try:
            state = mps_from_json_dict(doc)
        except InputError:
            assert not tall
            return
        assert tall
        before = dense_amplitudes(state)
        c = state.center
        for end, split, defect in ((0, range(1, c + 1), right_defect),
                                   (n - 1, range(c, n - 1), left_defect)):
            walked = gauge_to(state, end)
            after = dense_amplitudes(walked)
            assert np.linalg.norm(after - before) <= 1e-12 * np.linalg.norm(before)
            assert all(defect(walked.sites[j]) <= 1e-10 for j in split)

    def test_schema_fields(self):
        doc = mps_to_json_dict(random_mps(3, 2, 2, seed=1))
        assert set(doc) == {"n", "d", "center", "tensors"}
        assert all(set(t) == {"shape", "data"} for t in doc["tensors"])
        assert doc["tensors"][0]["shape"][0] == 1
