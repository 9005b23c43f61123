import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sphere_dmrg.errors import ContractShapeError
from sphere_dmrg.tensor import contract, qr_orthonormalize

from conftest import loop_contract


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
        q, t = qr_orthonormalize(np.array([[3.0], [4.0]]))
        np.testing.assert_allclose(q, [[0.6], [0.8]], atol=1e-15)
        np.testing.assert_allclose(t, [[5.0]], atol=1e-15)

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
        assert np.all(np.diagonal(t) >= 0)
        assert np.allclose(t, np.triu(t))

    def test_wide_matrix_rejected(self):
        with pytest.raises(ContractShapeError):
            qr_orthonormalize(np.zeros((2, 3)))

    def test_rank1_rejected(self):
        with pytest.raises(ContractShapeError):
            qr_orthonormalize(np.zeros(4))

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
        assert np.all(np.diagonal(t) >= 0)

    @staticmethod
    def sign_fixed_by_formula(m):
        """The sign fix written out with ``np.diagonal``, for byte comparison."""
        q, t = np.linalg.qr(m)
        signs = np.where(np.diagonal(t) < 0.0, -1.0, 1.0)
        q *= signs
        t *= signs[:, None]
        return q, t

    @pytest.mark.parametrize("kind", ["random", "zero column", "equal columns", "all zero"])
    def test_matches_sign_fix_formula_bytes(self, kind):
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
                q_ref, t_ref = self.sign_fixed_by_formula(m.copy())
                assert (q.tobytes(), t.tobytes()) == (q_ref.tobytes(), t_ref.tobytes()), (
                    kind, rows, cols,
                )
