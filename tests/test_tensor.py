import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sphere_dmrg.errors import ContractShapeError
from sphere_dmrg.tensor import contract, qr_orthonormalize

from conftest import loop_contract


class TestContract:
    def test_identity_contraction(self):
        out = contract(np.eye(2), [1], np.array([3.0, 7.0]), [0])
        np.testing.assert_array_equal(out, [3.0, 7.0])

    def test_dot_product_scalar(self):
        out = contract(np.array([1.0, 2.0]), [0], np.array([3.0, 4.0]), [0])
        assert out.shape == ()
        assert float(out) == 11.0

    def test_seeded_232_against_loop_oracle(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((2, 3, 2))
        b = rng.standard_normal((3, 2))
        out = contract(a, [1], b, [0])
        expected = loop_contract(a, [1], b, [0])
        np.testing.assert_allclose(out, expected, atol=1e-13)

    def test_contract_all_axes_gives_scalar(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((3, 2))
        out = contract(a, [0, 1], b, [1, 0])
        assert out.shape == ()
        np.testing.assert_allclose(float(out), float(loop_contract(a, [0, 1], b, [1, 0])))

    def test_output_axis_order(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((3, 5))
        out = contract(a, [1], b, [0])
        assert out.shape == (2, 4, 5)

    @pytest.mark.parametrize(
        "axes_a, axes_b",
        [
            ([0], [0, 1]),      # length mismatch
            ([5], [0]),         # out of range
            ([0, 0], [0, 1]),   # duplicate
            ([1], [1]),         # paired lengths differ
        ],
    )
    def test_bad_axes_raise(self, axes_a, axes_b):
        a = np.zeros((2, 3))
        b = np.zeros((3, 2))
        with pytest.raises(ContractShapeError):
            contract(a, axes_a, b, axes_b)

    def test_error_names_shapes(self):
        with pytest.raises(ContractShapeError, match=r"\(2, 3\)"):
            contract(np.zeros((2, 3)), [1], np.zeros((3, 2)), [1])

    @given(alpha=st.floats(-10, 10, allow_nan=False), seed=st.integers(0, 10**6))
    def test_bilinearity(self, alpha, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        lhs = contract(alpha * a, [1], b, [0])
        rhs = alpha * contract(a, [1], b, [0])
        np.testing.assert_allclose(lhs, rhs, atol=1e-12 * max(1.0, abs(alpha)))

    def test_small_shape_sweep_against_loop_oracle(self):
        # ranks up to 4, axis lengths up to 4, seeded pairings
        rng = np.random.default_rng(7)
        for rank_a in range(1, 5):
            for rank_b in range(1, 5):
                for _ in range(4):
                    k = int(rng.integers(1, min(rank_a, rank_b) + 1))
                    axes_a = list(rng.choice(rank_a, size=k, replace=False))
                    axes_b = list(rng.choice(rank_b, size=k, replace=False))
                    shape_a = list(rng.integers(1, 5, size=rank_a))
                    shape_b = list(rng.integers(1, 5, size=rank_b))
                    for pa, pb in zip(axes_a, axes_b):
                        shape_b[pb] = shape_a[pa]
                    a = rng.standard_normal(shape_a)
                    b = rng.standard_normal(shape_b)
                    out = contract(a, axes_a, b, axes_b)
                    expected = loop_contract(a, axes_a, b, axes_b)
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
