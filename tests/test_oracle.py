import dataclasses

import numpy as np
import pytest

from sphere_dmrg.errors import GaugeError, InputError
from sphere_dmrg.mps import dense_amplitudes, gauge_to, random_mps
from sphere_dmrg.oracle import project_onto_subspace_dense, subspace_basis_dense
from sphere_dmrg.target import DenseState, named_state


class TestBasisRows:
    def test_single_site_whole_space(self):
        basis = subspace_basis_dense(random_mps(1, 2, 5, seed=0))
        assert len(basis) == 2
        # span is all of the 2-dim space
        gram = basis @ basis.T
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)

    def test_gram_identity_seeded(self):
        for seed in range(4):
            state = gauge_to(random_mps(4, 2, 2, seed=seed), seed % 4)
            basis = subspace_basis_dense(state)
            gram = basis @ basis.T
            np.testing.assert_allclose(gram, np.eye(len(basis)), atol=1e-10)

    def test_dimension_formula(self):
        state = gauge_to(random_mps(4, 2, 2, seed=1), 1)
        assert len(subspace_basis_dense(state)) == 2 * 2 * 2


class TestProjection:
    def test_member_is_fixed(self):
        state = gauge_to(random_mps(4, 2, 2, seed=3), 2)
        basis = subspace_basis_dense(state)
        target = DenseState(4, 2, dense_amplitudes(state))
        proj, norm = project_onto_subspace_dense(target, basis)
        np.testing.assert_allclose(proj, target.amplitudes, atol=1e-12)
        assert abs(norm - 1.0) < 1e-12

    def test_orthogonal_target(self):
        state = gauge_to(random_mps(3, 2, 1, seed=0), 1)
        basis = subspace_basis_dense(state)
        # build a target orthogonal to every basis vector
        rng = np.random.default_rng(5)
        v = rng.standard_normal(8)
        v -= basis.T @ (basis @ v)
        v /= np.linalg.norm(v)
        proj, norm = project_onto_subspace_dense(DenseState(3, 2, v), basis)
        assert norm < 1e-12
        np.testing.assert_allclose(proj, 0.0, atol=1e-12)

    def test_idempotent(self):
        state = gauge_to(random_mps(4, 2, 2, seed=6), 1)
        basis = subspace_basis_dense(state)
        target = named_state("random:30", 4, 2)
        proj, norm = project_onto_subspace_dense(target, basis)
        proj2, _ = project_onto_subspace_dense(
            DenseState(4, 2, proj / np.linalg.norm(proj)), basis
        )
        np.testing.assert_allclose(proj2 * np.linalg.norm(proj), proj, atol=1e-12)

    def test_pythagoras(self):
        state = gauge_to(random_mps(5, 2, 4, seed=9), 3)
        basis = subspace_basis_dense(state)
        target = named_state("random:40", 5, 2)
        proj, norm = project_onto_subspace_dense(target, basis)
        residual = target.amplitudes - proj
        assert abs(1.0 - norm**2 - np.linalg.norm(residual) ** 2) < 1e-10

    def test_dimension_mismatch(self):
        basis = subspace_basis_dense(random_mps(3, 2, 2, seed=0))
        with pytest.raises(InputError):
            project_onto_subspace_dense(named_state("uniform", 4, 2), basis)

    def test_refuses_broken_gauge(self):
        state = random_mps(4, 2, 2, seed=2)
        sites = list(state.sites)
        sites[2] = sites[2] * 3.0  # destroy the right-isometry property
        broken = dataclasses.replace(state, sites=tuple(sites))
        basis = subspace_basis_dense(broken)
        target = named_state("random:50", 4, 2)
        with pytest.raises(GaugeError, match="not orthonormal"):
            project_onto_subspace_dense(target, basis)

    def test_refuses_nan_basis(self):
        basis = subspace_basis_dense(gauge_to(random_mps(4, 2, 2, seed=2), 1))
        basis[0, 3] = np.nan
        with pytest.raises(GaugeError, match="not orthonormal"):
            project_onto_subspace_dense(named_state("random:50", 4, 2), basis)
