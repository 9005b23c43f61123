"""Brute-force dense reference for the subspace geometry.

Everything here is recomputed densely from scratch on every call so the
code stays simple enough to trust by inspection. Use it to verify the
engine, never for speed. A subspace basis is a plain array with one dense
vector per row.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import GaugeError, InputError
from .mps import MPS, dense_amplitudes
from .target import DenseState

ORTHO_TOL = 1e-8


def subspace_basis_dense(state: MPS) -> np.ndarray:
    """Dense spanning vectors of the single-site subspace at the center.

    Returns an (l*d*r, d**n) array: row k is the state whose center core
    is the k-th unit tensor, counted in (left bond, physical, right bond)
    order.
    """
    i = state.center
    l, d, r = state.sites[i].shape
    dim = l * d * r
    vectors = np.empty((dim, state.d**state.n))
    for k in range(dim):
        unit = np.zeros(dim)
        unit[k] = 1.0
        sites = list(state.sites)
        sites[i] = unit.reshape(l, d, r)
        vectors[k] = dense_amplitudes(replace(state, sites=tuple(sites)))
    return vectors


def project_onto_subspace_dense(
    target: DenseState, vectors: np.ndarray
) -> tuple[np.ndarray, float]:
    """Orthogonal projection of the target onto the span of the rows of ``vectors``.

    Raises ``GaugeError`` unless the rows are orthonormal within
    ``ORTHO_TOL``: a gauge bug upstream is refused, not repaired.
    """
    if vectors.shape[1] != target.amplitudes.size:
        raise InputError(
            f"basis vectors have length {vectors.shape[1]}, "
            f"target has {target.amplitudes.size}"
        )
    defect = float(np.max(np.abs(vectors @ vectors.T - np.eye(len(vectors)))))
    # written so that NaN fails too
    if not defect <= ORTHO_TOL:
        raise GaugeError(
            f"subspace basis is not orthonormal: Gram defect {defect:.3e} "
            f"exceeds {ORTHO_TOL:g} (the state violates the mixed-canonical gauge)"
        )
    coeffs = vectors @ target.amplitudes
    projection = vectors.T @ coeffs
    return projection, float(np.linalg.norm(projection))
