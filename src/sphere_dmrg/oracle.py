"""Brute-force dense reference for the subspace geometry.

Everything here is recomputed densely from scratch on every call so the
code stays simple enough to trust by inspection. Use it to verify the
engine, never for speed. A subspace basis is a plain array with one dense
vector per row.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np

from .errors import InputError
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

    If the rows fail the orthonormality check (a gauge bug upstream),
    they are re-orthonormalized first and a warning is emitted; the
    fallback is never silent.
    """
    if vectors.shape[1] != target.dim:
        raise InputError(
            f"basis vectors have length {vectors.shape[1]}, target has {target.dim}"
        )
    gram = vectors @ vectors.T
    if np.max(np.abs(gram - np.eye(len(vectors)))) > ORTHO_TOL:
        warnings.warn(
            "subspace basis is not orthonormal; re-orthonormalizing "
            "(source state violates the mixed-canonical gauge)",
            stacklevel=2,
        )
        q, _ = np.linalg.qr(vectors.T)
        vectors = q.T
    coeffs = vectors @ target.amplitudes
    projection = vectors.T @ coeffs
    return projection, float(np.linalg.norm(projection))
