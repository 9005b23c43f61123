"""Dense tensor kernel: sign-fixed QR and shape-checked contraction.

The QR splits every gauge move out of a core whose matrix is not square
(``mps.split_core`` moves a square one without it); the contraction serves
only dense conversion. Tensors are plain float64 numpy arrays in row-major
(C) order.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractShapeError


def contract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Contract the last axis of ``a`` with the first axis of ``b``.

    Output axes are the other axes of ``a`` followed by the other axes of
    ``b``: one reshape and one matmul.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim == 0 or b.ndim == 0 or a.shape[-1] != b.shape[0]:
        raise ContractShapeError(
            f"last axis of shape {a.shape} does not match first axis of shape {b.shape}"
        )
    k = b.shape[0]
    out = a.reshape(-1, k) @ b.reshape(k, -1)
    return out.reshape(a.shape[:-1] + b.shape[1:])


def qr_orthonormalize(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR with the diagonal of R forced non-negative, no rank check.

    Returns (q, t) with q.T @ q = I, q @ t = m, and t upper-triangular
    with non-negative diagonal, so the factorization is unique for full
    rank input and bit-stable for identical input. Householder QR keeps
    q orthonormal when ``m`` is rank-deficient, which is what a gauge
    shift needs: a bond wider than the state's Schmidt rank is redundant,
    not invalid.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ContractShapeError(f"expected a rank-2 tensor, got shape {m.shape}")
    r, c = m.shape
    if r < c:
        raise ContractShapeError(f"need rows >= cols, got shape {m.shape}")
    q, t = np.linalg.qr(m)
    signs = np.where(t.diagonal() < 0.0, -1.0, 1.0)
    q *= signs
    t *= signs[:, None]
    return q, t
