"""Dense tensor kernel: shape-checked contraction and sign-fixed QR.

These two primitives are the only numerics the rest of the package needs.
Tensors are plain float64 numpy arrays in row-major (C) order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ContractShapeError, RankDeficiencyError

# diagonal entries of R below this (in magnitude) are treated as rank
# deficiency by qr_orthonormalize
RANK_TOL = 1e-14


def _validate_axes(shape: tuple[int, ...], axes: Sequence[int], label: str) -> None:
    if len(set(axes)) != len(axes):
        raise ContractShapeError(f"duplicate axes {list(axes)} for operand {label}")
    for ax in axes:
        if not (0 <= ax < len(shape)):
            raise ContractShapeError(
                f"axis {ax} out of range for operand {label} with shape {shape}"
            )


def contract(
    a: np.ndarray,
    axes_a: Sequence[int],
    b: np.ndarray,
    axes_b: Sequence[int],
) -> np.ndarray:
    """Contract ``a`` and ``b`` over the paired axes.

    Output axes are the free axes of ``a`` (in order) followed by the free
    axes of ``b`` (in order). Contracting every axis of both operands
    yields a 0-d array.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(axes_a) != len(axes_b):
        raise ContractShapeError(
            f"axis lists differ in length: {list(axes_a)} vs {list(axes_b)}"
        )
    _validate_axes(a.shape, axes_a, "a")
    _validate_axes(b.shape, axes_b, "b")
    for ax_a, ax_b in zip(axes_a, axes_b):
        if a.shape[ax_a] != b.shape[ax_b]:
            raise ContractShapeError(
                f"paired axes {ax_a}/{ax_b} have lengths "
                f"{a.shape[ax_a]} != {b.shape[ax_b]} "
                f"(shapes {a.shape} and {b.shape})"
            )
    return np.tensordot(a, b, axes=(list(axes_a), list(axes_b)))


def qr_sign_fixed(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    signs = np.where(np.diagonal(t) < 0.0, -1.0, 1.0)
    q *= signs
    t *= signs[:, None]
    return q, t


def qr_orthonormalize(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``qr_sign_fixed`` that also refuses rank-deficient input.

    Raises RankDeficiencyError naming the first column whose diagonal
    entry of R is below RANK_TOL in magnitude.
    """
    q, t = qr_sign_fixed(m)
    diag = np.diagonal(t)
    small = diag < RANK_TOL
    if small.any():
        col = int(np.argmax(small))
        raise RankDeficiencyError(column=col, value=float(diag[col]))
    return q, t
