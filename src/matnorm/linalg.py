"""Dense complex matrix kernels.

Norms, SVD-based duality witnesses, block-array coercion and a seeded
Haar-random unitary. Everything operates on plain numpy complex arrays and is pure:
no function mutates its inputs. Intended scale is small (matrices up to a
few hundred rows), double precision throughout.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError, InvalidInputError, require_int

__all__ = [
    "as_matrix",
    "as_block_array",
    "trace_norm",
    "dual_witness",
    "canonical_identity",
    "random_unitary",
]


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a nonempty 2-D complex array with finite entries."""
    try:
        arr = np.asarray(a, dtype=complex)
    except (ValueError, TypeError) as exc:
        raise InvalidInputError(f"not a complex matrix: {exc}") from exc
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise InvalidInputError(f"expected a nonempty 2-D matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidInputError("matrix entries must be finite")
    return arr


def as_block_array(blocks, block_size: int | None = None) -> np.ndarray:
    """Coerce ``blocks`` to an (m, m, n, n) array of square blocks, m and n positive."""
    if block_size is not None:
        require_int("block size", block_size, 1)
    try:
        arr = np.asarray(blocks, dtype=complex)
    except (ValueError, TypeError) as exc:
        raise InvalidInputError(f"ragged or non-numeric block array: {exc}") from exc
    if arr.ndim != 4:
        raise InvalidInputError(f"expected an m x m array of n x n blocks, got shape {arr.shape}")
    m1, m2, n1, n2 = arr.shape
    if m1 != m2 or n1 != n2 or arr.size == 0:
        raise InvalidInputError(f"blocks must form a nonempty square array of square matrices, got {arr.shape}")
    if block_size is not None and n1 != block_size:
        raise InvalidInputError(f"expected {block_size} x {block_size} blocks, got {n1} x {n1}")
    if not np.isfinite(arr).all():
        raise InvalidInputError("block entries must be finite")
    return arr


def trace_norm(a) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(as_matrix(a), compute_uv=False).sum())


def dual_witness(a) -> np.ndarray:
    """Unitary ``w`` with ``tr(a w)`` equal to the trace norm of ``a``.

    Built from the full SVD ``a = U diag(s) V*`` as ``w = V U*``, so ``w``
    stays unitary (operator norm exactly 1) even when ``a`` is rank
    deficient.
    """
    arr = as_matrix(a)
    if arr.shape[0] != arr.shape[1]:
        raise InvalidInputError("dual witness requires a square matrix")
    if not arr.any():
        raise DegenerateInputError("zero matrix has no distinguished unit-norm witness")
    return dual_witnesses(arr)


def dual_witnesses(stack: np.ndarray) -> np.ndarray:
    """:func:`dual_witness` of each matrix of a (..., k, k) stack, unchecked; a zero matrix gets some unitary."""
    u, _, vh = np.linalg.svd(stack)
    return vh.conj().swapaxes(-1, -2) @ u.conj().swapaxes(-1, -2)


def canonical_identity(n: int) -> np.ndarray:
    """The flip element of the n x n blocks: block (p, q) is e_qp.

    Its amplified image under any phi_v is v itself, and the assembled
    n^2 x n^2 matrix is the (unitary) swap permutation: the identity with
    the last two of its (n, n, n, n) axes swapped.
    """
    require_int("block size", n, 1)
    return np.eye(n * n, dtype=complex).reshape(n, n, n, n).transpose(0, 1, 3, 2).copy()


def random_unitary(k: int, seed) -> np.ndarray:
    """Haar-random k x k unitary, deterministic per seed."""
    require_int("size", k, 1)
    rng = np.random.default_rng(seed)
    # QR of a complex Ginibre matrix with the R diagonal phase-fixed gives
    # the Haar distribution.
    z = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
