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
    "as_finite_array",
    "as_matrix",
    "as_block_array",
    "trace_norm",
    "dual_witness",
    "canonical_identity",
    "random_unitary",
]


def as_finite_array(data, dtype, what: str) -> np.ndarray:
    """Coerce ``data`` to an array of ``dtype`` with finite entries; ``what`` names it in errors.

    numpy raises ValueError or TypeError on ragged or non-numeric data, and
    OverflowError on an integer past the double range (10**400, a json literal).
    Text is no number, although numpy parses "2" into one, so the dtype is
    inferred before the conversion and text entries are rejected.
    """
    try:
        arr = np.asarray(data)
        if arr.dtype.kind in "US" or arr.dtype == object and any(isinstance(x, (str, bytes)) for x in arr.flat):
            raise TypeError("text entries are not numbers")
        arr = arr.astype(dtype, copy=False)
    except (ValueError, TypeError, OverflowError) as exc:
        raise InvalidInputError(f"malformed input, not a {what}: {exc}") from exc
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{what} entries must be finite")
    return arr


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a nonempty 2-D complex array with finite entries."""
    arr = as_finite_array(a, complex, "complex matrix")
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise InvalidInputError(f"expected a nonempty 2-D matrix, got shape {arr.shape}")
    return arr


_ANY_SIZE = object()  # as_block_array's default: no block size given, so any


def as_block_array(blocks, block_size: int = _ANY_SIZE) -> np.ndarray:
    """Coerce ``blocks`` to an (m, m, n, n) array of square blocks, m and n positive, n the given block size."""
    if block_size is not _ANY_SIZE:
        require_int("block size", block_size, 1)
    arr = as_finite_array(blocks, complex, "block array")
    if arr.ndim != 4:
        raise InvalidInputError(f"expected an m x m array of n x n blocks, got shape {arr.shape}")
    m1, m2, n1, n2 = arr.shape
    if m1 != m2 or n1 != n2 or arr.size == 0:
        raise InvalidInputError(f"blocks must form a nonempty square array of square matrices, got {arr.shape}")
    if block_size is not _ANY_SIZE and n1 != block_size:
        raise InvalidInputError(f"expected {block_size} x {block_size} blocks, got {n1} x {n1}")
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
    return dual_witnesses(arr)[0]


def dual_witnesses(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`dual_witness` of each matrix of a (..., k, k) stack, and its singular values; unchecked."""
    u, s, vh = np.linalg.svd(stack)
    return vh.conj().swapaxes(-1, -2) @ u.conj().swapaxes(-1, -2), s


def top_eigenvalues(grams: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each Hermitian matrix of a (..., r, r) stack, r = 2 or 3, in closed form.

    r = 2 takes the quadratic formula; r = 3 the trigonometric form of the
    cubic's roots (Smith, CACM 1961), where a multiple of the identity (p = 0)
    gives its diagonal. Both agree with LAPACK to about 1e-15 relative,
    except where the two largest of three eigenvalues tie: there the arccos
    loses half the digits (about 1e-8 relative), so the value may choose
    but not certify. Only the upper triangle is read. A non-finite entry, or
    an intermediate that overflows, gives a non-finite value and no warning.
    There is no closed form for r >= 4; callers skip those shapes.
    """
    g = np.asarray(grams)
    with np.errstate(invalid="ignore", over="ignore"):
        if g.shape[-1] == 2:
            d0, d1 = g[..., 0, 0].real, g[..., 1, 1].real
            return (d0 + d1) / 2 + np.hypot((d0 - d1) / 2, np.abs(g[..., 0, 1]))
        q = (g[..., 0, 0].real + g[..., 1, 1].real + g[..., 2, 2].real) / 3
        a0, a1, a2 = g[..., 0, 0].real - q, g[..., 1, 1].real - q, g[..., 2, 2].real - q
        b, c, e = g[..., 0, 1], g[..., 0, 2], g[..., 1, 2]
        bb, cc, ee = _abs2(b), _abs2(c), _abs2(e)
        p = np.sqrt((a0 * a0 + a1 * a1 + a2 * a2 + 2 * (bb + cc + ee)) / 6)
        # det(B) / 2 for B = (G - q I) / p; p = 0 leaves B = 0, so phi = pi/6 and the value q
        w = 1 / np.where(p > 0, p, 1.0)
        a0, a1, a2, w2 = a0 * w, a1 * w, a2 * w, w * w
        half_det = ((a0 * a1 * a2 - (a0 * ee + a1 * cc + a2 * bb) * w2) / 2
                    + (b * w * e * w * c.conj()).real * w)
        return q + 2 * p * np.cos(np.arccos(np.maximum(np.minimum(half_det, 1.0), -1.0)) / 3)


def _abs2(z: np.ndarray) -> np.ndarray:
    """``|z|^2`` elementwise, without the square root."""
    return z.real * z.real + z.imag * z.imag


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
