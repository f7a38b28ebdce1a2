"""JSON helpers: complex arrays travel as nested [re, im] pairs."""

import numpy as np

from .errors import InvalidInputError
from .linalg import as_finite_array


def complex_to_pairs(arr):
    """Nested lists with every complex entry encoded as [re, im]."""
    arr = np.asarray(arr, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def pairs_to_complex(data):
    """Inverse of :func:`complex_to_pairs`; validates shape and finiteness."""
    arr = as_finite_array(data, float, "complex-pair array")
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise InvalidInputError(
            f"complex entries must be [re, im] pairs, got trailing dimension {arr.shape[-1] if arr.ndim else 0}"
        )
    return arr[..., 0] + 1j * arr[..., 1]
