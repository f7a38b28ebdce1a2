"""Linear correspondence between level-n elements and maps out of the n x n matrices.

A level-n element v = (x_ij) of a space E determines the linear map

    phi_v : a  ->  sum_ij a_ji x_ij

from the n x n matrices into E (note the transposed pairing a_ji). This map
is a bijection: the element is recovered exactly from the map's matrix. The
module also provides entrywise amplification of phi_v, the canonical flip
element whose amplified image reproduces v, and a naturality checker for
postcomposition with coordinate maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidInputError
from .linalg import canonical_identity
from .spaces import LeveledElement

__all__ = [
    "PhiMap",
    "phi_of",
    "reconstruct",
    "phi_apply",
    "amplified_image",
    "amplified_images",
    "canonical_identity",
    "check_naturality",
]


@dataclass(frozen=True, eq=False)
class PhiMap:
    """Matrix representation of phi_v over the elementary basis.

    ``matrix`` has shape (dim, n*n); column p*n + q holds the coordinates the
    map assigns to the elementary matrix e_pq, i.e. x_qp.
    """

    source_dim: int
    space_id: str
    matrix: np.ndarray


def phi_of(v: LeveledElement) -> PhiMap:
    """The map associated to a level-n element; exact, invertible relayout."""
    n = v.level
    return PhiMap(n, v.space_id, v.coords.transpose(2, 1, 0).reshape(v.dim, n * n))


def reconstruct(phi: PhiMap) -> LeveledElement:
    """Inverse of :func:`phi_of`; bitwise round trip."""
    n = phi.source_dim
    d = phi.matrix.shape[0]
    return LeveledElement(phi.space_id, phi.matrix.reshape(d, n, n).transpose(2, 1, 0))


def phi_apply(phi: PhiMap, a) -> LeveledElement:
    """Image of an n x n matrix under the map, as a level-1 element."""
    arr = linalg.as_matrix(a)
    n = phi.source_dim
    if arr.shape != (n, n):
        raise InvalidInputError(f"expected a {n} x {n} matrix, got shape {arr.shape}")
    out = phi.matrix @ arr.reshape(n * n)
    return LeveledElement(phi.space_id, out.reshape(1, 1, -1))


def amplified_image(v: LeveledElement, blocks) -> LeveledElement:
    """Entrywise application of phi_v to an m x m array of n x n matrices, n the level of ``v``."""
    u4 = linalg.as_block_array(blocks, block_size=v.level)
    return LeveledElement(v.space_id, amplified_images(v.coords[None], u4)[0])


def amplified_images(coords: np.ndarray, u4: np.ndarray) -> np.ndarray:
    """:func:`amplified_image` of each element of a (B, n, n, dim) stack on validated ``u4``, as (B, m, m, dim)."""
    b, n, _, d = coords.shape
    m = u4.shape[0]
    phis = coords.transpose(0, 3, 2, 1).reshape(b, d, n * n)  # each element's phi_of matrix
    return np.einsum("bdx,klx->bkld", phis, u4.reshape(m, m, n * n))


def check_naturality(psi, v: LeveledElement) -> float:
    """Largest deviation between mapping-then-representing and representing-then-mapping.

    ``psi`` is a coordinate matrix from the space of ``v`` into another
    space. Both composition orders are evaluated on the full elementary
    basis, which spans the n x n matrices, and compared coordinatewise.
    """
    psi_m = np.asarray(psi, dtype=complex)
    if psi_m.ndim != 2 or psi_m.shape[1] != v.dim:
        raise InvalidInputError(
            f"coordinate map of shape {psi_m.shape} does not act on dimension {v.dim}"
        )
    n = v.level
    phi_v = phi_of(v)
    mapped = LeveledElement("mapped", np.einsum("fd,kld->klf", psi_m, v.coords))
    phi_w = phi_of(mapped)

    worst = 0.0
    for a in np.eye(n * n, dtype=complex).reshape(n * n, n, n):
        via_map = phi_apply(phi_w, a).coords[0, 0]
        via_space = psi_m @ phi_apply(phi_v, a).coords[0, 0]
        worst = max(worst, float(np.abs(via_map - via_space).max()))
    return worst
