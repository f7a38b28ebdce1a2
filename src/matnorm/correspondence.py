"""Linear correspondence between level-n elements and maps out of the n x n matrices.

A level-n element v = (x_ij) of a space E determines the linear map

    phi_v : a  ->  sum_ij a_ji x_ij

from the n x n matrices into E (note the transposed pairing a_ji). This map
is a bijection: the element is recovered exactly from the map's matrix. Its
one evaluator is the entrywise amplification (at m = 1, phi_v itself); the
module also provides the canonical flip element, whose amplified image
reproduces v, a naturality checker for coordinate maps and the
amplification's adjoint, :func:`pullbacks`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidInputError
from .spaces import LeveledElement

__all__ = [
    "PhiMap",
    "phi_of",
    "reconstruct",
    "amplified_image",
    "amplified_images",
    "pullbacks",
    "check_naturality",
]


@dataclass(frozen=True, eq=False)
class PhiMap:
    """Matrix representation of phi_v over the elementary basis.

    ``matrix`` has shape (dim, n*n); column p*n + q holds the coordinates the
    map assigns to the elementary matrix e_pq, i.e. x_qp. So the image of an
    n x n matrix ``a`` is ``matrix @ a.reshape(-1)``.
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


def pullbacks(functionals: np.ndarray, u4: np.ndarray) -> np.ndarray:
    """The adjoint of :func:`amplified_images`: the (B, n, n, dim) G with ``sum(G[b] * v) == sum(F[b] * phi_v(u))``.

    F is a (B, m, m, dim) stack. Each row is its own product in one broadcast
    ``@``, so it gets the bits of its own call, whatever the batch.
    """
    (b, m, _, d), n = functionals.shape, u4.shape[2]
    rows = functionals.transpose(0, 3, 1, 2).reshape(b, d, m * m)
    return (rows @ u4.reshape(m * m, n * n)).reshape(b, d, n, n).transpose(0, 3, 2, 1)


def check_naturality(psi, v: LeveledElement) -> float:
    """Largest deviation between mapping-then-representing and representing-then-mapping.

    ``psi`` is a coordinate matrix from the space of ``v`` into another
    space. Column p*n + q of a map's matrix is the image of e_pq, so the two
    matrices compare both orders on the elementary basis, which spans M_n.
    """
    psi_m = linalg.as_matrix(psi)
    if psi_m.shape[1] != v.dim:
        raise InvalidInputError(
            f"coordinate map of shape {psi_m.shape} does not act on dimension {v.dim}"
        )
    mapped = LeveledElement("mapped", np.einsum("fd,kld->klf", psi_m, v.coords))
    return float(np.abs(phi_of(mapped).matrix - psi_m @ phi_of(v).matrix).max())
