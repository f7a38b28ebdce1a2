"""Helpers shared by the test modules: complex Gaussian draws, block layouts, a bare space and long space ids."""

from dataclasses import dataclass

import numpy as np

from matnorm import MatricialSpace
from matnorm.spaces import MAX_ID_DEPTH, OperatorSpace, TraceScalars


def gauss(rng, shape):
    """A complex Gaussian array from a numpy generator: the real parts, then the imaginary parts."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def single_block(a):
    """An n x n matrix as the (1, 1, n, n) block array."""
    a = np.asarray(a, dtype=complex)
    return a.reshape(1, 1, *a.shape)


def op_norm(a):
    """The largest singular value of a matrix."""
    return float(np.linalg.svd(a, compute_uv=False)[0])


def assembled(blocks):
    """The mk x mk matrix of an m x m array of k x k blocks; block (p, q) holds rows p*k.., columns q*k.."""
    m, _, k, _ = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(m * k, m * k)


@dataclass(frozen=True, eq=False)
class Bare(MatricialSpace):
    """A space with ``base``'s norm kernel and nothing else: no structured couples and no polar step."""

    base: MatricialSpace

    def norm_batch(self, coords):
        return self.base.norm_batch(coords)


def forbid_bound_work(monkeypatch):
    """Fail the test at the first generator or norm the default catalog's spaces would make: for inputs refused up front."""
    def forbidden(*args, **kwargs):
        raise AssertionError("bound work started on an input that should have been refused")
    monkeypatch.setattr(np.random, "default_rng", forbidden)
    for kind in (TraceScalars, OperatorSpace):
        monkeypatch.setattr(kind, "norm_batch", forbidden)


def nested_id(depth):
    """cmin inside ``depth`` nested one-summand l1 sums."""
    return "l1:[" * depth + "cmin" + "]" * depth


# space ids past the parser's bounds, with their test ids
OVERSIZED_IDS = [nested_id(1000), nested_id(MAX_ID_DEPTH + 1), "op:" + "7" * 3000, "op:" + "7" * 5000]
OVERSIZED_ID_NAMES = ["depth_1000", "depth_bound_plus_1", "op_3000_digits", "op_5000_digits"]
