"""Concrete catalog of matrix-normed coordinate spaces and the randomized axiom checker.

A space is a coordinate dimension together with a norm evaluator over
stacks of (m, m, dim) coordinate arrays, one per level-m element. The catalog:

* ``cmax``    scalars; level-m norm is the trace norm of the m x m matrix
* ``op:k``    k x k matrices; level-m norm is the operator norm of the
              assembled mk x mk matrix
* ``cmin``    scalars; level-m norm is the operator norm of the m x m
              matrix, i.e. ``op:1`` (the same class) under its own id
* ``l1:[..]`` direct sums; level-m norm is the sum of the component norms

The two axioms every evaluator must satisfy, checked here on random and
structured samples:

1. padding an element with zero rows and columns leaves its norm unchanged;
2. ``|S u T| <= |S|_o |u| |T|_o`` for scalar matrices S, T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidInputError, require_int

__all__ = [
    "LeveledElement",
    "MatricialSpace",
    "Couple",
    "c_min",
    "c_max",
    "concrete_operator_space",
    "l1_sum",
    "l1_component",
    "l1_embed",
    "coproduct_apply",
    "space_from_id",
    "planted_fault_space",
    "scalar_action",
    "pad",
    "random_element",
    "AxiomReport",
    "check_axioms",
    "COUPLE_FEASIBILITY_TOL",
]

COUPLE_FEASIBILITY_TOL = 1e-12

MAX_OPERATOR_SIZE = 10**4  # the largest k of op:k; an id's digits are checked against it before int()

MAX_ID_DEPTH = 100  # the deepest nesting of l1 sums a space id may have


@dataclass(frozen=True, eq=False)
class LeveledElement:
    """Level-m element of a space, stored as an (m, m, dim) coordinate array."""

    space_id: str
    coords: np.ndarray

    @property
    def level(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[2]


@dataclass(frozen=True, eq=False)
class MatricialSpace:
    """Descriptor of a space: coordinate dimension plus levelwise norm.

    A space is a subclass with a ``norm_batch`` kernel over any leading axes;
    construction rejects a class without one. A kind may also supply
    structured couples and the optimizer's two polar hooks: ``polar_state``
    values a stack of images and gives each image's support functional,
    from one full SVD of the stack, and ``polar_proposal`` maximizes a
    functional pulled back to the elements over the unit ball. Neither hook
    sees u, and neither may write into the arrays it receives.
    """

    space_id: str
    dim: int

    def __post_init__(self):
        if type(self).norm_batch is MatricialSpace.norm_batch:
            raise InvalidInputError(f"{self.space_id}: a space needs a norm_batch")

    def element(self, coords) -> LeveledElement:
        """Wrap coordinates as an element of this space, validating shape.

        Accepts an (m, m, dim) array; for dim-1 spaces a plain (m, m) matrix
        and, for any space, a flat length-dim vector (level 1) also work.
        """
        arr = linalg.as_finite_array(coords, complex, "coordinate array")
        if arr.ndim == 1 and arr.shape[0] == self.dim:
            arr = arr.reshape(1, 1, self.dim)
        elif arr.ndim == 2 and self.dim == 1 and arr.shape[0] == arr.shape[1]:
            arr = arr.reshape(arr.shape[0], arr.shape[1], 1)
        if arr.ndim != 3 or not arr.shape[0] or arr.shape[0] != arr.shape[1] or arr.shape[2] != self.dim:
            raise InvalidInputError(
                f"{self.space_id}: expected (m, m, {self.dim}) coordinates, m positive, got shape {arr.shape}"
            )
        return LeveledElement(self.space_id, arr)

    def norm(self, u) -> float:
        """Levelwise norm of ``u`` (a LeveledElement or raw coordinates)."""
        if isinstance(u, LeveledElement):
            if u.space_id != self.space_id:
                raise InvalidInputError(f"element of {u.space_id} passed to {self.space_id}")
            coords = u.coords
        else:
            coords = self.element(u).coords
        return float(self.norm_batch(coords))

    def norm_batch(self, coords: np.ndarray) -> np.ndarray:
        """Norms of a (..., m, m, dim) stack of coordinate arrays, shape (...); each subclass supplies it."""
        raise NotImplementedError

    def unit_scaled_stack(self, stack: np.ndarray, sphere=False) -> np.ndarray:
        """Divide, in place, each element of a (B, m, m, dim) stack whose norm exceeds 1 by that norm.

        With ``sphere`` (one flag or B) any nonzero element is divided,
        landing on the unit sphere.
        """
        return scale_by_norms(stack, self.norm_batch(stack), sphere)

    def structured_couples(self, n: int, u4: np.ndarray) -> np.ndarray:
        """Hand-picked level-n elements for the validated (m, m, n, n) input ``u4``, as an (S, n, n, dim) stack.

        The search rescales them into the unit ball.
        """
        return np.empty((0, n, n, self.dim), dtype=complex)

    def polar_state(self, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Norms of a (B, m, m, dim) stack of images, within rounding of ``norm_batch``'s, and their functionals.

        The (B, m, m, dim) stack F is each image's support functional: in the
        dual unit ball, with ``Re sum(F[b] * images[b])`` the norm, and 0 for
        a zero image. The optimizer keeps a restart's F beside its point, so
        one factorization values an image and proposes from it. Each row must
        get the bits of its own call, whatever the batch. By default F = 0.
        """
        return self.norm_batch(images), np.zeros_like(images)

    def polar_proposal(self, pulled: np.ndarray) -> np.ndarray:
        """Maximizer of ``Re sum(g * v)`` over the level-n unit ball for each g of a (B, n, n, dim) stack.

        g is a ``polar_state`` functional pulled back by ``pullbacks``. The
        optimizer moves a restart straight there and ends it when that does
        not raise the value, so an override must return the maximizer. A
        zero row means no proposal (no such step, or g = 0); that restart ends.
        """
        return np.zeros_like(pulled)


@dataclass(frozen=True, eq=False)
class Couple:
    """A space together with an element of the closed unit ball at its level.

    Feasibility is verified at construction by the space's own evaluator.
    """

    space: MatricialSpace
    v: LeveledElement

    def __post_init__(self):
        if self.v.space_id != self.space.space_id:
            raise InvalidInputError(f"couple mixes {self.space.space_id} with {self.v.space_id}")
        check_unit_ball(self.space, self.v.coords[None])


def _zero_rows(stack: np.ndarray, zero: np.ndarray) -> np.ndarray:
    """Set, in place, the rows of ``stack`` that ``zero`` flags to 0, and return the stack."""
    if zero.any():
        stack[zero] = 0
    return stack


def scale_by_norms(stack: np.ndarray, norms: np.ndarray, sphere=False) -> np.ndarray:
    """:meth:`MatricialSpace.unit_scaled_stack` with each element's norm given, as ``norms`` (B,)."""
    scaled = norms > np.where(sphere, 0.0, 1.0)
    return np.divide(stack, norms[:, None, None, None], out=stack, where=scaled[:, None, None, None])


def check_unit_ball(space: MatricialSpace, stack: np.ndarray) -> np.ndarray:
    """The couple feasibility check for every element of a (B, m, m, dim) stack; returns the norms it checked."""
    norms = space.norm_batch(stack)
    over = norms[norms > 1.0 + COUPLE_FEASIBILITY_TOL]  # a NaN norm hides no other
    if over.size:
        raise InvalidInputError(f"couple element has norm {over[0]:.15g} > 1")
    return norms


# ---------------------------------------------------------------------------
# catalog kinds and their constructors
# ---------------------------------------------------------------------------


class TraceScalars(MatricialSpace):
    """Scalars with the trace norm at every level (``cmax``)."""

    def norm_batch(self, coords):
        return np.linalg.svd(coords[..., 0], compute_uv=False).sum(axis=-1)

    def structured_couples(self, n, u4):
        """``cmin``'s, each divided by n: the identity and the dual witnesses of u4's nonzero blocks.

        Each has operator norm 1, so trace norm at most n. A dual witness
        achieves the trace norm of its block at level 1.
        """
        return c_min().structured_couples(n, u4) / n

    def polar_state(self, images):
        """Trace norms and transposed dual witnesses ``(V U*)^T`` of the images, from one full SVD."""
        witnesses, s = linalg.dual_witnesses(images[..., 0])
        return s.sum(axis=-1), _zero_rows(witnesses.swapaxes(1, 2)[..., None], ~images.any(axis=(1, 2, 3)))

    def polar_proposal(self, pulled):
        # maximize Re sum g_ij w_ij = Re tr(g^T w) over the unit ball: the top rank-one part of g^T
        gt = pulled[..., 0].swapaxes(1, 2)
        uu, _, vvh = np.linalg.svd(gt)
        w = vvh[:, 0].conj()[:, :, None] * uu[..., 0].conj()[:, None, :]
        return _zero_rows(w, ~gt.any(axis=(1, 2)))[..., None]


@dataclass(frozen=True, eq=False)
class OperatorSpace(MatricialSpace):
    """k x k matrices normed as the assembled operator (``op:k``)."""

    k: int

    def _assembled(self, coords):
        """The mk x mk matrices of a (..., m, m, k * k) stack."""
        lead, m, k = coords.shape[:-3], coords.shape[-3], self.k
        return coords.reshape(lead + (m, m, k, k)).swapaxes(-3, -2).reshape(lead + (m * k, m * k))

    def norm_batch(self, coords):
        return np.linalg.svd(self._assembled(coords), compute_uv=False).T[0]

    def structured_couples(self, n, u4):
        """The assembled identity; when k = n > 1 also the flip element (at n = 1 it is the identity).

        When k = 1, also the dual witnesses of u4's nonzero blocks; a dual
        witness achieves the trace norm of its block at level 1.
        """
        k = self.k
        coords = [np.einsum("pq,x->pqx", np.eye(n), np.eye(k).reshape(-1)).astype(complex)]
        if k == n > 1:
            coords.append(linalg.canonical_identity(n).reshape(n, n, n * n))
        if k == 1:
            blocks = u4.reshape(-1, n, n)
            coords.extend(linalg.dual_witnesses(blocks[blocks.any(axis=(1, 2))])[0][..., None])
        return np.stack(coords)

    def polar_state(self, images):
        """Operator norms and functionals ``conj(x) y^T``, (x, y) the top singular pair, of the assembled images."""
        x, s, yh = np.linalg.svd(self._assembled(images))
        b, m, k = len(s), images.shape[1], self.k
        top = np.conjugate(x[..., 0, None] * yh[:, None, 0])  # conj(x) y^T, as y = conj(yh[0])
        functionals = top.reshape(b, m, k, m, k).transpose(0, 1, 3, 2, 4).reshape(images.shape)
        return s[:, 0], _zero_rows(functionals, ~images.any(axis=(1, 2, 3)))

    def polar_proposal(self, pulled):
        # maximize Re tr(G^T w) over the assembled unit ball: w is the dual witness of G^T
        k, b, n = self.k, *pulled.shape[:2]
        gt = self._assembled(pulled).swapaxes(1, 2)
        w = linalg.dual_witnesses(gt)[0].reshape(b, n, k, n, k).transpose(0, 1, 3, 2, 4)
        return _zero_rows(w.reshape(pulled.shape), ~gt.any(axis=(1, 2)))


@dataclass(frozen=True, eq=False)
class L1Sum(MatricialSpace):
    """Direct sum normed by the sum of the component norms (``l1:[..]``).

    ``offsets`` holds the coordinate offset of every summand, ending with dim.
    """

    parts: tuple
    offsets: tuple

    def norm_batch(self, coords):
        return sum(part.norm_batch(np.ascontiguousarray(coords[..., lo:hi]))
                   for part, lo, hi in zip(self.parts, self.offsets[:-1], self.offsets[1:]))


def c_min() -> MatricialSpace:
    """Scalars with the operator norm at every level: the 1 x 1 matrices ``op:1`` under their own id."""
    return OperatorSpace("cmin", 1, 1)


def c_max() -> MatricialSpace:
    """Scalars with the trace norm at every level."""
    return TraceScalars("cmax", 1)


def concrete_operator_space(k: int) -> MatricialSpace:
    """k x k matrices; a level-m element is normed as the assembled mk x mk matrix.

    Coordinates are over the elementary-matrix basis of the k x k matrices in
    row-major order, so the coordinate vector of an entry is just the entry
    flattened.
    """
    require_int("size", k, 1)
    if k > MAX_OPERATOR_SIZE:  # the message leaves k out: str() refuses ints of more than 4,300 digits
        raise InvalidInputError(f"size must be at most {MAX_OPERATOR_SIZE}")
    return OperatorSpace(f"op:{k}", k * k, k)


def l1_sum(parts) -> MatricialSpace:
    """Direct sum whose level-m norm is the sum of the component norms."""
    parts = tuple(parts)
    if not parts:
        raise InvalidInputError("l1 sum of an empty family")
    offsets = (0, *np.cumsum([p.dim for p in parts]).tolist())
    space_id = "l1:[" + ",".join(p.space_id for p in parts) + "]"
    return L1Sum(space_id, offsets[-1], parts, offsets)


def _as_l1(space: MatricialSpace) -> L1Sum:
    if not isinstance(space, L1Sum):
        raise InvalidInputError(f"{space.space_id} is not an l1 sum")
    return space


def _summand(space: MatricialSpace, index: int) -> MatricialSpace:
    parts = _as_l1(space).parts
    if isinstance(index, bool) or not isinstance(index, (int, np.integer)) or not 0 <= index < len(parts):
        raise InvalidInputError(f"{space.space_id} has no summand {index!r}")
    return parts[index]


def l1_component(space: MatricialSpace, u: LeveledElement, index: int) -> LeveledElement:
    """Component of an l1-sum element as an element of the summand."""
    part, offs = _summand(space, index), space.offsets
    if u.space_id != space.space_id:
        raise InvalidInputError(f"element of {u.space_id} passed to {space.space_id}")
    return LeveledElement(part.space_id, np.ascontiguousarray(u.coords[:, :, offs[index]:offs[index + 1]]))


def l1_embed(space: MatricialSpace, element: LeveledElement, index: int) -> LeveledElement:
    """Image of a summand element under the coordinate injection into the sum."""
    part, offs = _summand(space, index), space.offsets
    if element.space_id != part.space_id:
        raise InvalidInputError(f"cannot embed {element.space_id} as summand {index} of {space.space_id}")
    m = element.level
    coords = np.zeros((m, m, space.dim), dtype=complex)
    coords[:, :, offs[index]:offs[index + 1]] = element.coords
    return LeveledElement(space.space_id, coords)


def coproduct_apply(space: MatricialSpace, psis, u: LeveledElement) -> np.ndarray:
    """Apply the coproduct of coordinate maps componentwise to an l1-sum element.

    ``psis`` holds one coordinate matrix per summand, all with the same
    output dimension. Composing with a coordinate injection recovers the
    corresponding map exactly: the other components contribute exact zeros.
    """
    offs = _as_l1(space).offsets
    psis = [linalg.as_matrix(p) for p in psis]
    if len(psis) != len(space.parts):
        raise InvalidInputError(f"{len(psis)} maps for {len(space.parts)} summands")
    out_dim = psis[0].shape[0]
    for psi, part in zip(psis, space.parts):
        if psi.shape != (out_dim, part.dim):
            raise InvalidInputError(f"coordinate map of shape {psi.shape} against summand dimension {part.dim}")
    if u.space_id != space.space_id:
        raise InvalidInputError(f"element of {u.space_id} passed to {space.space_id}")
    m = u.level
    out = np.zeros((m, m, out_dim), dtype=complex)
    for psi, lo, hi in zip(psis, offs[:-1], offs[1:]):
        out = out + np.einsum("fd,kld->klf", psi, u.coords[:, :, lo:hi])
    return out


def _split_top_level(text: str) -> tuple[list[str], int]:
    """The comma-separated parts of ``text`` outside brackets, and the deepest bracket nesting inside it."""
    parts, depth, deepest, cur = [], 0, 0, []
    for ch in text:
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
            continue
        if ch == "[":
            depth += 1
            deepest = max(deepest, depth)
        elif ch == "]":
            depth -= 1
        cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts], deepest


def space_from_id(space_id: str) -> MatricialSpace:
    """Build a catalog space from its stable identifier.

    Understood forms: "cmin", "cmax", "op:k" with k in ASCII digits, at most
    ``MAX_OPERATOR_SIZE``, and "l1:[id,id,...]" (no empty id, nested at most
    ``MAX_ID_DEPTH`` deep).
    """
    if not isinstance(space_id, str):
        raise InvalidInputError(f"space id must be a string, got {space_id!r}")
    s = space_id.strip()
    if s == "cmin":
        return c_min()
    if s == "cmax":
        return c_max()
    if s.startswith("op:"):
        if not (s[3:].isascii() and s[3:].isdigit()):  # int() also takes signs, underscores and spaces
            raise InvalidInputError(f"bad operator-space id: {space_id!r}")
        digits = s[3:].lstrip("0") or "0"
        if len(digits) > len(str(MAX_OPERATOR_SIZE)):  # int() refuses more than 4,300 digits
            raise InvalidInputError(f"op:k needs k at most {MAX_OPERATOR_SIZE}, got {len(digits)} digits")
        return concrete_operator_space(int(digits))
    if s.startswith("l1:[") and s.endswith("]"):
        inner, deepest = _split_top_level(s[4:-1])
        if deepest >= MAX_ID_DEPTH:  # this sum is one level more; checked before the parts recurse
            raise InvalidInputError(f"space id nests l1 sums more than {MAX_ID_DEPTH} deep")
        if "" in inner:
            raise InvalidInputError(f"empty summand in l1 sum id: {space_id!r}")
        return l1_sum([space_from_id(tok) for tok in inner])
    raise InvalidInputError(f"unknown space id: {space_id!r}")


class _FaultyScalars(MatricialSpace):
    def norm_batch(self, coords):  # no polar hooks: cmin's would value images without the fault
        norms = c_min().norm_batch(coords)
        return norms + 0.1 if coords.shape[-3] == 2 else norms


def planted_fault_space() -> MatricialSpace:
    """``fault:cmin``, ``cmin`` with norm + 0.1 at level 2 only: a padding violation the axiom checker must catch."""
    return _FaultyScalars("fault:cmin", 1)


# ---------------------------------------------------------------------------
# element operations
# ---------------------------------------------------------------------------


def scalar_action(s, u: LeveledElement, t) -> LeveledElement:
    """Two-sided scalar action S u T, computed coordinatewise."""
    sm = linalg.as_matrix(s)
    tm = linalg.as_matrix(t)
    m = u.level
    if sm.shape != (m, m) or tm.shape != (m, m):
        raise InvalidInputError(f"scalar factors must be {m} x {m}, got {sm.shape} and {tm.shape}")
    return LeveledElement(u.space_id, np.einsum("kp,pqd,ql->kld", sm, u.coords, tm))


def pad(u: LeveledElement, extra: int) -> LeveledElement:
    """The element u + 0 at level m + extra (zero rows and columns appended)."""
    require_int("padding", extra, 0)
    if extra == 0:
        return u
    m, _, d = u.coords.shape
    coords = np.zeros((m + extra, m + extra, d), dtype=complex)
    coords[:m, :m] = u.coords
    return LeveledElement(u.space_id, coords)


def random_element(space: MatricialSpace, level: int, rng) -> LeveledElement:
    """Gaussian random element."""
    require_int("level", level, 1)
    rng = np.random.default_rng(rng)
    coords = rng.standard_normal((level, level, space.dim)) + 1j * rng.standard_normal((level, level, space.dim))
    return LeveledElement(space.space_id, coords)


# ---------------------------------------------------------------------------
# randomized axiom checker
# ---------------------------------------------------------------------------


@dataclass
class AxiomReport:
    axiom1_max_violation: float
    axiom2_max_violation: float


def _draw_element(space, level, rng, variant):
    """Coordinates of one sample before its rescale onto the unit sphere."""
    if variant == 1:
        # single elementary coordinate at a random position
        coords = np.zeros((level, level, space.dim), dtype=complex)
        k = int(rng.integers(level))
        l = int(rng.integers(level))
        coords[k, l, int(rng.integers(space.dim))] = np.exp(2j * np.pi * rng.uniform())
    elif variant == 2:
        # diagonal element conjugated by a random unitary
        coords = np.zeros((level, level, space.dim), dtype=complex)
        for k in range(level):
            coords[k, k, int(rng.integers(space.dim))] = rng.standard_normal() + 1j * rng.standard_normal()
        u = linalg.random_unitary(level, rng)
        coords = scalar_action(u, LeveledElement(space.space_id, coords), u.conj().T).coords
    else:
        coords = random_element(space, level, rng).coords
    return coords


def check_axioms(space: MatricialSpace, trials: int, seed=0, max_level: int = 4) -> AxiomReport:
    """Randomized check of the two evaluator axioms, ``trials`` rounds per level.

    Records the largest absolute padding-equality violation and the largest
    positive part of the scalar-action inequality (a NaN violation never
    counts); rerunning a seed finds the violating input again. Samples mix
    normalized Gaussian elements with structured ones (elementary,
    unitary-conjugated diagonal) to hit the equality edges.

    Each level draws its trials in turn (sample, padding, then the scalar
    factors) and then evaluates them as stacks: one ``norm_batch`` each for
    the samples, the padded samples of each padding and the two scalar
    actions (``S u`` and ``u T``, one stacked einsum each, summed as
    :func:`scalar_action` sums), and one SVD for the factors' operator norms.
    """
    require_int("trials", trials, 1)
    require_int("max_level", max_level, 1)
    rng = np.random.default_rng(seed)
    a1_max = 0.0
    a2_max = 0.0
    for level in range(1, max_level + 1):
        eye = np.eye(level)
        samples, extras, factors = [], [], []
        for t in range(trials):
            samples.append(_draw_element(space, level, rng, variant=t % 3))
            extras.append(int(rng.integers(1, 3)))
            if t % 2:
                factors.append([linalg.random_unitary(level, rng), linalg.random_unitary(level, rng)])
            else:
                factors.append([rng.standard_normal((level, level)) + 1j * rng.standard_normal((level, level))
                                for _ in range(2)])
        us = space.unit_scaled_stack(np.stack(samples), sphere=True)
        base = space.norm_batch(us)

        padded = np.empty(trials)
        for extra in (1, 2):
            picked = np.array(extras) == extra
            stack = np.zeros((picked.sum(), level + extra, level + extra, space.dim), dtype=complex)
            stack[:, :level, :level] = us[picked]
            padded[picked] = space.norm_batch(stack)
        a1_max = float(np.fmax.reduce(np.abs(padded - base), initial=a1_max))

        s, tt = np.array(factors, dtype=complex).swapaxes(0, 1)
        ops = np.linalg.svd(np.concatenate([s, tt]), compute_uv=False)[:, 0]
        left = space.norm_batch(np.einsum("tkp,tpqd,ql->tkld", s, us, eye)) - ops[:trials] * base
        right = space.norm_batch(np.einsum("kp,tpqd,tql->tkld", eye, us, tt)) - base * ops[trials:]
        v2 = np.where(right > left, right, left)  # the order of Python's max(left, right), NaN included
        a2_max = float(np.fmax.reduce(np.where(v2 > 0.0, v2, 0.0), initial=a2_max))
    return AxiomReport(a1_max, a2_max)
