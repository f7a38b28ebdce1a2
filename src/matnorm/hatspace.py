"""Certified bound engine for the supremum-defined norm on blocks of n x n matrices.

The target norm of an m x m block matrix u is a supremum of amplified-image
norms over all couples (space, unit-ball element at level n); that index set
is not computable, so the engine reports certified intervals:

* every evaluated couple is feasible by construction, so the best value
  found is always a valid lower bound, with the achieving couple attached as
  a reproducible certificate;
* the upper bound, rule ``realignment``, splits u into flip atoms plus a
  residual and is attached as an :class:`UpperCertificate`.

The upper bound rests on three facts. The flip element has norm 1, since
every couple maps it to its own element. Axiom 2 holds for rectangular
scalar matrices, since it passes through every amplified map, so the atom
``A . flip . B`` (A of size m x n, B of size n x m; entry (i, j) of block
(k, l) is ``A[k, j] B[i, l]``) has norm at most ``|A|_op |B|_op``. And the
norm obeys the triangle inequality. The realignment of u, the (mn) x (nm)
matrix ``U[(k, j), (i, l)] = u[k, l, i, j]``, turns each atom into the rank-one
matrix ``vec(A) vec(B)^T``, so every rank-one decomposition of U is a
decomposition of u into atoms.

The norm is exactly the least value ``sum_t |A_t|_op |B_t|_op`` over all
decompositions ``u = sum_t A_t . flip . B_t``: the projective tensor norm
gamma(U) of M_{m,n} (x) M_{n,m}, both with the operator norm. The three facts
give ``<=``. For ``>=``, gamma is a norm at every level that obeys both
axioms (padding keeps the atoms' operator norms, and ``S (A . flip . B) T``
is ``(S A) . flip . (B T)``), and gamma(flip) <= 1; so gamma with flip is a
couple, whose image of u is u itself. The upper side is thus a convex
minimization with no gap to the norm. Also, since ``|vec A|_2`` is at most
``sqrt(min(m, n)) |A|_op``, the trace norm R of U is at most ``min(m, n)``
times any decomposition's value, so ``R / min(m, n) <= norm``.

One SVD ``U = X S Yh`` gives a first decomposition, with
``A_t = s_t X[:, t]`` and ``B_t = Yh[t]`` reshaped, worth
``sum_t s_t |X_t|_op |Y_t|_op``: at most R, which is at most the sum of the
blocks' trace norms, and exactly the block's trace norm at m = 1 (and at
n = 1). Singular values that tie span a space with no preferred basis; a
DFT rotation of their atoms leaves their sum unchanged and is kept for each
cluster where it lowers the cluster's value (on the flip-like witness
``diag(e_11, ..., e_nn)`` it certifies 1 where the plain atoms give n).
Then pairwise unitary sweeps descend from there: a 2 x 2 unitary ``[[c, s],
[-conj(s), c]]`` sends ``(A_i, A_j)`` to ``(c A_i + s A_j, -conj(s) A_i +
c A_j)`` and ``(B_i, B_j)`` to ``(c B_i + conj(s) B_j, -s B_i + c B_j)``,
which leaves ``vec(A_i) vec(B_i)^T + vec(A_j) vec(B_j)^T`` unchanged, so
the rotated atoms still decompose u exactly. Two sweeps rotate pairs in
round-robin order and keep a rotation where it lowers the pair's value.
They skip m = 1 and n = 1, where the SVD's atoms are already exact; a
numerical rank below 2 (the flip element); and min(m, n) >= 4, where the
operator norms they score have no closed form. The swept atoms replace the
SVD's only where their certified value is lower.

Floating point enters twice. The SVD does not rebuild u exactly, so the
certificate's value adds the sum of the blocks' trace norms of the residual
``u - sum_t A_t . flip . B_t``, which the checker recomputes from u and the
atoms. That sum bounds the residual's norm: a matrix with one nonzero block
has that block's trace norm as its norm (a permutation moves the block to
the corner, padding drops the rest, and at m = 1 the norm is the trace
norm), and the triangle inequality adds the blocks up. The singular values
and the residual are themselves computed with rounding error, so the total
is rounded outward by the relative margin ``UPPER_MARGIN * m * n``, a few
times the error of a backward-stable SVD of U; it is stated, not proven.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import linalg
from .correspondence import amplified_image, amplified_images
from .errors import InconsistencyError, InvalidInputError, require_int
from .optimizer import OptimizerConfig, optimize_couple
from .serialize import complex_to_pairs
from .spaces import (
    Couple,
    LeveledElement,
    MatricialSpace,
    c_max,
    c_min,
    check_unit_ball,
    concrete_operator_space,
    scale_by_norms,
)

__all__ = [
    "NormBounds",
    "SearchResult",
    "default_catalog",
    "couple_value",
    "structured_couples",
    "random_couple",
    "search_lower_bound",
    "UpperCertificate",
    "hat_upper_bound",
    "check_upper_certificate",
    "hat_bounds",
]

# Lower and upper bounds reach the same quantity along different rounding
# paths (at m = 1 both are the block's trace norm), so they may disagree by a
# few ulps of the upper bound: a relative tolerance, down to the smallest
# normal double, below which rounding is absolute and no bound is certified.
CONSISTENCY_TOL = 1e-9

DEFAULT_BUDGET = 64

RANDOM_CHUNK = 64  # couples per batched evaluation (twice that at most); bounds the memory a search takes

UPPER_RULE = "realignment"

# outward rounding of the upper bound, relative, per unit of m * n
UPPER_MARGIN = 8 * np.finfo(float).eps

# singular values closer than this, relative to the largest, count as tied
TIE_RTOL = 1e-9

# pairwise unitary sweeps of the upper bound, each over every pair once
SWEEPS = 2


def _pair_grid(grid: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The sweep's rotations of a pair ``(x_i, x_j)``, and the vectors their rows make.

    With ``s_k = sin(k pi / (2 grid))``, ``c_k = s_(grid-k)`` and
    ``w_l = exp(2 pi i l / grid)``, let ``y(k, l) = c_k x_i + s_k w_l x_j``.
    Rotation (k, l), for k = 1..grid and l = 0..grid-1, is
    ``[[c_k, s_k w_l], [-s_k conj(w_l), c_k]]``, after the identity (k = 0).
    Its first row makes y(k, l) and its second ``-conj(w_l) y(grid - k,
    l + grid / 2)``, whose Gram is that of y(grid - k, l + grid / 2). Returns
    the (1 + grid^2, 2, 2) rotations; the weights of the Gram blocks
    ``(x_i x_i*, x_i x_j*, x_j x_i*, x_j x_j*)`` in the Gram of each y(k, l),
    k = 0..grid, which are ``alpha_p conj(alpha_q)`` on ``x_p x_q*``; and for
    each rotation the indices of its two rows' y.
    """
    sines = np.sin(np.pi / 2 * np.arange(grid + 1) / grid)  # exact 0 and 1 at the ends
    phases = np.exp(2j * np.pi * np.arange(grid) / grid)
    k, l = np.divmod(np.arange((grid + 1) * grid), grid)
    ys = np.stack([sines[grid - k], sines[k] * phases[l]], axis=1)
    first = np.array([0, *range(grid, len(ys))])
    k, l = np.divmod(first, grid)
    second = (grid - k) * grid + (l + grid // 2) % grid
    rotations = np.stack([ys[first], -phases[l, None].conj() * ys[second]], axis=1)
    rotations[0] = np.eye(2)  # exactly: the pairs that keep their atoms take it
    weights = np.einsum("vp,vq->vpq", ys, ys.conj()).reshape(-1, 4)
    return rotations, weights, first, second


# an 8 x 8 grid: theta in (0, pi/2] and phi in [0, 2 pi)
PAIR_ROTATIONS, _PAIR_GRAM_WEIGHTS, _FIRST_ROW, _SECOND_ROW = _pair_grid(8)


@dataclass(frozen=True)
class SearchResult:
    value: float
    couple: Couple
    couples_evaluated: int


@dataclass(frozen=True, eq=False)
class UpperCertificate:
    """A decomposition ``u = sum_t A_t . flip . B_t + residual`` and the upper bound it gives.

    ``left`` is the (T, m, n) stack of the A_t and ``right`` the (T, n, m)
    stack of the B_t. ``value`` is ``sum_t |A_t|_op |B_t|_op`` plus the sum
    of the residual blocks' trace norms, rounded outward;
    :func:`check_upper_certificate` recomputes the residual and the value.
    """

    left: np.ndarray
    right: np.ndarray
    value: float


@dataclass(frozen=True, eq=False)
class NormBounds:
    """Certified interval for the norm of an m x m block matrix.

    ``certificate`` is the couple achieving ``lower``; re-evaluating it
    reproduces the bound. ``upper_rule`` names the rule that gave ``upper``,
    and ``upper_certificate`` is the decomposition worth ``upper``.
    """

    upper_rule = UPPER_RULE  # a class constant, not a field: every upper bound comes from the one rule
    n: int
    level: int
    lower: float
    upper: float
    certificate: Couple
    upper_certificate: UpperCertificate

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.level,
            "lower": self.lower,
            "upper": self.upper,
            "rule": self.upper_rule,
            "certificate": {
                "space_id": self.certificate.space.space_id,
                "v_coords": complex_to_pairs(self.certificate.v.coords),
            },
        }


def _bounded_blocks(u, n: int) -> np.ndarray:
    """u as an (m, m, n, n) block array, rejected where its interval would not be certified.

    A nonzero u whose entries are all below the smallest normal double is
    rejected: there rounding is absolute. So is a u with an |entry| above
    ``max double / (4 (m n)^2)``: the norm is at most the sum of the blocks'
    trace norms, at most ``(m n)^2`` times the largest |entry|, and the
    factor 4 leaves the SVDs and sums room.
    """
    u4 = linalg.as_block_array(u, block_size=n)
    largest, top = np.abs(u4).max(), np.finfo(float).max / (4 * (len(u4) * n) ** 2)  # |entry| may round up to inf
    if 0 < largest < np.finfo(float).tiny:
        raise InvalidInputError(f"the largest |entry| of u is below the smallest normal double "
                                f"({np.finfo(float).tiny:.4g}); scale u up")
    if largest > top:
        raise InvalidInputError(f"the largest |entry| of u exceeds max double / (4 (m n)^2) ({top:.4g}); "
                                f"scale u down")
    return u4


def default_catalog(n: int) -> list[MatricialSpace]:
    """The search's default catalog at size n: ``cmax``, ``cmin`` and ``op:2`` .. ``op:(n+1)``.

    Scalars with both norms and the concrete matrix spaces up to size n + 1,
    each searched once: ``cmin`` is the 1 x 1 matrices, so the matrix spaces
    start at ``op:2``. That makes n + 2 spaces, each with a polar proposal.
    No l1 sum is needed, since a couple of an l1 sum is worth at most the
    best of its summands. The catalog is level-blind: it depends on n, not
    on the level m of u. So it need not hold the best couple: the op:k
    family peaks at op:m, which the catalog lacks when m > n + 1 (at m = 5,
    n = 3 a heavy op:4 search reached 0.98865 of op:5's value).
    """
    require_int("block size", n, 1)
    return [c_max(), c_min(), *(concrete_operator_space(k) for k in range(2, n + 2))]


def couple_value(couple: Couple, u) -> float:
    """Norm of the couple's amplified image of u; a certified lower bound term."""
    return couple.space.norm(amplified_image(couple.v, u))


def structured_couples(space: MatricialSpace, n: int, u) -> np.ndarray:
    """Elements of hand-picked couples for u, known to achieve the engine's benchmark values.

    Each space kind supplies its own (``MatricialSpace.structured_couples``);
    a space with only a ``norm_batch`` has none. Returns them rescaled into
    the unit ball and checked feasible, as an (S, n, n, dim) stack: the first
    stack of a search with budget 0.
    """
    u4 = linalg.as_block_array(u, block_size=n)
    return next(_stacks(space, n, u4, None, 0))[0]


def random_couple(space: MatricialSpace, n: int, rng) -> Couple:
    """Gaussian element rescaled into the unit ball, half onto the sphere; a search stack of one."""
    require_int("block size", n, 1)
    coords = next(_stacks(space, n, None, np.random.default_rng(rng), 1))[0]
    return Couple(space, LeveledElement(space.space_id, coords[0]))


def _stacks(space: MatricialSpace, n: int, u4, rng, budget: int):
    """A space's couples for u4 in evaluation order, as (coords, norms) stacks rescaled and checked.

    The structured couples (none when u4 is None) lead the first
    ``RANDOM_CHUNK`` of ``budget`` random draws as one stack; each later
    chunk of ``RANDOM_CHUNK`` draws is a stack of its own. Draws run in
    single-couple order: per row the coordinates (``random_element``'s real
    then imaginary parts), then the sphere coin of a nonzero row (one of
    positive norm, as the norm is definite). One ``unit_scaled_stack``
    rescales each (B, n, n, dim) stack into the unit ball, a random row
    whose coin came up onto the sphere, and one ``check_unit_ball`` checks
    it and gives the norms yielded with it.
    """
    for done in range(0, max(budget, 1), RANDOM_CHUNK):
        draws = np.empty((min(RANDOM_CHUNK, budget - done), 2, n, n, space.dim))
        sphere = np.zeros(len(draws), dtype=bool)
        for b, row in enumerate(draws):
            rng.standard_normal(out=row)
            sphere[b] = (row.flat[0] != 0 or row.any()) and rng.random() < 0.5  # the double uniform() returns
        coords = draws[:, 0] + 1j * draws[:, 1]
        if not done and u4 is not None:
            lead = space.structured_couples(n, u4)
            coords = np.concatenate([lead, coords])
            sphere = np.pad(sphere, (len(lead), 0))  # structured rows are not put on the sphere
        space.unit_scaled_stack(coords, sphere)
        yield coords, check_unit_ball(space, coords)


def search_lower_bound(n: int, u, catalog=None, budget: int | None = None, seed=0,
                       optimizer_config: OptimizerConfig | None = None) -> SearchResult:
    """Maximize couple values over the catalog; sequential and deterministic.

    Per space: structured couples (the space's hand-picked elements),
    ``budget`` random couples, then an optimizer run from the first
    ``restarts`` of them (skipped when budget is 0; it takes no step on a
    space without a polar proposal), topped up when they are fewer by a
    :func:`_stacks` run without structured couples on the space's generator.
    :func:`_stacks` yields rescaled, checked stacks, the structured couples
    with the first ``RANDOM_CHUNK`` random ones; the optimizer's starts are
    copies of the leading rows, each whose checked norm exceeds 1 divided by
    it, so they are not normed again. Each stack
    is valued in slices of at most ``2 * RANDOM_CHUNK`` couples, each slice
    one amplification and one batched norm. Ties go to the earliest couple
    in evaluation order, and a couple's value has the same bits in any
    slice, so the slicing moves neither the winner nor the count. Only the
    reported winner becomes a ``Couple``; an optimizer run returns its own.
    u is range-checked by :func:`_bounded_blocks`. ``catalog`` is an
    iterable of spaces and ``seed`` a nonnegative integer, both checked
    before any bound work, as is the optimizer's restart stack on the
    catalog's largest space. Raises ``InvalidInputError`` when no couple has
    a value (no structured couples and budget 0, or NaN everywhere).
    """
    u4 = _bounded_blocks(u, n)
    try:
        catalog = list(catalog) if catalog is not None else default_catalog(n)
    except TypeError as exc:
        raise InvalidInputError(f"catalog must be an iterable of spaces: {exc}") from exc
    if not catalog:
        raise InvalidInputError("empty catalog")
    if not all(isinstance(space, MatricialSpace) for space in catalog):
        raise InvalidInputError("catalog entries must be MatricialSpace instances")
    budget = DEFAULT_BUDGET if budget is None else budget
    require_int("budget", budget, 0)
    require_int("seed", seed, 0)
    cfg = optimizer_config or OptimizerConfig()
    cfg.check_stack(len(u4), n, max(space.dim for space in catalog))

    children = np.random.SeedSequence(seed).spawn(len(catalog))
    best_val = -np.inf
    best = None  # (space, element) of the best stack row, or the optimizer's couple once it wins
    evaluated = 0
    for space, child in zip(catalog, children):
        rng, starts = np.random.default_rng(child), np.empty((0, n, n, space.dim), dtype=complex)
        for stack, norms in _stacks(space, n, u4, rng, budget):
            if len(starts) < cfg.restarts:  # the stack's leading rows, divided into the ball on a copy
                rows = stack[: cfg.restarts - len(starts)].copy()
                starts = np.concatenate([starts, scale_by_norms(rows, norms[: len(rows)])])
            for lo in range(0, len(stack), 2 * RANDOM_CHUNK):
                coords = stack[lo:lo + 2 * RANDOM_CHUNK]
                values = space.norm_batch(amplified_images(coords, u4))
                evaluated += len(values)
                top = int(np.argmax(np.where(np.isnan(values), -np.inf, values)))  # NaN never wins
                if values[top] > best_val:
                    best_val, best = float(values[top]), (space, LeveledElement(space.space_id, coords[top]))
        if budget > 0:
            missing = cfg.restarts - len(starts)  # drawn after the space's couples, from its generator
            tops = _stacks(space, n, None, rng, missing) if missing > 0 else ()
            starts = np.concatenate([starts, *(scale_by_norms(stack, norms) for stack, norms in tops)])
            couple, val = optimize_couple(space, n, u4, starts, cfg)
            evaluated += 1
            if val > best_val:
                best_val, best = val, couple
    if best is None:
        raise InvalidInputError("no couple of the catalog has a value: no structured couples "
                                "and budget 0, or every value is NaN")
    couple = best if isinstance(best, Couple) else Couple(*best)  # a stack row was checked with its stack
    return SearchResult(float(best_val), couple, evaluated)


def _realign(u4: np.ndarray) -> np.ndarray:
    """The (mn) x (nm) matrix ``U[(k, j), (i, l)] = u4[k, l, i, j]``."""
    m, _, n, _ = u4.shape
    return u4.transpose(0, 3, 2, 1).reshape(m * n, n * m)


def _residual(u4: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Blocks of ``u4`` less the atoms ``left[t] . flip . right[t]``, computed on the realignment."""
    m, _, n, _ = u4.shape
    rest = _realign(u4) - left.reshape(len(left), m * n).T @ right.reshape(len(right), n * m)
    return rest.reshape(m, n, n, m).transpose(0, 3, 2, 1)  # the realignment is its own inverse


def _atom_values(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``|left[t]|_op |right[t]|_op`` for each atom, from one batched SVD over both sides."""
    ops = np.linalg.svd(np.concatenate([left, right.swapaxes(1, 2)]), compute_uv=False)[:, 0]
    return ops[: len(left)] * ops[len(left):]


def _certificate(u4: np.ndarray, left: np.ndarray, right: np.ndarray) -> UpperCertificate:
    """The atoms with their certified value: theirs plus the residual blocks' trace norms, rounded outward."""
    m, n = left.shape[1:]
    raw = _atom_values(left, right).sum() + np.linalg.svd(_residual(u4, left, right), compute_uv=False).sum()
    return UpperCertificate(left, right, float(raw * (1.0 + UPPER_MARGIN * m * n)))


def _tie_clusters(s: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) of each run of two or more nonincreasing singular values that tie; none if all are 0."""
    apart = s[:-1] - s[1:] > TIE_RTOL * s[0]
    if apart.all() or not s[0]:
        return []
    edges = [0, *(np.flatnonzero(apart) + 1), len(s)]
    return [(a, b) for a, b in zip(edges[:-1], edges[1:]) if b - a > 1]


def _rotate(stack: np.ndarray, f: np.ndarray) -> np.ndarray:
    """``sum_r f[r, t] stack[r]`` for each t."""
    return (f.T @ stack.reshape(len(stack), -1)).reshape(stack.shape)


def _round_robin(t: int) -> np.ndarray:
    """(rounds, t // 2, 2) index pairs of 0..t-1: every pair once, disjoint within a round.

    The circle method; for odd t a dummy player gives each round one bye.
    """
    players = list(range(t + t % 2))
    rounds = []
    for _ in range(len(players) - 1):
        pairs = zip(players[: len(players) // 2], players[::-1])
        rounds.append([pair for pair in pairs if t not in pair])
        players.insert(1, players.pop())
    return np.array(rounds)


def _sweep(left: np.ndarray, right: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The atoms after pairwise unitary sweeps over the first t, or None where no sweep runs.

    Each atom is kept as the pair ``x = (A, conj(B^T))`` of r x max(m, n)
    matrices (both transposed when m > n), r = min(m, n), so that
    ``|A|_op^2`` and ``|B|_op^2`` are the top eigenvalues of ``x x*``. A
    round of ``_round_robin(t)`` scores every rotation of
    ``PAIR_ROTATIONS`` on each of its disjoint pairs in one pass, and keeps
    a pair's best where it lowers the pair's value. Each row (alpha, beta)
    of a rotation makes one new atom ``alpha x_i + beta x_j``; for the
    first row that is ``A_i -> c A_i + s A_j`` and
    ``B_i -> c B_i + conj(s) B_j``. The scores only choose rotations; the
    caller certifies the result. Runs at r = 2 or 3 only, where
    :func:`linalg.top_eigenvalues` has a closed form (r = 1 is exact
    already, and r >= 4 has none), and on t >= 2 atoms.
    """
    _, m, n = left.shape
    if min(m, n) not in (2, 3) or t < 2:
        return None
    # a power of two near the largest entry keeps Grams and their squares in range, and comes off exactly
    scale = 2.0 ** -np.clip(np.frexp(np.abs(left[:t]).max())[1], -1000, 1000)
    x = np.stack([left[:t] * scale, right[:t].swapaxes(1, 2).conj()], axis=1)  # (t, side, r, c)
    if m > n:
        x = x.swapaxes(2, 3)
    x = np.ascontiguousarray(x)
    r = min(m, n)
    rounds = _round_robin(t)
    rows = np.arange(rounds.shape[1])
    for pairs in np.concatenate([rounds] * SWEEPS):  # each sweep is every round once
        xp = x[pairs]  # (P, atom, side, r, c)
        blocks = xp[:, :, None] @ xp.conj().swapaxes(3, 4)[:, None]  # (P, atom, atom, side, r, r)
        grams = (_PAIR_GRAM_WEIGHTS @ blocks.reshape(len(pairs), 4, -1)).reshape(len(pairs), -1, 2, r, r)
        tops = linalg.top_eigenvalues(grams)
        atoms = np.sqrt(tops[..., 0] * tops[..., 1])  # (P, y)
        values = atoms[:, _FIRST_ROW] + atoms[:, _SECOND_ROW]  # (P, rotations)
        best = np.argmin(np.where(np.isfinite(values), values, np.inf), axis=1)
        kept = values[rows, best] < values[:, 0]  # the identity comes first; NaN and inf never win
        if kept.any():
            best = np.where(kept, best, 0)
            x[pairs] = (PAIR_ROTATIONS[best] @ xp.reshape(len(pairs), 2, -1)).reshape(xp.shape)
    if m > n:
        x = x.swapaxes(2, 3)
    left, right = left.copy(), right.copy()
    left[:t], right[:t] = x[:, 0] / scale, x[:, 1].conj().swapaxes(1, 2)
    return left, right


def hat_upper_bound(n: int, u) -> UpperCertificate:
    """Upper bound from the SVD of the realignment of u, as a checked decomposition into flip atoms.

    Each cluster of tied singular values keeps its plain atoms or their DFT
    rotation, whichever is worth less. Then :func:`_sweep` rotates pairs of
    the atoms whose singular value exceeds ``TIE_RTOL`` times the largest;
    the swept atoms are kept only where their certified value is lower. u is
    range-checked by :func:`_bounded_blocks`.
    """
    u4 = _bounded_blocks(u, n)
    m = u4.shape[0]
    x, s, yh = np.linalg.svd(_realign(u4), full_matrices=False)
    left = np.ascontiguousarray((x * s).T).reshape(-1, m, n)
    right = yh.reshape(-1, n, m)
    for a, b in _tie_clusters(s):  # the rotation is unitary, so the atoms' sum stays U
        k = b - a
        f = np.exp(-2j * np.pi * np.outer(np.arange(k), np.arange(k)) / k) / np.sqrt(k)
        rotated = _rotate(left[a:b], f), _rotate(right[a:b], f.conj())
        if _atom_values(*rotated).sum() < _atom_values(left[a:b], right[a:b]).sum():
            left[a:b], right[a:b] = rotated
    cert = _certificate(u4, left, right)
    swept = _sweep(left, right, int((s > TIE_RTOL * s[0]).sum()))
    if swept is not None:
        other = _certificate(u4, *swept)
        if other.value < cert.value:
            cert = other
    return cert


def check_upper_certificate(cert: UpperCertificate, u) -> bool:
    """True when ``cert`` bounds the norm of u.

    Recomputes the residual from u and the atoms, and from them the value,
    which must not exceed the certificate's. Non-numeric or non-finite atoms
    and a value that is not a real number raise ``InvalidInputError``, as a
    u that is non-numeric, non-finite or out of the bounds' range does (see
    :func:`_bounded_blocks`, with the block size read off u); atoms of a
    wrong shape, and a NaN value, give False.
    """
    u4 = _bounded_blocks(u, linalg.as_block_array(u).shape[2])
    m, _, n, _ = u4.shape
    if not isinstance(cert.value, numbers.Real):
        raise InvalidInputError(f"certificate's value {cert.value!r} is not a real number")
    left = linalg.as_finite_array(cert.left, complex, "certificate's left stack")
    right = linalg.as_finite_array(cert.right, complex, "certificate's right stack")
    if left.ndim != 3 or left.shape[1:] != (m, n) or right.shape != (len(left), n, m):
        return False
    return bool(_certificate(u4, left, right).value <= cert.value)


def hat_bounds(n: int, u, catalog=None, budget: int | None = None, seed=0,
               optimizer_config: OptimizerConfig | None = None) -> NormBounds:
    """Certified interval with certificates; raises on lower > upper.

    ``InconsistencyError`` carries both bounds and both certificates. The
    zero matrix takes the general search, whose couples are all worth 0. A
    nonzero u whose entries are all below the smallest normal double, or one
    with an |entry| above ``max double / (4 (m n)^2)``, is rejected, here and
    by the two bounds' shared check (see :func:`_bounded_blocks`).
    """
    u4 = linalg.as_block_array(u, block_size=n)
    m = u4.shape[0]
    result = search_lower_bound(n, u4, catalog=catalog, budget=budget, seed=seed,
                                optimizer_config=optimizer_config)
    cert = hat_upper_bound(n, u4)
    upper = cert.value
    if result.value > upper * (1.0 + CONSISTENCY_TOL) + np.finfo(float).tiny:
        raise InconsistencyError(
            f"lower bound {result.value:.12g} via {result.couple.space.space_id} exceeds "
            f"upper bound {upper:.12g} from rule {UPPER_RULE}",
            lower=result.value, upper=upper, couple=result.couple, upper_certificate=cert,
        )
    return NormBounds(n, m, result.value, upper, result.couple, cert)
