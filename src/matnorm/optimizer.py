"""Maximization of the amplified-image norm over the unit ball of a space.

Each ascent step linearizes the norm at the current image (the functional F
of ``MatricialSpace.polar_state``), pulls F back through v -> phi_v(u)
(``correspondence.pullbacks``), and moves to the closed-form maximizer ``p``
of the pulled functional over the unit ball (``MatricialSpace.polar_proposal``,
from dual witnesses): the monotone generalized power method of Journee, Nesterov,
Richtarik and Sepulchre (JMLR 2010). The objective ``f(v) = |phi_v(u)|`` is
convex, so ``f(p) >= f(v)`` and no point between v and p beats both ends: a
step needs no line search and no step size. Nonsmoothness is handled by
restart diversity, not subgradient machinery: the known optima at this scale
are recovered in a few steps.

A restart ends as soon as a step does not raise its value: the point did not
move, so the next step would make the same proposal. A zero proposal (a
space without a polar step, or a vanishing linearization) is worth 0, no
more than any start, so such a restart ends after one step with its start.

The restarts advance in lockstep: each step makes one ``pullbacks`` and one
``polar_proposal`` call over the functionals of the running restarts, then
one amplification and one ``polar_state`` call over their proposals (points
of the unit ball, so nothing is rescaled). ``polar_state`` values the images
and gives their functionals from one factorization, so a catalog step makes
two SVD calls: the proposal's and the image's. A restart keeps its point,
its functional and its value, not its image; the end values the
images of the kept points in one ``norm_batch``. Steps draw nothing; the
restarts beyond the given starts are drawn up front, in restart order, from
a generator built only when there is one to draw, so any batching gives a
sequential run's result. Only the starts are rescaled into the ball: each
whose norm exceeds 1 is divided by it, by the norm handed in with it where
the caller has one (the search's starts come checked, with their norms).

``OptimizerConfig`` holds the three settings callers vary: restarts,
iterations per restart and the stall limit (consecutive steps gaining at most
``TOLERANCE`` times the current value; a relative gain, so scaling u scales
every value and leaves every step as it was). The seed is an argument of
``optimize_couple``, not a setting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .correspondence import amplified_image, amplified_images, pullbacks
from .errors import InvalidInputError, require_int
from .spaces import Couple, LeveledElement, MatricialSpace, scale_by_norms

__all__ = ["OptimizerConfig", "optimize_couple"]

TOLERANCE = 1e-12

MAX_RESTARTS = 10**4  # the restarts are drawn and stepped as one stack, so their count sizes its arrays

# complex entries of a restart stack (256 MiB per array): restarts x max(m, n)^2 x dim, as the count alone
# leaves the bytes unbounded (10^4 restarts of op:17 at n = 16 would take 11.8 GB)
MAX_STACK_ENTRIES = 2**24


@dataclass(frozen=True)
class OptimizerConfig:
    """Search effort per space; the defaults are the lower-bound search's."""

    restarts: int = 2
    iterations: int = 40
    stall_limit: int = 10

    def __post_init__(self):
        for name, low in (("restarts", 1), ("iterations", 0), ("stall_limit", 1)):
            require_int(name, getattr(self, name), low)
        if self.restarts > MAX_RESTARTS:  # the message leaves the count out, as op:k's leaves k out
            raise InvalidInputError(f"restarts must be at most {MAX_RESTARTS}")

    def check_stack(self, m: int, n: int, dim: int) -> None:
        """Raise ``InvalidInputError`` when the restart stack for level-n couples of dim on m x m blocks is too big."""
        if self.restarts * max(m, n) ** 2 * dim > MAX_STACK_ENTRIES:
            raise InvalidInputError(f"{self.restarts} restarts x {max(m, n)}^2 x dim {dim} exceed the restart "
                                    f"stack's {MAX_STACK_ENTRIES} entries; lower restarts")


def _ascend(space: MatricialSpace, u4: np.ndarray, coords: np.ndarray, functionals: np.ndarray, vals: np.ndarray,
            cfg: OptimizerConfig) -> None:
    """Run the restarts of a (R, n, n, dim) stack in lockstep, updating their rows in place.

    ``coords``, ``functionals`` and ``vals`` hold each restart's point, the
    ``polar_state`` functional of its image and its value. Per restart, a step
    moves to its proposal, and keeps the functional it was valued by, when the
    proposal's value beats the current one (NaN never does); the restart
    ends when it does not.
    """
    active = np.arange(len(vals))
    stall = np.zeros(len(vals), dtype=int)
    for _ in range(cfg.iterations):
        if not active.size:
            break
        every = len(active) == len(vals)  # no restart has ended: pass the rows themselves, not copies
        proposals = space.polar_proposal(pullbacks(functionals if every else functionals[active], u4))
        shape = (len(active), *coords.shape[1:])
        if proposals.shape != shape:
            raise InvalidInputError(f"{space.space_id}: polar_proposal gave shape {proposals.shape}, not {shape}")
        values, proposal_functionals = space.polar_state(amplified_images(proposals, u4))
        current = vals if every else vals[active]
        better, gained = values > current, values > current + TOLERANCE * np.abs(current)  # before writing vals
        # every restart won: write back by slice, with no mask copies
        won, pick = (slice(None), slice(None)) if every and better.all() else (active[better], better)
        coords[won], functionals[won], vals[won] = proposals[pick], proposal_functionals[pick], values[pick]
        stall[active] = np.where(gained, 0, stall[active] + 1)
        active = active[better & (stall[active] < cfg.stall_limit)]


def optimize_couple(space: MatricialSpace, n: int, u, config: OptimizerConfig | None = None,
                    starts=None, seed=0, *, start_norms=None):
    """Best couple found by multi-restart ascent; returns (couple, value).

    Restarts beyond the given ``starts`` start from Gaussian draws (one stack
    from ``default_rng(seed)``, built only when there is a restart to draw).
    Only the starts are rescaled into the ball, each whose norm exceeds 1
    divided by it: a step moves straight to its polar proposal, a unit-ball
    point (see the module docstring). ``start_norms``, one finite nonnegative
    norm per given start as ``check_unit_ball`` returns it, replaces the
    given starts' norm evaluation; they are divided as ``unit_scaled_stack``
    divides, so each is the same bits when its norm is its ``norm_batch``
    value. Each start is valued on its own, and one ``polar_state`` call over
    the starts' images gives their functionals. The ``Couple`` checks the
    returned element. The kept points end valued by one ``norm_batch`` of
    their images; ``amplified_images`` gives a row the same bits in any
    batch, so the reported value is the returned couple's ``couple_value``
    bit for bit. Ties go to the first restart. ``seed`` is a nonnegative
    integer, so the result is deterministic per seed.
    """
    cfg = config or OptimizerConfig()
    u4 = linalg.as_block_array(u, block_size=n)
    require_int("seed", seed, 0)
    cfg.check_stack(len(u4), n, space.dim)
    starts = list(starts or [])
    for start in starts:
        if (start.space_id != space.space_id or start.coords.shape != (n, n, space.dim)
                or not np.isfinite(start.coords).all()):
            raise InvalidInputError(f"start of {start.space_id} with coordinates {start.coords.shape} is not "
                                    f"a finite level-{n} element of {space.space_id} (dim {space.dim})")
    if start_norms is not None:
        start_norms = linalg.as_finite_array(start_norms, float, "start norm vector")
        if start_norms.shape != (len(starts),) or (start_norms < 0).any():
            raise InvalidInputError(f"start norms of shape {start_norms.shape} are not {len(starts)} "
                                    f"nonnegative norms, one per start")
    given = starts[: cfg.restarts]
    # random_element's stream, restart by restart: real part, then imaginary
    shape = (cfg.restarts - len(given), 2, n, n, space.dim)
    draws = np.random.default_rng(seed).standard_normal(shape) if shape[0] else np.empty(shape)
    coords = np.concatenate([*(s.coords[None] for s in given), draws[:, 0] + 1j * draws[:, 1]])
    known = np.empty(0) if start_norms is None else start_norms[: len(given)]  # of the leading rows
    scale_by_norms(coords[: len(known)], known)
    if len(known) < len(coords):
        space.unit_scaled_stack(coords[len(known):])
    start_images = [amplified_image(LeveledElement(space.space_id, c), u4) for c in coords]
    vals = np.array([space.norm(image) for image in start_images])
    functionals = space.polar_state(np.stack([image.coords for image in start_images]))[1]
    _ascend(space, u4, coords, functionals, vals, cfg)

    vals = space.norm_batch(amplified_images(coords, u4))  # as couple_value values the returned couple
    best = int(np.argmax(np.where(np.isnan(vals), -np.inf, vals)))  # ties go to the first restart
    if np.isnan(vals[best]):
        raise InvalidInputError(f"{space.space_id}: the norm is NaN at every optimizer restart")
    return Couple(space, LeveledElement(space.space_id, coords[best])), float(vals[best])
