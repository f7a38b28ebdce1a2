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
images of the kept points in one ``norm_batch``. Nothing is drawn: a run is
a deterministic ascent from the given starts, points of the unit ball that
the caller rescaled and checked (the search hands over its checked couples),
so any batching gives a sequential run's result.

``OptimizerConfig`` holds the three settings callers vary: restarts,
iterations per restart and the stall limit (consecutive steps gaining at most
``TOLERANCE`` times the current value; a relative gain, so scaling u scales
every value and leaves every step as it was).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .correspondence import amplified_image, amplified_images, pullbacks
from .errors import InvalidInputError, require_int
from .spaces import Couple, LeveledElement, MatricialSpace

__all__ = ["OptimizerConfig", "optimize_couple"]

TOLERANCE = 1e-12

MAX_RESTARTS = 10**4  # the restarts are stepped as one stack, so their count sizes its arrays

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


def _rows(index: list):
    """An ascending list of distinct rows, as a slice when they are consecutive: a view, not a copy."""
    return slice(index[0], index[-1] + 1) if index[-1] - index[0] == len(index) - 1 else index


def _ascend(space: MatricialSpace, u4: np.ndarray, coords: np.ndarray, functionals: np.ndarray, vals: list,
            cfg: OptimizerConfig) -> None:
    """Run the restarts of a (R, n, n, dim) stack in lockstep, updating their rows in place.

    ``coords``, ``functionals`` and ``vals`` hold each restart's point, the
    ``polar_state`` functional of its image and its value, a float. Per
    restart, a step moves to its proposal, and keeps the functional it was
    valued by, when the proposal's value beats the current one (NaN never
    does); the restart ends when it does not. Values and stall counts are
    compared as Python floats and ints (the same doubles, so the same
    comparisons), and each step reads its running rows and writes its
    winning rows back with one index each, a slice where the rows are
    consecutive (as while every restart runs and wins).
    """
    stall, active = [0] * len(vals), list(range(len(vals)))
    for _ in range(cfg.iterations):
        if not active:
            break
        proposals = space.polar_proposal(pullbacks(functionals[_rows(active)], u4))
        shape = (len(active), *coords.shape[1:])
        if proposals.shape != shape:
            raise InvalidInputError(f"{space.space_id}: polar_proposal gave shape {proposals.shape}, not {shape}")
        values, proposal_functionals = space.polar_state(amplified_images(proposals, u4))
        picks, won, running = [], [], []
        for pick, (row, value) in enumerate(zip(active, values.tolist())):
            now = vals[row]
            if value > now:  # NaN never wins; the gain is read before the value is overwritten
                stall[row] = 0 if value > now + TOLERANCE * abs(now) else stall[row] + 1
                vals[row] = value
                picks.append(pick)
                won.append(row)
                if stall[row] < cfg.stall_limit:
                    running.append(row)
        if picks:
            won, picks = _rows(won), _rows(picks)
            coords[won], functionals[won] = proposals[picks], proposal_functionals[picks]
        active = running


def optimize_couple(space: MatricialSpace, n: int, u, starts, config: OptimizerConfig | None = None):
    """Best couple of an ascent from each of the first ``restarts`` rows of ``starts``; returns (couple, value).

    ``starts`` is a nonempty (S, n, n, dim) coordinate stack of unit-ball
    points, used as given; a stack of fewer rows runs one restart per row.
    A start outside the ball is the caller's error: the returned
    ``Couple``'s check raises it when that start wins. Each start is valued
    on its own, and one ``polar_state`` call over the starts' images gives
    their functionals. The kept points end valued by one ``norm_batch`` of
    their images; ``amplified_images`` gives a row the same bits in any
    batch, so the reported value is the returned couple's ``couple_value``
    bit for bit. Ties go to the first restart. Nothing is drawn, so the
    result is a function of the arguments.
    """
    cfg = config or OptimizerConfig()
    u4 = linalg.as_block_array(u, block_size=n)
    cfg.check_stack(len(u4), n, space.dim)
    given = linalg.as_finite_array(starts, complex, "start stack")
    if given.shape[1:] != (n, n, space.dim) or not given.size:
        raise InvalidInputError(f"starts of shape {given.shape} are not a nonempty stack of level-{n} elements "
                                f"of {space.space_id} (dim {space.dim})")
    coords = given[: cfg.restarts].copy()  # the steps write their rows in place
    start_images = [amplified_image(LeveledElement(space.space_id, c), u4) for c in coords]
    vals = [space.norm(image) for image in start_images]
    functionals = space.polar_state(np.stack([image.coords for image in start_images]))[1]
    _ascend(space, u4, coords, functionals, vals, cfg)

    vals = space.norm_batch(amplified_images(coords, u4))  # as couple_value values the returned couple
    best = int(np.argmax(np.where(np.isnan(vals), -np.inf, vals)))  # ties go to the first restart
    if np.isnan(vals[best]):
        raise InvalidInputError(f"{space.space_id}: the norm is NaN at every optimizer restart")
    return Couple(space, LeveledElement(space.space_id, coords[best])), float(vals[best])
