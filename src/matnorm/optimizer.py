"""Maximization of the amplified-image norm over the unit ball of a space.

For spaces with a polar proposal (cmin, cmax, op:k; see
``MatricialSpace.polar_proposal``) each ascent step linearizes the objective
at the current point through the extremal vectors of its norm, pulls the
resulting linear functional back to the variable, and jumps to the
closed-form maximizer of that functional over the unit ball (a conditional
gradient step built from dual witnesses). Other spaces fall back to a
projected random search. Nonsmoothness is handled by restart diversity, not
subgradient machinery: the known optima at this scale are recovered in a few
steps.

The restarts advance in lockstep. Each step makes one ``polar_proposal``
call over the stack of active restarts, then one rescale, amplification and
batched norm over their four candidates each (line-search points or random
perturbations). The random draws come in the order of a run that finishes
one restart before it starts the next: a step in which some active restart
has no proposal moves only the lowest-index active one (every lower restart
has finished), and restarts whose start is drawn run last, one at a time.
So a sequential run is this loop with a batch of one, and the result is the
same for any batching.

``OptimizerConfig`` holds the three settings callers vary: restarts,
iterations per restart and the stall limit (consecutive steps gaining at most
``TOLERANCE``). The random-search step size starts at ``STEP_INIT`` and
shrinks by ``STEP_DECAY`` per iteration of its restart. The seed is an
argument of ``optimize_couple``, not a setting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .correspondence import amplified_image, amplified_images
from .errors import InvalidInputError, require_int
from .spaces import Couple, LeveledElement, MatricialSpace, random_element

__all__ = ["OptimizerConfig", "optimize_couple"]

_LINE_SEARCH = np.array([1.0, 0.5, 0.25, 0.1])[:, None, None, None]
STEP_INIT = 0.5
STEP_DECAY = 0.9
TOLERANCE = 1e-12


@dataclass(frozen=True)
class OptimizerConfig:
    """Search effort per space; the defaults are the lower-bound search's."""

    restarts: int = 2
    iterations: int = 40
    stall_limit: int = 10

    def __post_init__(self):
        for name, low in (("restarts", 1), ("iterations", 0), ("stall_limit", 1)):
            require_int(name, getattr(self, name), low)


def _ascend(space: MatricialSpace, u4: np.ndarray, coords: np.ndarray, vals: np.ndarray,
            cfg: OptimizerConfig, rng) -> None:
    """Run the restarts of a (R, n, n, dim) stack in lockstep, updating ``coords`` and ``vals`` in place.

    Per restart, a step keeps the best of its four candidates when that beats
    the current value (the first best wins; NaN never does).
    """
    done = np.zeros(len(vals), dtype=int)  # iterations taken
    stall = np.zeros(len(vals), dtype=int)
    steps = np.cumprod([STEP_INIT] + [STEP_DECAY] * cfg.iterations)  # by repeated multiplication
    while (active := np.flatnonzero((done < cfg.iterations) & (stall < cfg.stall_limit))).size:
        v = coords[active]
        proposals = space.polar_proposal(v, u4)
        drawn = ~proposals.any(axis=(1, 2, 3))
        if drawn.any():  # draws keep restart order: only the lowest active restart moves
            active, v, proposals, drawn = active[:1], v[:1], proposals[:1], drawn[:1]
        if drawn[0]:
            scale = steps[done[active[0]]] * max(1.0, float(np.abs(v).max()))
            g = rng.standard_normal((4, 2) + v.shape[1:])  # random_element's draws, four in a row
            candidates = v[:, None] + scale * (g[:, 0] + 1j * g[:, 1])
        else:
            candidates = (1.0 - _LINE_SEARCH) * v[:, None] + _LINE_SEARCH * proposals[:, None]
        flat = space.unit_scaled_stack(candidates.reshape(-1, *v.shape[1:]))
        values = space.norm_batch(amplified_images(flat, u4)).reshape(-1, 4)
        pick = 4 * np.arange(len(active)) + np.argmax(np.where(np.isnan(values), -np.inf, values), axis=1)
        top, current = values.ravel()[pick], vals[active]
        better = top > current
        coords[active[better]] = flat[pick[better]]
        stall[active] = np.where(better & (top > current + TOLERANCE), 0, stall[active] + 1)
        vals[active] = np.where(better, top, current)
        done[active] += 1


def optimize_couple(space: MatricialSpace, n: int, u, config: OptimizerConfig | None = None,
                    starts=None, seed=0):
    """Best couple found by multi-restart ascent; returns (couple, value).

    The returned element is feasible by radial projection, ties between
    restarts go to the first one found, and the reported value is the
    returned couple's. Deterministic per seed.
    """
    cfg = config or OptimizerConfig()
    u4 = linalg.as_block_array(u, block_size=n)
    rng = np.random.default_rng(seed)
    starts = list(starts or [])
    for start in starts:
        if (start.space_id != space.space_id or start.coords.shape != (n, n, space.dim)
                or not np.isfinite(start.coords).all()):
            raise InvalidInputError(f"start of {start.space_id} with coordinates {start.coords.shape} is not "
                                    f"a finite level-{n} element of {space.space_id} (dim {space.dim})")
    starts = [start.coords for start in starts[: cfg.restarts]]
    coords = np.empty((cfg.restarts, n, n, space.dim), dtype=complex)
    vals = np.empty(cfg.restarts)
    # the given starts in lockstep, then each drawn start alone
    groups = [(0, len(starts))] if starts else []
    for lo, hi in groups + [(r, r + 1) for r in range(len(starts), cfg.restarts)]:
        coords[lo:hi] = starts if hi <= len(starts) else random_element(space, n, rng).coords
        space.unit_scaled_stack(coords[lo:hi])
        vals[lo:hi] = [space.norm(amplified_image(LeveledElement(space.space_id, c), u4)) for c in coords[lo:hi]]
        _ascend(space, u4, coords[lo:hi], vals[lo:hi], cfg, rng)

    best = int(np.argmax(np.where(np.isnan(vals), -np.inf, vals)))  # ties go to the first restart
    if np.isnan(vals[best]):
        raise InvalidInputError(f"{space.space_id}: the norm is NaN at every optimizer restart")
    return Couple(space, LeveledElement(space.space_id, coords[best])), float(vals[best])
