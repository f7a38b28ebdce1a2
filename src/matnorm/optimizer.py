"""Maximization of the amplified-image norm over the unit ball of a space.

For spaces with a polar proposal (cmin, cmax, op:k; see
``MatricialSpace.polar_proposal``) each ascent step linearizes the objective
at the current point through the extremal vectors of its norm, pulls the
resulting linear functional back to the variable, and jumps to the
closed-form maximizer of that functional over the unit ball (a conditional
gradient step built from dual witnesses). Other spaces fall back to a
projected random search. Nonsmoothness is handled by restart diversity, not
subgradient machinery: the known optima at this scale are recovered in a few
steps. Each step evaluates its four candidates (line-search points or random
perturbations) as one batch: one stacked rescale, amplification and norm.

``OptimizerConfig`` holds the three settings callers vary: restarts,
iterations per restart and the stall limit (consecutive steps gaining at most
``TOLERANCE``). The random-search step size starts at ``STEP_INIT`` and
shrinks by ``STEP_DECAY`` per iteration. The seed is an argument of
``optimize_couple``, not a setting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .correspondence import amplified_image, amplified_images
from .errors import InvalidInputError
from .spaces import Couple, LeveledElement, MatricialSpace, random_element

__all__ = ["OptimizerConfig", "optimize_couple"]

_LINE_SEARCH = (1.0, 0.5, 0.25, 0.1)
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
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < low:
                raise InvalidInputError(f"{name} must be an integer of at least {low}, got {value!r}")


def _step(space: MatricialSpace, v: LeveledElement, u4: np.ndarray, current: float,
          rng, step: float):
    """Best of four candidates, or ``v`` itself unless one beats ``current``; ties go to the first."""
    proposal = space.polar_proposal(v, u4)
    if proposal is not None:
        candidates = [(1.0 - t) * v.coords + t * proposal for t in _LINE_SEARCH]
    else:
        scale = step * max(1.0, float(np.abs(v.coords).max()))
        candidates = [v.coords + scale * random_element(space, v.level, rng).coords for _ in range(4)]
    stack = space.unit_scaled_stack(np.stack(candidates))
    values = space.norm_batch(amplified_images(stack, u4))
    best = int(np.argmax(np.where(np.isnan(values), -np.inf, values)))  # NaN never wins
    if values[best] > current:
        return LeveledElement(space.space_id, stack[best]), float(values[best])
    return v, current


def optimize_couple(space: MatricialSpace, n: int, u, config: OptimizerConfig | None = None,
                    starts=None, seed=0):
    """Best couple found by multi-restart ascent; returns (couple, value).

    The returned element is feasible by radial projection, ties between
    restarts go to the first one found, and the reported value is the
    returned couple's. Deterministic per seed.
    """
    cfg = config or OptimizerConfig()
    u4 = linalg.trusted_block_array(u, n)
    rng = np.random.default_rng(seed)

    if not u4.any():
        zero = LeveledElement(space.space_id, np.zeros((n, n, space.dim), dtype=complex))
        return Couple(space, zero), 0.0

    starts = list(starts or [])
    best_v = None
    best_val = -np.inf
    for restart in range(cfg.restarts):
        start = starts[restart] if restart < len(starts) else random_element(space, n, rng)
        v = space.unit_scaled(start.coords)
        val = space.norm(amplified_image(v, u4))
        stall = 0
        step = STEP_INIT
        for _ in range(cfg.iterations):
            v_next, val_next = _step(space, v, u4, val, rng, step)
            if val_next > val + TOLERANCE:
                stall = 0
            else:
                stall += 1
            v, val = v_next, val_next
            step *= STEP_DECAY
            if stall >= cfg.stall_limit:
                break
        if val > best_val:
            best_v, best_val = v, val

    return Couple(space, best_v), best_val
