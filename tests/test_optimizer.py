"""Couple optimizer: benchmark recovery, feasibility, determinism, lockstep equivalence."""

from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matnorm import (
    InvalidInputError,
    LeveledElement,
    MatricialSpace,
    OptimizerConfig,
    amplified_image,
    c_max,
    c_min,
    concrete_operator_space,
    canonical_identity,
    couple_value,
    default_catalog,
    dual_witness,
    hat_bounds,
    l1_sum,
    optimize_couple,
    random_element,
    space_from_id,
    trace_norm,
)
from matnorm.correspondence import amplified_images, pullbacks
from matnorm.optimizer import TOLERANCE
from matnorm.spaces import OperatorSpace, TraceScalars, check_unit_ball

from helpers import Bare, assembled, gauss, single_block


def split(a, k):
    """The m x m array of k x k blocks of an mk x mk matrix: the inverse of :func:`assembled`."""
    m = len(a) // k
    return a.reshape(m, k, m, k).transpose(0, 2, 1, 3)


def propose(space, coords, u4):
    """Polar proposals for a (B, n, n, dim) stack of elements, from the pulled-back functionals of their images."""
    return space.polar_proposal(pullbacks(space.polar_state(amplified_images(coords, u4))[1], u4))


class TestBenchmarkRecovery:
    def test_level_one_trace_norm_100_matrices(self):
        # the known optimum is the dual witness; the polar step finds it fast
        rng = np.random.default_rng(0)
        cfg = OptimizerConfig(restarts=2, iterations=10)
        sp = c_min()
        for trial in range(100):
            n = 1 + trial % 4
            a = gauss(rng, (n, n))
            _, value = optimize_couple(sp, n, single_block(a), cfg, seed=7)
            assert value >= trace_norm(a) - 1e-6

    def test_trace_scalars_find_block_diag_value(self):
        rng = np.random.default_rng(1)
        n = 2
        blocks = []
        for _ in range(2):
            g = gauss(rng, (n, n))
            b = g @ g.conj().T
            blocks.append(b / trace_norm(b))
        u = np.zeros((2, 2, n, n), dtype=complex)
        u[0, 0], u[1, 1] = blocks
        closed = sum(trace_norm(b) for b in blocks) / n
        _, value = optimize_couple(c_max(), n, u, OptimizerConfig(restarts=4, iterations=40), seed=2)
        assert value >= closed - 1e-9

    def test_zero_input(self):
        _, value = optimize_couple(c_min(), 2, np.zeros((2, 2, 2, 2)), seed=3)
        assert value == 0.0


class TestInvariants:
    @pytest.mark.parametrize("space_factory", [c_min, c_max, lambda: concrete_operator_space(2),
                                               lambda: l1_sum([c_min(), c_max()])])
    def test_feasibility_and_fresh_value(self, space_factory):
        space = space_factory()
        rng = np.random.default_rng(4)
        u = gauss(rng, (2, 2, 2, 2))
        couple, value = optimize_couple(space, 2, u, OptimizerConfig(restarts=3, iterations=15), seed=5)
        assert space.norm(couple.v) <= 1.0 + 1e-12
        assert couple_value(couple, u) == value  # bit for bit, as the docstring promises

    def test_determinism(self):
        rng = np.random.default_rng(6)
        u = gauss(rng, (2, 2, 3, 3))
        cfg = OptimizerConfig(restarts=3, iterations=12)
        c1, v1 = optimize_couple(c_min(), 3, u, cfg, seed=42)
        c2, v2 = optimize_couple(c_min(), 3, u, cfg, seed=42)
        assert v1 == v2
        np.testing.assert_array_equal(c1.v.coords, c2.v.coords)

    def test_flip_objective_capped_at_one(self):
        # on the flip element every feasible couple scores its own norm
        for factory in (c_min, c_max, lambda: concrete_operator_space(2)):
            space = factory()
            _, value = optimize_couple(space, 2, canonical_identity(2),
                                       OptimizerConfig(restarts=3, iterations=20), seed=8)
            assert value <= 1.0 + 1e-9


def polar_step(space, v, u):
    """One ascent step from ``v``: a single restart started at v, one iteration."""
    couple, _ = optimize_couple(space, v.level, u, OptimizerConfig(restarts=1, iterations=1), starts=[v])
    return couple.v


class TestPolarStep:
    def test_fixed_point_at_dual_witness(self):
        rng = np.random.default_rng(9)
        n = 3
        a = gauss(rng, (n, n))
        sp = c_min()
        v = sp.element(dual_witness(a).reshape(n, n, 1))
        u = single_block(a)
        before = sp.norm(amplified_image(v, u))
        v_next = polar_step(sp, v, u)
        after = sp.norm(amplified_image(v_next, u))
        assert after == pytest.approx(before, abs=1e-9)
        assert after == pytest.approx(trace_norm(a), abs=1e-9)

    def test_strict_increase_from_random_start(self):
        rng = np.random.default_rng(10)
        n = 3
        a = gauss(rng, (n, n))
        sp = c_min()
        coords = gauss(rng, (n, n, 1))
        coords /= sp.norm(coords.reshape(n, n))
        v = sp.element(coords)
        u = single_block(a)
        before = sp.norm(amplified_image(v, u))
        after = sp.norm(amplified_image(polar_step(sp, v, u), u))
        assert after > before

    def test_zero_input_stays_zero(self):
        sp = c_min()
        v = sp.element(np.eye(2))
        u = np.zeros((1, 1, 2, 2), dtype=complex)
        v_next = polar_step(sp, v, u)
        assert sp.norm(amplified_image(v_next, u)) == 0.0

    def test_nan_proposal_is_never_kept(self):
        # the proposal's level-1 image is the one NaN value: the restart
        # ends at its first step and keeps its start and that start's value
        rng = np.random.default_rng(4)
        u = single_block(gauss(rng, (2, 2)))
        v = 0.1 * gauss(rng, (1, 2, 2, 1))
        proposal = propose(c_max(), v, u)
        start, jump = c_max().norm_batch(amplified_images(np.concatenate([v, proposal]), u))
        space = NanAbove("nan", 1, (start + jump) / 2)
        couple, value = optimize_couple(space, 2, u, OptimizerConfig(restarts=1, iterations=5),
                                        starts=[space.element(v[0])])
        assert start < jump and c_max().norm_batch(v)[0] < 1
        assert value == start
        np.testing.assert_array_equal(couple.v.coords, v[0])
        # the start's value and state, one step's (the NaN proposal's), then the kept start's valuation
        assert space.rows == [1, 1, 1, 1]

    def test_every_restart_nan_rejected(self):
        # NaN on every level-1 image: no restart has a value to compare
        space = NanAbove("nan", 1, -np.inf)
        with pytest.raises(InvalidInputError, match="NaN at every optimizer restart"):
            optimize_couple(space, 2, np.ones((1, 1, 2, 2)), OptimizerConfig(restarts=2, iterations=3))

    @pytest.mark.parametrize("start", [LeveledElement("cmax", np.ones((2, 2, 1), dtype=complex)),
                                       LeveledElement("cmin", np.ones((3, 3, 1), dtype=complex)),
                                       LeveledElement("cmin", np.array([np.nan, 1, 1, 1]).reshape(2, 2, 1) + 0j),
                                       LeveledElement("cmin", np.array([np.inf, 1, 1, 1]).reshape(2, 2, 1) + 0j)],
                             ids=["other_space", "other_level", "nan", "inf"])
    def test_start_of_another_space_or_level_rejected(self, start):
        # a non-finite start is no element either: NaN used to fail in the SVD ("SVD did not converge")
        with pytest.raises(InvalidInputError, match="start"):
            optimize_couple(c_min(), 2, np.ones((1, 1, 2, 2), dtype=complex), starts=[start])

    @pytest.mark.parametrize("space", [l1_sum([c_min(), c_max()]), Bare("bare", 1, c_min())],
                             ids=["l1", "bare"])
    def test_space_without_proposal_keeps_best_start(self, space):
        # no polar step: the run returns its best start, rescaled into the ball, and that start's value
        rng = np.random.default_rng(11)
        u = gauss(rng, (2, 2, 2, 2))
        starts = [space.element(10.0 ** e * gauss(rng, (2, 2, space.dim))) for e in (-1, 1, 0)]
        rescaled = space.unit_scaled_stack(np.stack([s.coords for s in starts]))
        values = [space.norm(amplified_image(LeveledElement(space.space_id, c), u)) for c in rescaled]
        best = int(np.argmax(values))
        couple, value = optimize_couple(space, 2, u, OptimizerConfig(restarts=3, iterations=10), starts=starts)
        assert value == values[best]
        np.testing.assert_array_equal(couple.v.coords, rescaled[best])

    @pytest.mark.parametrize("space", [l1_sum([c_min(), c_max()]), Bare("bare", 1, c_min())],
                             ids=["l1", "bare"])
    def test_hat_bounds_without_proposals_at_m_other_than_n(self, space):
        # the zero proposal has the (B, n, n, dim) shape of the elements, not
        # the (B, m, m, dim) shape of the images it is made from
        u = gauss(np.random.default_rng(12), (2, 2, 3, 3))
        bounds = hat_bounds(3, u, catalog=[space], budget=8, seed=0)
        no_steps = hat_bounds(3, u, catalog=[space], budget=8, seed=0,
                              optimizer_config=OptimizerConfig(iterations=0))
        assert bounds.lower == no_steps.lower <= bounds.upper
        assert space.norm(bounds.certificate.v) <= 1.0


@pytest.mark.parametrize("m,n", [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)])
@settings(max_examples=8, deadline=None, derandomize=True)
@given(scale=st.floats(-3, 3), zero=st.integers(0, 4), seed=st.integers(0, 2**16))
def test_polar_proposal_of_a_stack_matches_rows_bitwise(m, n, scale, zero, seed):
    # one polar_state and one polar_proposal call over a stack give each row
    # the bits of its own calls; the values are the norms up to rounding; the
    # element with a zero image gets a zero proposal (the SVD of 0 has
    # unitary factors, which must not propose) and the others a nonzero one;
    # neither hook writes into what it receives, so read-only inputs raise
    # nothing
    rng = np.random.default_rng(seed)
    u4 = 10.0 ** scale * gauss(rng, (m, m, n, n))
    u4.flags.writeable = False
    for space in default_catalog(n):
        coords = gauss(rng, (5, n, n, space.dim))
        coords[zero] = 0
        images = amplified_images(coords, u4)
        images.flags.writeable = False
        values, state = space.polar_state(images)
        state.flags.writeable = False
        rows = [space.polar_state(images[b:b + 1]) for b in range(len(images))]
        np.testing.assert_array_equal(values, np.concatenate([v for v, _ in rows]), err_msg=space.space_id)
        np.testing.assert_array_equal(state, np.concatenate([st for _, st in rows]), err_msg=space.space_id)
        np.testing.assert_allclose(values, space.norm_batch(images), rtol=1e-13, atol=0, err_msg=space.space_id)
        pulled = pullbacks(state, u4)
        pulled.flags.writeable = False
        stacked = space.polar_proposal(pulled)
        rows = np.concatenate([space.polar_proposal(pulled[b:b + 1]) for b in range(len(pulled))])
        assert stacked.shape == coords.shape
        np.testing.assert_array_equal(stacked, rows, err_msg=space.space_id)
        assert [bool(p.any()) for p in stacked] == [b != zero for b in range(len(stacked))], space.space_id


@pytest.mark.parametrize("n,space_id", [(n, space.space_id) for n in (1, 2, 3) for space in default_catalog(n)])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(m=st.integers(1, 3), scale=st.floats(-3, 3), seed=st.integers(0, 2**16))
def test_proposal_dominates_its_segment(n, space_id, m, scale, seed):
    # the facts that let a step skip a line search: f(v) = |phi_v(u)| is
    # convex, so the polar proposal p (the maximizer of f's linearization at
    # v over the ball) has f(p) >= f(v), and no point between v and p beats
    # both ends
    space = space_from_id(space_id)
    rng = np.random.default_rng(seed)
    u4 = 10.0 ** scale * gauss(rng, (m, m, n, n))
    v = space.unit_scaled_stack(gauss(rng, (1, n, n, space.dim)), sphere=bool(rng.integers(2)))
    p = propose(space, v, u4)
    f_v, f_p = space.norm_batch(amplified_images(np.concatenate([v, p]), u4))
    assert f_p >= f_v * (1 - 1e-13)
    segment = np.concatenate([(1 - t) * v + t * p for t in (0.5, 0.25, 0.1)])
    assert space.norm_batch(amplified_images(segment, u4)).max() <= max(f_v, f_p) * (1 + 1e-13)


@dataclass(frozen=True, eq=False)
class CountedScalars(TraceScalars):
    """cmax that logs, in order, the rows of each polar hook call and of each level-``m`` ``norm_batch`` call."""

    m: int
    log: list = field(default_factory=list)

    def norm_batch(self, coords):
        if coords.shape[-3] == self.m:
            self.log.append(("norm", int(np.prod(coords.shape[:-3]))))
        return super().norm_batch(coords)

    def polar_state(self, images):
        self.log.append(("state", len(images)))
        return super().polar_state(images)

    def polar_proposal(self, pulled):
        self.log.append(("proposal", len(pulled)))
        return super().polar_proposal(pulled)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_each_step_values_one_candidate_per_running_restart(seed):
    # at m = 3, n = 2 the images (level 3) and the elements (level 2) differ,
    # so the log holds the starts' values, their states, each step's calls
    # and the kept images' valuation, not the couple check
    restarts = 4
    space = CountedScalars("count", 1, 3)
    u4 = gauss(np.random.default_rng(seed), (3, 3, 2, 2))
    optimize_couple(space, 2, u4, OptimizerConfig(restarts=restarts, iterations=40), seed=seed)
    # the starts, one restart at a time, then their states in one call
    assert space.log[:restarts + 1] == [("norm", 1)] * restarts + [("state", restarts)]
    assert space.log[-1] == ("norm", restarts)  # the kept images, valued as couple_value values them
    steps = space.log[restarts + 1:-1]
    running = [rows for kind, rows in steps[::2]]
    assert steps == [entry for rows in running for entry in (("proposal", rows), ("state", rows))]
    assert running[0] == restarts and running == sorted(running, reverse=True) and running[-1] < restarts


@pytest.mark.parametrize("space_id", ["cmax", "op:1", "op:2", "op:3"])
def test_each_step_factors_twice(space_id, monkeypatch):
    # one SVD in the proposal (the pullback's) and one in the proposal
    # image's polar_state, which both values the image and keeps the
    # factors the next proposal needs
    space = space_from_id(space_id)
    u4 = gauss(np.random.default_rng(15), (3, 3, 2, 2))
    log = []
    svd = np.linalg.svd

    def counted_svd(*args, **kwargs):
        log.append("svd")
        return svd(*args, **kwargs)

    def logged(name, hook):
        def call(self, *args):
            log.append(name)
            return hook(self, *args)
        return call

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    for name in ("polar_state", "polar_proposal"):
        monkeypatch.setattr(type(space), name, logged(name, getattr(type(space), name)))
    optimize_couple(space, 2, u4, OptimizerConfig(restarts=3, iterations=40), seed=15)
    # the starts' rescale and three values, then their states; at the end the
    # kept images' values and the couple check
    first = log.index("polar_proposal")
    assert log[:first] == ["svd"] * 4 + ["polar_state", "svd"] and log[-2:] == ["svd", "svd"]
    steps = log[first:-2]
    assert len(steps) >= 8 and steps == ["polar_proposal", "svd", "polar_state", "svd"] * (len(steps) // 4)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_default_catalog_is_polar(n):
    # every default space takes polar steps: none is left to a random search,
    # and none is searched twice (cmin is op:1 under its own id)
    catalog = default_catalog(n)
    assert len(catalog) == n + 2
    kinds = [(type(space), getattr(space, "k", None)) for space in catalog]
    assert len(set(kinds)) == len(kinds)
    for space in catalog:
        assert type(space).polar_state is not MatricialSpace.polar_state, space.space_id
        assert type(space).polar_proposal is not MatricialSpace.polar_proposal, space.space_id


@dataclass(frozen=True, eq=False)
class NanAbove(TraceScalars):
    """cmax whose level-1 norm is NaN above ``cap``, in ``norm_batch`` and ``polar_state`` alike.

    ``rows`` lists the size of each level-1 call of either.
    """

    cap: float
    rows: list = field(default_factory=list)

    def norm_batch(self, coords):
        return self._nan_above(super().norm_batch(coords), coords)

    def polar_state(self, images):
        values, state = super().polar_state(images)
        return self._nan_above(values, images), state

    def _nan_above(self, values, coords):
        if coords.shape[-3] != 1:
            return values
        self.rows.append(int(np.prod(coords.shape[:-3])))
        return np.where(values > self.cap, np.nan, values)


@dataclass(frozen=True, eq=False)
class CreepBelow(TraceScalars):
    """cmax whose level-``level`` norms below ``floor`` are squeezed to within 1e-13 of it.

    The squeeze is increasing and applies to ``norm_batch`` and
    ``polar_state`` alike, so the ascent takes the same points as on cmax;
    only the gains change. With ``floor`` set to the value after one step,
    that step gains at most ``TOLERANCE`` times the value it starts from and
    the next one gains fully.
    """

    level: int
    floor: float

    def norm_batch(self, coords):
        return self._squeezed(super().norm_batch(coords), coords)

    def polar_state(self, images):
        values, state = super().polar_state(images)
        return self._squeezed(values, images), state

    def _squeezed(self, values, coords):
        if coords.shape[-3] != self.level:
            return values
        return np.where(values < self.floor, self.floor - (self.floor - values) * 1e-13, values)


# ---------------------------------------------------------------------------
# Reference: the optimizer as one sequential loop that finishes a restart
# before it starts the next, with single-element polar proposals made by hand
# from the image of the current point, a step that values its proposal alone
# (with the space's ``polar_state`` on a stack of one) and moves there only if
# that raises the value, no rescale of the proposals, and that runs each
# restart through steps that do not move until the stall limit or the
# iterations end it. The lockstep optimizer ends a restart at its first step
# that does not move; the two must agree bit for bit.
# ---------------------------------------------------------------------------


def flaky_missing(first):
    return np.floor(1000 * np.abs(first)) % 2 == 1


@dataclass(frozen=True, eq=False)
class FlakyScalars(OperatorSpace):
    """cmin (op:1) without a polar step wherever ``floor(1000 |g_00|)`` is odd, g the pulled-back functional.

    Its proposals vanish in mid-run, so one restart may end while a higher
    one still takes polar steps.
    """

    def polar_proposal(self, pulled):
        return np.where(flaky_missing(pulled[:, 0, 0, 0])[:, None, None, None], 0, super().polar_proposal(pulled))


def reference_proposal(space, image, u4):
    """Single-element polar proposal from the (m, m, dim) amplified image of an element, or None.

    Each kind's support functional comes first, then its pullback
    ``g[i, j] = sum_kl f[k, l] u4[k, l, j, i]`` as one ``@`` over the
    coordinates, summed as ``pullbacks`` sums it, so the bits agree.
    """
    m, n = u4.shape[1:3]
    if not image.any():
        return None
    if isinstance(space, OperatorSpace):
        k = space.k
        x, _, yh = np.linalg.svd(assembled(image.reshape(m, m, k, k)))
        functional = split(np.outer(x[:, 0].conj(), yh[0].conj()), k).reshape(m, m, k * k)
        pull = functional.transpose(2, 0, 1).reshape(k * k, m * m) @ u4.reshape(m * m, n * n)
        pull = pull.reshape(k, k, n, n).transpose(3, 2, 0, 1)  # (i, j, a, b)
        if isinstance(space, FlakyScalars) and flaky_missing(pull[0, 0, 0, 0]):
            return None
        if not pull.any():
            return None
        return split(dual_witness(assembled(pull).T), k).reshape(n, n, k * k)
    if not isinstance(space, TraceScalars):
        return None
    functional = dual_witness(image[:, :, 0]).T
    pullback_t = (functional.reshape(1, m * m) @ u4.reshape(m * m, n * n)).reshape(n, n)
    if not pullback_t.any():
        return None
    uu, _, vvh = np.linalg.svd(pullback_t)
    return np.outer(vvh[0].conj(), uu[:, 0].conj()).reshape(n, n, 1)


def reference_optimize(space, n, u4, cfg, starts, seed, kept=None):
    """The sequential loop; appends each point a restart starts at or moves to to ``kept``, if given."""
    rng = np.random.default_rng(seed)
    best_v, best_val = None, -np.inf
    for restart in range(cfg.restarts):
        start = starts[restart] if restart < len(starts) else random_element(space, n, rng)
        v = space.unit_scaled_stack(np.array(start.coords)[None])[0]
        image = amplified_image(LeveledElement(space.space_id, v), u4).coords
        val = space.norm(LeveledElement(space.space_id, image))
        if kept is not None:
            kept.append(v)
        stall = 0
        for _ in range(cfg.iterations):
            proposal = reference_proposal(space, image, u4)
            if proposal is None:
                proposal = np.zeros_like(v)
            proposal_image = amplified_image(LeveledElement(space.space_id, proposal), u4).coords
            value = space.polar_state(proposal_image[None])[0][0]
            val_next = val
            if value > val:
                v, image, val_next = proposal, proposal_image, value
                if kept is not None:
                    kept.append(v)
            stall = 0 if val_next > val + TOLERANCE * abs(val) else stall + 1
            val = val_next
            if stall >= cfg.stall_limit:
                break
        val = space.norm(LeveledElement(space.space_id, image))  # the kept image, as couple_value values it
        if val > best_val:
            best_v, best_val = v, val
    return best_v, best_val


EQUIVALENCE_SPACES = ["cmin", "cmax", "op:1", "op:2", "op:3", "op:4", "l1:[cmax,cmax]", "l1:[cmin,cmax]",
                      "bare", "flaky"]


def equivalence_input(kind, m, n, rng):
    """Gaussian blocks, or blocks supported on entry (0, 0) only (rank one; all but one zero).

    On the supported inputs an element with zero (0, 0) coordinates has a
    zero image, so its polar proposal vanishes while others' do not.
    """
    if kind == "gauss":
        return gauss(rng, (m, m, n, n))
    u = np.zeros((m, m, n, n), dtype=complex)
    if kind == "rank_one":
        u[:, :, 0, 0] = gauss(rng, (m, m))
    else:
        u[0, 0, 0, 0] = gauss(rng, ())
    return u


class TestLockstepEquivalence:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(space_id=st.sampled_from(EQUIVALENCE_SPACES), n=st.integers(1, 3), m=st.integers(1, 3),
           kind=st.sampled_from(["gauss", "rank_one", "zero_block"]), scale=st.floats(-3, 3),
           restarts=st.integers(1, 4), iterations=st.integers(0, 40), stall_limit=st.integers(1, 4),
           given_starts=st.integers(0, 4), vanishing=st.lists(st.booleans(), min_size=4, max_size=4),
           seed=st.integers(0, 2**16))
    @example(space_id="cmin", n=2, m=2, kind="rank_one", scale=0.0, restarts=4, iterations=12, stall_limit=3,
             given_starts=3, vanishing=[False, True, False, True], seed=1)
    @example(space_id="op:2", n=2, m=1, kind="zero_block", scale=0.0, restarts=3, iterations=10, stall_limit=4,
             given_starts=2, vanishing=[True, False, False, False], seed=2)
    @example(space_id="flaky", n=2, m=2, kind="gauss", scale=0.0, restarts=4, iterations=12, stall_limit=4,
             given_starts=3, vanishing=[False, False, False, False], seed=4)
    @example(space_id="cmax", n=3, m=2, kind="rank_one", scale=0.0, restarts=2, iterations=12, stall_limit=2,
             given_starts=2, vanishing=[False, True, False, False], seed=3)
    @example(space_id="op:3", n=3, m=3, kind="gauss", scale=2.5, restarts=2, iterations=40, stall_limit=4,
             given_starts=0, vanishing=[False, False, False, False], seed=5)
    @example(space_id="op:3", n=3, m=3, kind="gauss", scale=0.0, restarts=2, iterations=40, stall_limit=1,
             given_starts=0, vanishing=[False, False, False, False], seed=6)
    def test_matches_the_sequential_loop_bitwise(self, space_id, n, m, kind, scale, restarts, iterations,
                                                 stall_limit, given_starts, vanishing, seed):
        # also: without a rescale of the proposals (maximizers over the unit
        # ball), every point a restart keeps stays in the ball up to rounding
        if space_id == "bare":
            space = Bare("bare", 1, c_min())
        elif space_id == "flaky":
            space = FlakyScalars("flaky", 1, 1)
        else:
            space = space_from_id(space_id)
        rng = np.random.default_rng(seed)
        u4 = 10.0 ** scale * equivalence_input(kind, m, n, rng)
        starts = []
        for drop in vanishing[:given_starts]:
            coords = 10.0 ** rng.uniform(-1, 1) * gauss(rng, (n, n, space.dim))
            if drop:
                coords[0, 0] = 0
            starts.append(space.element(coords))
        cfg = OptimizerConfig(restarts=restarts, iterations=iterations, stall_limit=stall_limit)
        couple, value = optimize_couple(space, n, u4, cfg, starts=starts, seed=seed)
        if not u4.any():
            return
        kept = []
        ref_v, ref_value = reference_optimize(space, n, u4, cfg, starts, seed, kept)
        assert value == ref_value
        np.testing.assert_array_equal(couple.v.coords, ref_v)
        assert space.norm_batch(np.stack(kept)).max() <= 1.0 + 1e-13
        assert space.norm(couple.v) <= 1.0 + 1e-13

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("space_id", ["cmax", "op:3"])
    def test_gains_are_read_before_the_write_back(self, space_id, seed):
        # while every restart runs and wins, a step is written back into vals itself; with stall_limit=1 a restart
        # goes on only after a step gaining more than TOLERANCE times its value, so gains read after the write-back
        # end every restart after its first step
        rng = np.random.default_rng(seed)
        u4, space = gauss(rng, (3, 3, 3, 3)), space_from_id(space_id)
        cfg = OptimizerConfig(restarts=2, iterations=40, stall_limit=1)
        couple, value = optimize_couple(space, 3, u4, cfg, seed=seed)
        _, one_step = optimize_couple(space, 3, u4, OptimizerConfig(restarts=2, iterations=1), seed=seed)
        kept = []
        ref_v, ref_value = reference_optimize(space, 3, u4, cfg, [], seed, kept)
        assert len(kept) > 2 * cfg.restarts  # some restart moved more than once
        assert value == ref_value > one_step
        np.testing.assert_array_equal(couple.v.coords, ref_v)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sub_tolerance_gain_does_not_end_a_restart(self, seed):
        # a step gaining at most TOLERANCE times the current value counts
        # toward the stall limit but does not end the restart: the step after
        # it gains fully
        rng = np.random.default_rng(seed)
        m, n = 2, 3
        u4 = gauss(rng, (m, m, n, n))
        coords = gauss(rng, (n, n, 1))
        one_step = OptimizerConfig(restarts=1, iterations=1)
        _, floor = optimize_couple(c_max(), n, u4, one_step, starts=[c_max().element(coords)])
        space = CreepBelow("creep", 1, m, floor)
        start = space.element(coords)
        start_value = space.norm(amplified_image(space.element(space.unit_scaled_stack(coords[None])[0]), u4))
        _, first = optimize_couple(space, n, u4, one_step, starts=[start])
        cfg = OptimizerConfig(restarts=1, iterations=3, stall_limit=2)
        couple, value = optimize_couple(space, n, u4, cfg, starts=[start])
        assert 0 < first - start_value <= TOLERANCE * start_value < value - first
        ref_v, ref_value = reference_optimize(space, n, u4, cfg, [start], 0)
        assert value == ref_value
        np.testing.assert_array_equal(couple.v.coords, ref_v)


class DoubledProposal(TraceScalars):
    """cmax with twice its polar proposal: the proposals leave the unit ball."""

    def polar_proposal(self, pulled):
        return 2 * super().polar_proposal(pulled)


@dataclass(frozen=True, eq=False)
class ImagesAsCoordinates(TraceScalars):
    """cmax whose proposal is a zero stack of the level-``m`` images' shape, not the level-n elements'."""

    m: int

    def polar_proposal(self, pulled):
        return np.zeros((len(pulled), self.m, self.m, self.dim), dtype=complex)


class TestProposalContract:
    def test_proposal_outside_the_ball_rejected(self):
        # the couple check, not a rescale, keeps an infeasible point from being returned
        u = gauss(np.random.default_rng(13), (2, 2, 2, 2))
        with pytest.raises(InvalidInputError, match="norm .* > 1"):
            optimize_couple(DoubledProposal("double", 1), 2, u, OptimizerConfig(restarts=1, iterations=3))

    def test_proposal_of_another_shape_rejected(self):
        # at m != n the images and the elements differ in shape
        u = gauss(np.random.default_rng(14), (3, 3, 2, 2))
        with pytest.raises(InvalidInputError, match="polar_proposal gave shape"):
            optimize_couple(ImagesAsCoordinates("images", 1, 3), 2, u, OptimizerConfig(restarts=1, iterations=3))


def search_starts(space, n, seed):
    """Starts as the search hands them over, with the norms their stack was checked by.

    A random row divided onto the sphere whose norm reads just above 1, the
    zero element and a row inside the ball.
    """
    rows = space.unit_scaled_stack(gauss(np.random.default_rng(seed), (64, n, n, space.dim)), sphere=True)
    over = rows[np.flatnonzero(check_unit_ball(space, rows) > 1)[0]]
    stack = np.stack([over, np.zeros_like(over), 0.5 * rows[0]])
    norms = check_unit_ball(space, stack)
    assert 1 < norms[0] <= 1 + 1e-15 and norms[1] == 0
    return [LeveledElement(space.space_id, c) for c in stack], norms


class TestStartNorms:
    @pytest.mark.parametrize("restarts", [1, 3, 5])
    @pytest.mark.parametrize("space_id", ["cmax", "cmin", "op:2", "op:3"])
    def test_same_bits_with_and_without_norms(self, space_id, restarts):
        # the given norms spare the starts' norm evaluation and divide them as unit_scaled_stack does, the
        # start read at 1 + ulp included; restarts beyond the starts are drawn and normed on their own
        space = space_from_id(space_id)
        starts, norms = search_starts(space, 2, seed=restarts)
        u4 = gauss(np.random.default_rng(30 + restarts), (2, 2, 2, 2))
        cfg = OptimizerConfig(restarts=restarts, iterations=5)
        plain, plain_value = optimize_couple(space, 2, u4, cfg, starts=starts, seed=8)
        normed, normed_value = optimize_couple(space, 2, u4, cfg, starts=starts, seed=8, start_norms=norms)
        assert normed_value == plain_value
        np.testing.assert_array_equal(normed.v.coords, plain.v.coords)

    def test_a_start_read_above_one_is_divided_again(self):
        starts, norms = search_starts(c_min(), 2, seed=0)
        u4 = gauss(np.random.default_rng(31), (1, 1, 2, 2))
        couple, _ = optimize_couple(c_min(), 2, u4, OptimizerConfig(restarts=1, iterations=0),
                                    starts=starts[:1], start_norms=norms[:1])
        np.testing.assert_array_equal(couple.v.coords, starts[0].coords / norms[0])

    @pytest.mark.parametrize("norms", [[1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]], [np.nan, 1.0], [np.inf, 1.0],
                                       [-1.0, 1.0], ["x", 1.0]],
                             ids=["short", "long", "nested", "nan", "inf", "negative", "text"])
    def test_bad_norms_rejected(self, norms):
        starts = [c_min().element(np.eye(2)), c_min().element(np.zeros((2, 2)))]
        with pytest.raises(InvalidInputError, match="start norm"):
            optimize_couple(c_min(), 2, np.ones((1, 1, 2, 2)), starts=starts, start_norms=norms)

    def test_zero_norm_of_a_zero_start_accepted(self):
        # unit_scaled_stack leaves a zero row alone, and so do the given norms
        u4 = gauss(np.random.default_rng(32), (1, 1, 2, 2))
        starts, cfg = [c_max().element(np.zeros((2, 2)))], OptimizerConfig(restarts=1, iterations=3)
        assert (optimize_couple(c_max(), 2, u4, cfg, starts=starts, start_norms=[0.0])[1]
                == optimize_couple(c_max(), 2, u4, cfg, starts=starts)[1])

    def test_understated_norm_caught_by_the_couple(self):
        # a start left outside the ball by its given norm is returned unchanged with no step, and the Couple
        # checks it
        start = c_min().element(3 * np.eye(2))
        with pytest.raises(InvalidInputError, match="norm 3 > 1"):
            optimize_couple(c_min(), 2, np.eye(2).reshape(1, 1, 2, 2), OptimizerConfig(restarts=1, iterations=0),
                            starts=[start], start_norms=[0.5])
