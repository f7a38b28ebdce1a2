"""Couple optimizer: benchmark recovery, feasibility, determinism."""

import numpy as np
import pytest

from matnorm import (
    MatricialSpace,
    OptimizerConfig,
    amplified_image,
    c_max,
    c_min,
    concrete_operator_space,
    canonical_identity,
    couple_value,
    dual_witness,
    l1_sum,
    optimize_couple,
    random_element,
    trace_norm,
)
from matnorm.optimizer import STEP_INIT


def gauss(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def single_block(a):
    a = np.asarray(a, dtype=complex)
    return a.reshape(1, 1, *a.shape)


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
        assert couple_value(couple, u) == pytest.approx(value, abs=1e-12)

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


def polar_step(space, v, u, seed=0):
    """One ascent step from ``v``: a single restart started at v, one iteration."""
    couple, _ = optimize_couple(space, v.level, u, OptimizerConfig(restarts=1, iterations=1),
                                starts=[v], seed=seed)
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

    def test_nan_candidate_hides_no_better_one(self):
        # a custom evaluator with NaN on some level-1 images: a random-search
        # step keeps the best finite candidate, as a one-by-one loop does
        base = c_max()
        space = MatricialSpace("nan", 1, "NaN on some images",
                               lambda c: np.nan if c.shape[0] == 1 and c[0, 0, 0].real < 0 else base.norm_fn(c))
        rng = np.random.default_rng(4)
        u = single_block(gauss(rng, (2, 2)))
        v = space.element(0.1 * gauss(rng, (2, 2, 1)))
        draws = np.random.default_rng(14)
        candidates = [space.unit_scaled(v.coords + STEP_INIT * random_element(space, 2, draws).coords)
                      for _ in range(4)]
        values = [space.norm(amplified_image(c, u)) for c in candidates]
        start = space.norm(amplified_image(v, u))
        _, value = optimize_couple(space, 2, u, OptimizerConfig(restarts=1, iterations=1),
                                   starts=[v], seed=14)
        assert np.isnan(values).any() and not np.isnan(start)
        assert value == np.nanmax(values) > start

    def test_unsupported_space_falls_back(self):
        rng = np.random.default_rng(11)
        space = l1_sum([c_min(), c_max()])
        coords = gauss(rng, (2, 2, 2))
        v = space.element(coords / space.norm(coords))
        u = gauss(rng, (1, 1, 2, 2))
        before = space.norm(amplified_image(v, u))
        v_next = polar_step(space, v, u, seed=12)
        after = space.norm(amplified_image(v_next, u))
        assert after >= before
        assert space.norm(v_next) <= 1.0 + 1e-12
