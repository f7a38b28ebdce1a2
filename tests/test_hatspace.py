"""Bound engine: lower/upper rules and certificates."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matnorm import (
    Couple,
    InconsistencyError,
    InvalidInputError,
    MatricialSpace,
    OptimizerConfig,
    amplified_image,
    c_max,
    c_min,
    canonical_identity,
    check_upper_certificate,
    concrete_operator_space,
    couple_value,
    default_catalog,
    dual_witness,
    hat_bounds,
    hat_upper_bound,
    optimize_couple,
    random_couple,
    random_unitary,
    search_lower_bound,
    space_from_id,
    structured_couples,
    trace_norm,
)
from matnorm.hatspace import RANDOM_CHUNK, UPPER_MARGIN, _stacks

from helpers import Bare, forbid_bound_work, gauss, op_norm, single_block


class NanOnLevelOne(MatricialSpace):
    """cmax, but NaN on the level-1 elements whose coordinate has a negative real part."""

    def norm_batch(self, coords):
        norms = c_max().norm_batch(coords)
        return np.where(coords[..., 0, 0, 0].real < 0, np.nan, norms) if coords.shape[-3] == 1 else norms


class Liar(MatricialSpace):
    """cmax's norm, inflated tenfold at level 1 and understated tenfold above it."""

    def norm_batch(self, coords):
        return c_max().norm_batch(coords) * (10.0 if coords.shape[-3] == 1 else 0.1)


class TestCoupleValue:
    def test_flip_gives_couple_element_norm(self):
        # the amplified image of the flip element is the couple element itself
        n = 3
        sp = c_max()
        couple = Couple(sp, sp.element((np.eye(n) / n).reshape(n, n, 1)))
        assert couple_value(couple, canonical_identity(n)) == pytest.approx(1.0, abs=1e-12)

    def test_dual_witness_couple_reaches_trace_norm(self):
        rng = np.random.default_rng(0)
        a = gauss(rng, (3, 3))
        sp = c_min()
        couple = Couple(sp, sp.element(dual_witness(a).reshape(3, 3, 1)))
        assert couple_value(couple, single_block(a)) == pytest.approx(trace_norm(a), abs=1e-9)

    def test_infeasible_couple_rejected(self):
        sp = c_max()
        with pytest.raises(InvalidInputError):
            Couple(sp, sp.element(np.eye(2)))  # trace norm 2

    def test_block_size_mismatch_rejected(self):
        sp = c_max()
        couple = Couple(sp, sp.element(np.eye(2).reshape(2, 2, 1) / 2))
        with pytest.raises(InvalidInputError, match="2 x 2 blocks"):
            couple_value(couple, np.ones((1, 1, 3, 3)))

    @pytest.mark.parametrize("psd", [False, True], ids=["gauss", "psd_block_diag"])
    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_certificate_reproduces_the_lower_bound_bitwise(self, m, n, psd):
        # the optimizer steps on full-SVD values but reports its couples'
        # norm_batch values, which couple_value gives bit for bit
        for seed in range(4):
            rng = np.random.default_rng([m, n, seed])
            u = psd_block_diagonal(rng, m, n) if psd else gauss(rng, (m, m, n, n))
            b = hat_bounds(n, u, seed=seed)
            assert couple_value(b.certificate, u) == b.lower


class TestBlockSize:
    @pytest.mark.parametrize("n", [True, 1.0, 2.0, "2"], ids=["bool", "one_float", "float", "str"])
    @pytest.mark.parametrize("entry", [hat_bounds, hat_upper_bound, search_lower_bound],
                             ids=["hat_bounds", "hat_upper_bound", "search_lower_bound"])
    def test_non_integer_size_rejected(self, entry, n):
        # True and 1.0 match the shape of 1 x 1 blocks and once failed deeper, with a TypeError
        with pytest.raises(InvalidInputError, match="block size must be an integer"):
            entry(n, np.ones((2, 2, 1, 1)) if n in (True, 1.0) else np.ones((2, 2, 2, 2)))

    @pytest.mark.parametrize("call", [
        lambda: hat_bounds(None, np.ones((2, 2, 2, 2))),
        lambda: search_lower_bound(None, np.ones((2, 2, 2, 2))),
        lambda: hat_upper_bound(None, np.ones((2, 2, 2, 2))),
        lambda: optimize_couple(c_min(), None, np.ones((2, 2, 2, 2))),
        lambda: structured_couples(c_min(), None, np.ones((2, 2, 2, 2))),
        lambda: default_catalog(None),
        lambda: default_catalog(2.0),
        lambda: canonical_identity(2.0),
        lambda: random_unitary(2.5, 0),
        lambda: concrete_operator_space(2.0),
    ], ids=["hat_bounds_none", "search_lower_bound_none", "hat_upper_bound_none", "optimize_couple_none",
            "structured_couples_none", "default_catalog_none", "default_catalog_float", "canonical_identity_float",
            "random_unitary_float", "concrete_operator_space_float"])
    def test_size_of_another_type_rejected(self, call):
        # each raised a TypeError deeper down, or (op:2.0) built a space with a float dim
        with pytest.raises(InvalidInputError, match="size must be an integer"):
            call()

    def test_numpy_integer_size_accepted(self):
        # the bare space draws an optimizer start at level n, so n reaches random_element too
        space = Bare("bare", 1, c_min())
        u = gauss(np.random.default_rng(3), (2, 2, 2, 2))
        ours = hat_bounds(np.int64(2), u, catalog=[space], budget=1, seed=4)
        ref = hat_bounds(2, u, catalog=[space], budget=1, seed=4)
        assert (ours.lower, ours.upper) == (ref.lower, ref.upper)
        np.testing.assert_array_equal(ours.certificate.v.coords, ref.certificate.v.coords)


class TestNonFiniteInput:
    # complex128, the dtype the engine builds, is scanned like any other input
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", [
        lambda u: couple_value(Couple(c_min(), c_min().element(np.eye(2) / 2)), u),
        lambda u: optimize_couple(c_min(), 2, u),
        lambda u: amplified_image(c_min().element(np.eye(2) / 2), u),
    ], ids=["couple_value", "optimize_couple", "amplified_image"])
    def test_rejected(self, entry, bad):
        u = np.ones((2, 2, 2, 2), dtype=complex)
        u[1, 0, 0, 1] = bad
        with pytest.raises(InvalidInputError, match="finite"):
            entry(u)


class TestLowerBound:
    def test_flip_element_reaches_one(self):
        result = search_lower_bound(2, canonical_identity(2), budget=30, seed=1)
        value, couple = result.value, result.couple
        assert value == pytest.approx(1.0, abs=1e-9)
        # certificate reproduces the reported value
        assert couple_value(couple, canonical_identity(2)) == pytest.approx(value, abs=1e-12)

    def test_zero_input(self):
        value = search_lower_bound(2, np.zeros((2, 2, 2, 2)), budget=10, seed=1).value
        assert value == 0.0

    def test_zero_input_certificate_comes_from_the_catalog(self):
        # the zero input takes the general search, so its certificate is a
        # couple of the caller's catalog
        result = search_lower_bound(2, np.zeros((2, 2, 2, 2)), catalog=[c_min()], budget=8)
        assert result.value == 0.0
        assert result.couple.space.space_id == "cmin"

    def test_single_entry_block(self):
        rng = np.random.default_rng(2)
        a = gauss(rng, (2, 2))
        u = np.zeros((3, 3, 2, 2), dtype=complex)
        u[0, 0] = a
        value = search_lower_bound(2, u, budget=20, seed=3).value
        assert value == pytest.approx(trace_norm(a), abs=1e-9)

    def test_nan_value_hides_no_larger_couple(self):
        # a custom evaluator with NaN on some level-1 images: the search skips
        # only those couples, as a couple-by-couple loop does
        space = NanOnLevelOne("nan", 1)
        u = single_block(gauss(np.random.default_rng(30), (2, 2)))
        cfg = OptimizerConfig(restarts=1, iterations=0)
        result = search_lower_bound(2, u, catalog=[space], budget=16, seed=0, optimizer_config=cfg)
        rng = np.random.default_rng(np.random.SeedSequence(0).spawn(1)[0])
        values = [couple_value(random_couple(space, 2, rng), u) for _ in range(16)]
        assert np.isnan(values).any() and not np.isnan(values[0])
        assert result.value == np.nanmax(values) > values[0]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cmin_witness_reaches_trace_norm_without_a_search(self, n):
        # with no random couples and no optimizer run, cmin's structured stack
        # alone holds the block's dual witness, worth its trace norm (thm6)
        a = gauss(np.random.default_rng(40 + n), (n, n))
        result = search_lower_bound(n, single_block(a), catalog=[c_min()], budget=0)
        assert result.value == pytest.approx(trace_norm(a), rel=1e-12)

    def test_n1_structured_couples_stack_the_identity_once(self, monkeypatch):
        # at n = 1 the flip element is the identity, so cmin (op:1) stacks the
        # identity and then the witnesses of the nonzero blocks, and a
        # 2-restart search starts from the identity and the first witness
        u4 = gauss(np.random.default_rng(50), (2, 2, 1, 1))
        u4[0, 1] = 0
        witnesses = [dual_witness(b) for b in u4.reshape(-1, 1, 1) if b.any()]
        for space in (c_min(), concrete_operator_space(1)):
            np.testing.assert_array_equal(space.structured_couples(1, u4), np.stack([np.eye(1), *witnesses])[..., None])
        seen = []

        def spy(space, n, u, config, starts, seed, start_norms):
            seen.extend(start.coords for start in starts)
            return optimize_couple(space, n, u, config, starts=starts, seed=seed, start_norms=start_norms)

        monkeypatch.setattr("matnorm.hatspace.optimize_couple", spy)
        search_lower_bound(1, u4, catalog=[c_min()], budget=4, seed=0)
        assert len(seen) == OptimizerConfig().restarts == 2
        assert seen[0][0, 0, 0] == 1 and seen[1][0, 0, 0] == pytest.approx(witnesses[0][0, 0], abs=1e-15)

    def test_structured_couples_valued_in_bounded_stacks(self, monkeypatch):
        # cmin and cmax each have m^2 + 1 = 82 structured couples at m = 9; they once
        # went with the first random chunk as one stack, whose images grow as m^4
        import matnorm.hatspace as hs

        u = gauss(np.random.default_rng(51), (9, 9, 1, 1))
        assert len(structured_couples(c_min(), 1, u)) == 82
        monkeypatch.setattr(hs, "RANDOM_CHUNK", 10**6)
        ref = search_lower_bound(1, u, seed=3)
        monkeypatch.undo()
        sizes, real = [], hs.amplified_images

        def spy(coords, u4):
            sizes.append(len(coords))
            return real(coords, u4)

        monkeypatch.setattr(hs, "amplified_images", spy)
        ours = search_lower_bound(1, u, seed=3)
        assert max(sizes) <= 2 * hs.RANDOM_CHUNK
        assert (ours.value, ours.couples_evaluated) == (ref.value, ref.couples_evaluated)
        assert ours.couple.space.space_id == ref.couple.space.space_id
        np.testing.assert_array_equal(ours.couple.v.coords, ref.couple.v.coords)

    def test_empty_catalog_rejected(self):
        with pytest.raises(InvalidInputError, match="empty catalog"):
            search_lower_bound(2, canonical_identity(2), catalog=[])

    def test_search_without_a_couple_rejected(self):
        # no structured couples and no budget: nothing is evaluated, so there
        # is no lower bound and no certificate to report
        bare = Bare("bare", 1, c_min())
        with pytest.raises(InvalidInputError, match="no couple"):
            hat_bounds(2, np.ones((1, 1, 2, 2)), catalog=[bare], budget=0)

    @pytest.mark.parametrize("budget", [1.5, "3", True, -1])
    @pytest.mark.parametrize("entry", [hat_bounds, search_lower_bound])
    def test_non_integer_budget_rejected(self, entry, budget):
        with pytest.raises(InvalidInputError, match="budget"):
            entry(2, canonical_identity(2), budget=budget)

    @pytest.mark.parametrize("seed", [-1, 1.5, "x", None, True])
    @pytest.mark.parametrize("entry", [hat_bounds, search_lower_bound,
                                       lambda n, u, seed: optimize_couple(c_min(), n, u, seed=seed)],
                             ids=["hat_bounds", "search_lower_bound", "optimize_couple"])
    def test_seed_must_be_a_nonnegative_integer(self, entry, seed):
        # None drew from fresh OS entropy, so two runs differed; -1, 1.5 and "x" raised numpy's errors
        with pytest.raises(InvalidInputError, match="seed"):
            entry(1, np.ones((1, 1, 1, 1)), seed=seed)

    def test_numpy_integer_seed_accepted(self):
        u = gauss(np.random.default_rng(5), (2, 2, 2, 2))
        ours, ref = search_lower_bound(2, u, budget=4, seed=np.uint32(3)), search_lower_bound(2, u, budget=4, seed=3)
        assert ours.value == ref.value
        np.testing.assert_array_equal(ours.couple.v.coords, ref.couple.v.coords)

    @pytest.mark.parametrize("n,u", [
        (3, single_block(gauss(np.random.default_rng(60), (3, 3)))),
        (2, gauss(np.random.default_rng(61), (2, 2, 2, 2))),
        (2, canonical_identity(2)),
    ], ids=["single_block", "gaussian", "flip"])
    def test_only_the_reported_winner_becomes_a_couple(self, monkeypatch, n, u):
        # every stack is checked feasible as a stack, so a stack's winner becomes a Couple only once it is the
        # reported one; each optimizer run returns its own
        built, returned = [], []
        post_init = Couple.__post_init__

        def counting(couple):
            built.append(couple)
            post_init(couple)

        def spy(*args, **kwargs):
            couple, value = optimize_couple(*args, **kwargs)
            returned.append(couple)
            return couple, value

        monkeypatch.setattr(Couple, "__post_init__", counting)
        monkeypatch.setattr("matnorm.hatspace.optimize_couple", spy)
        result = search_lower_bound(n, u, budget=8, seed=1)
        assert len(returned) == len(default_catalog(n))
        assert len(built) <= len(returned) + 1
        assert any(result.couple is couple for couple in built)

    def test_an_optimizer_win_reports_the_couple_it_returned(self, monkeypatch):
        # the benchmark tracer attributes a win to the optimizer by the identity of the couple it returned
        returned = []

        def spy(*args, **kwargs):
            couple, value = optimize_couple(*args, **kwargs)
            returned.append((couple, value))
            return couple, value

        monkeypatch.setattr("matnorm.hatspace.optimize_couple", spy)
        result = search_lower_bound(2, gauss(np.random.default_rng(0), (2, 2, 2, 2)), seed=0)
        assert [couple for couple, value in returned if couple is result.couple]
        assert result.value == max(value for _, value in returned)

    @pytest.mark.parametrize("bad", [{"seed": -1}, {"budget": -1}, {"catalog": []}, {"catalog": ["cmin"]},
                                     {"catalog": 5}, {"catalog": [c_min(), "x"]}],
                             ids=["seed", "budget", "catalog", "catalog-of-ids", "catalog-not-iterable",
                                  "catalog-space-then-id"])
    def test_bad_argument_rejected_before_the_upper_bound(self, monkeypatch, bad):
        # the upper certificate (an SVD and the tie rotation) and every space's draws and norms come only
        # after the search's checks pass; a bad catalog raised AttributeError or TypeError
        calls = []

        def counting(fn):
            def counted(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr("matnorm.hatspace.hat_upper_bound", counting(hat_upper_bound))
        forbid_bound_work(monkeypatch)
        with pytest.raises(InvalidInputError):
            hat_bounds(2, np.ones((3, 3, 2, 2)), **bad)
        assert calls == []

    def test_search_counts_couples(self):
        result = search_lower_bound(2, canonical_identity(2), budget=5, seed=4)
        assert result.couples_evaluated >= 5 * len(default_catalog(2))
        assert result.value <= 1.0 + 1e-9

    @pytest.mark.parametrize("n,calls,evaluated", [(1, 27, 32), (2, 34, 43), (3, 41, 53), (4, 48, 63)])
    def test_each_search_stack_is_normed_once(self, monkeypatch, n, calls, evaluated):
        # per space, the structured couples ride with the first random chunk through one rescale and one
        # check, and the optimizer takes its starts' norms from that check: 3 (n + 2) SVD calls fewer than
        # when each stack was rescaled, checked and normed again on its own (36, 46, 56 and 66), for as many
        # couples; with no ascent step the count does not depend on the floating-point path
        u = single_block(gauss(np.random.default_rng(n), (n, n)))
        cfg = OptimizerConfig(restarts=1, iterations=0)
        assert search_lower_bound(n, u, budget=8, optimizer_config=cfg).couples_evaluated == evaluated
        real, seen = np.linalg.svd, []

        def spy(*args, **kwargs):
            seen.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        hat_bounds(n, u, budget=8, optimizer_config=cfg)
        assert len(seen) == calls


def reference_chunk(space, n, rng, count):
    """The random couples one at a time: a draw into the couple's row, then the sphere coin for a nonzero row only."""
    rows = []
    for _ in range(count):
        draw = np.empty((2, n, n, space.dim))
        rng.standard_normal(out=draw)
        sphere = draw.any() and rng.uniform() < 0.5
        rows.append(space.unit_scaled_stack((draw[0] + 1j * draw[1])[None], sphere)[0])
    return np.stack(rows) if rows else np.empty((0, n, n, space.dim), dtype=complex)


class ZeroRowGenerator:
    """A generator whose draw for one row is zero: all of it, or its first entry only.

    It logs its calls, so a test sees which rows drew a coin.
    """

    def __init__(self, seed, zero_row, first_only):
        self.inner, self.zero_row, self.first_only, self.log = np.random.default_rng(seed), zero_row, first_only, []

    def standard_normal(self, out):
        self.inner.standard_normal(out=out)
        if self.log.count("normal") == self.zero_row:
            out.reshape(-1)[:1 if self.first_only else None] = 0
        self.log.append("normal")
        return out

    def random(self):
        self.log.append("coin")
        return self.inner.random()

    uniform = random


def random_stack(space, n, rng, count):
    """The one stack of ``count`` <= RANDOM_CHUNK random couples that a search with no structured couples makes."""
    (coords, norms), = _stacks(space, n, None, rng, count)
    np.testing.assert_array_equal(norms, space.norm_batch(coords))  # the norms it checked
    return coords


class TestRandomChunk:
    @pytest.mark.parametrize("count", [0, 1, 5, 64])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("space_id", ["cmax", "cmin", "op:2", "op:3"])
    def test_matches_the_per_couple_loop_bitwise(self, space_id, n, count):
        space = space_from_id(space_id)
        rng, ref_rng = np.random.default_rng(count + n), np.random.default_rng(count + n)
        np.testing.assert_array_equal(random_stack(space, n, rng, count), reference_chunk(space, n, ref_rng, count))
        assert rng.random() == ref_rng.random()  # the two streams end at the same place

    @pytest.mark.parametrize("first_only", [False, True])
    @pytest.mark.parametrize("space_id", ["cmax", "op:2"])
    def test_zero_row_draws_no_coin(self, space_id, first_only):
        # an all-zero draw has norm 0: it draws no coin and is not divided onto the sphere; a draw whose first
        # entry only is zero still draws its coin
        space, count, zero_row = space_from_id(space_id), 5, 2
        rng, ref_rng = (ZeroRowGenerator(7, zero_row, first_only) for _ in range(2))
        coords = random_stack(space, 2, rng, count)
        np.testing.assert_array_equal(coords, reference_chunk(space, 2, ref_rng, count))
        assert rng.log == ref_rng.log
        assert rng.log.count("normal") == count
        assert rng.log.count("coin") == count - (not first_only)
        assert np.isfinite(coords).all() and coords[zero_row].any() == first_only

    @pytest.mark.parametrize("space_id", ["cmax", "cmin", "op:2", "op:3"])
    def test_structured_couples_lead_the_first_chunk(self, space_id):
        # at budget 130 the search's first stack is the structured couples on the first 64 draws, each later
        # chunk is a stack of its own, and every row has the bits it gets alone
        space, n = space_from_id(space_id), 2
        u4 = gauss(np.random.default_rng(52), (3, 3, n, n))
        rng, ref_rng = np.random.default_rng(53), np.random.default_rng(53)
        stacks = list(_stacks(space, n, u4, rng, 130))
        lead = structured_couples(space, n, u4)
        assert len(lead) and [len(coords) for coords, _ in stacks] == [len(lead) + RANDOM_CHUNK, RANDOM_CHUNK, 2]
        refs = [np.concatenate([lead, reference_chunk(space, n, ref_rng, RANDOM_CHUNK)]),
                reference_chunk(space, n, ref_rng, RANDOM_CHUNK), reference_chunk(space, n, ref_rng, 2)]
        for (coords, norms), ref in zip(stacks, refs):
            np.testing.assert_array_equal(coords, ref)
            np.testing.assert_array_equal(norms, space.norm_batch(coords))
        assert rng.random() == ref_rng.random()


def realign(u):
    m, _, n, _ = u.shape
    return u.transpose(0, 3, 2, 1).reshape(m * n, n * m)


def entry_trace_sum(u):
    return sum(trace_norm(b) for row in u for b in row)


def plain_atoms_value(u):
    """Loop reference: the SVD atoms of the realignment, unrotated, each valued alone."""
    m, _, n, _ = u.shape
    x, s, yh = np.linalg.svd(realign(u))
    return sum(s[t] * op_norm(x[:, t].reshape(m, n)) * op_norm(yh[t].reshape(n, m))
               for t in range(len(s)))


def diagonal_witness(n):
    """diag(e_11, ..., e_nn) at level n: its realignment has n equal singular values."""
    x = np.zeros((n, n, n, n), dtype=complex)
    for k in range(n):
        x[k, k, k, k] = 1.0
    return x


def psd_block_diagonal(rng, m, n):
    """diag(G_1 G_1*, ..., G_m G_m*) with Gaussian n x n G_k: the bench's PSD shape."""
    u = np.zeros((m, m, n, n), dtype=complex)
    for k in range(m):
        g = gauss(rng, (n, n))
        u[k, k] = g @ g.conj().T
    return u


def doubled_flip(n):
    d = np.zeros((2 * n, 2 * n, n, n), dtype=complex)
    d[:n, :n] = d[n:, n:] = canonical_identity(n)
    return d


class TestUpperBound:
    def test_level_one_is_trace_norm(self):
        a = np.diag([1.0, 1.0]).astype(complex)
        assert hat_upper_bound(2, single_block(a)).value == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_level_one_is_trace_norm_up_to_the_margin(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(20):
            a = gauss(rng, (n, n))
            cert = hat_upper_bound(n, single_block(a))
            assert trace_norm(a) <= cert.value <= trace_norm(a) * (1 + 2 * UPPER_MARGIN * n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_flip_element_gives_one(self, n):
        cert = hat_upper_bound(n, canonical_identity(n))
        assert 1.0 <= cert.value <= 1.0 + 2 * UPPER_MARGIN * n * n
        assert check_upper_certificate(cert, canonical_identity(n))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_tied_atoms_rotated_on_diagonal_witness(self, n):
        # plain SVD atoms are the n summands, worth 1 each; their DFT rotation is worth 1 in all
        cert = hat_upper_bound(n, diagonal_witness(n))
        assert plain_atoms_value(diagonal_witness(n)) == pytest.approx(n, abs=1e-12)
        assert 1.0 <= cert.value <= 1.0 + 2 * UPPER_MARGIN * n * n
        assert check_upper_certificate(cert, diagonal_witness(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_doubled_flip_gives_two(self, n):
        assert hat_upper_bound(n, doubled_flip(n)).value == pytest.approx(2.0, abs=1e-12)

    def test_single_nonzero_block(self):
        rng = np.random.default_rng(5)
        a = gauss(rng, (2, 2))
        u = np.zeros((2, 2, 2, 2), dtype=complex)
        u[0, 0] = a
        assert hat_upper_bound(2, u).value == pytest.approx(trace_norm(a), abs=1e-9)

    def test_off_diagonal_block_uses_entry_sum(self):
        rng = np.random.default_rng(5)
        u = np.zeros((2, 2, 2, 2), dtype=complex)
        u[0, 1] = gauss(rng, (2, 2))
        assert hat_upper_bound(2, u).value == pytest.approx(trace_norm(u[0, 1]), abs=1e-9)

    def test_block_diagonal_uses_block_rule(self):
        rng = np.random.default_rng(6)
        u = np.zeros((2, 2, 2, 2), dtype=complex)
        u[0, 0] = gauss(rng, (2, 2))
        u[1, 1] = gauss(rng, (2, 2))
        # the realignment is block diagonal too, with SVD atoms of one block
        # each, worth the sum of the blocks' trace norms; the sweep may only lower that
        blocks = trace_norm(u[0, 0]) + trace_norm(u[1, 1])
        assert plain_atoms_value(u) == pytest.approx(blocks, abs=1e-9)
        cert = hat_upper_bound(2, u)
        assert cert.value <= blocks * (1 + 2 * UPPER_MARGIN * 4)
        assert check_upper_certificate(cert, u)

    def test_entry_trace_sum_never_worse_than_entrywise(self):
        rng = np.random.default_rng(7)
        u = gauss(rng, (3, 3, 2, 2))
        value = hat_upper_bound(2, u).value
        assert value <= entry_trace_sum(u) <= float(np.abs(u).sum()) + 1e-9

    def test_chain_below_realigned_trace_norm_and_entry_trace_sum(self):
        # O <= R (up to the margin) <= the sum of the blocks' trace norms
        rng = np.random.default_rng(23)
        for trial in range(60):
            m, n = 1 + trial % 3, 1 + (trial // 3) % 3
            u = gauss(rng, (m, m, n, n))
            u[rng.uniform(size=(m, m)) < 0.3] = 0.0
            value = hat_upper_bound(n, u).value
            realigned = trace_norm(realign(u)) if u.any() else 0.0
            assert value <= realigned * (1 + 2 * UPPER_MARGIN * m * n)
            assert realigned <= entry_trace_sum(u) * (1 + 1e-12)

    def test_never_worse_than_plain_atoms(self):
        # permuted ties, where the DFT rotation of a cluster can be worth more than its plain atoms
        rng = np.random.default_rng(24)
        for trial in range(40):
            m, n = 2 + trial % 2, 1 + trial % 3
            k = m * n
            s = np.sort(rng.integers(1, 3, size=k).astype(float))[::-1]
            big = (np.eye(k)[rng.permutation(k)] * s) @ np.eye(k)[rng.permutation(k)]
            u = big.reshape(m, n, n, m).transpose(0, 3, 2, 1)
            value = hat_upper_bound(n, u).value
            assert value <= plain_atoms_value(u) * (1 + 2 * UPPER_MARGIN * m * n)

    def test_atoms_and_residual_rebuild_u(self):
        # atom t is the scalar product A_t . flip . B_t: block (k, l) is sum_pq A_t[k, p] flip[p, q] B_t[q, l]
        rng = np.random.default_rng(26)
        for m, n in [(1, 2), (2, 3), (3, 2), (2, 2)]:
            u = gauss(rng, (m, m, n, n)) if m != n else diagonal_witness(n)
            cert = hat_upper_bound(n, u)
            atoms = sum(np.einsum("kp,pqij,ql->klij", a, canonical_identity(n), b)
                        for a, b in zip(cert.left, cert.right))
            np.testing.assert_allclose(atoms, u, rtol=0, atol=1e-12)  # the residual is rounding only

    def test_checker_rejects_tampering(self):
        rng = np.random.default_rng(25)
        u = gauss(rng, (2, 2, 3, 3))
        cert = hat_upper_bound(3, u)
        assert check_upper_certificate(cert, u)
        left = cert.left.copy()
        left[0, 0, 0] *= 1 + 1e-6
        assert not check_upper_certificate(replace(cert, left=left), u)
        assert not check_upper_certificate(replace(cert, value=cert.value * (1 - 1e-9)), u)
        assert not check_upper_certificate(replace(cert, right=cert.right[:-1]), u)
        assert not check_upper_certificate(cert, 2 * u)
        # NaN and inf atoms once failed in the SVD ("did not converge"), a string atom in numpy's ufuncs
        for bad in (np.nan, np.inf, "x"):
            left = cert.left.astype(object if isinstance(bad, str) else complex)
            left[0, 0, 0] = bad
            for tampered in (replace(cert, left=left), replace(cert, right=left.swapaxes(1, 2))):
                with pytest.raises(InvalidInputError, match="certificate's"):
                    check_upper_certificate(tampered, u)


class TestSweep:
    """Pairwise unitary sweeps: a checked decomposition, never worth more than the SVD's atoms."""

    FAST = OptimizerConfig(restarts=1, iterations=2, stall_limit=2)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(m=st.integers(2, 3), n=st.integers(2, 3), exponent=st.integers(-150, 150), psd=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_swept_certificate_is_checked_and_no_worse(self, m, n, exponent, psd, seed):
        rng = np.random.default_rng(seed)
        u = 10.0 ** exponent * (psd_block_diagonal(rng, m, n) if psd else gauss(rng, (m, m, n, n)))
        with np.errstate(over="raise"):
            cert = hat_upper_bound(n, u)
            b = hat_bounds(n, u, budget=4, seed=seed, optimizer_config=self.FAST)  # no InconsistencyError
        assert check_upper_certificate(cert, u)
        assert cert.value <= plain_atoms_value(u) * (1 + 2 * UPPER_MARGIN * m * n)
        assert b.upper == cert.value

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 5), (6, 3)])
    def test_lowers_the_svd_certificate_on_gaussian_inputs(self, m, n):
        # a pinned case, not a bound: these inputs have no tied singular
        # values, so without the sweep the certificate is the plain atoms'
        u = gauss(np.random.default_rng([m, n]), (m, m, n, n))
        cert = hat_upper_bound(n, u)
        assert check_upper_certificate(cert, u)
        assert cert.value < 0.95 * plain_atoms_value(u)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(1, 4), exponent=st.integers(-150, 150), seed=st.integers(0, 2**32 - 1))
    def test_level_one_keeps_the_svd_atoms_bitwise(self, n, exponent, seed):
        # m = 1 skips the sweep: the certificate is already the block's trace norm
        u = 10.0 ** exponent * gauss(np.random.default_rng(seed), (1, 1, n, n))
        cert = hat_upper_bound(n, u)
        x, s, yh = np.linalg.svd(realign(u), full_matrices=False)
        np.testing.assert_array_equal(cert.left, (x * s).T.reshape(-1, 1, n))
        np.testing.assert_array_equal(cert.right, yh.reshape(-1, n, 1))

    @pytest.mark.parametrize("n,u,value", [
        (2, canonical_identity(2), 1.000000000000008),
        (3, canonical_identity(3), 1.000000000000016),
        (4, canonical_identity(4), 1.0000000000000333),
        (2, doubled_flip(2), 2.00000000000003),
        (3, doubled_flip(3), 2.000000000000068),
        (2, diagonal_witness(2), 1.0000000000000075),
        (3, diagonal_witness(3), 1.0000000000000182),
        (6, diagonal_witness(6), 1.0000000000000793),
    ], ids=["flip_2", "flip_3", "flip_4", "doubled_flip_2", "doubled_flip_3", "diag_2", "diag_3", "diag_6"])
    def test_exact_cases_keep_their_values_bitwise(self, n, u, value):
        # flip has rank 1 and skips the sweep; on the others no rotation is worth less
        assert hat_upper_bound(n, u).value == value


class TestBounds:
    def test_flip_interval(self):
        b = hat_bounds(2, canonical_identity(2), budget=30, seed=8)
        assert b.lower == pytest.approx(1.0, abs=1e-9)
        assert b.upper == pytest.approx(1.0, abs=1e-12)
        assert b.lower < b.upper
        assert b.upper_rule == "realignment"
        assert check_upper_certificate(b.upper_certificate, canonical_identity(2))
        # the certificate reproduces the reported bound
        assert couple_value(b.certificate, canonical_identity(2)) == pytest.approx(b.lower, abs=1e-12)

    def test_level_one_degenerate(self):
        b = hat_bounds(2, single_block([[0.0, 1.0], [1.0, 0.0]]), budget=20, seed=9)
        assert b.lower == pytest.approx(2.0, abs=1e-9)
        assert b.upper == pytest.approx(2.0, abs=1e-12)

    def test_size_one_blocks_match_trace_norm(self):
        rng = np.random.default_rng(10)
        u = gauss(rng, (3, 3)).reshape(3, 3, 1, 1)
        b = hat_bounds(1, u, budget=20, seed=11)
        assert b.lower == pytest.approx(trace_norm(u[:, :, 0, 0]), abs=1e-9)

    def test_zero_interval(self):
        b = hat_bounds(2, np.zeros((2, 2, 2, 2)), budget=10, seed=12)
        assert (b.lower, b.upper) == (0.0, 0.0)
        assert check_upper_certificate(b.upper_certificate, np.zeros((2, 2, 2, 2)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_flip_interval_is_one_and_ordered(self, n):
        b = hat_bounds(n, canonical_identity(n), budget=8, seed=n)
        assert b.lower <= 1.0 + 1e-12 and b.lower < b.upper <= 1.0 + 2 * UPPER_MARGIN * n * n

    def test_lying_space_raises_inconsistency(self):
        self.check_lying_space_raises(1.0)

    @pytest.mark.parametrize("scale", [1e-12, 1e-300])
    def test_lying_space_raises_inconsistency_below_scale_one(self, scale):
        # the check is relative, so a tenfold overstatement raises at every normal scale
        self.check_lying_space_raises(scale)

    @staticmethod
    def check_lying_space_raises(scale):
        # understates feasibility norms, inflates image norms
        liar = Liar("cmax", 1)
        rng = np.random.default_rng(13)
        u = single_block(scale * gauss(rng, (2, 2)))
        with pytest.raises(InconsistencyError) as err:
            hat_bounds(2, u, catalog=[liar], budget=16, seed=14)
        assert err.value.lower > err.value.upper
        # both certificates come with the error and reproduce its bounds
        assert couple_value(err.value.couple, u) == err.value.lower
        assert check_upper_certificate(err.value.upper_certificate, u)
        assert err.value.upper_certificate.value == err.value.upper

    def test_no_spurious_inconsistency_at_any_scale(self):
        # at one block lower and upper are the same trace norm along two
        # rounding paths; they must agree to a tolerance relative to the norm
        rng = np.random.default_rng(22)
        fast = OptimizerConfig(restarts=1, iterations=2, stall_limit=2)
        for exponent in range(-300, 301, 25):
            for n in (1, 2, 3, 4):
                a = 10.0 ** exponent * gauss(rng, (n, n))
                b = hat_bounds(n, single_block(a), budget=8, seed=int(rng.integers(2**32)),
                               optimizer_config=fast)
                assert b.lower == pytest.approx(trace_norm(a), rel=1e-9)
                assert b.upper == pytest.approx(trace_norm(a), rel=1e-9)
        # below the smallest normal double rounding is absolute and the bounds
        # would not be certified (lower exceeded upper by 1.3e-3 relative at
        # 1e-320), so such a u is rejected; a normal entry among subnormal
        # ones is accepted, and so is the zero matrix
        for scale in (1e-309, 1e-315, 1e-320):
            for n in (1, 2, 3, 4):
                with pytest.raises(InvalidInputError, match="smallest normal double"):
                    hat_bounds(n, single_block(scale * gauss(rng, (n, n))), budget=8,
                               seed=int(rng.integers(2**32)), optimizer_config=fast)
        a = 1e-315 * gauss(rng, (2, 2))
        a[0, 0] = np.finfo(float).tiny
        assert hat_bounds(2, single_block(a), budget=8, optimizer_config=fast).lower > 0
        assert hat_bounds(2, single_block(np.zeros((2, 2))), budget=8).upper == 0.0

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 4), (4, 1), (2, 2), (2, 3), (3, 3), (2, 6)])
    def test_entries_near_the_top_of_the_double_range(self, m, n):
        # the norm is at most (m n)^2 max|entry|, so below max double / (4 (m n)^2) nothing
        # overflows and the interval is finite; above it u is refused (at 1e308 the SVD of
        # diag(1e308, 1e308) did not converge, and Gaussian u gave [inf, inf])
        top = np.finfo(float).max / (4 * (m * n) ** 2)
        rng = np.random.default_rng(23)
        g = gauss(rng, (m, m, n, n))
        fast = OptimizerConfig(restarts=2, iterations=8)
        for u in (g * (top * (1 - 1e-12) / np.abs(g).max()), np.full((m, m, n, n), top, dtype=complex)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                b = hat_bounds(n, u, budget=8, optimizer_config=fast)
            assert 0 < b.lower <= b.upper < np.inf
            with pytest.raises(InvalidInputError, match="max double"):
                hat_bounds(n, 2 * u, budget=8, optimizer_config=fast)

    @pytest.mark.parametrize("u,match", [
        (single_block(np.diag([1e308, 1e308])), "max double"),
        (single_block(np.full((2, 2), 1e-320)), "smallest normal double"),
    ], ids=["diagonal_1e308", "subnormal_block"])
    @pytest.mark.parametrize("entry", [hat_bounds, search_lower_bound, hat_upper_bound])
    def test_each_entry_point_checks_the_range(self, monkeypatch, entry, u, match):
        # the bounds were checked in hat_bounds only: on diag(1e308, 1e308) the search raised LinAlgError and
        # the upper bound read inf with an overflow warning, and on the subnormal block the two halves gave
        # lower 2.001e-320 > upper 1.9995e-320
        forbid_bound_work(monkeypatch)
        with pytest.raises(InvalidInputError, match=match):
            entry(2, u)

    def test_restart_stack_past_its_bound_refused_before_bound_work(self, monkeypatch):
        # 10^4 restarts pass MAX_RESTARTS, but op:17's stack at n = 16 would be 11.8 GB
        forbid_bound_work(monkeypatch)
        cfg = OptimizerConfig(restarts=10**4)
        u = np.ones((1, 1, 16, 16), dtype=complex)
        with pytest.raises(InvalidInputError, match="restart stack"):
            hat_bounds(16, u, optimizer_config=cfg)
        with pytest.raises(InvalidInputError, match="restart stack"):
            optimize_couple(concrete_operator_space(17), 16, u, cfg)

    def test_json_schema(self):
        b = hat_bounds(2, canonical_identity(2), budget=10, seed=15)
        payload = json.loads(json.dumps(b.to_json()))
        assert set(payload) == {"n", "m", "lower", "upper", "rule", "certificate"}
        assert set(payload["certificate"]) == {"space_id", "v_coords"}
        coords = np.asarray(payload["certificate"]["v_coords"], dtype=float)
        assert coords.shape[-1] == 2


class TestSoundness:
    def test_couple_values_capped_by_upper_bound(self):
        rng = np.random.default_rng(16)
        for trial in range(25):
            n = 2 + trial % 2
            m = 1 + trial % 3
            u = gauss(rng, (m, m, n, n))
            cap = hat_upper_bound(n, u).value + 1e-9
            for space in default_catalog(n):
                for _ in range(5):
                    couple = random_couple(space, n, rng)
                    assert couple_value(couple, u) <= cap

    def test_scalar_action_consistency_per_couple(self):
        # with unit-norm factors, each couple value can only shrink
        rng = np.random.default_rng(17)
        n, m = 2, 3
        u = gauss(rng, (m, m, n, n))
        s = random_unitary(m, rng)
        t = random_unitary(m, rng)
        moved = np.einsum("kp,pqab,ql->klab", s, u, t)
        for space in default_catalog(n):
            for _ in range(10):
                couple = random_couple(space, n, rng)
                assert couple_value(couple, moved) <= couple_value(couple, u) + 1e-9


def structured_input(kind, m, n, rng):
    """An m x m array of n x n blocks of the given kind, before scaling."""
    size = m * n
    if kind == "zero_blocks":
        u = gauss(rng, (m, m, n, n))
        u[rng.uniform(size=(m, m)) < 0.5] = 0.0
        return u
    if kind == "rank_one":
        a = np.outer(gauss(rng, size), gauss(rng, size))
    elif kind == "hermitian":
        g = gauss(rng, (size, size))
        a = g + g.conj().T
    elif kind == "unitary":
        a = random_unitary(size, rng)
    else:
        a = gauss(rng, (size, size))
    return a.reshape(m, n, m, n).transpose(0, 2, 1, 3)


class TestIntervalProperty:
    # the suites' per-trial optimizer
    FAST = OptimizerConfig(restarts=1, iterations=2, stall_limit=2)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(m=st.integers(1, 3), n=st.integers(1, 3), exponent=st.integers(-300, 300),
           kind=st.sampled_from(["gaussian", "zero_blocks", "rank_one", "hermitian", "unitary"]),
           seed=st.integers(0, 2**32 - 1))
    def test_lower_below_upper_at_every_scale(self, m, n, exponent, kind, seed):
        rng = np.random.default_rng(seed)
        u = 10.0 ** exponent * structured_input(kind, m, n, rng)
        with np.errstate(over="raise"):
            b = hat_bounds(n, u, budget=4, seed=seed, optimizer_config=self.FAST)
        # lower <= O <= R (up to the margin) <= the sum of the blocks' trace norms
        realigned = trace_norm(realign(u)) if u.any() else 0.0
        assert b.lower <= b.upper * (1 + 1e-9)
        assert b.upper <= realigned * (1 + 2 * UPPER_MARGIN * m * n)
        assert realigned <= entry_trace_sum(u) * (1 + 1e-12)
        assert b.upper_rule == "realignment"
        assert check_upper_certificate(b.upper_certificate, u)

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2)])
    def test_power_of_two_scale_scales_the_search_exactly(self, m, n):
        # scaling u by 2^e scales every value exactly, and the stall rule is
        # relative, so the default search takes the same steps at every scale
        u = gauss(np.random.default_rng(60 + 10 * m + n), (m, m, n, n))
        ref = hat_bounds(n, u)
        for e in (-200, -50, 50, 200):
            b = hat_bounds(n, u * 2.0 ** e)
            assert b.lower * 2.0 ** -e == ref.lower
            assert b.certificate.space.space_id == ref.certificate.space.space_id
            np.testing.assert_array_equal(b.certificate.v.coords, ref.certificate.v.coords)
