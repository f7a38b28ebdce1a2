"""Catalog space evaluators, element operations, and the randomized axiom checker."""

import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matnorm import (
    Couple,
    InvalidInputError,
    LeveledElement,
    MatricialSpace,
    c_max,
    c_min,
    check_axioms,
    concrete_operator_space,
    coproduct_apply,
    default_catalog,
    l1_component,
    l1_embed,
    l1_sum,
    pad,
    planted_fault_space,
    random_element,
    random_unitary,
    scalar_action,
    space_from_id,
)
from matnorm.correspondence import amplified_images, pullbacks
from matnorm.spaces import MAX_ID_DEPTH, MAX_OPERATOR_SIZE, AxiomReport, check_unit_ball

from helpers import OVERSIZED_IDS, gauss, nested_id, op_norm


BATCH_SPACE_IDS = ["cmin", "cmax", "op:1", "op:2", "op:3", "op:4", "op:5",
                   "l1:[cmin,l1:[cmax,op:2]]", "l1:[op:2,cmax,cmin]", "bare", "fault", "l1-bare"]


class SpectralRows(MatricialSpace):
    """A custom space: the operator norm of each element's m x (m dim) coordinate matrix."""

    def norm_batch(self, coords):
        rows = coords.reshape(*coords.shape[:-2], coords.shape[-2] * self.dim)
        return np.linalg.svd(rows, compute_uv=False)[..., 0]


class NanBelowZero(MatricialSpace):
    """|c| on level 1, NaN where the first coordinate has a negative real part."""

    def norm_batch(self, coords):
        first = coords[..., 0, 0, 0]
        return np.where(first.real < 0, np.nan, np.abs(first))


def batch_space(space_id):
    if space_id == "bare":
        # a custom space: a subclass with its own stacked kernel
        return SpectralRows("bare", 2)
    if space_id == "fault":
        return planted_fault_space()
    if space_id == "l1-bare":
        # an l1 sum hands a custom part single elements and stacks alike
        return l1_sum([batch_space("bare"), c_min()])
    return space_from_id(space_id)


def reference_norm(space, c):
    """Per-element evaluators written out, as the catalog kinds had them before ``norm_batch``."""
    sid = space.space_id
    if sid == "cmin":
        return float(np.linalg.svd(c[:, :, 0], compute_uv=False)[0])
    if sid == "fault:cmin":
        value = float(np.linalg.svd(c[:, :, 0], compute_uv=False)[0])
        return value + 0.1 if c.shape[0] == 2 else value
    if sid == "cmax":
        return float(np.linalg.svd(c[:, :, 0], compute_uv=False).sum())
    if sid.startswith("op:"):
        m, k = c.shape[0], space.k
        assembled = c.reshape(m, m, k, k).transpose(0, 2, 1, 3).reshape(m * k, m * k)
        return float(np.linalg.svd(assembled, compute_uv=False)[0])
    if sid.startswith("l1:"):
        total = 0.0
        for part, lo, hi in zip(space.parts, space.offsets[:-1], space.offsets[1:]):
            total += reference_norm(part, np.ascontiguousarray(c[:, :, lo:hi]))
        return total
    assert sid == "bare", sid
    return float(np.linalg.norm(c.reshape(c.shape[0], -1), 2))


class TestNormBatch:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(space_id=st.sampled_from(BATCH_SPACE_IDS), level=st.integers(1, 5),
           batch=st.integers(1, 6), exponent=st.integers(-300, 300),
           zeros=st.lists(st.booleans(), min_size=6, max_size=6), seed=st.integers(0, 2**32 - 1))
    def test_equals_elementwise_norm_bitwise(self, space_id, level, batch, exponent, zeros, seed):
        space = batch_space(space_id)
        stack = 10.0 ** exponent * gauss(np.random.default_rng(seed), (batch, level, level, space.dim))
        stack[np.array(zeros[:batch])] = 0.0
        values = space.norm_batch(stack)
        assert values.dtype == np.float64 and values.shape == (batch,)
        assert values.tolist() == [space.norm(c) for c in stack]
        assert values.tolist() == [reference_norm(space, c) for c in stack]


class TestScalarSpaces:
    def test_cmin_values(self):
        sp = c_min()
        assert sp.norm([[5.0]]) == pytest.approx(5.0)
        assert sp.norm(np.eye(2)) == pytest.approx(1.0)
        # all-ones matrix has singular values (2, 0)
        assert sp.norm(np.ones((2, 2))) == pytest.approx(2.0, abs=1e-12)

    def test_cmax_values(self):
        sp = c_max()
        assert sp.norm([[-2.0]]) == pytest.approx(2.0)
        assert sp.norm(np.eye(2)) == pytest.approx(2.0)
        assert sp.norm(np.ones((2, 2))) == pytest.approx(2.0, abs=1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(m=st.integers(1, 3), n=st.integers(1, 3), batch=st.integers(1, 4), scale=st.floats(-3, 3),
           zeros=st.lists(st.booleans(), min_size=4, max_size=4), seed=st.integers(0, 2**32 - 1))
    def test_cmin_is_op1_bitwise(self, m, n, batch, scale, zeros, seed):
        # cmin is op:1 under its own id: same norms, functionals, proposals and structured couples, bit for bit
        rng = np.random.default_rng(seed)
        u4 = 10.0 ** scale * gauss(rng, (m, m, n, n))
        coords = gauss(rng, (batch, n, n, 1))
        coords[np.array(zeros[:batch])] = 0
        images = amplified_images(coords, u4)
        cmin, op1 = c_min(), space_from_id("op:1")
        assert (cmin.space_id, op1.space_id) == ("cmin", "op:1")
        np.testing.assert_array_equal(cmin.norm_batch(images), op1.norm_batch(images))
        np.testing.assert_array_equal(cmin.norm_batch(coords), op1.norm_batch(coords))
        (values, state), (op1_values, op1_state) = cmin.polar_state(images), op1.polar_state(images)
        np.testing.assert_array_equal(values, op1_values)
        np.testing.assert_array_equal(state, op1_state)
        pulled = pullbacks(state, u4)
        np.testing.assert_array_equal(cmin.polar_proposal(pulled), op1.polar_proposal(pulled))
        np.testing.assert_array_equal(cmin.structured_couples(n, u4), op1.structured_couples(n, u4))


@pytest.mark.parametrize("space_id", [space.space_id for space in default_catalog(3)])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(m=st.integers(1, 3), batch=st.integers(1, 4), scale=st.floats(-3, 3), zero=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
def test_polar_state_gives_support_functionals(space_id, m, batch, scale, zero, seed):
    # polar_state's functional F linearizes the norm at each image: Re sum(F image) is the value it
    # reports, and a zero image gets F = 0 (the SVD of 0 has unitary factors that must not propose)
    space = space_from_id(space_id)
    rng = np.random.default_rng(seed)
    images = 10.0 ** scale * gauss(rng, (batch, m, m, space.dim))
    if zero < batch:
        images[zero] = 0
    values, functionals = space.polar_state(images)
    assert functionals.shape == images.shape
    np.testing.assert_allclose((functionals * images).sum(axis=(1, 2, 3)).real, values, rtol=1e-13, atol=0)
    assert [bool(f.any()) for f in functionals] == [bool(image.any()) for image in images]


class TestOperatorSpace:
    def test_basis_and_identity(self):
        sp = concrete_operator_space(2)
        assert sp.norm(sp.element(np.eye(1, sp.dim, 0)[0])) == pytest.approx(1.0)
        eye_coords = np.zeros((2, 2, 4), dtype=complex)
        eye_coords[0, 0] = np.eye(2).reshape(-1)
        eye_coords[1, 1] = np.eye(2).reshape(-1)
        assert sp.norm(eye_coords) == pytest.approx(1.0, abs=1e-12)

    def test_level2_matches_direct_assembly(self):
        rng = np.random.default_rng(4)
        k = 3
        sp = concrete_operator_space(k)
        u = random_element(sp, 2, rng)
        blocks = u.coords.reshape(2, 2, k, k)
        assembled = np.block([[blocks[0, 0], blocks[0, 1]], [blocks[1, 0], blocks[1, 1]]])
        assert sp.norm(u) == pytest.approx(op_norm(assembled), abs=1e-9)


class TestL1Sum:
    def test_singleton_matches_part(self):
        rng = np.random.default_rng(1)
        part = c_min()
        sp = l1_sum([part])
        for level in (1, 2, 3):
            u = random_element(sp, level, rng)
            assert sp.norm(u) == pytest.approx(part.norm(u.coords), abs=1e-12)

    def test_scalar_pair(self):
        sp = l1_sum([c_max(), c_max()])
        assert sp.norm(np.ones((1, 1, 2))) == pytest.approx(2.0)

    def test_mixed_identity_components(self):
        sp = l1_sum([c_min(), c_max()])
        coords = np.zeros((2, 2, 2), dtype=complex)
        coords[:, :, 0] = np.eye(2)
        coords[:, :, 1] = np.eye(2)
        assert sp.norm(coords) == pytest.approx(3.0, abs=1e-12)

    def test_component_embed_roundtrip(self):
        rng = np.random.default_rng(2)
        sp = l1_sum([c_min(), concrete_operator_space(2)])
        x = random_element(sp.parts[1], 2, rng)
        emb = l1_embed(sp, x, 1)
        np.testing.assert_array_equal(l1_component(sp, emb, 1).coords, x.coords)
        assert sp.norm(emb) == pytest.approx(sp.parts[1].norm(x), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            l1_sum([])

    @pytest.mark.parametrize("index", [-1, 2, 1.0, True])
    def test_summand_index_out_of_range_rejected(self, index):
        # -1 used to embed into an empty slice and give the zero element
        sp = l1_sum([c_min(), c_max()])
        with pytest.raises(InvalidInputError, match="no summand"):
            l1_embed(sp, c_max().element([1.0]), index)
        with pytest.raises(InvalidInputError, match="no summand"):
            l1_component(sp, sp.element(np.ones((1, 1, 2))), index)

    def test_component_of_another_space_rejected(self):
        # used to return a (1, 1, 0) element labelled cmax
        sp = l1_sum([c_min(), c_max()])
        with pytest.raises(InvalidInputError, match="element of cmin"):
            l1_component(sp, c_min().element([1.0]), 1)


class TestSpaceIds:
    def test_roundtrip(self):
        for sid in ("cmin", "cmax", "op:3", "l1:[cmax,cmax]", "l1:[cmin,l1:[cmax,op:2]]"):
            assert space_from_id(sid).space_id == sid
        assert space_from_id(" l1:[ cmin , op:2 ] ").space_id == "l1:[cmin,op:2]"

    def test_unknown_rejected(self):
        # int() read "op:2_0" as op:20 and "op:+2" as op:2; None raised an AttributeError; of the oversized
        # ids, deep nesting raised RecursionError (from depth 500 on), 5,000 digits int()'s ValueError, and
        # 3,000 digits built an op:k whose dimension no message could format
        for sid in ("bogus", "op:x", "l1:[]", "l1:[nope]", None, "op:2_0", "op:+2", "op: 2", "op:-1", "op:0",
                    "l1:[cmin,,cmax]", "l1:[cmin,]", *OVERSIZED_IDS):
            with pytest.raises(InvalidInputError):
                space_from_id(sid)

    def test_ids_at_the_bounds(self):
        deep = nested_id(MAX_ID_DEPTH)
        assert space_from_id(deep).space_id == deep
        assert space_from_id(deep).norm(np.diag([3.0, -4.0])) == 4.0
        assert space_from_id(f"op:{MAX_OPERATOR_SIZE}").k == MAX_OPERATOR_SIZE
        assert space_from_id("op:" + "0" * 5000 + "2").space_id == "op:2"
        with pytest.raises(InvalidInputError):
            concrete_operator_space(MAX_OPERATOR_SIZE + 1)
        with pytest.raises(InvalidInputError):
            concrete_operator_space(10**5000)  # the message must not format k


class TestElementOps:
    def test_scalar_action_identity(self):
        rng = np.random.default_rng(3)
        sp = concrete_operator_space(2)
        u = random_element(sp, 3, rng)
        out = scalar_action(np.eye(3), u, np.eye(3))
        np.testing.assert_allclose(out.coords, u.coords, atol=1e-15)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(4)
        for sp in (c_min(), c_max(), concrete_operator_space(2), l1_sum([c_min(), c_max()])):
            u = random_element(sp, 3, rng)
            s = random_unitary(3, rng)
            t = random_unitary(3, rng)
            assert sp.norm(scalar_action(s, u, t)) == pytest.approx(sp.norm(u), abs=1e-9)

    def test_homogeneity_via_scaled_identity(self):
        rng = np.random.default_rng(5)
        sp = c_max()
        u = random_element(sp, 2, rng)
        doubled = scalar_action(2.0 * np.eye(2), u, np.eye(2))
        assert sp.norm(doubled) == pytest.approx(2.0 * sp.norm(u), abs=1e-9)

    def test_pad(self):
        sp = c_max()
        one = sp.element([1.0])
        assert pad(one, 0) is one
        assert sp.norm(pad(one, 3)) == pytest.approx(1.0, abs=1e-12)
        rng = np.random.default_rng(6)
        op = concrete_operator_space(2)
        u = random_element(op, 2, rng)
        assert op.norm(pad(u, 2)) == pytest.approx(op.norm(u), abs=1e-9)

    @pytest.mark.parametrize("extra", [-1, 2.5, 1.0, True])
    def test_pad_non_integer_or_negative_rejected(self, extra):
        # 2.5 used to raise a bare TypeError
        with pytest.raises(InvalidInputError, match="padding"):
            pad(c_min().element([1.0]), extra)

    @pytest.mark.parametrize("level", [0, -1, 1.5])
    def test_random_element_level_below_one_rejected(self, level):
        # level 0 used to give an element whose norm raised a bare IndexError
        with pytest.raises(InvalidInputError, match="level"):
            random_element(c_min(), level, 0)


class TestNormProperties:
    @pytest.mark.parametrize("sid", ["cmin", "cmax", "op:2", "l1:[cmin,cmax]"])
    def test_homogeneity_triangle_definiteness(self, sid):
        sp = space_from_id(sid)
        rng = np.random.default_rng(42)
        for level in (1, 2, 3):
            u = random_element(sp, level, rng)
            v = random_element(sp, level, rng)
            lam = complex(*rng.standard_normal(2))
            scaled = type(u)(u.space_id, lam * u.coords)
            assert sp.norm(scaled) == pytest.approx(abs(lam) * sp.norm(u), abs=1e-9)
            added = type(u)(u.space_id, u.coords + v.coords)
            assert sp.norm(added) <= sp.norm(u) + sp.norm(v) + 1e-9
        for idx in range(sp.dim):
            assert sp.norm(sp.element(np.eye(1, sp.dim, idx)[0])) > 0.0


class TestAxiomChecker:
    @pytest.mark.parametrize("sid", ["cmin", "cmax", "op:2", "l1:[cmax,cmax]"])
    def test_catalog_passes(self, sid):
        rep = check_axioms(space_from_id(sid), trials=300, seed=8, max_level=3)
        assert rep.axiom1_max_violation <= 1e-9
        assert rep.axiom2_max_violation <= 1e-9

    def test_no_level_rejected(self):
        # max_level 0 would check nothing and report no violation
        with pytest.raises(InvalidInputError, match="max_level"):
            check_axioms(c_min(), 5, max_level=0)

    @pytest.mark.parametrize("kwargs", [{"trials": 2.5}, {"trials": True}, {"trials": "3"},
                                        {"trials": 2, "max_level": 2.5}, {"trials": 2, "max_level": True}])
    def test_non_integer_counts_rejected(self, kwargs):
        with pytest.raises(InvalidInputError, match="integer"):
            check_axioms(c_min(), **kwargs)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("space", [*default_catalog(3), l1_sum([c_min(), c_max()]), planted_fault_space()],
                             ids=lambda sp: sp.space_id)
    def test_report_matches_the_trial_loop_bitwise(self, space, seed):
        # the stacked evaluation reports the per-trial loop's largest violations, bit for bit
        ours = check_axioms(space, trials=25, seed=seed, max_level=4)
        ref = reference_check_axioms(space, trials=25, seed=seed, max_level=4)
        assert json.dumps(asdict(ours)) == json.dumps(asdict(ref))

    @pytest.mark.parametrize("space_id", BATCH_SPACE_IDS)
    def test_single_trial_matches_the_trial_loop_bitwise(self, space_id):
        # one trial per level leaves one padding's stack empty
        space = batch_space(space_id)
        ours = check_axioms(space, trials=1, seed=5, max_level=3)
        assert json.dumps(asdict(ours)) == json.dumps(asdict(reference_check_axioms(space, 1, 5, 3)))

    def test_planted_fault_detected(self):
        rep = check_axioms(planted_fault_space(), trials=100, seed=8, max_level=2)
        assert rep.axiom1_max_violation >= 0.09


class TestValidation:
    def test_element_shape_errors(self):
        sp = concrete_operator_space(2)
        with pytest.raises(InvalidInputError):
            sp.element(np.zeros((2, 3, 4)))
        with pytest.raises(InvalidInputError):
            sp.element(np.zeros((2, 2, 3)))
        with pytest.raises(InvalidInputError):
            sp.element(np.full((1, 1, 4), np.nan))

    @pytest.mark.parametrize("space_id", ["cmax", "cmin", "op:2", "l1:[cmin,cmax]"])
    def test_empty_level_rejected(self, space_id):
        # norm gave 0.0 on cmax and raised IndexError on op:2 and the l1 sum
        space = space_from_id(space_id)
        empties = [np.zeros((0, 0, space.dim))] + ([np.zeros((0, 0))] if space.dim == 1 else [])
        for coords in empties:
            with pytest.raises(InvalidInputError, match="m positive"):
                space.element(coords)
            with pytest.raises(InvalidInputError, match="m positive"):
                space.norm(coords)

    @pytest.mark.parametrize("call,fragment", [
        (lambda sp: coproduct_apply(sp, [np.eye(1)], sp.element(np.ones(2))), "1 maps for 2 summands"),
        (lambda sp: coproduct_apply(sp, [np.eye(1), np.ones((2, 1))], sp.element(np.ones(2))),
         "map of shape"),
        (lambda sp: coproduct_apply(sp, [np.eye(1), np.eye(1)], c_min().element([1.0])), "element of cmin"),
        (lambda sp: coproduct_apply(sp, [[[np.nan]], [[1.0]]], sp.element(np.ones(2))), "must be finite"),
        (lambda sp: coproduct_apply(sp, ["x", [[1.0]]], sp.element(np.ones(2))), "not a complex matrix"),
        (lambda sp: l1_embed(sp, c_min().element([1.0]), 1), "cannot embed cmin"),
        (lambda sp: Couple(c_min(), c_max().element([0.5])), "couple mixes"),
        (lambda sp: scalar_action(np.eye(2), c_min().element([1.0]), np.eye(1)), "scalar factors"),
    ], ids=["coproduct_map_count", "coproduct_map_shape", "coproduct_other_space", "coproduct_nan_map",
            "coproduct_text_map", "l1_embed_other_space",
            "couple_of_two_spaces", "scalar_action_factor_shape"])
    def test_mismatched_input_rejected(self, call, fragment):
        with pytest.raises(InvalidInputError, match=fragment):
            call(l1_sum([c_min(), c_max()]))

    def test_cross_space_norm_rejected(self):
        u = c_min().element([1.0])
        with pytest.raises(InvalidInputError):
            c_max().norm(u)

    def test_space_without_an_evaluator_rejected(self):
        # a space is a subclass with a norm_batch kernel; the base class has none
        with pytest.raises(InvalidInputError, match="needs a norm_batch"):
            MatricialSpace("bare", 1)

    def test_nan_norm_hides_no_infeasible_element(self):
        space = NanBelowZero("nan", 1)
        stack = np.array([-1.0, 0.5, 2.0], dtype=complex).reshape(3, 1, 1, 1)
        check_unit_ball(space, stack[:2])
        with pytest.raises(InvalidInputError, match="norm 2 > 1"):
            check_unit_ball(space, stack)


# ---------------------------------------------------------------------------
# Reference: the axiom checker as one loop over trials, each element valued
# on its own.
# ---------------------------------------------------------------------------


def reference_sample(space, level, rng, variant):
    if variant == 1:
        coords = np.zeros((level, level, space.dim), dtype=complex)
        k = int(rng.integers(level))
        l = int(rng.integers(level))
        coords[k, l, int(rng.integers(space.dim))] = np.exp(2j * np.pi * rng.uniform())
    elif variant == 2:
        coords = np.zeros((level, level, space.dim), dtype=complex)
        for k in range(level):
            coords[k, k, int(rng.integers(space.dim))] = rng.standard_normal() + 1j * rng.standard_normal()
        u = random_unitary(level, rng)
        coords = scalar_action(u, LeveledElement(space.space_id, coords), u.conj().T).coords
    else:
        coords = random_element(space, level, rng).coords
    return LeveledElement(space.space_id, space.unit_scaled_stack(coords[None], sphere=True)[0])


def reference_check_axioms(space, trials, seed, max_level):
    rng = np.random.default_rng(seed)
    a1_max = a2_max = 0.0
    for level in range(1, max_level + 1):
        eye = np.eye(level)
        for t in range(trials):
            u = reference_sample(space, level, rng, t % 3)
            base = space.norm(u)
            extra = int(rng.integers(1, 3))
            v1 = abs(space.norm(pad(u, extra)) - base)
            if v1 > a1_max:
                a1_max = v1
            if t % 2:
                s = random_unitary(level, rng)
                tt = random_unitary(level, rng)
            else:
                s = rng.standard_normal((level, level)) + 1j * rng.standard_normal((level, level))
                tt = rng.standard_normal((level, level)) + 1j * rng.standard_normal((level, level))
            v2 = space.norm(scalar_action(s, u, eye)) - op_norm(s) * base
            v2 = max(v2, space.norm(scalar_action(eye, u, tt)) - base * op_norm(tt))
            v2 = max(0.0, v2)
            if v2 > a2_max:
                a2_max = v2
    return AxiomReport(a1_max, a2_max)
