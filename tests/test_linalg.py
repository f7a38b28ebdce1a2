"""Kernel tests: norms against independent eigen-oracles, duality, op:k's block layout."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matnorm import (
    DegenerateInputError,
    InvalidInputError,
    c_max,
    concrete_operator_space,
    dual_witness,
    hat_bounds,
    random_unitary,
    trace_norm,
)
from matnorm.linalg import as_block_array, as_finite_array, as_matrix, top_eigenvalues
from matnorm.serialize import pairs_to_complex

from helpers import assembled, gauss, op_norm


def eig_singular_values(a):
    """Independent oracle: singular values from the eigenvalues of A* A."""
    vals = np.linalg.eigvalsh(a.conj().T @ a)
    return np.sqrt(np.clip(vals, 0.0, None))[::-1]


def level_one_op_norm(a):
    """The op:k norm of a k x k matrix as a level-1 element: its operator norm."""
    return concrete_operator_space(len(a)).norm(np.asarray(a).reshape(-1))


class TestOperatorNorm:
    def test_identity(self):
        assert level_one_op_norm(np.eye(2)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert level_one_op_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0, abs=1e-12)

    def test_matches_eigen_oracle(self):
        rng = np.random.default_rng(7)
        a = gauss(rng, (5, 5))
        assert level_one_op_norm(a) == pytest.approx(eig_singular_values(a).max(), abs=1e-9)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            level_one_op_norm(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(InvalidInputError):
            level_one_op_norm(np.array([[np.inf]]))


class TestTraceNorm:
    def test_diagonal(self):
        assert trace_norm(np.diag([3.0, -4.0])) == pytest.approx(7.0, abs=1e-12)

    def test_unitary_has_norm_k(self):
        for k in (2, 3, 5):
            u = random_unitary(k, seed=k)
            assert trace_norm(u) == pytest.approx(float(k), abs=1e-10)

    def test_matches_eigen_oracle(self):
        rng = np.random.default_rng(11)
        a = gauss(rng, (4, 4))
        assert trace_norm(a) == pytest.approx(eig_singular_values(a).sum(), abs=1e-9)


class TestDualWitness:
    def test_positive_diagonal_gives_identity(self):
        w = dual_witness(np.diag([1.0, 2.0]))
        np.testing.assert_allclose(w, np.eye(2), atol=1e-12)
        assert np.trace(np.diag([1.0, 2.0]) @ w).real == pytest.approx(3.0, abs=1e-12)

    def test_scalar_phase(self):
        a = np.array([[5.0 * np.exp(0.7j)]])
        w = dual_witness(a)
        assert np.trace(a @ w) == pytest.approx(5.0, abs=1e-9)

    def test_pairing_reaches_trace_norm(self):
        rng = np.random.default_rng(3)
        a = gauss(rng, (3, 3))
        w = dual_witness(a)
        assert op_norm(w) == pytest.approx(1.0, abs=1e-10)
        assert np.trace(a @ w) == pytest.approx(trace_norm(a), abs=1e-9)

    def test_rank_deficient_witness_is_unitary(self):
        a = np.zeros((3, 3), dtype=complex)
        a[0, 0] = 2.0  # rank one
        w = dual_witness(a)
        np.testing.assert_allclose(w.conj().T @ w, np.eye(3), atol=1e-10)
        assert np.trace(a @ w) == pytest.approx(2.0, abs=1e-10)

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateInputError):
            dual_witness(np.zeros((2, 2)))

    def test_rectangular_rejected(self):
        with pytest.raises(InvalidInputError):
            dual_witness(np.ones((2, 3)))


class TestTopEigenvalues:
    # the closed form against LAPACK's eigvalsh, relative to the largest eigenvalue
    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("cols", [1, 2, 3, 5])
    def test_random_psd_grams_match_eigvalsh(self, r, cols):
        x = gauss(np.random.default_rng(10 * r + cols), (500, r, cols))
        grams = x @ x.conj().swapaxes(1, 2)
        ref = np.linalg.eigvalsh(grams)[:, -1]
        np.testing.assert_allclose(top_eigenvalues(grams), ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("r", [2, 3])
    def test_hermitian_stack_of_any_shape(self, r):
        g = gauss(np.random.default_rng(r), (4, 3, r, r))
        g = g + g.conj().swapaxes(-1, -2)
        ref = np.linalg.eigvalsh(g)[..., -1]
        np.testing.assert_allclose(top_eigenvalues(g), ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("r", [2, 3])
    def test_degenerate_grams(self, r):
        rng = np.random.default_rng(30 + r)
        assert top_eigenvalues(np.zeros((r, r), dtype=complex)) == 0.0
        v = gauss(rng, r)
        rank_one = np.outer(v, v.conj())
        assert top_eigenvalues(rank_one) == pytest.approx(np.linalg.eigvalsh(rank_one)[-1], rel=1e-12)
        # a triple (or, at r = 2, double) eigenvalue: p = 0 in the trigonometric form
        for scale in (1.0, 3.7, 1e-150, 1e150):
            assert top_eigenvalues(scale * np.eye(r, dtype=complex)) == pytest.approx(scale, rel=1e-12)

    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_gives_non_finite_value(self, r, bad):
        g = np.eye(r, dtype=complex)
        for i in range(r):
            for j in range(i, r):
                h = g.copy()
                h[i, j] = bad
                h[j, i] = np.conj(bad)
                assert not np.isfinite(top_eigenvalues(h))


class TestBlockLayout:
    """The tests' independent layout of op:k's assembled matrix: block (p, q) fills rows p*k.. and columns q*k.."""

    def test_single_block_unchanged(self):
        a = np.arange(4.0).reshape(2, 2)
        np.testing.assert_array_equal(assembled(a.reshape(1, 1, 2, 2)), a)

    def test_diagonal_identity_blocks(self):
        blocks = np.zeros((2, 2, 2, 2), dtype=complex)
        blocks[0, 0] = np.eye(2)
        blocks[1, 1] = np.eye(2)
        np.testing.assert_array_equal(assembled(blocks), np.eye(4))

    def test_flip_layout_is_expected_permutation(self):
        # block (p, q) holds e_qp; assembled rows are e1, e3, e2, e4
        blocks = np.zeros((2, 2, 2, 2), dtype=complex)
        for p in range(2):
            for q in range(2):
                blocks[p, q, q, p] = 1.0
        expected = np.eye(4)[[0, 2, 1, 3]]
        np.testing.assert_array_equal(assembled(blocks), expected)

    def test_ragged_rejected(self):
        with pytest.raises(InvalidInputError):
            as_block_array([[np.eye(2), np.eye(3)], [np.eye(2), np.eye(2)]])

    @pytest.mark.parametrize("shape", [(0, 0, 2, 2), (2, 2, 0, 0), (0, 0, 0, 0)])
    def test_empty_rejected(self, shape):
        # an empty array is no block matrix: no level-0 interval [0, 0]
        with pytest.raises(InvalidInputError):
            as_block_array(np.zeros(shape))
        with pytest.raises(InvalidInputError):
            hat_bounds(2, np.zeros(shape))


# numbers of every kind the coercion meets: json ints past 2^53 and past int64, numpy arrays of other dtypes
NUMBERS = [[[1, 2], [3, -4]], [[2**53 + 1, 0]], [[2**63 + 1, 7]], [[-1, 2**64 - 1]], [[10**300, -(10**300)]],
           [[0.1, 1e-320], [-2.5, 1e308]], np.arange(4, dtype=np.int8).reshape(2, 2),
           np.array([[0.1, 3.0]], dtype=np.float32), np.array([[1, 2.5]], dtype=object)]
NUMBER_NAMES = ["ints", "int_past_2_53", "uint64", "object_ints", "huge_object_ints", "floats_subnormal", "int8",
                "float32", "object_numbers"]


class TestCoercion:
    @pytest.mark.parametrize("call,fragment", [
        (lambda: pairs_to_complex([[1.0, 0.0], [1.0]]), "malformed"),
        (lambda: pairs_to_complex(3.0), "pairs"),
        (lambda: pairs_to_complex([[np.inf, 0.0]]), "finite"),
        (lambda: as_matrix([["a", "b"]]), "not a complex matrix"),
        (lambda: as_matrix([1.0, 2.0]), "2-D"),
        (lambda: as_block_array(np.ones((2, 2, 2))), "m x m array"),
        # None once meant "any block size"; a given block size is now always checked
        (lambda: as_block_array(np.ones((2, 2, 2, 2)), block_size=None), "block size must be an integer"),
        # 10**400 is a 401-digit json literal, within json's digit limit; numpy raises OverflowError on it
        (lambda: pairs_to_complex([[10**400, 0]]), "int too large"),
        (lambda: as_matrix([[10**400]]), "int too large"),
        (lambda: as_block_array([[[[10**400]]]]), "int too large"),
        (lambda: c_max().element([10**400]), "int too large"),
        (lambda: hat_bounds(1, [[[[10**400]]]]), "int too large"),
        # numpy parses numeric text, so "2" once passed as the number 2; text is rejected whatever it spells,
        # as a string array and as a str among numbers (an object array)
        (lambda: pairs_to_complex([["2", "0"]]), "not a complex-pair array"),
        (lambda: pairs_to_complex([[2.5, "0"]]), "not a complex-pair array"),
        (lambda: pairs_to_complex(np.array([[2.5, "0"]], dtype=object)), "not a complex-pair array"),
        (lambda: pairs_to_complex([[b"2", b"0"]]), "not a complex-pair array"),
        (lambda: pairs_to_complex(np.array([[2.5, b"0"]], dtype=object)), "not a complex-pair array"),
        (lambda: as_matrix([["3"]]), "not a complex matrix"),
        (lambda: as_block_array([[[["1+2j"]]]]), "not a block array"),
        (lambda: c_max().element(np.array([[["3"]]])), "not a coordinate array"),
        (lambda: hat_bounds(1, [[[["2"]]]]), "not a block array"),
    ], ids=["pairs_ragged", "pairs_no_pair_axis", "pairs_nonfinite", "matrix_non_numeric", "matrix_1d",
            "block_array_3d", "block_array_size_none", "pairs_huge_int", "matrix_huge_int",
            "block_array_huge_int", "element_huge_int", "hat_bounds_huge_int", "pairs_numeric_text",
            "pairs_text_among_numbers", "pairs_object_text", "pairs_bytes", "pairs_object_bytes", "matrix_numeric_text",
            "block_array_complex_text", "element_numeric_text", "hat_bounds_numeric_text"])
    def test_malformed_rejected(self, call, fragment):
        with pytest.raises(InvalidInputError, match=fragment):
            call()

    @pytest.mark.parametrize("data,dtype", [(data, dtype) for data in NUMBERS for dtype in (float, complex)]
                             + [([[1 + 2j, 3]], complex)],
                             ids=[f"{name}-{kind}" for name in NUMBER_NAMES for kind in ("float", "complex")]
                             + ["complex_entries-complex"])
    def test_numbers_keep_their_bits(self, data, dtype):
        # the dtype is inferred before the conversion (to find text); a number converts as a direct conversion does
        ours = as_finite_array(data, dtype, "array")
        ref = np.asarray(data, dtype=dtype)
        assert ours.dtype == ref.dtype and ours.tobytes() == ref.tobytes()


class TestRandomGenerators:
    def test_unitary_property(self):
        u = random_unitary(3, seed=12)
        assert op_norm(u.conj().T @ u - np.eye(3)) <= 1e-10

    def test_determinism(self):
        np.testing.assert_array_equal(random_unitary(4, seed=99), random_unitary(4, seed=99))

    def test_bad_size(self):
        with pytest.raises(InvalidInputError):
            random_unitary(0, seed=1)


class TestNormInequalities:
    def test_duality_cap_many_contractions(self):
        rng = np.random.default_rng(21)
        a = gauss(rng, (3, 3))
        cap = trace_norm(a) + 1e-9
        for _ in range(10_000):
            # uniform singular values: interior and boundary of the unit ball
            w = random_unitary(3, rng) @ np.diag(rng.uniform(0.0, 1.0, size=3)) @ random_unitary(3, rng)
            assert abs(np.trace(a @ w)) <= cap

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**31 - 1))
    def test_operator_trace_rank_sandwich(self, k, seed):
        rng = np.random.default_rng(seed)
        a = gauss(rng, (k, k))
        op = op_norm(a)
        tr = trace_norm(a)
        assert op <= tr + 1e-9
        assert tr <= k * op + 1e-9

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**31 - 1))
    def test_triangle_inequality(self, k, seed):
        rng = np.random.default_rng(seed)
        a = gauss(rng, (k, k))
        b = gauss(rng, (k, k))
        assert op_norm(a + b) <= op_norm(a) + op_norm(b) + 1e-9
        assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-9
