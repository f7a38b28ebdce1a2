"""Element-to-map correspondence: exact identities and naturality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matnorm import (
    InvalidInputError,
    amplified_image,
    c_max,
    c_min,
    canonical_identity,
    check_naturality,
    concrete_operator_space,
    l1_sum,
    phi_of,
    random_element,
    reconstruct,
    trace_norm,
    space_from_id,
)
from matnorm.correspondence import amplified_images, pullbacks

from helpers import assembled, gauss


def flip_element(n):
    sp = concrete_operator_space(n)
    return sp.element(canonical_identity(n).reshape(n, n, n * n))


class TestIdentityAction:
    # pins the transposed pairing: a silent transpose bug would break this
    @pytest.mark.parametrize("n", range(1, 7))
    def test_flip_represents_identity_on_basis(self, n):
        v = flip_element(n)
        for p in range(n):
            for q in range(n):
                e = np.zeros((n, n), dtype=complex)
                e[p, q] = 1.0
                image = amplified_image(v, e.reshape(1, 1, n, n)).coords[0, 0].reshape(n, n)
                np.testing.assert_array_equal(image, e)


class TestPhiApply:
    # phi_v on one matrix is the m = 1 amplification
    def test_elementary_tensor(self):
        # v = a0 (x) x acts as b -> tr(a0 b) x
        rng = np.random.default_rng(0)
        n, k = 3, 2
        sp = concrete_operator_space(k)
        a0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x = rng.standard_normal(k * k) + 1j * rng.standard_normal(k * k)
        coords = np.einsum("ij,d->ijd", a0, x)
        v = sp.element(coords)
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        expected = np.trace(a0 @ b) * x
        np.testing.assert_allclose(amplified_image(v, b.reshape(1, 1, n, n)).coords[0, 0], expected, atol=1e-12)

    def test_scalar_coords_give_trace_of_product(self):
        rng = np.random.default_rng(1)
        n = 3
        w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        v = c_min().element(w.reshape(n, n, 1))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        got = amplified_image(v, a.reshape(1, 1, n, n)).coords[0, 0, 0]
        assert got == pytest.approx(np.trace(a @ w), abs=1e-12)

    def test_zero_element_gives_zero_map(self):
        v = c_max().element(np.zeros((2, 2, 1)))
        out = amplified_image(v, np.eye(2).reshape(1, 1, 2, 2))
        np.testing.assert_array_equal(out.coords, np.zeros((1, 1, 1)))

    def test_size_mismatch(self):
        v = c_max().element(np.zeros((2, 2, 1)))
        with pytest.raises(InvalidInputError):
            amplified_image(v, np.eye(3).reshape(1, 1, 3, 3))


class TestAmplification:
    def test_level_one_matches_apply(self):
        rng = np.random.default_rng(2)
        sp = concrete_operator_space(2)
        v = random_element(sp, 3, rng)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_allclose(
            amplified_image(v, a.reshape(1, 1, 3, 3)).coords[0, 0],
            phi_of(v).matrix @ a.reshape(-1),
            atol=1e-12,
        )

    @pytest.mark.parametrize("sid", ["cmin", "cmax", "op:2", "l1:[cmin,cmax]"])
    def test_flip_recovers_element_exactly(self, sid):
        sp = space_from_id(sid)
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 4):
            v = random_element(sp, n, rng)
            rec = amplified_image(v, canonical_identity(n))
            np.testing.assert_array_equal(rec.coords, v.coords)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stack_rows_are_batch_invariant(self, m, n):
        # the optimizer values its kept points in one stack, and couple_value the returned one alone
        rng = np.random.default_rng([m, n])
        for dim in (1, 4, 9, 16, 25):
            coords = rng.standard_normal((5, n, n, dim)) + 1j * rng.standard_normal((5, n, n, dim))
            u4 = rng.standard_normal((m, m, n, n)) + 1j * rng.standard_normal((m, m, n, n))
            stack = amplified_images(coords, u4)
            for b in range(len(coords)):
                np.testing.assert_array_equal(amplified_images(coords[b:b + 1], u4)[0], stack[b])
                pair = amplified_images(coords[[b, (b + 1) % len(coords)]], u4)
                np.testing.assert_array_equal(pair[0], stack[b])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(m=st.integers(1, 3), n=st.integers(1, 3), dim=st.integers(1, 9), batch=st.integers(1, 4),
           scale=st.floats(-3, 3), seed=st.integers(0, 2**32 - 1))
    def test_pullbacks_is_the_adjoint_of_the_amplification(self, m, n, dim, batch, scale, seed):
        # sum(G v) == sum(F phi_v(u)) row by row, to rounding relative to |F| |v| |u|, the
        # Cauchy-Schwarz bound of both sides; each row gets the bits of its own call
        rng = np.random.default_rng(seed)
        u4 = 10.0 ** scale * gauss(rng, (m, m, n, n))
        v, f = gauss(rng, (batch, n, n, dim)), gauss(rng, (batch, m, m, dim))
        g = pullbacks(f, u4)
        assert g.shape == v.shape
        lhs = (f * amplified_images(v, u4)).sum(axis=(1, 2, 3))
        rhs = (g * v).sum(axis=(1, 2, 3))
        scale = np.linalg.norm(f.reshape(batch, -1), axis=1) * np.linalg.norm(v.reshape(batch, -1), axis=1)
        assert (np.abs(lhs - rhs) <= 1e-12 * scale * np.linalg.norm(u4)).all()
        for b in range(batch):
            np.testing.assert_array_equal(pullbacks(f[b:b + 1], u4)[0], g[b])

    def test_block_diagonal_through_trace_couple(self):
        # identity/n coordinates send a1 + a2 to diag(tr(a_k)/n)
        rng = np.random.default_rng(4)
        n = 3
        v = c_max().element((np.eye(n) / n).reshape(n, n, 1))
        a1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u = np.zeros((2, 2, n, n), dtype=complex)
        u[0, 0], u[1, 1] = a1, a2
        image = amplified_image(v, u).coords[:, :, 0]
        expected = np.diag([np.trace(a1) / n, np.trace(a2) / n])
        np.testing.assert_allclose(image, expected, atol=1e-12)


class TestRoundTrip:
    @pytest.mark.parametrize("sid", ["cmin", "cmax", "op:3", "l1:[cmax,op:2]"])
    def test_bijection_exact(self, sid):
        sp = space_from_id(sid)
        rng = np.random.default_rng(5)
        for n in (1, 2, 4):
            v = random_element(sp, n, rng)
            back = reconstruct(phi_of(v))
            np.testing.assert_array_equal(back.coords, v.coords)


class TestCanonicalIdentity:
    def test_size_one(self):
        np.testing.assert_array_equal(canonical_identity(1), np.ones((1, 1, 1, 1)))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_assembled_is_unitary_permutation(self, n):
        a = assembled(canonical_identity(n))
        assert np.linalg.norm(a, 2) == pytest.approx(1.0, abs=1e-12)
        assert trace_norm(a) == pytest.approx(float(n * n), abs=1e-10)
        np.testing.assert_allclose(a.conj().T @ a, np.eye(n * n), atol=1e-12)


class TestNaturality:
    def test_identity_map_zero_deviation(self):
        rng = np.random.default_rng(6)
        v = random_element(c_max(), 2, rng)
        assert check_naturality(np.eye(1), v) == 0.0

    def test_zero_map_zero_deviation(self):
        rng = np.random.default_rng(7)
        v = random_element(c_max(), 2, rng)
        assert check_naturality(np.zeros((3, 1)), v) == 0.0

    def test_random_map_into_l1_pair(self):
        rng = np.random.default_rng(8)
        target = l1_sum([c_max(), c_max()])
        for _ in range(50):
            psi = rng.standard_normal((target.dim, 1)) + 1j * rng.standard_normal((target.dim, 1))
            v = random_element(c_max(), 3, rng)
            assert check_naturality(psi, v) <= 1e-12

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(9)
        v = random_element(c_max(), 2, rng)
        with pytest.raises(InvalidInputError):
            check_naturality(np.zeros((2, 5)), v)

    @pytest.mark.parametrize("psi", [[[np.nan]], [[np.inf]], "abc"], ids=["nan", "inf", "text"])
    def test_bad_coordinate_map_rejected(self, psi):
        # a non-finite map would read as a pass, since the max drops NaN deviations
        v = random_element(c_max(), 2, np.random.default_rng(10))
        with pytest.raises(InvalidInputError):
            check_naturality(psi, v)
