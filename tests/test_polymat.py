"""Polynomial-matrix arithmetic: identities, truncated inverses, supports."""

import numpy as np
import pytest

from lrdnet.errors import NoDecay, SingularLeadingCoefficient
from lrdnet.polymat import (
    PolynomialMatrix,
    selector_shift,
    truncated_inverse,
    vstack,
)


def random_pm(rng, rows, cols, degree, scale=1.0):
    return PolynomialMatrix(scale * rng.standard_normal((degree + 1, rows, cols)))


def random_stable_pm(rng, n, degree):
    """Square filter with identity lag-0 term and a contractive tail."""
    coeffs = 0.2 * rng.standard_normal((degree + 1, n, n)) / (degree + 1)
    coeffs[0] = np.eye(n)
    return PolynomialMatrix(coeffs)


class TestConstruction:
    def test_shape_properties(self):
        p = PolynomialMatrix(np.zeros((3, 2, 4)))
        assert (p.rows, p.cols, p.degree) == (2, 4, 2)

    def test_2d_input_promoted_to_degree_zero(self):
        p = PolynomialMatrix(np.eye(3))
        assert p.degree == 0

    def test_bad_rank_rejected(self):
        with pytest.raises(ValueError):
            PolynomialMatrix(np.zeros(4))

    def test_coeffs_are_read_only(self):
        p = PolynomialMatrix.identity(2)
        with pytest.raises(ValueError):
            p.coeffs[0, 0, 0] = 5.0

    def test_coeff_beyond_degree_is_zero(self):
        p = PolynomialMatrix.identity(2)
        assert np.array_equal(p.coeff(7), np.zeros((2, 2)))


class TestAdd:
    def test_additive_identity(self):
        rng = np.random.default_rng(0)
        a = random_pm(rng, 2, 3, 2)
        z = PolynomialMatrix.zeros(2, 3, 2)
        assert (a + z).allclose(a)

    def test_disjoint_degrees(self):
        i0 = PolynomialMatrix.identity(2)
        i1 = PolynomialMatrix(np.stack([np.zeros((2, 2)), np.eye(2)]))
        s = i0 + i1
        assert s.degree == 1
        assert np.array_equal(s.coeff(0), np.eye(2))
        assert np.array_equal(s.coeff(1), np.eye(2))

    def test_additive_inverse_normalizes_to_degree_zero(self):
        rng = np.random.default_rng(1)
        a = random_pm(rng, 3, 3, 4)
        z = a + (-1.0) * a
        assert z.degree == 0
        assert not z.coeffs.any()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            PolynomialMatrix.identity(2) + PolynomialMatrix.identity(3)


class TestMul:
    def test_multiplicative_identity(self):
        rng = np.random.default_rng(2)
        p = random_pm(rng, 3, 2, 3)
        assert (PolynomialMatrix.identity(3) @ p).allclose(p)

    def test_difference_of_squares(self):
        # (1 - 0.5 z^-1)(1 + 0.5 z^-1) = 1 - 0.25 z^-2
        a = PolynomialMatrix(np.array([[[1.0]], [[-0.5]]]))
        b = PolynomialMatrix(np.array([[[1.0]], [[0.5]]]))
        p = a @ b
        assert p.degree == 2
        assert np.allclose(p.coeffs[:, 0, 0], [1.0, 0.0, -0.25])

    def test_inner_dimension_mismatch(self):
        with pytest.raises(ValueError):
            PolynomialMatrix.zeros(2, 3) @ PolynomialMatrix.zeros(2, 3)

    def test_associativity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = random_pm(rng, 2, 3, 2)
            b = random_pm(rng, 3, 2, 3)
            c = random_pm(rng, 2, 4, 1)
            assert ((a @ b) @ c).allclose(a @ (b @ c), atol=1e-12)


class TestEvaluate:
    def test_theta_zero(self):
        p = PolynomialMatrix(np.stack([np.eye(2), np.eye(2)]))
        assert np.allclose(p.evaluate(0.0), 2 * np.eye(2))

    def test_theta_pi(self):
        p = PolynomialMatrix(np.stack([np.eye(2), np.eye(2)]))
        assert np.allclose(p.evaluate(np.pi), np.zeros((2, 2)), atol=1e-12)

    def test_scalar_quarter_turn(self):
        # 1 - 0.5 z^-1 at theta = pi/2: e^{-i pi/2} = -i, so value is 1 + 0.5i
        p = PolynomialMatrix(np.array([[[1.0]], [[-0.5]]]))
        assert np.allclose(p.evaluate(np.pi / 2), np.array([[1.0 + 0.5j]]))

    def test_ring_homomorphism(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = random_pm(rng, 3, 2, 3)
            b = random_pm(rng, 2, 3, 2)
            theta = rng.uniform(0, 2 * np.pi)
            lhs = (a @ b).evaluate(theta)
            rhs = a.evaluate(theta) @ b.evaluate(theta)
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_grid_matches_pointwise(self):
        rng = np.random.default_rng(5)
        p = random_pm(rng, 2, 2, 3)
        thetas = 2 * np.pi * np.arange(8) / 8
        grid = p.evaluate_grid(thetas)
        for j, theta in enumerate(thetas):
            assert np.allclose(grid[j], p.evaluate(theta))


class TestTruncatedInverse:
    def test_scalar_geometric_series(self):
        a = PolynomialMatrix(np.array([[[1.0]], [[-0.5]]]))
        q = truncated_inverse(a, horizon=4, decay_tol=1.0)
        assert np.allclose(q.coeffs[:, 0, 0], [1.0, 0.5, 0.25, 0.125, 0.0625])

    def test_identity(self):
        q = truncated_inverse(PolynomialMatrix.identity(3), horizon=8)
        assert np.array_equal(q.coeff(0), np.eye(3))
        assert not q.coeffs[1:].any()

    def test_nilpotent_terminates_exactly(self):
        # A_0 = I, A_1 = [[0, 0], [-0.5, 0]]; hand recursion gives
        # Q_0 = I, Q_1 = [[0, 0], [0.5, 0]], Q_k = 0 for k >= 2.
        a1 = np.array([[0.0, 0.0], [-0.5, 0.0]])
        a = PolynomialMatrix(np.stack([np.eye(2), a1]))
        q = truncated_inverse(a, horizon=6)
        assert np.allclose(q.coeff(0), np.eye(2))
        assert np.allclose(q.coeff(1), np.array([[0.0, 0.0], [0.5, 0.0]]))
        assert not q.coeffs[2:].any()

    def test_singular_leading_coefficient(self):
        a = PolynomialMatrix(np.zeros((2, 2, 2)))
        with pytest.raises(SingularLeadingCoefficient):
            truncated_inverse(a)

    def test_no_decay_for_expanding_filter(self):
        a = PolynomialMatrix(np.array([[[1.0]], [[-1.1]]]))
        with pytest.raises(NoDecay) as exc:
            truncated_inverse(a, horizon=64)
        assert exc.value.tail > 1.0

    def test_inverse_property_on_random_stable_filters(self):
        rng = np.random.default_rng(6)
        horizon = 48
        for _ in range(10):
            n = rng.integers(1, 4)
            deg = rng.integers(1, 4)
            a = random_stable_pm(rng, n, deg)
            q = truncated_inverse(a, horizon=horizon)
            prod = a @ q
            ident = np.zeros_like(prod.coeffs[: horizon - deg + 1])
            ident[0] = np.eye(n)
            assert np.allclose(prod.coeffs[: horizon - deg + 1], ident, atol=1e-10)


class TestSupport:
    def test_zero_polynomial(self):
        assert not PolynomialMatrix.zeros(3, 2, 4).support().any()

    def test_identity_pattern(self):
        p = PolynomialMatrix(np.stack([np.eye(2), np.eye(2)]))
        assert np.array_equal(p.support(), np.eye(2, dtype=bool))

    def test_below_tolerance_entry(self):
        coeffs = np.zeros((4, 3, 3))
        coeffs[3, 1, 0] = 1e-12
        p = PolynomialMatrix(coeffs)
        assert not p.support(zero_tol=1e-9)[1, 0]


class TestSelectorShift:
    def test_first_channel(self):
        m = selector_shift(1, 2)
        assert np.allclose(m.coeff(0), np.diag([0.0, 1.0]))
        assert np.allclose(m.coeff(1), np.diag([1.0, 0.0]))

    def test_second_channel(self):
        m = selector_shift(2, 2)
        assert np.allclose(m.coeff(0), np.diag([1.0, 0.0]))
        assert np.allclose(m.coeff(1), np.diag([0.0, 1.0]))

    def test_unitary_on_grid(self):
        thetas = 2 * np.pi * np.arange(8) / 8
        for l in (2, 3, 5):
            for i in range(1, l + 1):
                vals = selector_shift(i, l).evaluate_grid(thetas)
                for v in vals:
                    assert np.allclose(v @ v.conj().T, np.eye(l), atol=1e-14)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            selector_shift(0, 3)
        with pytest.raises(ValueError):
            selector_shift(4, 3)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        p = random_pm(rng, 2, 3, 4)
        d = p.to_dict()
        assert set(d) == {"rows", "cols", "degree", "coeffs"}
        q = PolynomialMatrix.from_dict(d)
        assert q.allclose(p, atol=0.0)

    def test_header_mismatch_rejected(self):
        d = PolynomialMatrix.identity(2).to_dict()
        d["degree"] = 3
        with pytest.raises(ValueError):
            PolynomialMatrix.from_dict(d)


def test_vstack():
    rng = np.random.default_rng(8)
    top = random_pm(rng, 2, 3, 1)
    bottom = random_pm(rng, 4, 3, 3)
    s = vstack(top, bottom)
    assert s.shape == (6, 3)
    assert s.degree == 3
    assert np.allclose(s.coeffs[:2, :2], top.coeffs)
    assert np.allclose(s.coeffs[:, 2:], bottom.coeffs)
