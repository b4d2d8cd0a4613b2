"""Spectra on frequency grids: rank structure, factor and projection identities."""

import numpy as np
import pytest

from conftest import small_config, twelve_node_config
from lrdnet.errors import SingularBlock
from lrdnet.model import LrdnModel, random_model
from lrdnet.polymat import PolynomialMatrix
from lrdnet.spectral import (
    SpectralGrid,
    h_closed_form,
    inverse_support_fullrank,
    spectral_factor_of_model,
    spectrum_l_of_model,
    spectrum_of_model,
    uniform_thetas,
)
from test_model import ar1_model


def decoupled_ar_model(a1=0.5, a2=-0.4):
    coeffs = np.zeros((2, 2, 2))
    coeffs[1, 0, 0] = a1
    coeffs[1, 1, 1] = a2
    return LrdnModel(
        m=1,
        l=2,
        g_ml=PolynomialMatrix(np.array([[[0.3, 0.0]]])),
        g_l=PolynomialMatrix(coeffs),
        sigma_l=np.ones(2),
    )


class TestSpectralGrid:
    def test_rejects_non_power_of_two(self):
        thetas = np.linspace(0, 2 * np.pi, 6, endpoint=False)
        vals = np.tile(np.eye(2, dtype=complex), (6, 1, 1))
        with pytest.raises(ValueError):
            SpectralGrid(thetas, vals)

    def test_rejects_non_hermitian(self):
        thetas = uniform_thetas(4)
        vals = np.tile(np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex), (4, 1, 1))
        with pytest.raises(ValueError):
            SpectralGrid(thetas, vals)

    def test_rejects_indefinite(self):
        thetas = uniform_thetas(4)
        vals = np.tile(np.diag([1.0, -0.5]).astype(complex), (4, 1, 1))
        with pytest.raises(ValueError):
            SpectralGrid(thetas, vals)


class TestSpectrumOfModel:
    def test_white_noise_block_gives_identity(self):
        model = LrdnModel(
            m=1,
            l=2,
            g_ml=PolynomialMatrix.zeros(1, 2),
            g_l=PolynomialMatrix.zeros(2, 2),
            sigma_l=np.ones(2),
        )
        grid = spectrum_l_of_model(model, num_points=16)
        assert np.allclose(grid.values, np.tile(np.eye(2), (16, 1, 1)), atol=1e-12)

    def test_scalar_ar1_spectrum_at_zero(self):
        grid = spectrum_l_of_model(ar1_model(a=0.5), num_points=16)
        assert abs(grid.values[0, 0, 0] - 4.0) < 1e-6

    def test_rank_deficiency_on_benchmark_shape(self):
        model = random_model(twelve_node_config(seed=2))
        grid = spectrum_of_model(model, num_points=64)
        sv = grid.singular_values()
        assert sv.shape == (64, 12)
        assert (sv[:, 4] < 1e-6 * sv[:, 0]).all()

    def test_hermitian_psd_by_construction(self):
        for seed in range(3):
            model = random_model(small_config(seed=seed))
            grid = spectrum_of_model(model, num_points=32)  # constructor validates
            assert grid.dim == model.m + model.l


class TestSpectralFactor:
    def test_white_noise_block(self):
        model = LrdnModel(
            m=1,
            l=2,
            g_ml=PolynomialMatrix.zeros(1, 2),
            g_l=PolynomialMatrix.zeros(2, 2),
            sigma_l=np.array([1.0, 2.0]),
        )
        w, lam = spectral_factor_of_model(model, horizon=8)
        assert np.allclose(w.coeff(0), np.eye(2))
        assert not w.coeffs[1:].any()
        assert np.array_equal(lam, [1.0, 2.0])

    def test_scalar_ar1_factor_coefficients(self):
        w, _ = spectral_factor_of_model(ar1_model(a=0.5))
        assert np.allclose(w.coeffs[:25, 0, 0], 0.5 ** np.arange(25))

    def test_factor_identity_on_grid(self):
        thetas = uniform_thetas(32)
        for seed in range(5):
            model = random_model(small_config(seed=seed))
            w, lam = spectral_factor_of_model(model, horizon=256)
            wian = w.evaluate_grid(thetas)
            recon = np.einsum("nrc,c,nsc->nrs", wian, lam, wian.conj())
            grid = spectrum_l_of_model(model, num_points=32, horizon=256)
            assert np.abs(recon - grid.values).max() < 1e-6


class TestHClosedForm:
    def test_zero_deterministic_block(self):
        model = LrdnModel(
            m=2,
            l=2,
            g_ml=PolynomialMatrix.zeros(2, 2),
            g_l=PolynomialMatrix.zeros(2, 2),
            sigma_l=np.ones(2),
        )
        h = h_closed_form(model, num_points=16)
        assert np.abs(h).max() < 1e-12

    def test_matches_filter_response_on_random_models(self):
        thetas = uniform_thetas(64)
        for seed in range(5):
            model = random_model(small_config(seed=seed))
            h = h_closed_form(model, num_points=64)
            direct = model.g_ml.evaluate_grid(thetas)
            err = np.linalg.norm(h - direct, axis=(1, 2)).max()
            assert err < 1e-6

    def test_singular_block_bound(self):
        model = random_model(small_config(seed=1))
        with pytest.raises(SingularBlock):
            h_closed_form(model, num_points=16, cond_bound=1.0)

    def test_scalar_delay_entry(self):
        g_l = PolynomialMatrix(np.array([[[0.0]], [[0.4]]]))
        g_ml = PolynomialMatrix(np.array([[[0.0]], [[0.7]]]))
        model = LrdnModel(m=1, l=1, g_ml=g_ml, g_l=g_l, sigma_l=np.ones(1))
        thetas = uniform_thetas(16)
        h = h_closed_form(model, num_points=16)
        assert np.allclose(h[:, 0, 0], 0.7 * np.exp(-1j * thetas), atol=1e-9)


class TestInverseSupport:
    def test_identity_grid_gives_diagonal(self):
        grid = SpectralGrid(uniform_thetas(8), np.tile(np.eye(3, dtype=complex), (8, 1, 1)))
        sup = inverse_support_fullrank(grid, zero_tol=1e-6)
        assert np.array_equal(sup, np.eye(3, dtype=bool))

    def test_scalar_case(self):
        grid = spectrum_l_of_model(ar1_model(a=0.5), num_points=8)
        sup = inverse_support_fullrank(grid, zero_tol=1e-6)
        assert np.array_equal(sup, [[True]])

    def test_decoupled_channels_have_diagonal_support(self):
        grid = spectrum_l_of_model(decoupled_ar_model(), num_points=32)
        sup = inverse_support_fullrank(grid, zero_tol=1e-6)
        assert np.array_equal(sup, np.eye(2, dtype=bool))
        assert np.array_equal(sup, sup.T)

    def test_singular_block_raises(self):
        model = random_model(twelve_node_config(seed=5))
        grid = spectrum_of_model(model, num_points=16)  # full spectrum is singular
        with pytest.raises(SingularBlock):
            inverse_support_fullrank(grid, zero_tol=1e-6)
