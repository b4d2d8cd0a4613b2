"""Frequency-domain views of a model: spectra, rank structure, closed forms.

Spectra are held on uniform grids over [0, 2pi) rather than as rational
functions; all support and rank statements become max-over-grid tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularBlock
from .model import LrdnModel, reduced_form
from .polymat import DEFAULT_COND_BOUND, DEFAULT_HORIZON, PolynomialMatrix

DEFAULT_GRID_POINTS = 64
HERMITIAN_TOL = 1e-10
PSD_EIG_TOL = -1e-8


def uniform_thetas(num_points: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(num_points) / num_points


@dataclass(frozen=True)
class SpectralGrid:
    """Hermitian PSD matrices sampled at theta_j = 2 pi j / N, N a power of two."""

    thetas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        thetas = np.asarray(self.thetas, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        n = thetas.size
        if n < 1 or (n & (n - 1)) != 0:
            raise ValueError(f"grid size {n} is not a power of two")
        if values.shape[0] != n or values.ndim != 3 or values.shape[1] != values.shape[2]:
            raise ValueError(f"values must be (N, d, d) with N = {n}, got {values.shape}")
        herm_err = np.abs(values - values.conj().transpose(0, 2, 1)).max()
        if herm_err > HERMITIAN_TOL:
            raise ValueError(f"grid is not Hermitian within {HERMITIAN_TOL:.1e} (error {herm_err:.3e})")
        min_eig = float(np.linalg.eigvalsh(values).min())
        if min_eig < PSD_EIG_TOL:
            raise ValueError(f"grid has eigenvalue {min_eig:.3e} below the PSD tolerance {PSD_EIG_TOL:.1e}")
        thetas.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "values", values)

    @property
    def num_points(self) -> int:
        return self.thetas.size

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def block(self, start: int, stop: int) -> "SpectralGrid":
        """Principal submatrix grid over channels start..stop-1 (0-based)."""
        return SpectralGrid(self.thetas, self.values[:, start:stop, start:stop])

    def singular_values(self) -> np.ndarray:
        return np.linalg.svd(self.values, compute_uv=False)


def spectrum_of_model(
    model: LrdnModel,
    num_points: int = DEFAULT_GRID_POINTS,
    horizon: int = DEFAULT_HORIZON,
) -> SpectralGrid:
    """Full (m+l)-dimensional output spectrum Tf diag(sigma) Tf^H on the grid."""
    rf = reduced_form(model, horizon=horizon)
    thetas = uniform_thetas(num_points)
    tf = rf.full_transfer.evaluate_grid(thetas)
    values = np.einsum("nrc,c,nsc->nrs", tf, model.sigma_l, tf.conj())
    return SpectralGrid(thetas, values)


def spectrum_l_of_model(
    model: LrdnModel,
    num_points: int = DEFAULT_GRID_POINTS,
    horizon: int = DEFAULT_HORIZON,
) -> SpectralGrid:
    """Spectrum of the full-rank block alone."""
    return spectrum_of_model(model, num_points, horizon).block(model.m, model.m + model.l)


def spectral_factor_of_model(
    model: LrdnModel,
    horizon: int = DEFAULT_HORIZON,
) -> tuple[PolynomialMatrix, np.ndarray]:
    """Canonical causal factor of the full-rank block's spectrum.

    Returns (W, Lambda) with W = (I - g_l)^-1 truncated at the horizon and
    Lambda the diagonal innovation variances, so that W Lambda W^* matches
    the block spectrum up to truncation error.
    """
    rf = reduced_form(model, horizon=horizon)
    return rf.w_factor, np.array(model.sigma_l)


def h_closed_form(
    model: LrdnModel,
    num_points: int = DEFAULT_GRID_POINTS,
    cond_bound: float = DEFAULT_COND_BOUND,
) -> np.ndarray:
    """Deterministic-relation filter from the spectrum: Phi_lm^H Phi_l^-1.

    Evaluated per grid point; equals the frequency response of g_ml up to
    numerical error, which is the projection identity the estimators rely on.
    Returns an (N, m, l) complex array over uniform_thetas(num_points).
    """
    grid = spectrum_of_model(model, num_points)
    m = model.m
    phi_lm = grid.values[:, m:, :m]
    phi_l = grid.values[:, m:, m:]
    conds = np.linalg.cond(phi_l)
    worst = float(conds.max())
    if not np.isfinite(worst) or worst > cond_bound:
        raise SingularBlock(
            f"full-rank block condition number {worst:.3e} exceeds {cond_bound:.1e} on the grid"
        )
    return np.linalg.solve(
        phi_l.transpose(0, 2, 1), phi_lm.conj()
    ).transpose(0, 2, 1)


def inverse_support_fullrank(grid: SpectralGrid, zero_tol: float) -> np.ndarray:
    """Conditional-independence support of a full-rank block.

    Entry (k, h) is True iff max over the grid of |[Phi^-1]_kh| exceeds
    zero_tol. The inverse of a Hermitian matrix is Hermitian, so the result
    is symmetric. This moral-graph diagnostic only exists for the full-rank
    block; the full output spectrum is singular whenever m >= 1.
    """
    conds = np.linalg.cond(grid.values)
    worst = float(conds.max())
    if not np.isfinite(worst) or worst > DEFAULT_COND_BOUND:
        raise SingularBlock(
            f"grid condition number {worst:.3e} exceeds {DEFAULT_COND_BOUND:.1e}; inverse support undefined"
        )
    inv = np.linalg.inv(grid.values)
    return np.abs(inv).max(axis=0) > zero_tol
