"""Causal Wiener filters of the two blocks, exact and least-squares estimated.

Two filters carry the whole topology story. The deterministic-block filter
maps the full-rank channels (past and present) onto the deterministic
channels. The full-rank-block filter projects each full-rank channel onto
its own strict past joined with the other channels' past, which forces a
zero diagonal at lag 0 by construction of the regression design.

Both estimates regress on one lagged window of the full-rank block, and
:func:`estimate_filters` reads both off one SVD of that design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, InvalidModel, RankDeficientDesign
from .model import LrdnModel, require_valid
from .polymat import (
    DEFAULT_COND_BOUND,
    DEFAULT_DECAY_TOL,
    DEFAULT_HORIZON,
    PolynomialMatrix,
    truncated_inverse,
)
from .sim import TimeSeries

M_BLOCK = "m_block"
L_BLOCK = "l_block"

STRUCTURAL_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class ExactFilters:
    """Closed-form filters of a model: s (l x l, zero diagonal at lag 0),
    h (m x l), and the diagonal innovation gains d."""

    s: PolynomialMatrix
    h: PolynomialMatrix
    d: np.ndarray


def exact_filters(model: LrdnModel) -> ExactFilters:
    """Closed forms from the model coefficients, with no truncation.

    d_i is the i-th diagonal entry of (I - G_0)^-1 and
    s = I - diag(d) (I - g_l). The deterministic-block filter equals g_ml.
    The strict-causality consequence [s_0]_ii = 0 requires d_i = 1; it can
    fail only when lag-0 couplings form feedback loops, in which case the
    projection interpretation breaks down and we refuse to return a filter.
    """
    require_valid(model)
    g0 = model.g_l.coeff(0)
    lead_inv = np.linalg.inv(np.eye(model.l) - g0)
    d = np.diag(lead_inv).copy()

    i_minus_gl = PolynomialMatrix.identity(model.l) - model.g_l
    s = PolynomialMatrix.identity(model.l) - (PolynomialMatrix.constant(np.diag(d)) @ i_minus_gl)

    diag0 = np.abs(np.diag(s.coeff(0))).max()
    if diag0 > STRUCTURAL_ZERO_TOL:
        raise InvalidModel(
            "closed-form filter has a nonzero lag-0 diagonal "
            f"({diag0:.3e}); lag-0 couplings of this model form a feedback loop"
        )
    off = ~np.eye(model.l, dtype=bool)
    if (d != 0).all():
        sup_s = s.support()[off]
        sup_g = model.g_l.support()[off]
        if not np.array_equal(sup_s, sup_g):
            raise InvalidModel("off-diagonal supports of s and g_l disagree")
    return ExactFilters(s=s.normalized(), h=model.g_ml, d=d)


def exact_s_via_factor(
    w: PolynomialMatrix,
    horizon: int = DEFAULT_HORIZON,
    decay_tol: float = DEFAULT_DECAY_TOL,
    cond_bound: float = DEFAULT_COND_BOUND,
) -> PolynomialMatrix:
    """Filter of the full-rank block computed from a causal spectral factor.

    s = I - diag([W_0]_11 .. [W_0]_ll) W^-1 with the inverse truncated at the
    horizon. Agrees with :func:`exact_filters` up to truncation error when w
    is the model's reduced-form factor, which ties the two derivations
    together as a cross-check.
    """
    if w.rows != w.cols:
        raise ValueError(f"factor must be square, got {w.shape}")
    w_inv = truncated_inverse(w, horizon=horizon, decay_tol=decay_tol, cond_bound=cond_bound)
    d = np.diag(np.diag(w.coeff(0)))
    return PolynomialMatrix.identity(w.rows) - (PolynomialMatrix.constant(d) @ w_inv)


@dataclass
class FilterEstimate:
    """Least-squares FIR filter fit for one block.

    ``gram_blocks[row, source]`` is the (order+1) x (order+1) diagonal block
    of the row's Gram inverse (X'X + ridge I)^-1 that belongs to the source
    channel's lags 0..order, which is all the group tests need. In the
    full-rank block a row's own lag 0 is not a regressor: its group is lags
    1..order, the block's trailing order x order corner. All blocks come from
    one factorization of the shared lagged design (see :func:`estimate_filters`).
    The group tests of :mod:`lrdnet.topology` always take a whole estimate:
    one batch tests every (row, source) group of it as array operations.
    """

    target_block: str
    order: int
    m: int
    l: int
    coeffs: PolynomialMatrix
    residuals: np.ndarray
    rss_full: np.ndarray
    gram_blocks: np.ndarray
    n_regressors: np.ndarray

    @property
    def num_rows(self) -> int:
        return self.coeffs.rows

    @property
    def num_used_samples(self) -> int:
        return self.residuals.shape[0]

    def residual_variances(self) -> np.ndarray:
        dof = self.num_used_samples - self.n_regressors
        return self.rss_full / np.maximum(dof, 1)

    def to_dict(self) -> dict:
        return {
            "block": self.target_block,
            "order": self.order,
            "m": self.m,
            "l": self.l,
            "coeffs": self.coeffs.to_dict(),
            "per_row_rss": self.rss_full.tolist(),
            "residual_variances": self.residual_variances().tolist(),
        }


def lagged_design(y: np.ndarray, lags: range, intercept: bool = False) -> np.ndarray:
    """Design with one column per (channel, lag): column j*len(lags)+a holds
    y[t - lags[a], j] for t = lags[-1]..T-1, then a column of ones if
    ``intercept``. Pass y[:, channels] to build it over a channel subset."""
    T, n = y.shape
    width, last = len(lags), lags[-1]
    X = np.empty((T - last, n * width + intercept))
    for a, k in enumerate(lags):
        X[:, a : n * width : width] = y[last - k : T - k]
    if intercept:
        X[:, -1] = 1.0
    return X


def _factor(X: np.ndarray, ridge: float):
    """Thin SVD of the design, X = U diag(s) V'; returns (u, s, vt, s**2 + ridge).

    With ridge = 0 a Gram condition number above DEFAULT_COND_BOUND raises
    RankDeficientDesign; with ridge > 0 the regularized problem is solved.
    """
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    u, s, vt = np.linalg.svd(X, full_matrices=False)
    if ridge == 0.0:
        smin = s[-1]
        if smin == 0.0 or (s[0] / smin) ** 2 > DEFAULT_COND_BOUND:
            gram_cond = np.inf if smin == 0.0 else (s[0] / smin) ** 2
            raise RankDeficientDesign(
                f"Gram condition number {gram_cond:.3e} exceeds {DEFAULT_COND_BOUND:.1e}; "
                "pass a positive ridge or drop collinear channels"
            )
    return u, s, vt, s**2 + ridge


def estimate_filters(data: TimeSeries, order: int = 8, ridge: float = 0.0) -> tuple[FilterEstimate | None, FilterEstimate]:
    """Fit both blocks' filters from one SVD of one lagged design X, lags
    0..order of the full-rank block; returns (h_est, s_est), with h_est None
    when the data has no deterministic block.

    h is plain least squares of y_m on X, row by row (the optional ridge is
    off by default); lag 0 is included because the relation is causal but
    not strictly causal. s regresses row i, y_l[i](t), on its own lags
    1..order and every other channel's lags 0..order; excluding the own
    lag-0 column makes the zero diagonal at infinity structural rather than
    statistical, and row i's residual estimates d_i e_i(t). Row i's target is
    column c = i*(order+1) of X, so all rows are read off h's Gram inverse,
    the precision matrix P = (X'X + ridge I)^-1 (the covariance-selection
    identity, Dempster 1972): row i's coefficients are -P[c, :] / P[c, c]
    and its restricted Gram inverse is the rank-one downdate
    P - P[:, c] P[c, :] / P[c, c]. Both hold for ridge > 0 too (X augmented
    with sqrt(ridge) I), but 1 / P[c, c] is the RSS only at ridge = 0, so
    residuals and RSS come from Y - X B'. The condition-number guard applies
    to the full X, which is at least as strict as guarding each row's design
    (singular values interlace). The sample budget is checked once, for h's
    l*(order+1) regressors, or for s's one fewer when there is no h.
    """
    p = order
    l = data.l
    g = p + 1
    n_cols = l * g
    n_fit = n_cols if data.m >= 1 else n_cols - 1
    if data.num_samples - p < n_fit + 2:
        raise InsufficientData(
            f"{data.num_samples} samples cannot support order {p} with {n_fit} regressors"
        )
    X = lagged_design(data.y_l, range(g))
    u, s, vt, denom = _factor(X, ridge)
    P = (vt.T / denom) @ vt
    rows = np.arange(l)
    diagonal_blocks = P.reshape(l, g, l, g)[rows, :, rows, :]  # each channel's lags 0..order

    h_est = None
    if data.m >= 1:
        Y = data.y_m[p:]
        beta = vt.T @ ((s / denom)[:, np.newaxis] * (u.T @ Y))
        resid = Y - X @ beta
        h_est = FilterEstimate(
            target_block=M_BLOCK,
            order=p,
            m=data.m,
            l=l,
            coeffs=PolynomialMatrix(beta.T.reshape(data.m, l, g).transpose(2, 0, 1)),
            residuals=resid,
            rss_full=np.sum(resid**2, axis=0),
            gram_blocks=np.repeat(diagonal_blocks[np.newaxis], data.m, axis=0),
            n_regressors=np.full(data.m, n_cols),
        )

    Y = data.y_l[p:]
    own = rows * g  # each row's own lag-0 column
    p_own = P[own, :]
    pivot = p_own[rows, own]
    beta = -p_own / pivot[:, np.newaxis]
    beta[rows, own] = 0.0
    residuals = Y - X @ beta.T

    cross = p_own.reshape(l, l, g)  # cross[i, j] = P[c_i, lags of channel j]
    downdate = np.einsum("ija,ijb->ijab", cross, cross) / pivot.reshape(l, 1, 1, 1)
    s_est = FilterEstimate(
        target_block=L_BLOCK,
        order=p,
        m=data.m,
        l=l,
        coeffs=PolynomialMatrix(beta.reshape(l, l, g).transpose(2, 0, 1)),
        residuals=residuals,
        rss_full=np.sum(residuals**2, axis=0),
        gram_blocks=diagonal_blocks - downdate,
        n_regressors=np.full(l, n_cols - 1),
    )
    return h_est, s_est


def estimate_h(data: TimeSeries, order: int = 8, ridge: float = 0.0) -> FilterEstimate:
    """The deterministic-block filter of :func:`estimate_filters`."""
    if data.m < 1:
        raise ValueError("data has no deterministic block to fit")
    return estimate_filters(data, order, ridge)[0]


def estimate_s(data: TimeSeries, order: int = 8, ridge: float = 0.0) -> FilterEstimate:
    """The full-rank-block filter of :func:`estimate_filters`."""
    return estimate_filters(data, order, ridge)[1]
