"""Causal Wiener filters of the two blocks, exact and least-squares estimated.

Two filters carry the whole topology story. The deterministic-block filter
maps the full-rank channels (past and present) onto the deterministic
channels. The full-rank-block filter projects each full-rank channel onto
its own strict past joined with the other channels' past, which forces a
zero diagonal at lag 0 by construction of the regression design.
"""

from __future__ import annotations

from collections.abc import Mapping
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
    one factorization of the shared lagged design (see :func:`estimate_s`),
    and :func:`lrdnet.topology.edge_test_table` tests every group at once as
    batched array operations.
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

    @property
    def regressor_groups(self) -> dict:
        """(row, source) -> column indices of the source's lags inside the
        row's design matrix (0-based channels)."""
        return {pair: self.group_columns(*pair) for pair in _pairs(self.num_rows, self.l)}

    @property
    def gram_inv_blocks(self) -> "_GramBlocks":
        """(row, source) -> that group's Gram-inverse block, a writable view."""
        return _GramBlocks(self)

    def residual_variances(self) -> np.ndarray:
        dof = self.num_used_samples - self.n_regressors
        return self.rss_full / np.maximum(dof, 1)

    def group_coefficients(self, row: int, source: int) -> np.ndarray:
        """Estimated coefficients of one regressor group, ordered by lag."""
        lags = self.group_lags(row, source)
        return self.coeffs.coeffs[lags, row, source]

    def group_lags(self, row: int, source: int) -> np.ndarray:
        return np.arange(self.first_lag(row, source), self.order + 1)

    def first_lag(self, row: int, source: int) -> int:
        """1 for a full-rank row's own group (no lag-0 regressor), else 0."""
        if not (0 <= row < self.num_rows and 0 <= source < self.l):
            raise KeyError(f"no regressor group for row {row}, source {source}")
        return int(self.target_block == L_BLOCK and row == source)

    def group_columns(self, row: int, source: int) -> np.ndarray:
        cols = source * (self.order + 1) + self.group_lags(row, source)
        if self.target_block == L_BLOCK:
            cols = cols - (cols > row * (self.order + 1))  # own lag-0 column is dropped
        return cols

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


def _pairs(rows: int, l: int):
    return ((row, source) for row in range(rows) for source in range(l))


class _GramBlocks(Mapping):
    """(row, source) -> Gram-inverse block of that regressor group, as a view
    into ``FilterEstimate.gram_blocks``; assigning to a key writes through."""

    def __init__(self, est: FilterEstimate):
        self._est = est

    def __getitem__(self, key):
        first = self._est.first_lag(*key)
        return self._est.gram_blocks[key][first:, first:]

    def __setitem__(self, key, block) -> None:
        self[key][...] = block

    def __iter__(self):
        return _pairs(self._est.num_rows, self._est.l)

    def __len__(self) -> int:
        return self._est.num_rows * self._est.l


def _lagged_design(y_l: np.ndarray, order: int) -> np.ndarray:
    """Design with one column per (channel, lag): column j*(order+1)+k holds
    y_l[t-k, j] for t = order..T-1."""
    T, l = y_l.shape
    rows = T - order
    X = np.empty((rows, l * (order + 1)))
    for j in range(l):
        for k in range(order + 1):
            X[:, j * (order + 1) + k] = y_l[order - k : T - k, j]
    return X


def _factor(X: np.ndarray, ridge: float, cond_bound: float):
    """Thin SVD of the design, X = U diag(s) V'; returns (u, s, vt, s**2 + ridge).

    With ridge = 0 a Gram condition number above the bound raises
    RankDeficientDesign; with ridge > 0 the regularized problem is solved.
    """
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    u, s, vt = np.linalg.svd(X, full_matrices=False)
    if ridge == 0.0:
        smin = s[-1]
        if smin == 0.0 or (s[0] / smin) ** 2 > cond_bound:
            gram_cond = np.inf if smin == 0.0 else (s[0] / smin) ** 2
            raise RankDeficientDesign(
                f"Gram condition number {gram_cond:.3e} exceeds {cond_bound:.1e}; "
                "pass a positive ridge or drop collinear channels"
            )
    return u, s, vt, s**2 + ridge


def _diagonal_blocks(gram_inv: np.ndarray, l: int, order: int) -> np.ndarray:
    """(l, order+1, order+1) diagonal blocks of a Gram inverse over the lagged design."""
    g = order + 1
    chans = np.arange(l)
    return gram_inv.reshape(l, g, l, g)[chans, :, chans, :]


def _check_sample_budget(T: int, order: int, n_cols: int) -> None:
    if T - order < n_cols + 2:
        raise InsufficientData(
            f"{T} samples cannot support order {order} with {n_cols} regressors"
        )


def estimate_h(
    data: TimeSeries,
    order: int = 8,
    ridge: float = 0.0,
    cond_bound: float = DEFAULT_COND_BOUND,
) -> FilterEstimate:
    """Fit the deterministic block on lags 0..order of the full-rank block.

    Plain least squares row by row (all rows share one design); the optional
    ridge is off by default. Lag 0 is included because the relation is causal
    but not strictly causal.
    """
    if data.m < 1:
        raise ValueError("data has no deterministic block to fit")
    p = order
    l = data.l
    n_cols = l * (p + 1)
    _check_sample_budget(data.num_samples, p, n_cols)
    X = _lagged_design(data.y_l, p)
    Y = data.y_m[p:]
    u, s, vt, denom = _factor(X, ridge, cond_bound)
    beta = vt.T @ ((s / denom)[:, np.newaxis] * (u.T @ Y))
    resid = Y - X @ beta
    gram_inv = (vt.T / denom) @ vt
    blocks = _diagonal_blocks(gram_inv, l, p)
    return FilterEstimate(
        target_block=M_BLOCK,
        order=p,
        m=data.m,
        l=l,
        coeffs=PolynomialMatrix(beta.T.reshape(data.m, l, p + 1).transpose(2, 0, 1)),
        residuals=resid,
        rss_full=np.sum(resid**2, axis=0),
        gram_blocks=np.repeat(blocks[np.newaxis], data.m, axis=0),
        n_regressors=np.full(data.m, n_cols),
    )


def estimate_s(
    data: TimeSeries,
    order: int = 8,
    ridge: float = 0.0,
    cond_bound: float = DEFAULT_COND_BOUND,
) -> FilterEstimate:
    """Fit each full-rank channel on its own strict past and the others' past.

    Row i regresses y_l[i](t) on its own lags 1..order and every other
    channel's lags 0..order; excluding the own lag-0 column makes the zero
    diagonal at infinity structural rather than statistical. Row i's residual
    estimates d_i e_i(t).

    Row i's target is column c = i*(order+1) of the shared design X, so all
    rows are read off one precision matrix P = (X'X + ridge I)^-1 built from
    a single SVD of X (the covariance-selection identity, Dempster 1972):
    row i's coefficients are -P[c, :] / P[c, c] and its restricted Gram
    inverse is the rank-one downdate P - P[:, c] P[c, :] / P[c, c]. Both
    hold for ridge > 0 too (X augmented with sqrt(ridge) I), but 1 / P[c, c]
    is the RSS only at ridge = 0, so residuals and RSS come from Y - X B'.
    The condition-number guard applies to the full X, which is at least as
    strict as guarding each row's design (singular values interlace).
    """
    p = order
    l = data.l
    g = p + 1
    n_cols_full = l * g
    _check_sample_budget(data.num_samples, p, n_cols_full - 1)
    X = _lagged_design(data.y_l, p)
    Y = data.y_l[p:]
    _, _, vt, denom = _factor(X, ridge, cond_bound)
    P = (vt.T / denom) @ vt

    rows = np.arange(l)
    own = rows * g  # each row's own lag-0 column
    p_own = P[own, :]
    pivot = p_own[rows, own]
    beta = -p_own / pivot[:, np.newaxis]
    beta[rows, own] = 0.0
    residuals = Y - X @ beta.T

    cross = p_own.reshape(l, l, g)  # cross[i, j] = P[c_i, lags of channel j]
    downdate = np.einsum("ija,ijb->ijab", cross, cross) / pivot.reshape(l, 1, 1, 1)
    blocks = _diagonal_blocks(P, l, p) - downdate
    return FilterEstimate(
        target_block=L_BLOCK,
        order=p,
        m=data.m,
        l=l,
        coeffs=PolynomialMatrix(beta.reshape(l, l, g).transpose(2, 0, 1)),
        residuals=residuals,
        rss_full=np.sum(residuals**2, axis=0),
        gram_blocks=blocks,
        n_regressors=np.full(l, n_cols_full - 1),
    )
