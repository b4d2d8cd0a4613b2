"""Exact and estimated Wiener filters, and their agreement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_config
from lrdnet.errors import InsufficientData, InvalidModel, RankDeficientDesign
from lrdnet.model import LrdnModel, random_model, reduced_form
from lrdnet.polymat import DEFAULT_COND_BOUND, PolynomialMatrix
from lrdnet.sim import TimeSeries, simulate
from lrdnet.wiener import (
    L_BLOCK,
    M_BLOCK,
    estimate_filters,
    estimate_h,
    estimate_s,
    exact_filters,
    exact_s_via_factor,
    lagged_design,
)
from test_model import ar1_model
from test_sim import white_model


def pad_coeffs(pm, degree):
    out = np.zeros((degree + 1, pm.rows, pm.cols))
    out[: pm.degree + 1] = pm.coeffs
    return out


class TestExactFilters:
    def test_white_noise_block_is_unpredictable(self):
        ef = exact_filters(white_model())
        assert np.array_equal(ef.d, np.ones(2))
        assert not ef.s.coeffs.any()
        assert ef.s.degree == 0

    def test_scalar_self_loop(self):
        ef = exact_filters(ar1_model(a=0.5))
        assert np.allclose(ef.d, [1.0])
        assert np.allclose(ef.s.coeffs[:, 0, 0], [0.0, 0.5])
        assert ef.h.allclose(ar1_model(a=0.5).g_ml, atol=0.0)

    def test_single_cross_edge(self):
        coeffs = np.zeros((2, 2, 2))
        coeffs[1, 0, 1] = 0.5
        model = LrdnModel(
            m=1,
            l=2,
            g_ml=PolynomialMatrix.zeros(1, 2),
            g_l=PolynomialMatrix(coeffs),
            sigma_l=np.ones(2),
        )
        ef = exact_filters(model)
        assert np.array_equal(ef.d, np.ones(2))
        expected = np.zeros((2, 2, 2))
        expected[1, 0, 1] = 0.5
        assert np.allclose(ef.s.coeffs, expected)

    def test_lag0_feedback_loop_refused(self):
        # both (1,2) and (2,1) present at lag 0 makes d_i != 1
        c0 = np.array([[0.0, 0.4], [0.4, 0.0]])
        model = LrdnModel(
            m=1,
            l=2,
            g_ml=PolynomialMatrix.zeros(1, 2),
            g_l=PolynomialMatrix(c0[np.newaxis]),
            sigma_l=np.ones(2),
        )
        with pytest.raises(InvalidModel):
            exact_filters(model)

    def test_lag0_triangular_coupling_accepted(self):
        c = np.zeros((2, 2, 2))
        c[0, 1, 0] = 0.6  # channel 2 reads channel 1 at lag 0
        c[1, 0, 0] = 0.3
        model = LrdnModel(
            m=1,
            l=2,
            g_ml=PolynomialMatrix.zeros(1, 2),
            g_l=PolynomialMatrix(c),
            sigma_l=np.ones(2),
        )
        ef = exact_filters(model)
        assert np.array_equal(ef.d, np.ones(2))
        assert abs(ef.s.coeff(0)[1, 0] - 0.6) < 1e-14

    def test_structural_zero_diagonal(self):
        for seed in range(10):
            ef = exact_filters(random_model(small_config(seed=seed)))
            assert np.abs(np.diag(ef.s.coeff(0))).max() < 1e-12


class TestExactSViaFactor:
    def test_identity_factor(self):
        s = exact_s_via_factor(PolynomialMatrix.identity(3), horizon=16)
        assert np.abs(s.coeffs).max() == 0.0

    def test_ar1_factor(self):
        a = 0.5
        w = PolynomialMatrix(a ** np.arange(64)[:, np.newaxis, np.newaxis])
        s = exact_s_via_factor(w, horizon=48)
        assert abs(s.coeff(0)[0, 0]) < 1e-12
        assert abs(s.coeff(1)[0, 0] - a) < 1e-10
        tail = s.coeffs[2:]
        assert tail.size == 0 or np.abs(tail).max() < 1e-10

    def test_agrees_with_direct_route(self):
        for seed in range(10):
            model = random_model(small_config(seed=seed))
            w = reduced_form(model, horizon=256).w_factor
            via_factor = exact_s_via_factor(w, horizon=256)
            direct = exact_filters(model).s
            n = max(via_factor.degree, direct.degree)
            diff = pad_coeffs(via_factor, n) - pad_coeffs(direct, n)
            assert np.abs(diff).max() < 1e-8


class TestEstimateH:
    def test_exact_recovery_of_deterministic_relation(self):
        model = random_model(small_config(seed=1))
        ts = simulate(model, num_samples=2000, seed=5)
        est = estimate_h(ts, order=model.g_ml.degree)
        assert est.target_block == M_BLOCK
        assert np.sqrt(np.mean(est.residuals**2)) < 1e-8
        diff = pad_coeffs(model.g_ml, est.order) - est.coeffs.coeffs
        assert np.abs(diff).max() < 1e-6

    def test_zero_relation_estimates_zero(self):
        ts = simulate(white_model(), num_samples=2000, seed=6)
        est = estimate_h(ts, order=3)
        assert np.abs(est.coeffs.coeffs).max() < 1e-8

    def test_underspecified_order_leaves_residual(self):
        coeffs = np.zeros((3, 1, 1))
        coeffs[2, 0, 0] = 0.9  # relation concentrated at lag 2
        model = LrdnModel(
            m=1,
            l=1,
            g_ml=PolynomialMatrix(coeffs),
            g_l=PolynomialMatrix.zeros(1, 1),
            sigma_l=np.ones(1),
        )
        ts = simulate(model, num_samples=4000, seed=7)
        est = estimate_h(ts, order=1)
        assert np.sqrt(np.mean(est.residuals**2)) > 0.5

    def test_residuals_orthogonal_to_regressors(self):
        model = random_model(small_config(seed=2))
        ts = simulate(model, num_samples=1500, seed=8)
        est = estimate_s(ts, order=4)
        X_full = lagged_design(ts.y_l, range(5))
        for i in range(ts.l):
            keep = np.delete(np.arange(X_full.shape[1]), i * 5)
            X = X_full[:, keep]
            r = est.residuals[:, i]
            dots = np.abs(X.T @ r)
            bounds = 1e-8 * np.linalg.norm(X, axis=0) * np.linalg.norm(r)
            assert (dots <= bounds + 1e-12).all()

    def test_sample_budget_enforced(self):
        ts = simulate(white_model(), num_samples=12, seed=9)
        with pytest.raises(InsufficientData):
            estimate_h(ts, order=4)

    def test_rank_deficient_design(self):
        # duplicated full-rank channel makes the design exactly collinear
        rng = np.random.default_rng(0)
        y = rng.standard_normal((500, 1))
        data = np.hstack([y, y, y])  # y_m duplicates, y_l has two identical channels
        ts = TimeSeries(data=data, m=1, l=2)
        with pytest.raises(RankDeficientDesign):
            estimate_h(ts, order=2)
        est = estimate_h(ts, order=2, ridge=1e-6)  # ridge resolves it
        assert est.coeffs.rows == 1


class TestEstimateS:
    def test_white_noise_block(self):
        model = white_model()
        ts = simulate(model, num_samples=8000, seed=10)
        est = estimate_s(ts, order=3)
        assert est.target_block == L_BLOCK
        assert np.abs(est.coeffs.coeffs).max() < 0.05
        assert np.allclose(est.residual_variances(), np.ones(2), rtol=0.05)

    def test_structural_zero_is_exact(self):
        model = random_model(small_config(seed=3))
        ts = simulate(model, num_samples=1000, seed=11)
        est = estimate_s(ts, order=5)
        for i in range(ts.l):
            assert est.coeffs.coeff(0)[i, i] == 0.0

    def test_scalar_ar1_coefficient(self):
        ts = simulate(ar1_model(a=0.5), num_samples=5000, seed=12)
        est = estimate_s(ts, order=4)
        coeffs = est.coeffs.coeffs[:, 0, 0]
        assert abs(coeffs[1] - 0.5) < 0.05
        assert np.abs(coeffs[2:]).max() < 0.05

    def test_converges_to_closed_form(self):
        # the central oracle: regression route vs algebraic route
        model = random_model(small_config(seed=4))
        ts = simulate(model, num_samples=20_000, seed=13)
        est = estimate_s(ts, order=model.g_l.degree)
        exact = pad_coeffs(exact_filters(model).s, est.order)
        assert np.abs(est.coeffs.coeffs - exact).max() < 0.05

    def test_residual_variance_converges_to_model_noise(self):
        cfg = small_config(seed=5, sigma_l=[1.0, 2.0, 0.5])
        model = random_model(cfg)
        ts = simulate(model, num_samples=20_000, seed=14)
        est = estimate_s(ts, order=model.g_l.degree)
        assert np.allclose(est.residual_variances(), [1.0, 2.0, 0.5], rtol=0.10)

    def test_error_decreases_with_sample_size(self):
        # per-channel coefficient error shrinks along T = 2000, 8000, 32000
        rows_monotone = 0
        rows_total = 0
        for seed in (0, 1, 2, 6):
            model = random_model(small_config(seed=seed))
            exact = exact_filters(model).s
            errs = []
            for T in (2000, 8000, 32_000):
                ts = simulate(model, num_samples=T, seed=100 + seed)
                est = estimate_s(ts, order=model.g_l.degree)
                diff = est.coeffs.coeffs - pad_coeffs(exact, est.order)
                errs.append(np.sqrt(np.mean(diff**2, axis=(0, 2))))
            errs = np.array(errs)
            rows_total += model.l
            rows_monotone += int(((errs[0] > errs[1]) & (errs[1] > errs[2])).sum())
        assert rows_monotone >= int(np.ceil(0.9 * rows_total))

    def test_residual_whiteness_at_exact_order(self):
        inside = 0
        total = 0
        for seed in (0, 1, 2, 3, 4, 5):
            model = random_model(small_config(seed=seed))
            ts = simulate(model, num_samples=4000, seed=200 + seed)
            est = estimate_s(ts, order=model.g_l.degree)
            T_eff = est.num_used_samples
            band = 3.0 / np.sqrt(T_eff)
            for i in range(ts.l):
                r = est.residuals[:, i]
                r = r - r.mean()
                denom = float(r @ r)
                for lag in range(1, 11):
                    ac = float(r[lag:] @ r[:-lag]) / denom
                    total += 1
                    inside += int(abs(ac) <= band)
        assert inside / total >= 0.95


def test_estimate_json_export(small_model):
    ts = simulate(small_model, num_samples=1000, seed=15)
    est = estimate_s(ts, order=3)
    d = est.to_dict()
    assert d["block"] == L_BLOCK
    assert d["order"] == 3
    assert len(d["per_row_rss"]) == small_model.l
    assert len(d["residual_variances"]) == small_model.l
    back = PolynomialMatrix.from_dict(d["coeffs"])
    assert back.allclose(est.coeffs, atol=0.0)


def reference_estimate_s(ts, p, ridge):
    """Row-by-row fit of the strict-past filter: one SVD of each row's own
    design (the shared lagged design without the row's lag-0 column).
    Returns (coeffs, residuals, rss, each row's coefficient vector, regressor
    groups as column indices into that vector, Gram-inverse blocks)."""
    X_full = lagged_design(ts.y_l, range(p + 1))
    Y = ts.y_l[p:]
    l = ts.l
    n_cols = l * (p + 1)
    coeffs = np.zeros((p + 1, l, l))
    residuals = np.empty((Y.shape[0], l))
    betas, groups, blocks = [], {}, {}
    for i in range(l):
        drop = i * (p + 1)
        keep = np.delete(np.arange(n_cols), drop)
        X = X_full[:, keep]
        u, s, vt = np.linalg.svd(X, full_matrices=False)
        if ridge == 0.0 and (s[-1] == 0.0 or (s[0] / s[-1]) ** 2 > DEFAULT_COND_BOUND):
            raise RankDeficientDesign("row design is singular")
        denom = s**2 + ridge
        beta = vt.T @ ((s / denom) * (u.T @ Y[:, i]))
        gram_inv = (vt.T / denom) @ vt
        residuals[:, i] = Y[:, i] - X @ beta
        betas.append(beta)
        for pos, col in enumerate(keep):
            j, k = divmod(col, p + 1)
            coeffs[k, i, j] = beta[pos]
        for j in range(l):
            if j == i:
                idx = np.arange(drop, drop + p)
            else:
                idx = np.arange(j * (p + 1), (j + 1) * (p + 1))
                idx = idx - (idx > drop)
            groups[(i, j)] = idx
            blocks[(i, j)] = gram_inv[np.ix_(idx, idx)]
    return coeffs, residuals, np.sum(residuals**2, axis=0), betas, groups, blocks


def correlated_series(seed, l, T=400):
    """Full-rank channels with lag-0 mixing and AR(1) memory."""
    rng = np.random.default_rng(seed)
    mix = np.eye(l) + np.tril(rng.uniform(-0.5, 0.5, (l, l)), -1)
    e = rng.standard_normal((T, l)) @ mix.T
    y = np.empty_like(e)
    y[0] = e[0]
    for t in range(1, T):
        y[t] = 0.6 * y[t - 1] + e[t]
    return TimeSeries(data=y, m=0, l=l)


def assert_rel_close(actual, expected, rel=1e-10):
    # tolerance fixed before measuring: 1e-10 of the reference's largest entry
    scale = np.abs(expected).max()
    assert np.abs(actual - expected).max() <= rel * scale


class TestOneFactorization:
    @settings(max_examples=60, deadline=None)
    @given(
        l=st.integers(2, 6),
        p=st.integers(1, 4),
        ridge=st.one_of(st.just(0.0), st.floats(1e-6, 10.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_row_by_row_fits(self, l, p, ridge, seed):
        ts = correlated_series(seed, l)
        est = estimate_s(ts, order=p, ridge=ridge)
        coeffs, residuals, rss, betas, groups, blocks = reference_estimate_s(ts, p, ridge)
        assert_rel_close(est.coeffs.coeffs, coeffs)
        assert_rel_close(est.residuals, residuals)
        assert_rel_close(est.rss_full, rss)
        assert (est.coeffs.coeff(0).diagonal() == 0.0).all()
        for (i, j), block in blocks.items():
            first = int(i == j)  # an own group is lags 1..p
            assert_rel_close(est.coeffs.coeffs[first:, i, j], betas[i][groups[(i, j)]])
            assert_rel_close(est.gram_blocks[i, j, first:, first:], block)

    def test_duplicate_channel_still_rank_deficient(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal((500, 1))
        ts = TimeSeries(data=np.hstack([y, y, y]), m=1, l=2)
        with pytest.raises(RankDeficientDesign):
            reference_estimate_s(ts, 2, 0.0)
        with pytest.raises(RankDeficientDesign):
            estimate_s(ts, order=2)
        assert estimate_s(ts, order=2, ridge=1e-6).coeffs.rows == 2

    def test_negative_ridge_refused_before_factoring(self):
        # a NaN makes the SVD itself fail, so only a check made before it
        # can report the bad ridge
        data = correlated_series(1, 3).y_l.copy()
        data[5, 1] = np.nan
        ts = TimeSeries(data=data, m=1, l=2)
        for fit in (estimate_h, estimate_s):
            with pytest.raises(ValueError, match="ridge"):
                fit(ts, order=2, ridge=-1.0)


def reference_design(y, channels, lags, intercept):
    """The lagged design as a per-(channel, lag) double loop."""
    T = y.shape[0]
    width, last = len(lags), lags[-1]
    X = np.empty((T - last, len(channels) * width + intercept))
    for a, j in enumerate(channels):
        for b, k in enumerate(lags):
            X[:, a * width + b] = y[last - k : T - k, j]
    if intercept:
        X[:, -1] = 1.0
    return X


class TestLaggedDesign:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 6),
        first=st.integers(0, 1),
        last=st.integers(1, 8),
        intercept=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_double_loop(self, n, first, last, intercept, seed, data):
        channels = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        y = np.random.default_rng(seed).standard_normal((25, n))
        lags = range(first, last + 1)
        X = lagged_design(y[:, channels], lags, intercept)
        assert X.flags.c_contiguous
        assert np.array_equal(X, reference_design(y, channels, lags, intercept))


def assert_same_estimate(got, want):
    for field in ("coeffs", "residuals", "rss_full", "gram_blocks", "n_regressors"):
        a, b = getattr(got, field), getattr(want, field)
        a, b = (a.coeffs, b.coeffs) if field == "coeffs" else (a, b)
        assert np.array_equal(a, b), field


class TestEstimateFilters:
    def test_one_svd_feeds_both_filters(self, monkeypatch):
        ts = simulate(random_model(small_config(seed=2)), num_samples=500, seed=8)
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a) or svd(*a, **k))
        h_est, s_est = estimate_filters(ts, order=3)
        assert len(calls) == 1
        assert (h_est.target_block, s_est.target_block) == (M_BLOCK, L_BLOCK)
        assert_same_estimate(h_est, estimate_h(ts, order=3))
        assert_same_estimate(s_est, estimate_s(ts, order=3))

    def test_no_deterministic_block_gives_no_h(self):
        ts = correlated_series(4, 3)
        h_est, s_est = estimate_filters(ts, order=2, ridge=0.5)
        assert h_est is None
        assert_same_estimate(s_est, estimate_s(ts, order=2, ridge=0.5))
        with pytest.raises(ValueError, match="no deterministic block"):
            estimate_h(ts, order=2)

    def test_one_sample_budget_for_both_fits(self):
        # with a deterministic block the one budget is h's l*(p+1) = 6
        # regressors at p = 2, so s refuses at T - p = 7; without one, s's
        # own 5 regressors fit there
        y = np.random.default_rng(5).standard_normal((10, 3))
        for fit in (estimate_h, estimate_s):
            with pytest.raises(InsufficientData, match="9 samples cannot support order 2 with 6 regressors"):
                fit(TimeSeries(data=y[:9], m=1, l=2), order=2)
            assert fit(TimeSeries(data=y, m=1, l=2), order=2).num_used_samples == 8
        assert estimate_s(TimeSeries(data=y[:9, 1:], m=0, l=2), order=2).num_used_samples == 7
        with pytest.raises(InsufficientData, match="with 5 regressors"):
            estimate_s(TimeSeries(data=y[:8, 1:], m=0, l=2), order=2)
