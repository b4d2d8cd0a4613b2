"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n> <name>: PASS/FAIL` line (visible with
pytest -s or in failure output) and asserts the criterion, including its
runtime budget where one is stated.
"""

import time

import numpy as np
import pytest

from conftest import twelve_node_config
from lrdnet.cli import default_experiment_config, run_experiment
from lrdnet.model import GeneratorConfig, random_model, reduced_form
from lrdnet.sim import simulate
from lrdnet.spectral import h_closed_form, spectrum_of_model, uniform_thetas
from lrdnet.topology import inverse_factor_support_check, partition_select
from lrdnet.wiener import estimate_h, estimate_s, exact_filters, exact_s_via_factor, lagged_design


def _report(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {name}: {status} {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def varied_config(seed, m=2):
    """Random small-model family: l in 2..6, degrees <= 4, sparse supports."""
    meta = np.random.default_rng(seed)
    l = int(meta.integers(2, 7))
    degree_l = int(meta.integers(1, 5))
    degree_ml = int(meta.integers(0, 5))
    support_l = int(meta.integers(l, 2 * l + 1))
    support_ml = int(meta.integers(1, m * l + 1))
    return GeneratorConfig(
        m=m,
        l=l,
        degree_ml=degree_ml,
        degree_l=degree_l,
        support_ml=support_ml,
        support_l=min(support_l, l * l),
        coeff_min=0.3,
        coeff_max=0.6,
        max_rejections=500,
        rng_seed=seed,
    )


def pad_coeffs(pm, degree):
    out = np.zeros((degree + 1, pm.rows, pm.cols))
    out[: pm.degree + 1] = pm.coeffs
    return out


def test_criterion_01_closed_form_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        model = random_model(varied_config(seed))
        w = reduced_form(model, horizon=256).w_factor
        via_factor = exact_s_via_factor(w, horizon=256)
        direct = exact_filters(model).s
        degree = max(via_factor.degree, direct.degree)
        diff = np.abs(pad_coeffs(via_factor, degree) - pad_coeffs(direct, degree)).max()
        worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "closed-form oracle (factor route vs direct route)",
        worst < 1e-8 and elapsed < 10.0,
        f"max coeff error {worst:.2e} (tol 1e-8), {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_02_inverse_factor_support_equivalence():
    t0 = time.perf_counter()
    hits = sum(
        inverse_factor_support_check(random_model(varied_config(1000 + seed)), horizon=256, zero_tol=1e-9)
        for seed in range(100)
    )
    elapsed = time.perf_counter() - t0
    _report(
        2,
        "inverse-factor support equivalence",
        hits == 100 and elapsed < 10.0,
        f"{hits}/100 models, {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_03_strict_causality_structural():
    worst_exact = 0.0
    estimates_clean = True
    for seed in range(20):
        model = random_model(varied_config(2000 + seed))
        ef = exact_filters(model)
        worst_exact = max(worst_exact, np.abs(np.diag(ef.s.coeff(0))).max())
    for seed in range(5):
        model = random_model(varied_config(2100 + seed))
        ts = simulate(model, num_samples=1500, seed=seed)
        est = estimate_s(ts, order=4)
        diag = np.diag(est.coeffs.coeff(0))
        estimates_clean = estimates_clean and (diag == 0.0).all()
    _report(
        3,
        "strict causality of the projection filter diagonal",
        estimates_clean and worst_exact < 1e-12,
        f"estimates exactly zero: {estimates_clean}; exact filters max {worst_exact:.2e} (tol 1e-12)",
    )


def test_criterion_04_deterministic_relation_closed_form():
    t0 = time.perf_counter()
    thetas = uniform_thetas(64)
    worst = 0.0
    for seed in range(20):
        model = random_model(varied_config(3000 + seed))
        h_grid = h_closed_form(model, num_points=64)
        direct = model.g_ml.evaluate_grid(thetas)
        worst = max(worst, float(np.linalg.norm(h_grid - direct, axis=(1, 2)).max()))
    elapsed = time.perf_counter() - t0
    _report(
        4,
        "spectral closed form of the deterministic relation",
        worst < 1e-6 and elapsed < 10.0,
        f"max grid error {worst:.2e} (tol 1e-6), {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_05_spectral_rank_deficiency():
    worst_ratio = 0.0
    for seed in (0, 1, 2):
        model = random_model(twelve_node_config(seed=4000 + seed))
        sv = spectrum_of_model(model, num_points=64).singular_values()
        worst_ratio = max(worst_ratio, float((sv[:, 4] / sv[:, 0]).max()))
    _report(
        5,
        "spectral rank matches the innovation count",
        worst_ratio < 1e-6,
        f"max 5th-singular-value ratio {worst_ratio:.2e} (tol 1e-6) over 64-point grids",
    )


def test_criterion_06_estimation_consistency():
    t0 = time.perf_counter()
    cfg = GeneratorConfig(
        m=2,
        l=3,
        degree_ml=2,
        degree_l=4,
        support_ml=4,
        support_l=5,
        coeff_min=0.4,
        coeff_max=0.7,
        max_rejections=500,
        rng_seed=60,
    )
    model = random_model(cfg)
    exact = exact_filters(model).s
    medians = []
    for T in (2000, 8000, 32_000):
        ts = simulate(model, num_samples=T, seed=61)
        est = estimate_s(ts, order=4)
        diff = np.abs(est.coeffs.coeffs - pad_coeffs(exact, 4))
        medians.append(float(np.median(diff)))
    elapsed = time.perf_counter() - t0
    monotone = medians[0] > medians[1] > medians[2]
    _report(
        6,
        "estimation consistency in sample size",
        monotone and medians[2] < 0.03 and elapsed < 60.0,
        f"median errors {[f'{m:.4f}' for m in medians]} (final tol 0.03), {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_07_benchmark_reproduction(tmp_path):
    t0 = time.perf_counter()
    cfg = default_experiment_config()
    cfg["outputs"] = str(tmp_path)
    aggregate = run_experiment(cfg, tmp_path)
    elapsed = time.perf_counter() - t0
    ok = (
        aggregate["failures"] == 0
        and aggregate["exact_match_rate"] >= 0.90
        and aggregate["mean_precision"] >= 0.97
        and aggregate["mean_recall"] >= 0.97
        and elapsed < 60.0
    )
    _report(
        7,
        "benchmark topology recovery at 200 samples",
        ok,
        f"exact={aggregate['exact_match_rate']:.2f} (>=0.90) "
        f"precision={aggregate['mean_precision']:.3f} recall={aggregate['mean_recall']:.3f} "
        f"(>=0.97), {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_08_test_size_under_null():
    t0 = time.perf_counter()
    from lrdnet.topology import edge_test

    rejects = 0
    trials = 200
    for trial in range(trials):
        cfg = GeneratorConfig(
            m=1,
            l=2,
            degree_ml=1,
            degree_l=2,
            support_ml=np.array([[True, True]]),
            support_l=np.array([[True, False], [True, True]]),  # no edge 2 -> 1
            coeff_min=0.4,
            coeff_max=0.7,
            max_rejections=300,
            rng_seed=trial,
        )
        model = random_model(cfg)
        ts = simulate(model, num_samples=500, seed=5000 + trial)
        s_est = estimate_s(ts, order=4)
        rejects += int(edge_test(s_est, target=2, source=3, alpha=0.05).decision)
    rate = rejects / trials
    elapsed = time.perf_counter() - t0
    _report(
        8,
        "group-test size under the null",
        0.02 <= rate <= 0.09 and elapsed < 120.0,
        f"rejection rate {rate:.3f} (band [0.02, 0.09]) over {trials} trials, "
        f"{elapsed:.1f}s (budget 120s)",
    )


def test_criterion_09_deterministic_relation_in_samples():
    worst = 0.0
    for seed in range(20):
        model = random_model(varied_config(7000 + seed))
        ts = simulate(model, num_samples=2000, seed=seed)
        est = estimate_h(ts, order=model.g_ml.degree)
        worst = max(worst, float(np.sqrt(np.mean(est.residuals**2))))
    _report(
        9,
        "deterministic relation holds samplewise",
        worst < 1e-8,
        f"max residual RMS {worst:.2e} (tol 1e-8) over 20 seeds at T=2000",
    )


@pytest.mark.one_thread
def test_criterion_10_partition_recovery():
    hits = 0
    trials = 40
    for trial in range(trials):
        model = random_model(twelve_node_config(seed=3000 + trial))
        ts = simulate(model, num_samples=2000, seed=4000 + trial)
        try:
            part = partition_select(ts.data, max_lag=8, rank_tol=1e-4)
        except Exception:
            continue
        if len(part.l_indices) != 4:
            continue
        sel = [i - 1 for i in part.l_indices]
        rest = [i - 1 for i in part.m_indices]
        X = lagged_design(ts.data[:, sel], range(9), intercept=True)
        targets = ts.data[8:, rest]
        beta, *_ = np.linalg.lstsq(X, targets, rcond=None)
        rms = float(np.sqrt(np.mean((targets - X @ beta) ** 2)))
        hits += int(rms < 1e-6)
    rate = hits / trials
    _report(
        10,
        "full-rank block recovery from raw channels",
        rate >= 0.95,
        f"size-4 with exact relation in {hits}/{trials} seeds (need >= 95%)",
    )


def test_criterion_11_byte_identical_reruns(tmp_path):
    cfg = default_experiment_config()
    cfg["trials"] = 3
    cfg["master_seed"] = 17
    trees = []
    for name in ("a", "b"):
        out = tmp_path / name
        out.mkdir()
        run_experiment(dict(cfg, outputs=str(out)), out)
        trees.append(out)
    mismatched = []
    names_a = sorted(p.name for p in trees[0].iterdir())
    names_b = sorted(p.name for p in trees[1].iterdir())
    same_tree = names_a == names_b
    for name in names_a:
        if name == "run_info.json":  # wall-clock record, documented volatile
            continue
        if (trees[0] / name).read_bytes() != (trees[1] / name).read_bytes():
            mismatched.append(name)
    _report(
        11,
        "deterministic result trees per master seed",
        same_tree and not mismatched,
        f"files {names_a}, mismatches {mismatched}",
    )
