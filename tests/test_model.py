"""Model validation, graph extraction, random generation, reduced form."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import small_config, twelve_node_config
from lrdnet.errors import GenerationFailed, InvalidModel
from lrdnet.model import (
    DirectedGraph,
    GeneratorConfig,
    LrdnModel,
    model_hash,
    random_model,
    reduced_form,
    require_valid,
    true_graph,
    validate,
)
from lrdnet.polymat import DEFAULT_DECAY_TOL, PolynomialMatrix, truncated_inverse


def ar1_model(a=0.5, m=1, h=0.7):
    """One deterministic channel reading a scalar AR(1) channel."""
    g_l = PolynomialMatrix(np.array([[[0.0]], [[a]]]))
    g_ml = PolynomialMatrix(np.full((1, m, 1), h))
    return LrdnModel(m=m, l=1, g_ml=g_ml, g_l=g_l, sigma_l=np.ones(1))


class TestValidate:
    def test_white_noise_block_passes(self):
        model = LrdnModel(
            m=2,
            l=2,
            g_ml=PolynomialMatrix(np.ones((1, 2, 2))),
            g_l=PolynomialMatrix.zeros(2, 2),
            sigma_l=np.ones(2),
        )
        report = validate(model)
        assert report.ok
        assert "pass" in report.summary()

    def test_nonzero_lag0_diagonal_fails(self):
        g_l = PolynomialMatrix(np.array([[[0.3, 0.0], [0.0, 0.0]]]))
        model = LrdnModel(
            m=1, l=2, g_ml=PolynomialMatrix.zeros(1, 2), g_l=g_l, sigma_l=np.ones(2)
        )
        report = validate(model)
        assert not report.ok
        failed = {c.name for c in report.checks if not c.passed}
        assert "strictly_causal_diagonal" in failed

    def test_unstable_scalar_fails_decay(self):
        model = ar1_model(a=1.1)
        report = validate(model)
        failed = {c.name for c in report.checks if not c.passed}
        assert failed == {"inverse_decay_tail"}

    def test_divergent_candidate_fails_decay_quietly(self):
        with np.errstate(all="raise"):
            report = validate(ar1_model(a=3.0), horizon=1000)
        (tail,) = [c for c in report.checks if c.name == "inverse_decay_tail"]
        assert not tail.passed
        assert not np.isfinite(tail.value)

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(ValueError):
            validate(ar1_model(a=0.5), horizon=0)

    def test_nonpositive_sigma_fails(self):
        model = LrdnModel(
            m=1,
            l=1,
            g_ml=PolynomialMatrix.zeros(1, 1),
            g_l=PolynomialMatrix.zeros(1, 1),
            sigma_l=np.zeros(1),
        )
        assert not validate(model).ok
        with pytest.raises(InvalidModel):
            require_valid(model)


class TestCompanionTail:
    """The decay check equals the last coefficient of the truncated inverse."""

    @settings(max_examples=150, deadline=None)
    @given(
        l=st.integers(1, 4),
        degree=st.integers(0, 3),
        scale=st.floats(0.05, 2.0),
        lag0_offdiag=st.booleans(),
        horizon=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_truncated_inverse(self, l, degree, scale, lag0_offdiag, horizon, seed):
        rng = np.random.default_rng(seed)
        g = rng.uniform(-scale, scale, (degree + 1, l, l))
        g[0] *= 0.5 if lag0_offdiag else 0.0
        np.fill_diagonal(g[0], 0.0)
        model = LrdnModel(
            m=1, l=l, g_ml=PolynomialMatrix.zeros(1, l), g_l=PolynomialMatrix(g), sigma_l=np.ones(l)
        )
        checks = {c.name: c for c in validate(model, horizon=horizon).checks}
        assume(checks["leading_coefficient_condition"].passed)
        tail = checks["inverse_decay_tail"]
        with np.errstate(all="ignore"):
            ref = truncated_inverse(PolynomialMatrix.identity(l) - model.g_l, horizon, decay_tol=np.inf)
            expected = float(np.linalg.norm(ref.coeffs[-1]))
        assert tail.passed == (expected <= DEFAULT_DECAY_TOL)
        if np.isfinite(expected) and np.isfinite(tail.value):
            assert abs(tail.value - expected) <= 1e-9 * expected
        else:
            assert not tail.passed
        if degree == 0:
            assert tail.value == 0.0


class TestDirectedGraph:
    def test_target_outside_block_rejected(self):
        with pytest.raises(ValueError):
            DirectedGraph(num_nodes=3, m=1, edges=frozenset({(2, 1)}))

    def test_round_trip(self):
        g = DirectedGraph(num_nodes=3, m=1, edges=frozenset({(1, 2), (3, 3)}))
        assert DirectedGraph.from_dict(g.to_dict()) == g

    def test_dot_marks_full_rank_nodes_and_edges(self):
        g = DirectedGraph(num_nodes=3, m=1, edges=frozenset({(1, 3)}))
        dot = g.to_dot()
        assert "n2 [fillcolor=steelblue];" in dot
        assert "n3 -> n1;" in dot


class TestTrueGraph:
    def test_empty(self):
        model = LrdnModel(
            m=1,
            l=1,
            g_ml=PolynomialMatrix.zeros(1, 1),
            g_l=PolynomialMatrix.zeros(1, 1),
            sigma_l=np.ones(1),
        )
        assert true_graph(model).edges == frozenset()

    def test_single_self_loop(self):
        coeffs = np.zeros((2, 2, 2))
        coeffs[1, 1, 1] = 0.4
        model = LrdnModel(
            m=1,
            l=2,
            g_ml=PolynomialMatrix.zeros(1, 2),
            g_l=PolynomialMatrix(coeffs),
            sigma_l=np.ones(2),
        )
        assert true_graph(model).edges == frozenset({(3, 3)})

    def test_benchmark_shape_has_25_edges(self):
        model = random_model(twelve_node_config(seed=11))
        graph = true_graph(model)
        assert graph.num_nodes == 12
        assert len(graph.edges) == 25


class TestRandomModel:
    def test_deterministic_in_seed(self):
        cfg = small_config(seed=42)
        a = random_model(cfg)
        b = random_model(cfg)
        assert a.g_ml.allclose(b.g_ml, atol=0.0)
        assert a.g_l.allclose(b.g_l, atol=0.0)

    def test_honors_support_masks_exactly(self):
        rng = np.random.default_rng(5)
        for seed in range(8):
            mask_ml = rng.random((2, 3)) < 0.5
            mask_l = rng.random((3, 3)) < 0.4
            np.fill_diagonal(mask_l, rng.random(3) < 0.5)
            cfg = GeneratorConfig(
                m=2,
                l=3,
                degree_ml=2,
                degree_l=3,
                support_ml=mask_ml,
                support_l=mask_l,
                coeff_min=0.3,
                coeff_max=0.6,
                rng_seed=seed,
            )
            model = random_model(cfg)
            assert np.array_equal(model.g_ml.support(), mask_ml)
            assert np.array_equal(model.g_l.support(), mask_l)

    def test_edge_counts_honored(self):
        cfg = small_config(seed=9)
        model = random_model(cfg)
        assert int(model.g_ml.support().sum()) == 3
        assert int(model.g_l.support().sum()) == 4

    def test_white_noise_block_with_full_ml(self):
        cfg = GeneratorConfig(
            m=2,
            l=2,
            degree_ml=1,
            degree_l=1,
            support_ml=np.ones((2, 2), dtype=bool),
            support_l=np.zeros((2, 2), dtype=bool),
            rng_seed=0,
        )
        model = random_model(cfg)
        assert validate(model).ok
        assert not model.g_l.support().any()

    def test_scalar_self_loop_stable_by_construction(self):
        cfg = GeneratorConfig(
            m=1,
            l=1,
            degree_ml=0,
            degree_l=1,
            support_ml=1,
            support_l=np.ones((1, 1), dtype=bool),
            coeff_min=0.3,
            coeff_max=0.6,
            rng_seed=2,
        )
        model = random_model(cfg)
        a = model.g_l.coeff(1)[0, 0]
        assert 0.3 <= abs(a) <= 0.6
        assert validate(model).ok

    def test_pure_noise_rows_stay_empty(self):
        cfg = twelve_node_config(seed=3)
        model = random_model(cfg)
        assert not model.g_l.support()[3, :].any()

    def test_lag0_offdiag_flag(self):
        # with contemporaneous couplings enabled, lag-0 off-diagonal entries
        # may appear while the diagonal stays strictly causal
        cfg = GeneratorConfig(
            m=1,
            l=3,
            degree_ml=1,
            degree_l=2,
            support_ml=2,
            support_l=np.array([[True, True, False], [False, True, False], [False, False, True]]),
            lag0_offdiag=True,
            rng_seed=6,
        )
        seen_lag0 = False
        for seed in range(12):
            cfg.rng_seed = seed
            model = random_model(cfg)
            assert validate(model).ok
            assert not np.diag(model.g_l.coeff(0)).any()
            seen_lag0 = seen_lag0 or model.g_l.coeff(0).any()
        assert seen_lag0

    def test_empty_supports_give_empty_graph(self):
        cfg = GeneratorConfig(
            m=2, l=2, degree_ml=1, degree_l=1, support_ml=0, support_l=0, rng_seed=0
        )
        model = random_model(cfg)
        assert true_graph(model).edges == frozenset()
        assert validate(model).ok

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_generation_failed_on_wild_coefficients(self):
        cfg = GeneratorConfig(
            m=1,
            l=3,
            degree_ml=1,
            degree_l=2,
            support_ml=3,
            support_l=np.ones((3, 3), dtype=bool) ^ np.eye(3, dtype=bool) | np.eye(3, dtype=bool),
            coeff_min=2.0,
            coeff_max=3.0,
            max_rejections=20,
            rng_seed=0,
        )
        with pytest.raises(GenerationFailed):
            random_model(cfg)


class TestReducedForm:
    def test_white_noise_block_gives_identity_factor(self):
        model = LrdnModel(
            m=1,
            l=2,
            g_ml=PolynomialMatrix(np.ones((1, 1, 2))),
            g_l=PolynomialMatrix.zeros(2, 2),
            sigma_l=np.ones(2),
        )
        rf = reduced_form(model, horizon=16)
        assert np.allclose(rf.w_factor.coeff(0), np.eye(2))
        assert not rf.w_factor.coeffs[1:].any()
        assert np.allclose(rf.full_transfer.coeff(0)[:1], model.g_ml.coeff(0))
        assert np.allclose(rf.full_transfer.coeff(0)[1:], np.eye(2))

    def test_scalar_ar1_impulse_response(self):
        model = ar1_model(a=0.5)
        rf = reduced_form(model, horizon=32)
        ks = np.arange(33)
        assert np.allclose(rf.w_factor.coeffs[:, 0, 0], 0.5**ks)

    def test_inverse_residual_small(self):
        for seed in range(5):
            model = random_model(small_config(seed=seed))
            rf = reduced_form(model)
            i_minus_gl = PolynomialMatrix.identity(model.l) - model.g_l
            prod = i_minus_gl @ rf.w_factor
            upto = rf.w_factor.degree - model.g_l.degree + 1
            target = np.zeros((upto, model.l, model.l))
            target[0] = np.eye(model.l)
            assert np.allclose(prod.coeffs[:upto], target, atol=1e-10)

    def test_leading_coefficient_identity(self):
        for seed in range(5):
            model = random_model(small_config(seed=seed))
            rf = reduced_form(model)
            expected = np.linalg.inv(np.eye(model.l) - model.g_l.coeff(0))
            assert np.allclose(rf.w_factor.coeff(0), expected)


def test_model_json_round_trip(small_model):
    d = small_model.to_dict()
    back = LrdnModel.from_dict(d)
    assert back.g_ml.allclose(small_model.g_ml, atol=0.0)
    assert back.g_l.allclose(small_model.g_l, atol=0.0)
    assert np.array_equal(back.sigma_l, small_model.sigma_l)
    assert model_hash(back) == model_hash(small_model)
