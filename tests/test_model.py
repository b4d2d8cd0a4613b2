"""Model validation, graph extraction, random generation, reduced form."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import small_config, twelve_node_config
from lrdnet.cli import default_experiment_config, derive_seed
from lrdnet.errors import GenerationFailed, InvalidModel
from lrdnet.model import (
    DirectedGraph,
    GeneratorConfig,
    LrdnModel,
    model_hash,
    random_model,
    random_models,
    reduced_form,
    require_valid,
    true_graph,
    validate,
)
from lrdnet.polymat import (
    DEFAULT_COND_BOUND,
    DEFAULT_DECAY_TOL,
    DEFAULT_HORIZON,
    PolynomialMatrix,
    stability_certificates,
    truncated_inverse,
)


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


# -- lock-step generation against the one-model-at-a-time draw loop ----------


def reference_certificate(a, horizon=DEFAULT_HORIZON, cond_bound=DEFAULT_COND_BOUND):
    """cond(A_0) and the decay tail of one filter, computed alone: the 2-D
    companion matrix, its matrix power and the Frobenius norm of Q_horizon."""
    a = PolynomialMatrix(a).normalized()
    n, d = a.rows, a.degree
    cond = float(np.linalg.cond(a.coeff(0)))
    if not (np.isfinite(cond) and cond <= cond_bound):
        return cond, np.inf
    if d == 0:
        return cond, 0.0
    a0_inv = np.linalg.inv(a.coeff(0))
    c = np.eye(n * d, k=-n)
    c[:n] = -a0_inv @ a.coeffs[1:].transpose(1, 0, 2).reshape(n, n * d)
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.linalg.matrix_power(c, horizon)[:n, :n] @ a0_inv
        return cond, float(np.linalg.norm(q))


def reference_draw(config, horizon=DEFAULT_HORIZON, decay_tol=DEFAULT_DECAY_TOL):
    """The scalar draw loop one config at a time: rng.integers, rng.uniform
    and rng.random per entry, each candidate checked on its own. Returns
    (model or GenerationFailed, number of candidates drawn)."""
    rng = np.random.default_rng(config.rng_seed)
    m, l = config.m, config.l
    allowed_ml = np.ones((m, l), dtype=bool)
    allowed_l = np.ones((l, l), dtype=bool)
    for ch in config.pure_noise:
        allowed_l[ch - 1, :] = False
    if config.degree_l == 0:
        np.fill_diagonal(allowed_l, False)
        if not config.lag0_offdiag:
            allowed_l[:] = False

    def support(spec, allowed):
        if isinstance(spec, (int, np.integer)):
            mask = np.zeros(allowed.shape, dtype=bool)
            mask.ravel()[rng.choice(np.flatnonzero(allowed.ravel()), size=int(spec), replace=False)] = True
            return mask
        return np.asarray(spec, dtype=bool)

    mask_ml, mask_l = support(config.support_ml, allowed_ml), support(config.support_l, allowed_l)
    floor_l = np.full((l, l), 0 if config.lag0_offdiag else 1)
    np.fill_diagonal(floor_l, 1)
    sigma = np.ones(l) if config.sigma_l is None else np.asarray(config.sigma_l, dtype=float)

    def fill(mask, degree, floor):
        coeffs = np.zeros((degree + 1, *mask.shape))
        for i in range(mask.shape[0]):
            for j in range(mask.shape[1]):
                if mask[i, j]:
                    lag = int(rng.integers(floor[i, j], degree + 1))
                    mag = rng.uniform(config.coeff_min, config.coeff_max)
                    coeffs[lag, i, j] = mag if rng.random() < 0.5 else -mag
        return coeffs

    for draw in range(1, config.max_rejections + 2):
        g_ml = fill(mask_ml, config.degree_ml, np.zeros((m, l), dtype=int))
        g_l = fill(mask_l, config.degree_l, floor_l)
        lead = np.zeros(g_l.shape)
        lead[0] = np.eye(l)
        _, tail = reference_certificate(lead - g_l, horizon)
        if not np.diag(g_l[0]).any() and tail <= decay_tol and sigma.min() > 0:
            return LrdnModel(m=m, l=l, g_ml=PolynomialMatrix(g_ml), g_l=PolynomialMatrix(g_l), sigma_l=sigma), draw
    return GenerationFailed(
        f"no stable model found in {config.max_rejections + 1} draws; "
        "the support/magnitude combination rarely yields stable dynamics"
    ), config.max_rejections + 1


def assert_same_slot(got, expected):
    if isinstance(expected, GenerationFailed):
        assert type(got) is GenerationFailed and str(got) == str(expected)
        return
    assert isinstance(got, LrdnModel)
    for a, b in ((got.g_ml, expected.g_ml), (got.g_l, expected.g_l)):
        assert a.degree == b.degree
        assert np.array_equal(a.coeffs, b.coeffs)
    assert np.array_equal(got.sigma_l, expected.sigma_l)


MC12 = default_experiment_config()["generator"]
WIDE72 = {**MC12, "m": 48, "l": 24, "support_ml": 108, "support_l": 36}


@st.composite
def generator_configs(draw):
    """A mix of the generator's paths: the benchmark defaults, contemporaneous
    couplings, a degree-0 g_l, pure-noise channels, given noise variances
    and mask supports; the draw budget is the config's own or 0-3."""
    kind = draw(st.sampled_from(["defaults", "lag0_offdiag", "degree_l0", "pure_noise", "sigma_l", "masks"]))
    seed = draw(st.integers(0, 2**64 - 1))
    if kind == "defaults":
        d = dict(MC12)
    else:
        m, l = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        d = dict(
            m=m,
            l=l,
            degree_ml=draw(st.integers(0, 2)),
            degree_l=draw(st.integers(1, 3)),
            support_ml=draw(st.integers(0, m * l)),
            support_l=draw(st.integers(0, l * l)),
            coeff_min=0.3,
            coeff_max=draw(st.sampled_from([0.6, 0.9, 1.5])),
        )
        if kind == "lag0_offdiag":
            d["lag0_offdiag"] = True
        elif kind == "degree_l0":
            d["degree_l"] = 0
            d["lag0_offdiag"] = draw(st.booleans())
            d["support_l"] = draw(st.integers(0, l * (l - 1))) if d["lag0_offdiag"] else 0
        elif kind == "pure_noise":
            d["pure_noise"] = tuple(draw(st.sets(st.integers(1, l), max_size=l)))
            d["support_l"] = min(d["support_l"], l * (l - len(d["pure_noise"])))
        elif kind == "sigma_l":
            d["sigma_l"] = draw(st.lists(st.sampled_from([0.5, 2.0]), min_size=l, max_size=l))
        else:
            rng = np.random.default_rng(seed)
            d["support_ml"] = rng.random((m, l)) < 0.5
            d["support_l"] = rng.random((l, l)) < 0.5
    budget = draw(st.sampled_from([None, 0, 1, 2, 3]))
    if budget is not None:
        d["max_rejections"] = budget
    return GeneratorConfig.from_dict({**d, "rng_seed": seed})


@pytest.mark.one_thread
class TestLockstepGeneration:
    """random_models draws exactly what the scalar loop draws one config at a
    time, and the stacked check equals every filter checked alone."""

    @settings(max_examples=60, deadline=None)
    @given(configs=st.lists(generator_configs(), min_size=1, max_size=6))
    def test_random_models_match_scalar_draw_loop(self, configs):
        draws = []
        got = random_models(configs, draws=draws)
        expected = [reference_draw(c) for c in configs]
        assert len(got) == len(configs)
        for slot, (model, _) in zip(got, expected):
            assert_same_slot(slot, model)
        assert draws == [n for _, n in expected]

    def test_random_model_is_a_batch_of_one(self):
        cfg = twelve_node_config(seed=11)
        (slot,) = random_models([cfg])
        assert_same_slot(random_model(cfg), slot)
        failing = twelve_node_config(seed=1, max_rejections=0)
        (slot,) = random_models([failing])
        with pytest.raises(GenerationFailed, match=str(slot)):
            random_model(failing)

    def test_wide72_seed_exhausts_its_501_draws(self):
        cfg = GeneratorConfig.from_dict({**WIDE72, "max_rejections": 500, "rng_seed": 13620220313934906236})
        draws = []
        (slot,) = random_models([cfg], draws=draws)
        assert isinstance(slot, GenerationFailed)
        assert str(slot).startswith("no stable model found in 501 draws;")
        assert draws == [501]
        assert_same_slot(slot, reference_draw(cfg)[0])

    def test_default_budget_serves_a_wide72_seed_past_501_draws(self):
        # the fixed model of wide72 benchmark ops with master seed 1575808052
        cfg = GeneratorConfig.from_dict({**WIDE72, "rng_seed": derive_seed(1575808052, 0, 0)})
        draws = []
        (slot,) = random_models([cfg], draws=draws)
        assert isinstance(slot, LrdnModel)
        assert draws == [652]

    def test_unservable_config_raises_for_the_whole_call(self):
        with pytest.raises(ValueError, match="requested 20 edges but only 9 admissible cells"):
            random_models([small_config(seed=0), small_config(seed=1, support_l=20)])
        with pytest.raises(ValueError, match="sigma_l must have length 3"):
            random_models([small_config(seed=0, sigma_l=[1.0, 1.0])])

    @pytest.mark.parametrize("bound", [float("inf"), float("nan")])
    def test_nonfinite_coefficient_bounds_rejected(self, bound):
        with pytest.raises(ValueError, match="must be finite"):
            small_config(coeff_max=bound)

    @settings(max_examples=60, deadline=None)
    @given(
        shapes=st.lists(st.tuples(st.integers(1, 4), st.integers(0, 3), st.booleans()), min_size=1, max_size=8),
        scale=st.floats(0.05, 1.5),
        horizon=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_certificates_equal_one_at_a_time(self, shapes, scale, horizon, seed):
        # random filters of mixed sizes and degrees, some with a trailing zero
        # coefficient, so one batch spans several (n, degree) groups
        rng = np.random.default_rng(seed)
        filters = []
        for n, degree, trailing_zero in shapes:
            a = rng.uniform(-scale, scale, (degree + 1 + trailing_zero, n, n))
            a[0] += np.eye(n)
            if trailing_zero:
                a[-1] = 0.0
            filters.append(a)
        conds, tails = stability_certificates(filters, horizon)
        for a, cond, tail in zip(filters, conds, tails):
            np.testing.assert_array_equal([cond, tail], reference_certificate(a, horizon))
            np.testing.assert_array_equal([cond, tail], np.concatenate(stability_certificates([a], horizon)))

    def test_divergent_and_singular_candidates(self):
        divergent = np.array([[[1.0]], [[-3.0]]])
        singular = np.zeros((2, 2, 2))
        singular[0] = [[1.0, 1.0], [1.0, 1.0]]
        singular[1] = np.eye(2)
        ill = np.zeros((2, 2, 2))
        ill[0] = [[1.0, 1.0], [1.0, 1.0 + 1e-14]]
        ill[1] = 0.1 * np.eye(2)
        stable = np.array([[[1.0]], [[-0.9]]])
        stable2 = np.stack([np.eye(2), [[-0.95, 0.1], [0.0, -0.95]]])
        # the 2x2 degree-1 filters share one group, the failing leads first
        filters = [divergent, singular, stable, ill, stable2, stable.copy()]
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            conds, tails = stability_certificates(filters, horizon=1000)
        assert not np.isfinite(tails[0])
        assert tails[1] == np.inf and tails[3] == np.inf
        assert conds[3] > DEFAULT_COND_BOUND
        assert tails[2] == tails[5] == pytest.approx(0.9**1000, rel=1e-12)
        assert 0 < tails[4] < DEFAULT_DECAY_TOL
        for a, cond, tail in zip(filters, conds, tails):
            np.testing.assert_array_equal([cond, tail], reference_certificate(a, 1000))
