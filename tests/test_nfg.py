import numpy as np
import pytest

from nfgopt._kernels import Workspace
from nfgopt.environment import ScoreConfig, narrow_passage_v1, penetration_profile
from nfgopt.errors import ConfigError, DegenerateBatchError, NonFiniteStepError
from nfgopt.nfg import NfgConfig, _norm, batch_weights, estimate_direction, optimize, optimize_objective
from nfgopt.sampling import PerturbationSampler, SEKernel, factorize, kernel_matrix
from nfgopt.trajectory import TimeGrid, Trajectory

GRID5 = TimeGrid(0.05, 100.0)


def factor_for(grid, variance=0.3, length_scale=0.05, reg_scale=1e-6):
    K = kernel_matrix(grid, SEKernel(variance, length_scale))
    return factorize(K, reg_scale * variance)


class TestNfgConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sigma": 0.0},
            {"sigma": -1.0},
            {"sigma": 1.0, "n_pow": 0.0},
            {"sigma": 1.0, "batch": 0},
            {"sigma": 1.0, "iterations": 0},
            {"sigma": 1.0, "weight_mode": "softmax"},
            {"sigma": 1.0, "step_size": -0.1},
            {"sigma": 1.0, "step_size": 0.0},
            {"sigma": 1.0, "step_size": float("inf")},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            NfgConfig(**kwargs)



class TestBatchWeights:
    def test_shifted_max_is_one(self):
        w = batch_weights(np.array([-2.0, 0.5, -0.1]), 100.0, "shifted")
        assert w[1] == 1.0
        assert w[0] < w[2] < 1.0

    def test_raw_matches_formula_in_range(self):
        scores = np.array([-3.0, 0.0, 1.0])
        w = batch_weights(scores, 2.0, "raw")
        np.testing.assert_allclose(w, np.exp(2.0 * scores), rtol=1e-15)

    def test_raw_clamps_large_exponents(self):
        w = batch_weights(np.array([10.0, -10.0]), 100.0, "raw")
        assert w[0] == np.exp(700.0)
        assert w[1] == np.exp(-700.0) > 0.0

    def test_neg_inf_gets_zero_weight(self):
        w = batch_weights(np.array([-np.inf, 0.0, -1.0]), 100.0, "shifted")
        assert w[0] == 0.0
        assert w[1] == 1.0 and w[2] > 0.0

    @pytest.mark.parametrize("mode", ["raw", "shifted"])
    def test_all_neg_inf_degenerate(self, mode):
        with pytest.raises(DegenerateBatchError):
            batch_weights(np.full(4, -np.inf), 100.0, mode)

    @pytest.mark.parametrize("mode", ["raw", "shifted"])
    def test_argmax_preserved(self, mode):
        rng = np.random.default_rng(20)
        for _ in range(10):
            scores = rng.uniform(-5.0, 1.0, size=32)
            w = batch_weights(scores, 100.0, mode)
            assert int(np.argmax(w)) == int(np.argmax(scores))

    def test_shifted_proportional_to_raw(self):
        scores = np.array([-1.0, -0.4, 0.2, 0.1])
        raw = batch_weights(scores, 3.0, "raw")
        shifted = batch_weights(scores, 3.0, "shifted")
        np.testing.assert_allclose(shifted, raw * np.exp(-3.0 * scores.max()), rtol=1e-12)


class TestEstimateDirection:
    def test_matches_manual_formula(self):
        factor = factor_for(GRID5)
        cfg = NfgConfig(sigma=0.5, n_pow=2.0, batch=16)
        sampler = PerturbationSampler(factor, seed=3)
        mu = np.zeros(5)

        def objective(batch_values):
            return batch_values.sum(axis=1)

        direction, stats = estimate_direction(mu, objective, sampler, cfg, 0)
        eps = 0.5 * PerturbationSampler(factor, seed=3).sample(16, 0)
        scores = eps.sum(axis=1)
        weights = np.exp(2.0 * (scores - scores.max()))
        expected = (weights @ eps) / (16 * 0.25)
        np.testing.assert_array_equal(direction, expected)
        assert stats["best_score"] == scores.max()
        assert stats["mean_weight"] == pytest.approx(weights.mean(), rel=1e-15)

    def test_direction_in_perturbation_span(self):
        # fewer samples than dimensions: the estimate must stay in their span
        factor = factor_for(TimeGrid(0.08, 100.0))
        cfg = NfgConfig(sigma=1.0, n_pow=5.0, batch=3)
        sampler = PerturbationSampler(factor, seed=4)
        direction, _ = estimate_direction(
            np.zeros(8), lambda v: -np.abs(v).sum(axis=1), sampler, cfg, 0
        )
        eps = PerturbationSampler(factor, seed=4).sample(3, 0)
        coeffs, residual, _, _ = np.linalg.lstsq(eps.T, direction, rcond=None)
        recon = eps.T @ coeffs
        np.testing.assert_allclose(recon, direction, atol=1e-12)

    def test_raw_and_shifted_collinear(self):
        factor = factor_for(GRID5)
        sampler = PerturbationSampler(factor, seed=7)

        def objective(batch_values):
            return batch_values.mean(axis=1)

        d_raw, _ = estimate_direction(
            np.zeros(5), objective, sampler, NfgConfig(sigma=0.5, n_pow=2.0, batch=32, weight_mode="raw"), 0
        )
        d_shift, _ = estimate_direction(
            np.zeros(5), objective, sampler, NfgConfig(sigma=0.5, n_pow=2.0, batch=32, weight_mode="shifted"), 0
        )
        cos = d_raw @ d_shift / (np.linalg.norm(d_raw) * np.linalg.norm(d_shift))
        assert cos == pytest.approx(1.0, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        factor = factor_for(GRID5)
        sampler = PerturbationSampler(factor, seed=1)
        with pytest.raises(ConfigError, match="covariance factor"):
            estimate_direction(np.zeros(7), lambda v: v.sum(axis=1), sampler, NfgConfig(sigma=1.0), 0)

    def test_bad_objective_shape_rejected(self):
        factor = factor_for(GRID5)
        sampler = PerturbationSampler(factor, seed=1)
        with pytest.raises(ValueError, match="objective returned"):
            estimate_direction(np.zeros(5), lambda v: v[:, 0:2], sampler, NfgConfig(sigma=1.0, batch=8), 0)

    def test_linear_objective_moment(self):
        # closed form for a linear score under Gaussian smoothing:
        # E[direction] = n * exp(n a.mu + n^2 s^2 a.K a / 2) * K a
        factor = factor_for(GRID5)
        K = factor @ factor.T
        a = np.array([0.8, -0.4, 1.2, 0.0, 0.6])
        n_pow, sigma = 2.0, 0.5
        mu = np.array([0.1, 0.0, -0.2, 0.3, 0.0])
        cfg = NfgConfig(sigma=sigma, n_pow=n_pow, batch=200_000, weight_mode="raw")
        sampler = PerturbationSampler(factor, seed=21)
        direction, _ = estimate_direction(mu, lambda v: v @ a, sampler, cfg, 0)
        growth = np.exp(n_pow * (a @ mu) + 0.5 * n_pow**2 * sigma**2 * (a @ K @ a))
        expected = n_pow * growth * (K @ a)
        err = np.linalg.norm(direction - expected) / np.linalg.norm(expected)
        assert err < 0.05


class TestOptimizeObjective:
    def linear_setup(self, batch=16, iterations=5, **kwargs):
        factor = factor_for(GRID5)
        cfg = NfgConfig(sigma=0.5, n_pow=2.0, batch=batch, iterations=iterations, **kwargs)
        sampler = PerturbationSampler(factor, seed=11)
        return factor, cfg, sampler

    def test_deterministic(self):
        _, cfg, sampler = self.linear_setup()
        objective = lambda v: v.sum(axis=1)
        out1, tr1 = optimize_objective(np.zeros(5), objective, sampler, cfg)
        out2, tr2 = optimize_objective(np.zeros(5), objective, sampler, cfg)
        np.testing.assert_array_equal(out1, out2)
        assert [t.best_score for t in tr1] == [t.best_score for t in tr2]
        assert [t.estimator_norm for t in tr1] == [t.estimator_norm for t in tr2]

    def test_workspace_gives_the_same_run_and_its_candidates_to_the_objective(self):
        factor, cfg, sampler = self.linear_setup()
        batches = {"fresh": [], "work": []}

        def keeping(name):
            def objective(v):
                batches[name].append((v, v.copy()))
                return np.sin(v).sum(axis=1)

            return objective

        work = Workspace(cfg.batch, 5, factor.shape[1])
        fresh, fresh_traces = optimize_objective(np.zeros(5), keeping("fresh"), sampler, cfg)
        reused, traces = optimize_objective(np.zeros(5), keeping("work"), sampler, cfg, work=work)
        assert reused.tobytes() == fresh.tobytes()
        columns = lambda t: (t.iteration, t.best_score, t.mean_weight, t.estimator_norm, t.feasible)
        assert [columns(t) for t in traces] == [columns(t) for t in fresh_traces]
        # without a workspace each batch is a new array, which the objective
        # may keep; with one every batch is work.candidates
        assert len({id(v) for v, _ in batches["fresh"]}) == cfg.iterations
        assert all(np.array_equal(v, scored) for v, scored in batches["fresh"])
        assert all(v is work.candidates for v, _ in batches["work"])
        assert [a.tobytes() for _, a in batches["work"]] == [a.tobytes() for _, a in batches["fresh"]]

    def test_step_is_step_size_along_the_unit_direction(self):
        _, cfg, sampler = self.linear_setup(iterations=1, step_size=0.25)
        objective = lambda v: v.sum(axis=1)
        out, _ = optimize_objective(np.zeros(5), objective, sampler, cfg)
        direction, _ = estimate_direction(np.zeros(5), objective, sampler, cfg, 0)
        expected = 0.25 * (direction / (_norm(direction) + 1e-12))
        np.testing.assert_array_equal(out[1:], expected[1:])
        assert out[0] == 0.0

    def test_improves_linear_objective(self):
        _, cfg, sampler = self.linear_setup(iterations=20)
        objective = lambda v: v.sum(axis=1)
        out, traces = optimize_objective(np.zeros(5), objective, sampler, cfg)
        assert out.sum() > 0.0
        assert len(traces) == 20
        assert out[0] == 0.0

    def test_early_stop_before_sampling(self):
        _, cfg, sampler = self.linear_setup(early_stop=True)
        values0 = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        out, traces = optimize_objective(
            values0, lambda v: v.sum(axis=1), sampler, cfg, feasibility=lambda v: True
        )
        np.testing.assert_array_equal(out, values0)
        assert out is not values0
        assert traces == []

    def test_degenerate_batches_trace_and_continue(self):
        _, cfg, sampler = self.linear_setup(iterations=4)
        values0 = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        out, traces = optimize_objective(
            values0, lambda v: np.full(v.shape[0], -np.inf), sampler, cfg
        )
        np.testing.assert_array_equal(out, values0)
        assert len(traces) == 4
        for k, trace in enumerate(traces):
            assert trace.iteration == k
            assert trace.best_score == -np.inf
            assert trace.mean_weight == 0.0
            assert trace.estimator_norm == 0.0

    def test_non_finite_update_raises_with_iteration(self):
        _, cfg, sampler = self.linear_setup(iterations=4)
        calls = []

        def objective(batch_values):
            calls.append(None)
            if len(calls) < 3:
                return batch_values.sum(axis=1)
            return np.full(batch_values.shape[0], np.nan)

        with pytest.raises(NonFiniteStepError, match="iteration 2") as info:
            optimize_objective(np.zeros(5), objective, sampler, cfg)
        assert info.value.iteration == 2

    def test_requires_1d_start(self):
        _, cfg, sampler = self.linear_setup()
        with pytest.raises(ConfigError, match="1-D"):
            optimize_objective(np.zeros((5, 1)), lambda v: v.sum(axis=1), sampler, cfg)


class TestOptimizeBenchmark:
    def test_tuned_settings_solve_narrow_passage(self):
        env = narrow_passage_v1()
        grid = TimeGrid(1.0, 100.0)
        K = kernel_matrix(grid, SEKernel(0.29, 0.22))
        factor = factorize(K, 1e-6 * 0.29)
        score_cfg = ScoreConfig(lambda_jerk=1e-4)
        cfg = NfgConfig(sigma=1.0, n_pow=100.0, batch=100, iterations=100, step_size=0.4)
        successes = 0
        for seed in range(5):
            sampler = PerturbationSampler(factor, seed=seed)
            mu0 = Trajectory(grid, np.zeros(100))
            final, traces = optimize(mu0, env, score_cfg, sampler, cfg)
            assert len(traces) == 100
            assert final.values[0, 0] == 0.0
            if (penetration_profile(env, final.values[:, 0], final.grid.times()) == 0.0).all():
                successes += 1
        assert successes >= 4


class TestDirectReductions:
    """The ufunc reductions equal the ndarray methods and np.linalg.norm,
    byte for byte."""

    @pytest.mark.parametrize("size", [1, 3, 100, 1000])
    def test_norm_equals_linalg_norm(self, size):
        rng = np.random.default_rng(size)
        for scale in (1e-200, 1e-3, 1.0, 1e150):
            x = rng.normal(scale=scale, size=size)
            assert np.float64(_norm(x)).tobytes() == np.float64(np.linalg.norm(x)).tobytes()

    @pytest.mark.parametrize("weight_mode", ["shifted", "raw"])
    def test_stats_equal_max_and_mean(self, weight_mode):
        grid = TimeGrid(1.0, 100.0)
        sampler = PerturbationSampler(factor_for(grid), seed=3)
        cfg = NfgConfig(sigma=0.7, n_pow=3.0, batch=100, weight_mode=weight_mode)
        seen = []

        def objective(batch):
            scores = -np.abs(batch).mean(axis=1)
            seen.append(scores)
            return scores

        for stream in range(3):
            _, stats = estimate_direction(np.zeros(100), objective, sampler, cfg, stream)
            scores = seen[-1]
            weights = batch_weights(scores, cfg.n_pow, cfg.weight_mode)
            assert np.float64(stats["best_score"]).tobytes() == np.float64(scores.max()).tobytes()
            assert np.float64(stats["mean_weight"]).tobytes() == np.float64(weights.mean()).tobytes()

    def test_perturbations_equal_scaled_samples(self):
        grid = TimeGrid(1.0, 100.0)
        sampler = PerturbationSampler(factor_for(grid), seed=5)
        cfg = NfgConfig(sigma=0.37, batch=100)
        seen = []
        estimate_direction(np.zeros(100), lambda b: seen.append(b.copy()) or -np.ones(100), sampler, cfg, 2)
        assert seen[0].tobytes() == (np.zeros(100)[None, :] + 0.37 * sampler.sample(100, 2)).tobytes()
