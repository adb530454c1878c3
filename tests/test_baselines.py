import numpy as np
import pytest

from nfgopt.baselines import (
    ChompConfig,
    MppiConfig,
    StompConfig,
    _outward_sign,
    _reweighted,
    _rollout_costs,
    _softmin_raw,
    _stomp_raw,
    chomp_gradient,
    chomp_optimize,
    mppi_optimize,
    stomp_optimize,
    wiener_noise,
)
from nfgopt.environment import (
    BoxEnvironment,
    BoxObstacle,
    ScoreConfig,
    batch_scores,
    narrow_passage_v1,
    penetration_profile,
    penetration_step,
)
from nfgopt import _kernels
from nfgopt.errors import ConfigError
from nfgopt.sampling import PerturbationSampler, SEKernel, factorize, kernel_matrix
from nfgopt.trajectory import TimeGrid, Trajectory

GRID = TimeGrid(1.0, 100.0)
TIMES = GRID.times()
ENV = narrow_passage_v1()
SCORE = ScoreConfig()


def bench_sampler(seed=0):
    K = kernel_matrix(GRID, SEKernel(0.29, 0.22))
    return PerturbationSampler(factorize(K, 1e-6 * 0.29), seed=seed)


def traj_1d(grid, values):
    return Trajectory(grid, np.asarray(values, dtype=float))


def stomp_weights(costs, temperature):
    raw = _stomp_raw(costs, temperature)
    return raw / raw.sum()


def softmin_weights(costs, temperature):
    raw = _softmin_raw(costs, temperature)
    return raw / raw.sum()


class TestStompWeights:
    @pytest.mark.parametrize(
        "kwargs",
        [{"batch": 1}, {"iterations": 0}, {"temperature": 0.0}, {"temperature": -1.0}, {"sigma": -1.0}],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ConfigError):
            StompConfig(**kwargs)

    def test_probability_vector(self):
        w = stomp_weights(np.array([0.3, 1.2, -0.5, 0.0]), 10.0)
        assert w.sum() == pytest.approx(1.0, rel=1e-12)
        assert (w > 0.0).all()

    def test_equal_costs_uniform(self):
        w = stomp_weights(np.full(5, 0.7), 10.0)
        np.testing.assert_allclose(w, 0.2, rtol=1e-9)

    def test_min_cost_dominates(self):
        costs = np.array([1.0, 0.2, 0.9])
        w = stomp_weights(costs, 10.0)
        assert int(np.argmax(w)) == 1

    def test_high_temperature_near_one_hot(self):
        w = stomp_weights(np.array([1.0, 0.0, 1.0, 1.0]), 200.0)
        assert w[1] > 0.999


class TestStompOptimize:
    def test_deterministic(self):
        y0 = traj_1d(GRID, np.zeros(100))
        cfg = StompConfig(batch=20, iterations=5)
        out1, tr1 = stomp_optimize(y0, ENV, SCORE, cfg, bench_sampler(3))
        out2, tr2 = stomp_optimize(y0, ENV, SCORE, cfg, bench_sampler(3))
        np.testing.assert_array_equal(out1.values, out2.values)
        assert [t.best_score for t in tr1] == [t.best_score for t in tr2]

    def test_single_iteration_matches_iterate(self):
        y0 = traj_1d(GRID, np.zeros(100))
        cfg = StompConfig(batch=20, iterations=1)
        sampler = bench_sampler(5)
        out, traces = stomp_optimize(y0, ENV, SCORE, cfg, sampler)
        # one reweighting update y + sum_s w_s eps_s with the start pinned
        eps = sampler.sample(20, 0)
        scores = batch_scores(ENV, eps, y0.grid.times(), GRID.dt, SCORE)
        expected = y0.values[:, 0] + stomp_weights(1.0 - scores, cfg.temperature) @ eps
        expected[0] = y0.values[0, 0]
        np.testing.assert_array_equal(out.values[:, 0], expected)
        assert len(traces) == 1

    def test_zero_sigma_leaves_values_unchanged(self):
        # the config's sigma scales the sampler's unit-scale draws
        y0 = traj_1d(GRID, np.linspace(0.0, 1.0, 100))
        cfg = StompConfig(sigma=0.0, batch=20, iterations=3)
        out, traces = stomp_optimize(y0, ENV, SCORE, cfg, bench_sampler(4))
        np.testing.assert_array_equal(out.values, y0.values)
        assert len(traces) == 3

    def test_start_pinned(self):
        y0 = traj_1d(GRID, np.full(100, 0.25))
        cfg = StompConfig(batch=20, iterations=10)
        out, _ = stomp_optimize(y0, ENV, SCORE, cfg, bench_sampler(1))
        assert out.values[0, 0] == 0.25

    def test_early_stop_when_feasible(self):
        empty = BoxEnvironment(())
        y0 = traj_1d(GRID, np.zeros(100))
        cfg = StompConfig(batch=20, iterations=10, early_stop=True)
        out, traces = stomp_optimize(y0, empty, SCORE, cfg, bench_sampler(2))
        np.testing.assert_array_equal(out.values, y0.values)
        assert traces == []

    def test_multi_dim_rejected(self):
        with pytest.raises(ConfigError, match="1-D"):
            y0 = Trajectory(GRID, np.zeros((100, 2)))
            stomp_optimize(y0, ENV, SCORE, StompConfig(), bench_sampler())


class TestChompGradient:
    @pytest.mark.parametrize(
        "kwargs", [{"iterations": 0}, {"step": 0.0}, {"step": -0.1}, {"step": float("inf")}]
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ConfigError):
            ChompConfig(**kwargs)

    def test_constant_free_trajectory_zero_gradient(self):
        grad = chomp_gradient(BoxEnvironment(()), np.full(100, 3.0), TIMES, GRID.dt, SCORE, np.random.default_rng(0))
        np.testing.assert_array_equal(grad, np.zeros(100))

    def test_colliding_unit_push_on_deepest_region(self):
        # y = 1 penetrates the first box deepest (depth 2 over t in [0.2, 0.25]);
        # the lower face is nearer so the push is -1 on exactly that run
        grad = chomp_gradient(ENV, np.full(100, 1.0), TIMES, GRID.dt, SCORE, np.random.default_rng(0))
        expected = np.zeros(100)
        expected[20:26] = -1.0
        np.testing.assert_array_equal(grad, expected)

    def test_separated_runs_pick_global_deepest(self):
        env = BoxEnvironment(
            (BoxObstacle(0.1, 0.2, -0.5, 0.5), BoxObstacle(0.6, 0.7, -2.0, 2.0))
        )
        grad = chomp_gradient(env, np.zeros(100), TIMES, GRID.dt, SCORE, np.random.default_rng(0))
        assert np.all(grad[:60] == 0.0)
        # 70 * 0.01 rounds just past 0.7, so the run ends at index 69
        assert np.all(np.abs(grad[60:70]) == 1.0)
        assert np.all(grad[70:] == 0.0)

    def test_midpoint_tie_uses_both_signs(self):
        env = BoxEnvironment((BoxObstacle(0.0, 1.0, -1.0, 1.0),))
        rng = np.random.default_rng(6)
        signs = {chomp_gradient(env, np.zeros(100), TIMES, GRID.dt, SCORE, rng)[50] for _ in range(50)}
        assert signs == {-1.0, 1.0}

    # y = 0.25 lies at depth 0.75 in [-1, 1], whose upper face is nearer
    # (push +1), and in a second box over the same t-range whose lower face
    # is nearer (push -1); the push is given for both listing orders
    @pytest.mark.parametrize(
        "second, in_order, reversed_order",
        [
            ((-0.25, 4.0), 1.0, 1.0),  # depth 0.5: the first box is deeper
            ((-1.5, 4.0), -1.0, -1.0),  # depth 1.75: the second box is deeper
            ((-0.5, 4.0), 1.0, -1.0),  # depth 0.75 in both: the first listed decides
        ],
    )
    def test_overlapping_boxes_deepest_box_decides(self, second, in_order, reversed_order):
        boxes = (BoxObstacle(0.4, 0.6, -1.0, 1.0), BoxObstacle(0.4, 0.6, *second))
        values = np.full(100, 0.25)
        for listed, sign in ((boxes, in_order), (boxes[::-1], reversed_order)):
            grad = chomp_gradient(BoxEnvironment(listed), values, TIMES, GRID.dt, SCORE, np.random.default_rng(0))
            push = np.zeros(100)
            push[40:61] = sign
            np.testing.assert_array_equal(grad, push)

    def test_outward_sign_matches_box_loop(self):
        # reference: loop over the boxes, keep the first deepest containing
        # one, push toward its nearer face (0 marks a midpoint tie)
        def loop_sign(boxes, t, y):
            best = None
            for b in boxes:
                if b.t_lo <= t <= b.t_hi and b.y_lo <= y <= b.y_hi:
                    depth = min(y - b.y_lo, b.y_hi - y)
                    if best is None or depth > best[0]:
                        best = (depth, b)
            d_lo, d_hi = y - best[1].y_lo, best[1].y_hi - y
            return float(np.sign(d_lo - d_hi))

        rng = np.random.default_rng(3)
        times = GRID.times()
        checked = 0
        for _ in range(200):
            # quarter-unit faces and eighth-unit values make face and depth ties common
            boxes = []
            for _ in range(rng.integers(1, 5)):
                t_lo, y_lo = rng.integers(0, 80) / 100, rng.integers(-8, 4) / 4
                boxes.append(BoxObstacle(t_lo, t_lo + rng.integers(1, 40) / 100, y_lo, y_lo + rng.integers(1, 12) / 4))
            env = BoxEnvironment(tuple(boxes))
            table = env.box_table(times)
            for b in boxes:
                for column in np.flatnonzero((times >= b.t_lo) & (times <= b.t_hi)):
                    y = rng.integers(8 * b.y_lo, 8 * b.y_hi + 1) / 8
                    if penetration_step(env, times[column], y) == 0.0:
                        continue  # on a face: CHOMP pushes only from inside
                    expected = loop_sign(boxes, times[column], y)
                    sign = _outward_sign(table, int(column), y, rng)
                    assert sign == expected or (expected == 0.0 and sign in (-1.0, 1.0))
                    checked += 1
        assert checked > 5000

    def test_free_gradient_matches_finite_difference(self):
        grid = TimeGrid(0.08, 100.0)
        times = grid.times()
        values = times**3
        score_cfg = ScoreConfig(lambda_jerk=1e-4)
        env = BoxEnvironment(())
        rng = np.random.default_rng(0)
        grad = chomp_gradient(env, values, times, grid.dt, score_cfg, rng)

        def smoothness(v):
            d3 = v[3:] - 3.0 * v[2:-1] + 3.0 * v[1:-2] - v[:-3]
            mean_jerk = np.abs(d3).sum() / ((v.shape[0] - 3) * grid.dt**3)
            return np.exp(-score_cfg.lambda_jerk * mean_jerk)

        h = 1e-7
        fd = np.zeros_like(values)
        for i in range(values.shape[0]):
            hi = values.copy()
            lo = values.copy()
            hi[i] += h
            lo[i] -= h
            fd[i] = (smoothness(hi) - smoothness(lo)) / (2.0 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-12)


class TestChompOptimize:
    def test_single_step_semantics(self):
        y0 = traj_1d(GRID, np.full(100, 1.0))
        cfg = ChompConfig(iterations=1, step=0.05)
        out, traces = chomp_optimize(y0, ENV, SCORE, cfg, np.random.default_rng(0))
        expected = np.full(100, 1.0)
        expected[20:26] -= 0.05
        np.testing.assert_array_equal(out.values[:, 0], expected)
        assert len(traces) == 1
        assert traces[0].mean_weight == 0.0
        assert traces[0].best_score <= 0.0

    def test_deterministic(self):
        y0 = traj_1d(GRID, np.zeros(100))
        cfg = ChompConfig(iterations=30, step=0.02)
        out1, _ = chomp_optimize(y0, ENV, SCORE, cfg, np.random.default_rng(4))
        out2, _ = chomp_optimize(y0, ENV, SCORE, cfg, np.random.default_rng(4))
        np.testing.assert_array_equal(out1.values, out2.values)

    def test_start_pinned(self):
        y0 = traj_1d(GRID, np.full(100, 1.0))
        cfg = ChompConfig(iterations=20, step=0.05)
        out, _ = chomp_optimize(y0, ENV, SCORE, cfg, np.random.default_rng(0))
        assert out.values[0, 0] == 1.0

    def test_early_stop_when_feasible(self):
        y0 = traj_1d(GRID, np.full(100, 3.0))
        cfg = ChompConfig(iterations=10, early_stop=True)
        out, traces = chomp_optimize(y0, BoxEnvironment(()), SCORE, cfg, np.random.default_rng(0))
        np.testing.assert_array_equal(out.values, y0.values)
        assert traces == []

    def test_feasible_when_smoothness_bonus_underflows(self):
        # a collision-free zigzag whose jerk drives exp(-lambda_jerk * jerk)
        # to exactly 0: feasibility means no grid point penetrates, not a
        # positive score
        y0 = traj_1d(GRID, np.tile([0.0, 0.01], 50))
        free, rough = BoxEnvironment(()), ScoreConfig(lambda_jerk=1.0)
        _, traces = chomp_optimize(y0, free, rough, ChompConfig(iterations=3), np.random.default_rng(0))
        assert [(t.best_score, t.feasible) for t in traces] == [(0.0, True)] * 3
        out, traces = chomp_optimize(
            y0, free, rough, ChompConfig(iterations=3, early_stop=True), np.random.default_rng(0)
        )
        np.testing.assert_array_equal(out.values, y0.values)
        assert traces == []


class TestMppiPieces:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rollouts": 1},
            {"iterations": 0},
            {"temperature": 0.0},
            {"noise_scale": -0.1},
            {"weight_obs": -1.0},
            {"weight_goal": -1.0},
            {"goal": float("nan")},
            {"goal": float("inf")},
            {"weight_obs": float("inf")},
            {"weight_obs": float("nan")},
            {"weight_goal": float("inf")},
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ConfigError):
            MppiConfig(**kwargs)

    def test_zero_noise_allowed(self):
        assert MppiConfig(noise_scale=0.0).resolved_noise_scale(0.01) == 0.0

    def test_default_noise_scale(self):
        assert MppiConfig().resolved_noise_scale(0.01) == pytest.approx(0.1 * np.sqrt(0.01))
        assert MppiConfig(noise_scale=0.05).resolved_noise_scale(0.01) == 0.05

    def test_softmin_probability_vector(self):
        w = softmin_weights(np.array([2.0, 0.5, 1.0]), 1.0)
        assert w.sum() == pytest.approx(1.0, rel=1e-12)
        assert int(np.argmax(w)) == 1

    def test_softmin_equal_costs_uniform(self):
        np.testing.assert_allclose(softmin_weights(np.full(4, 3.0), 0.5), 0.25, rtol=1e-15)

    def test_softmin_low_temperature_concentrates(self):
        w = softmin_weights(np.array([1.0, 0.0, 1.0]), 1e-3)
        assert w[1] > 0.999

    def test_wiener_noise_starts_at_zero(self):
        eps = wiener_noise(bench_sampler(9), 50, 40, 0.3, 0)
        assert eps.shape == (50, 40)
        np.testing.assert_array_equal(eps[:, 0], np.zeros(50))

    def test_wiener_noise_deterministic(self):
        a = wiener_noise(bench_sampler(9), 8, 20, 0.3, 0)
        b = wiener_noise(bench_sampler(9), 8, 20, 0.3, 0)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("count, steps, stream", [(1, 4, 0), (8, 20, 3), (100, 100, 7)])
    def test_wiener_noise_into_out_equals_new_noise(self, count, steps, stream):
        out = np.full((count, steps), np.nan)
        got = wiener_noise(bench_sampler(9), count, steps, 0.3, stream, out=out)
        assert got is out
        assert out.tobytes() == wiener_noise(bench_sampler(9), count, steps, 0.3, stream).tobytes()

    @pytest.mark.parametrize(
        "out", [np.zeros((8, 21)), np.zeros((8, 20), dtype=np.float32), np.zeros((8, 40))[:, ::2], np.zeros((20, 8)).T]
    )
    def test_wiener_noise_rejects_a_buffer_that_cannot_take_it(self, out):
        with pytest.raises(ConfigError, match=r"out must be .* of shape \(8, 20\)"):
            wiener_noise(bench_sampler(9), 8, 20, 0.3, 0, out=out)

    def test_wiener_variance_grows_linearly(self):
        eps = wiener_noise(bench_sampler(10), 20000, 101, 1.0, 0)
        v25 = eps[:, 25].var()
        v100 = eps[:, 100].var()
        assert v25 == pytest.approx(25.0, rel=0.05)
        assert v100 / v25 == pytest.approx(4.0, rel=0.1)


class TestMppiOptimize:
    def test_zero_noise_fixed_point(self):
        y0 = traj_1d(GRID, np.linspace(0.0, 1.0, 100))
        cfg = MppiConfig(rollouts=16, iterations=5, noise_scale=0.0)
        out, traces = mppi_optimize(y0, ENV, cfg, bench_sampler(0))
        np.testing.assert_array_equal(out.values, y0.values)
        assert all(t.estimator_norm == 0.0 for t in traces)

    def test_deterministic(self):
        y0 = traj_1d(GRID, np.zeros(100))
        cfg = MppiConfig(rollouts=32, iterations=10, noise_scale=0.05)
        out1, _ = mppi_optimize(y0, ENV, cfg, bench_sampler(1))
        out2, _ = mppi_optimize(y0, ENV, cfg, bench_sampler(1))
        np.testing.assert_array_equal(out1.values, out2.values)

    def test_single_iteration_matches_manual_update(self):
        grid = TimeGrid(1.0, 10.0)
        y0 = traj_1d(grid, np.zeros(10))
        cfg = MppiConfig(
            rollouts=8, iterations=1, temperature=0.7, noise_scale=0.2,
            goal=0.5, weight_obs=2.0, weight_goal=0.3,
        )
        sampler = bench_sampler(13)
        out, traces = mppi_optimize(y0, ENV, cfg, sampler)
        eps = wiener_noise(sampler, 8, 10, 0.2, 0)
        candidates = y0.values[:, 0][None, :] + eps
        pen = np.array([penetration_profile(ENV, c, grid.times()) for c in candidates])
        costs = 2.0 * (-pen).sum(axis=1) + 0.3 * ((candidates - 0.5) ** 2).sum(axis=1)
        weights = softmin_weights(costs, 0.7)
        expected = y0.values[:, 0] + weights @ eps
        expected[0] = 0.0
        np.testing.assert_allclose(out.values[:, 0], expected, rtol=1e-12, atol=1e-15)
        assert traces[0].best_score == pytest.approx(-costs.min(), rel=1e-12)

    def test_goal_attraction_in_free_space(self):
        grid = TimeGrid(0.5, 100.0)
        y0 = traj_1d(grid, np.zeros(50))
        cfg = MppiConfig(
            rollouts=64, iterations=60, noise_scale=0.3, goal=3.0,
            weight_obs=0.0, weight_goal=1.0,
        )
        out, _ = mppi_optimize(y0, BoxEnvironment(()), cfg, bench_sampler(2))
        before = ((y0.values[1:, 0] - 3.0) ** 2).mean()
        after = ((out.values[1:, 0] - 3.0) ** 2).mean()
        assert after < 0.5 * before

    def test_start_pinned(self):
        y0 = traj_1d(GRID, np.full(100, 0.1))
        cfg = MppiConfig(rollouts=16, iterations=5, noise_scale=0.05)
        out, _ = mppi_optimize(y0, ENV, cfg, bench_sampler(3))
        assert out.values[0, 0] == 0.1

    def test_multi_dim_rejected(self):
        with pytest.raises(ConfigError, match="1-D"):
            y0 = Trajectory(GRID, np.zeros((100, 2)))
            mppi_optimize(y0, ENV, MppiConfig(), bench_sampler())


class TestInPlaceRollout:
    """MPPI's in-place rollout and the reweighting equal their written-out
    numpy expressions, byte for byte."""

    @pytest.mark.parametrize("goal", [0.0, 0.37])
    @pytest.mark.parametrize("weights", [(10.0, 0.15), (1.0, 1.0), (0.0, 0.3), (2.5, 0.0)])
    @pytest.mark.parametrize("boxes", ["narrow-passage", "terminal-slot"])
    def test_costs_equal_term_by_term_formula(self, goal, weights, boxes):
        weight_obs, weight_goal = weights
        cfg = MppiConfig(goal=goal, weight_obs=weight_obs, weight_goal=weight_goal)
        sampler = PerturbationSampler(np.eye(1), seed=4)
        # the terminal slot's two boxes leave y in (-0.5, 0.5) clear
        env = ENV if boxes == "narrow-passage" else BoxEnvironment(ENV.boxes[2:])
        table = env.box_table(GRID.times())
        for k in range(5):
            candidates = 0.4 * np.sin(np.linspace(0.0, 3.0, 100)) + wiener_noise(sampler, 100, 100, 0.05, k)
            candidates[:3] = goal  # a zero goal term, and a zero obstacle sum of +0 and -0 in the slot
            candidates[3:6] = 10.0  # above every box: a zero obstacle sum
            pen = _kernels.penetration_profile_batch(candidates, table)
            expected = weight_obs * (-pen).sum(axis=1) + weight_goal * ((candidates - goal) ** 2).sum(axis=1)
            got = _rollout_costs(candidates.copy(), pen, cfg)
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("scale", [0.05, 0.1 * np.sqrt(0.01), 3])
    def test_wiener_noise_equals_cumsum_of_scaled_increments(self, scale):
        sampler = PerturbationSampler(np.eye(1), seed=6)
        increments = scale * sampler.normals(100, 100, 2)
        increments[:, 0] = 0.0
        expected = np.cumsum(increments, axis=1)
        assert wiener_noise(sampler, 100, 100, scale, 2).tobytes() == expected.tobytes()

    def test_reweighted_equals_sum_mean_and_norm(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            raw = np.exp(-rng.random(100) * 30.0)
            eps = rng.normal(scale=0.1, size=(100, 100))
            step = _reweighted(raw, eps, -1.5)
            update = (raw / raw.sum()) @ eps
            assert step.delta.tobytes() == update.tobytes()
            assert np.float64(step.mean_weight).tobytes() == np.float64(raw.mean()).tobytes()
            assert np.float64(step.norm).tobytes() == np.float64(np.linalg.norm(update)).tobytes()
            assert step.best_score == -1.5

    def test_raw_weights_equal_method_reductions(self):
        costs = np.random.default_rng(9).normal(size=100)
        stomp = np.exp(-2.5 * (costs - costs.min()) / (costs.max() - costs.min() + 1e-12))
        assert _stomp_raw(costs, 2.5).tobytes() == stomp.tobytes()
        assert _softmin_raw(costs, 0.5).tobytes() == np.exp(-(costs - costs.min()) / 0.5).tobytes()
