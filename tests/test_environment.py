import numpy as np
import pytest

import nfgopt._kernels as _kernels
from nfgopt.bench import parse_config
from nfgopt.environment import (
    BoxEnvironment,
    BoxObstacle,
    ScoreConfig,
    batch_scores,
    load_preset,
    narrow_passage_v1,
    penetration_profile,
    penetration_step,
    trajectory_score,
)
from nfgopt.errors import ConfigError
from nfgopt.trajectory import TimeGrid, Trajectory, average_abs_jerk

GRID = TimeGrid(1.0, 100.0)
ENV = narrow_passage_v1()
SCORE = ScoreConfig()


def traj_1d(values):
    return Trajectory(GRID, np.asarray(values, dtype=float))


class TestBoxes:
    @pytest.mark.parametrize(
        "args", [(0.5, 0.2, 0.0, 1.0), (0.2, 0.2, 0.0, 1.0), (0.0, 1.0, 2.0, 1.0), (0.0, 1.0, 2.0, 2.0)]
    )
    def test_invalid_box(self, args):
        with pytest.raises(ConfigError):
            BoxObstacle(*args)

    def test_preset_boxes(self):
        boxes = ENV.as_array()
        expected = np.array(
            [
                [0.2, 0.25, -1.0, 4.0],
                [0.4, 0.6, -2.0, 2.0],
                [0.7, 1.0, 0.5, 5.0],
                [0.7, 1.0, -5.0, -0.5],
            ]
        )
        np.testing.assert_array_equal(boxes, expected)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown environment preset"):
            load_preset("narrow-passage-v9")

    def test_from_config_list(self):
        cfg = parse_config(
            {
                "methods": [{"name": "chomp"}],
                "environment": [{"t_lo": 0.0, "t_hi": 1.0, "y_lo": -1.0, "y_hi": 1.0}],
            }
        )
        assert cfg.environment.boxes == (BoxObstacle(0.0, 1.0, -1.0, 1.0),)

    def test_empty_environment_allowed(self):
        env = BoxEnvironment(())
        assert env.as_array().shape == (0, 4)


class TestPenetrationStep:
    @pytest.mark.parametrize(
        "t,y,expected",
        [
            (0.1, 3.0, 0.0),
            (0.5, 0.0, -2.0),
            (0.22, 0.6, -1.6),
            (0.3, 0.0, 0.0),
            (0.8, 0.0, 0.0),
        ],
    )
    def test_spot_values(self, t, y, expected):
        assert penetration_step(ENV, t, y) == expected

    def test_zero_on_boundary(self):
        assert penetration_step(ENV, 0.5, 2.0) == 0.0
        assert penetration_step(ENV, 0.5, -2.0) == 0.0

    def test_continuity_sweep(self):
        ys = np.linspace(-2.5, 2.5, 2001)
        vals = np.array([penetration_step(ENV, 0.5, y) for y in ys])
        step = ys[1] - ys[0]
        assert np.abs(np.diff(vals)).max() <= step + 1e-12

    def test_overlapping_boxes_most_negative(self):
        env = BoxEnvironment(
            (BoxObstacle(0.0, 1.0, -1.0, 1.0), BoxObstacle(0.0, 1.0, -3.0, 3.0))
        )
        # depth 1 in the narrow box, depth 3 in the wide one
        assert penetration_step(env, 0.5, 0.0) == -3.0


class TestTrajectoryScore:
    def test_constant_in_free_space(self):
        env = BoxEnvironment(())
        assert trajectory_score(env, traj_1d(np.full(100, 1.5)), SCORE) == 1.0

    def test_all_zero_benchmark_oracle(self):
        # brute-force oracle: 6 grid points in the first box at depth 1 and
        # 21 in the second at depth 2, so the mean penetration is -48/100
        assert trajectory_score(ENV, traj_1d(np.zeros(100)), SCORE) == -0.48

    def test_known_jerk_value(self):
        # alternating values with amplitude 100 dt^3 / 8 give mean jerk 100
        amp = 100.0 * GRID.dt**3 / 8.0
        values = amp * (-1.0) ** np.arange(100)
        env = BoxEnvironment(())
        traj = traj_1d(values)
        assert average_abs_jerk(traj) == pytest.approx(100.0, rel=1e-9)
        assert trajectory_score(env, traj, SCORE) == pytest.approx(0.9900498337491681, abs=1e-9)

    def test_free_score_matches_jerk_formula(self):
        rng = np.random.default_rng(7)
        env = BoxEnvironment(())
        values = rng.normal(size=100)
        traj = traj_1d(values)
        expected = np.exp(-SCORE.lambda_jerk * average_abs_jerk(traj))
        assert trajectory_score(env, traj, SCORE) == pytest.approx(expected, rel=1e-12)

    def test_scale_separation(self):
        # dip under the first two boxes, then thread the gap at the end
        times = GRID.times()
        feasible = np.interp(times, [0.0, 0.3, 0.35, 0.6, 0.7, 0.99], [-1.5, -1.5, -2.5, -2.5, 0.0, 0.0])
        rng = np.random.default_rng(8)
        colliding = rng.normal(scale=2.0, size=(200, 100))
        free_score = trajectory_score(ENV, traj_1d(feasible), SCORE)
        colliding_scores = batch_scores(ENV, colliding, times, GRID.dt, SCORE)
        assert free_score > 0.0
        assert colliding_scores.max() <= 0.0 < free_score

    def test_batch_matches_single(self):
        rng = np.random.default_rng(9)
        values = rng.normal(size=(16, 100))
        batch = batch_scores(ENV, values, GRID.times(), GRID.dt, SCORE)
        singles = [trajectory_score(ENV, traj_1d(v), SCORE) for v in values]
        np.testing.assert_allclose(batch, singles, rtol=1e-12)

    def test_extra_obstacle_never_helps(self):
        rng = np.random.default_rng(10)
        values = rng.normal(size=(50, 100))
        bigger = BoxEnvironment(ENV.boxes + (BoxObstacle(0.0, 0.15, -0.5, 0.5),))
        before = batch_scores(ENV, values, GRID.times(), GRID.dt, SCORE)
        after = batch_scores(bigger, values, GRID.times(), GRID.dt, SCORE)
        assert np.all(after <= before + 1e-12)

    def test_multi_dim_rejected(self):
        traj = Trajectory(GRID, np.zeros((100, 2)))
        with pytest.raises(ValueError, match="1-D"):
            trajectory_score(ENV, traj, SCORE)

    def test_penetration_profile_matches_steps(self):
        values = np.zeros(100)
        profile = penetration_profile(ENV, traj_1d(values))
        times = GRID.times()
        expected = [penetration_step(ENV, float(t), 0.0) for t in times]
        np.testing.assert_array_equal(profile, expected)


class TestScoreConfig:
    @pytest.mark.parametrize("lambda_jerk", [-1.0])
    def test_config_validation(self, lambda_jerk):
        with pytest.raises(ConfigError):
            ScoreConfig(lambda_jerk)


class TestBackends:
    def test_empty_environment_batch(self):
        values = np.zeros((4, 100))
        out = _kernels.batch_scores(values, GRID.times(), np.zeros((0, 4)), 1e-4, GRID.dt)
        np.testing.assert_array_equal(out, np.ones(4))
