import math

import numpy as np
import pytest

from nfgopt.errors import ConfigError, DegeneratePathError
from nfgopt.trajectory import (
    TimeGrid,
    Trajectory,
    WaypointPath,
    arc_length_times,
    average_abs_jerk,
    load_waypoints,
    path_length,
    read_trajectory_csv,
    resample,
    unwrap_angles,
    write_trajectory_csv,
)


def make_traj(values, horizon=None, rate=None):
    values = np.asarray(values, dtype=float)
    steps = values.shape[0]
    if horizon is None:
        horizon, rate = float(steps), 1.0
    return Trajectory(TimeGrid(horizon, rate), values)


class TestTimeGrid:
    def test_benchmark_grid(self):
        grid = TimeGrid(1.0, 100.0)
        assert grid.steps == 100
        assert grid.dt == 0.01
        assert abs(grid.dt * grid.steps - grid.horizon_seconds) <= 1e-9

    def test_times(self):
        grid = TimeGrid(1.0, 100.0)
        t = grid.times()
        assert t.shape == (100,)
        assert t[0] == 0.0
        assert t[1] == grid.dt
        assert np.all(np.diff(t) > 0)

    @pytest.mark.parametrize("horizon,rate", [(1.0, 100.0), (2.5, 10.0), (10.0, 1.0), (0.04, 100.0)])
    def test_step_count_consistency(self, horizon, rate):
        grid = TimeGrid(horizon, rate)
        assert abs(grid.dt * grid.steps - horizon) <= 1e-9 * horizon

    @pytest.mark.parametrize(
        "horizon,rate",
        [(1.003, 100.0), (0.03, 100.0), (-1.0, 100.0), (1.0, -100.0), (1.0, 0.0), (float("inf"), 1.0)],
    )
    def test_invalid_grid(self, horizon, rate):
        with pytest.raises(ConfigError):
            TimeGrid(horizon, rate)

    @pytest.mark.parametrize("horizon,rate", [(1e300, 1e300), (10**200, 10**200), (10**200, 1e200)])
    def test_step_count_beyond_the_float_range_rejected(self, horizon, rate):
        with pytest.raises(ConfigError, match=r"^horizon_seconds \* rate_hz must be finite"):
            TimeGrid(horizon, rate)


class TestTrajectory:
    def test_one_dim_promotion(self):
        traj = make_traj(np.zeros(5))
        assert traj.values.shape == (5, 1)

    @pytest.mark.parametrize("shape", [(5, 2), (5, 0), (5, 1, 1), ()])
    def test_second_column_rejected(self, shape):
        with pytest.raises(ConfigError, match="1-D"):
            Trajectory(TimeGrid(5.0, 1.0), np.zeros(shape))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            Trajectory(TimeGrid(5.0, 1.0), np.zeros((4, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, bad):
        values = np.zeros((5, 1))
        values[2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            make_traj(values)

    def test_values_immutable(self):
        traj = make_traj(np.zeros(5))
        with pytest.raises(ValueError):
            traj.values[0, 0] = 1.0


class TestAverageAbsJerk:
    def test_constant_is_zero(self):
        assert average_abs_jerk(make_traj(np.full(10, 3.7))) == 0.0

    def test_linear_ramp_is_zero(self):
        t = np.arange(10, dtype=float)
        assert average_abs_jerk(make_traj(2.5 * t)) == pytest.approx(0.0, abs=1e-9)

    def test_cubic_oracle(self):
        # hand-derived: third difference of t^3 on spacing h is exactly 6 h^3
        grid = TimeGrid(1.0, 100.0)
        traj = Trajectory(grid, grid.times() ** 3)
        assert average_abs_jerk(traj) == pytest.approx(6.0, abs=1e-6)

    def test_translation_invariance(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=50)
        a = average_abs_jerk(make_traj(values))
        b = average_abs_jerk(make_traj(values + 123.456))
        assert a == pytest.approx(b, rel=1e-9)

    def test_too_short(self):
        grid = TimeGrid(4.0, 1.0)
        traj = Trajectory(grid, np.zeros((4, 1)))
        assert average_abs_jerk(traj) == 0.0  # 4 points is the minimum, one window
        with pytest.raises(ConfigError):
            TimeGrid(3.0, 1.0)


class TestPathLength:
    def test_constant_zero(self):
        assert path_length(make_traj(np.full(6, 2.0))) == 0.0

    def test_unit_ramp(self):
        assert path_length(make_traj(np.linspace(0.0, 1.0, 11))) == pytest.approx(1.0)

    def test_triangle(self):
        up = np.linspace(0.0, 1.0, 5)
        tri = np.concatenate([up, up[-2::-1]])
        assert path_length(make_traj(tri)) == pytest.approx(2.0)

    def test_lower_bound_per_dimension(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=30)
        total = path_length(make_traj(values))
        bound = np.abs(values[-1] - values[0]).sum()
        assert total >= bound - 1e-12


class TestUnwrapAngles:
    def test_identity_when_continuous(self):
        path = WaypointPath(np.array([0.0, 0.1]))
        out = unwrap_angles(path)
        np.testing.assert_array_equal(out.waypoints[:, 0], [0.0, 0.1])

    def test_single_jump(self):
        path = WaypointPath(np.array([3.1, -3.1]))
        out = unwrap_angles(path)
        expected = [3.1, 3.1 + (2.0 * math.pi - 6.2)]
        np.testing.assert_allclose(out.waypoints[:, 0], expected, atol=1e-12)

    def test_cumulative_correction(self):
        path = WaypointPath(np.array([0.0, 3.2, 6.4]))
        out = unwrap_angles(path)
        expected = [0.0, 3.2 - 2.0 * math.pi, 6.4 - 4.0 * math.pi]
        np.testing.assert_allclose(out.waypoints[:, 0], expected, atol=1e-12)

    def test_output_properties(self):
        rng = np.random.default_rng(2)
        raw = rng.uniform(-10.0, 10.0, size=40)
        out = unwrap_angles(WaypointPath(raw))
        shift = (out.waypoints[:, 0] - raw) / (2.0 * math.pi)
        np.testing.assert_allclose(shift, np.round(shift), atol=1e-9)
        assert np.all(np.abs(np.diff(out.waypoints[:, 0])) <= math.pi + 1e-9)


class TestArcLengthTimes:
    def test_two_waypoints(self):
        t = arc_length_times(WaypointPath(np.array([0.0, 1.0])), 5.0)
        np.testing.assert_array_equal(t, [0.0, 5.0])

    def test_uniform_spacing(self):
        t = arc_length_times(WaypointPath(np.array([0.0, 1.0, 2.0])), 4.0)
        np.testing.assert_array_equal(t, [0.0, 2.0, 4.0])

    def test_proportional_oracle(self):
        # cumulative arc length [0, 3, 4], so times are s_i / 4 * 4 exactly
        t = arc_length_times(WaypointPath(np.array([0.0, 3.0, 4.0])), 4.0)
        assert t.tolist() == [0.0, 3.0, 4.0]

    def test_scale_invariance(self):
        pts = np.array([0.0, 1.0, 3.0, 2.5, 4.0])
        a = arc_length_times(WaypointPath(pts), 7.0)
        b = arc_length_times(WaypointPath(2.0 * pts), 7.0)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_zero_segment_rejected(self):
        with pytest.raises(DegeneratePathError, match="dedupe"):
            arc_length_times(WaypointPath(np.array([0.0, 1.0, 1.0, 2.0])), 1.0)

    def test_bad_duration(self):
        with pytest.raises(ConfigError):
            arc_length_times(WaypointPath(np.array([0.0, 1.0])), 0.0)

    def test_overflowing_arc_length_rejected_without_warning(self):
        # the segment from 1e308 to -1e308 overflows; numpy warnings fail tests
        with pytest.raises(ConfigError, match="overflows"):
            arc_length_times(WaypointPath(np.array([0.0, 1e308, -1e308])), 1.0)


class TestResample:
    def test_linear_segment_midpoint(self):
        grid = TimeGrid(5.0, 100.0)
        path = WaypointPath(np.array([0.0, 1.0]))
        traj = resample(path, np.array([0.0, 5.0]), grid)
        idx = int(round(2.5 / grid.dt))
        assert traj.values[idx, 0] == pytest.approx(0.5)

    def test_endpoint_preserved(self):
        grid = TimeGrid(5.0, 100.0)
        traj = resample(WaypointPath(np.array([2.0, 9.0])), np.array([0.0, 5.0]), grid)
        assert traj.values[0, 0] == 2.0

    def test_second_segment_slope(self):
        grid = TimeGrid(4.0, 2.0)
        path = WaypointPath(np.array([0.0, 3.0, 4.0]))
        traj = resample(path, np.array([0.0, 3.0, 4.0]), grid)
        idx = int(round(3.5 / grid.dt))
        assert traj.grid.times()[idx] == 3.5
        assert traj.values[idx, 0] == pytest.approx(3.5)

    def test_round_trip_identity(self):
        grid = TimeGrid(1.0, 100.0)
        rng = np.random.default_rng(3)
        values = rng.normal(size=(grid.steps, 1))
        path = WaypointPath(values)
        out = resample(path, grid.times(), grid)
        np.testing.assert_array_equal(out.values, values)

    def test_horizon_mismatch(self):
        grid = TimeGrid(1.0, 100.0)
        with pytest.raises(ConfigError, match="horizon"):
            resample(WaypointPath(np.array([0.0, 1.0])), np.array([0.0, 2.0]), grid)

    def test_timestamp_count_mismatch(self):
        grid = TimeGrid(1.0, 100.0)
        with pytest.raises(ConfigError):
            resample(WaypointPath(np.array([0.0, 1.0])), np.array([0.0, 0.5, 1.0]), grid)

    def test_decreasing_timestamps(self):
        grid = TimeGrid(1.0, 100.0)
        with pytest.raises(ConfigError, match="non-decreasing"):
            resample(WaypointPath(np.array([0.0, 1.0, 2.0])), np.array([0.0, 0.7, 0.5]), grid)


class TestWaypointPath:
    def test_needs_two_waypoints(self):
        with pytest.raises(DegeneratePathError):
            WaypointPath(np.array([1.0]))

    def test_dedupe_drops_consecutive(self):
        path = WaypointPath(np.array([0.0, 0.0, 1.0, 1.0, 2.0]))
        np.testing.assert_array_equal(path.dedupe().waypoints[:, 0], [0.0, 1.0, 2.0])

    def test_dedupe_all_identical(self):
        with pytest.raises(DegeneratePathError, match="identical"):
            WaypointPath(np.array([1.0, 1.0, 1.0])).dedupe()

    def test_dedupe_noop_returns_self(self):
        path = WaypointPath(np.array([0.0, 1.0]))
        assert path.dedupe() is path

    def test_second_column_rejected(self):
        with pytest.raises(ConfigError, match="1-D"):
            WaypointPath(np.zeros((3, 2)) + np.arange(3)[:, None])

    def test_flat_and_column_inputs_agree(self):
        flat = WaypointPath(np.array([0.0, 2.0, 1.0]))
        column = WaypointPath(np.array([[0.0], [2.0], [1.0]]))
        assert flat.waypoints.shape == (3, 1)
        np.testing.assert_array_equal(flat.waypoints, column.waypoints)


class TestCsvIo:
    def test_trajectory_round_trip(self, tmp_path):
        grid = TimeGrid(1.0, 100.0)
        rng = np.random.default_rng(4)
        traj = Trajectory(grid, rng.normal(size=(grid.steps, 1)))
        out = tmp_path / "traj.csv"
        write_trajectory_csv(traj, str(out))
        times, values = read_trajectory_csv(str(out))
        np.testing.assert_array_equal(times, grid.times())
        np.testing.assert_array_equal(values, traj.values)

    def test_trajectory_header(self, tmp_path):
        grid = TimeGrid(1.0, 100.0)
        traj = Trajectory(grid, np.zeros((100, 1)))
        out = tmp_path / "traj.csv"
        write_trajectory_csv(traj, str(out))
        header = out.read_text().splitlines()[0]
        assert header == "t,dim0"

    def test_trajectory_bytes(self, tmp_path):
        # CRLF line ends, 17 significant digits and -0 as Python spells it
        traj = Trajectory(TimeGrid(2.0, 2.0), np.array([-0.0, 1e-300, 0.1 + 0.2, 1 / 3]))
        out = tmp_path / "traj.csv"
        write_trajectory_csv(traj, str(out))
        assert out.read_bytes() == b"t,dim0\r\n0,-0\r\n0.5,1e-300\r\n1,0.30000000000000004\r\n1.5,0.33333333333333331\r\n"

    def test_read_rejects_bad_header(self, tmp_path):
        out = tmp_path / "bad.csv"
        out.write_text("x,dim0\n0,1\n")
        with pytest.raises(ConfigError, match="header"):
            read_trajectory_csv(str(out))

    @pytest.mark.parametrize("text", ["t,dim0,dim1\n0,1,2\n", "t\n0\n", "t,dim1\n0,1\n", ""])
    def test_read_accepts_only_one_column_header(self, tmp_path, text):
        out = tmp_path / "bad.csv"
        out.write_text(text)
        with pytest.raises(ConfigError, match="t,dim0"):
            read_trajectory_csv(str(out))

    @pytest.mark.parametrize("body", ["0,1,2\n", "0,1\n1\n", ""])
    def test_read_rejects_rows_not_of_two_cells(self, tmp_path, body):
        out = tmp_path / "bad.csv"
        out.write_text("t,dim0\n" + body)
        with pytest.raises(ConfigError, match="two cells"):
            read_trajectory_csv(str(out))

    def test_load_waypoints_plain(self, tmp_path):
        out = tmp_path / "wp.csv"
        out.write_text("0.0,1.0\n0.5,2.0\n1.0,3.0\n")
        pts = load_waypoints(str(out))
        np.testing.assert_array_equal(pts, [[0.0, 1.0], [0.5, 2.0], [1.0, 3.0]])

    def test_load_waypoints_skips_header(self, tmp_path):
        out = tmp_path / "wp.csv"
        out.write_text("q0,q1\n0.0,1.0\n1.0,3.0\n")
        pts = load_waypoints(str(out))
        assert pts.shape == (2, 2)

    def test_load_waypoints_inconsistent_columns(self, tmp_path):
        out = tmp_path / "wp.csv"
        out.write_text("0.0,1.0\n0.5\n")
        with pytest.raises(ConfigError, match="column count"):
            load_waypoints(str(out))

    def test_load_waypoints_empty(self, tmp_path):
        out = tmp_path / "wp.csv"
        out.write_text("")
        with pytest.raises(ConfigError, match="empty"):
            load_waypoints(str(out))
