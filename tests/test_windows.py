import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hsepsr.windows import (
    Standardizer,
    Trajectory,
    WindowConfig,
    build_windows,
    read_trajectory_csv,
    write_trajectory_csv,
)


def ramp_trajectory(n, da=1, do=1, discrete=False):
    """Actions 100 + t per coordinate, observations 200 + t: windows readable by eye."""
    a = 100.0 + np.arange(n)[:, None] + np.arange(da)[None, :] * 0.1
    o = 200.0 + np.arange(n)[:, None] + np.arange(do)[None, :] * 0.1
    return Trajectory(a, o, discrete=discrete)


class TestTrajectory:
    def test_validation(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros((3, 1)), np.zeros((4, 1)))
        with pytest.raises(ValueError):
            Trajectory(np.zeros((0, 1)), np.zeros((0, 1)))
        with pytest.raises(ValueError):
            Trajectory(np.array([[np.nan]]), np.array([[0.0]]))

    def test_shapes(self):
        t = ramp_trajectory(5, da=2, do=3)
        assert (t.n, t.action_dim, t.obs_dim) == (5, 2, 3)


class TestBuildWindows:
    def test_sample_count(self):
        w = build_windows(ramp_trajectory(30), WindowConfig(4, 3))
        assert w.n_samples == 30 - 4 - 3

    def test_too_short_raises(self):
        cfg = WindowConfig(4, 3)
        build_windows(ramp_trajectory(cfg.min_steps()), cfg)
        with pytest.raises(ValueError):
            build_windows(ramp_trajectory(cfg.min_steps() - 1), cfg)

    def test_window_contents_by_hand(self):
        # L=2, N=2, n=6 gives T=2; check every field of sample 1, which a
        # discrete trajectory leaves unstandardized
        traj = ramp_trajectory(6, da=1, do=2, discrete=True)
        w = build_windows(traj, WindowConfig(2, 2))
        i = 1
        # history: (a_1, o_1, a_2, o_2) interleaved
        expect_hist = np.concatenate(
            [traj.actions[1], traj.observations[1], traj.actions[2], traj.observations[2]]
        )
        assert np.array_equal(w.histories[i], expect_hist)
        # test windows start at L + i = 3
        assert np.array_equal(
            w.test_actions[i], np.concatenate([traj.actions[3], traj.actions[4]])
        )
        assert np.array_equal(
            w.test_obs[i], np.concatenate([traj.observations[3], traj.observations[4]])
        )
        # shifted windows start at 4
        assert np.array_equal(
            w.shifted_test_actions[i],
            np.concatenate([traj.actions[4], traj.actions[5]]),
        )
        assert np.array_equal(
            w.shifted_test_obs[i],
            np.concatenate([traj.observations[4], traj.observations[5]]),
        )
        assert np.array_equal(w.cur_actions[i], traj.actions[3])
        assert np.array_equal(w.cur_obs[i], traj.observations[3])

    @given(
        st.integers(1, 4), st.integers(1, 4), st.integers(0, 10),
        st.integers(1, 2), st.integers(1, 2),
    )
    def test_shift_property(self, L, N, extra, da, do):
        """Shifted window of sample s equals unshifted window of sample s+1."""
        n = L + N + 1 + extra
        w = build_windows(ramp_trajectory(n, da, do), WindowConfig(L, N))
        T = w.n_samples
        assert T == n - L - N
        if T > 1:
            assert np.array_equal(w.shifted_test_actions[:-1], w.test_actions[1:])
            assert np.array_equal(w.shifted_test_obs[:-1], w.test_obs[1:])

    def test_current_pair_sits_at_window_head(self):
        w = build_windows(ramp_trajectory(20, da=2, do=1), WindowConfig(3, 4))
        assert np.array_equal(w.cur_actions, w.test_actions[:, :2])
        assert np.array_equal(w.cur_obs, w.test_obs[:, :1])


class TestStandardize:
    def test_windows_are_standardized_by_default(self, rng):
        traj = Trajectory(rng.normal(3, 2, (200, 1)), rng.normal(-1, 0.5, (200, 2)))
        w = build_windows(traj, WindowConfig(2, 2))
        # current actions are a near-complete slice of the standardized stream
        assert abs(w.cur_actions.mean()) < 0.2
        assert abs(w.cur_actions.std() - 1.0) < 0.2
        raw = w.standardizer.inverse_obs(w.cur_obs)
        assert np.allclose(raw, traj.observations[2:-2], atol=1e-12)

    def test_discrete_skips_standardization(self):
        traj = Trajectory(
            np.array([[0.0], [1.0], [2.0], [0.0], [1.0], [2.0]]),
            np.array([[1.0], [1.0], [0.0], [0.0], [1.0], [0.0]]),
            discrete=True,
        )
        w = build_windows(traj, WindowConfig(1, 1))
        std = w.standardizer
        for mean in (std.action_mean, std.obs_mean):
            assert np.array_equal(mean, np.zeros(1))
        for scale in (std.action_scale, std.obs_scale):
            assert np.array_equal(scale, np.ones(1))
        assert np.array_equal(w.cur_obs, traj.observations[1:-1])

    def test_zero_variance_coordinate_centered_only(self):
        traj = Trajectory(np.full((10, 1), 7.0), np.arange(10.0)[:, None])
        std = Standardizer.fit(traj)
        assert std.action_scale[0] == 1.0
        assert np.allclose(std.transform_actions(traj.actions), 0.0)

    def test_round_trip(self, rng):
        traj = Trajectory(rng.normal(size=(50, 2)), rng.normal(5, 3, (50, 1)))
        std = Standardizer.fit(traj)
        o = rng.normal(size=(7, 1))
        assert np.allclose(std.inverse_obs(std.transform_obs(o)), o, atol=1e-12)


class TestCsv:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        traj = Trajectory(rng.normal(size=(20, 2)), rng.normal(size=(20, 1)))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj)
        back = read_trajectory_csv(path)
        assert np.array_equal(back.actions, traj.actions)
        assert np.array_equal(back.observations, traj.observations)

    def test_header_format(self, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, ramp_trajectory(3, da=2, do=1))
        header = path.read_text().splitlines()[0]
        assert header == "t,a_0,a_1,o_0"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ValueError):
            read_trajectory_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_trajectory_csv(path)

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            ("1,0.5", "row has 2 cells, header has 3"),
            ("1,0.5,abc", "abc"),
            ("1,nan,0.3", "non-finite value"),
            ("1,0.5,inf", "non-finite value"),
        ],
    )
    def test_bad_row_names_file_and_line(self, tmp_path, bad_row, message):
        """A short row or a non-numeric, NaN or infinite cell is reported at
        its line; the blank line before it is skipped but still counted."""
        path = tmp_path / "rows.csv"
        path.write_text(f"t,a_0,o_0\n0,0.1,0.2\n\n{bad_row}\n2,0.3,0.4\n")
        with pytest.raises(ValueError, match=f"rows.csv:4: .*{message}"):
            read_trajectory_csv(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("t,a_0,o_0\n\n0,0.1,0.2\n\n1,0.3,0.4\n\n")
        traj = read_trajectory_csv(path)
        assert np.array_equal(traj.actions, [[0.1], [0.3]])
        assert np.array_equal(traj.observations, [[0.2], [0.4]])
