"""Trajectory containers, sliding-window extraction, and standardization.

Training data is a single action-observation trajectory (a_0, o_0), ...,
(a_{n-1}, o_{n-1}) where o_t is the response to a_t.  From it we extract,
for each start index i in 0..T-1 with T = n - L - N:

* history window    : interleaved pairs (a_i, o_i, ..., a_{i+L-1}, o_{i+L-1})
* test action window: (a_{L+i}, ..., a_{L+i+N-1}), flattened time-major
* test obs window   : (o_{L+i}, ..., o_{L+i+N-1})
* shifted windows   : the same two windows advanced by one step
* current pair      : a_{L+i}, o_{L+i}

so the shifted windows of sample i cover times L+i+1 .. L+i+N, the ranges
a recursive filter needs after absorbing the pair at time L+i.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@dataclass(frozen=True)
class Trajectory:
    """One action-observation sequence; ``observations[t]`` responds to ``actions[t]``.

    Each stream is (n, d), or 1-d for n steps of one scalar.  ``discrete``
    marks integer-coded symbol streams: standardization is skipped for
    them and exact-match kernels are appropriate.
    """

    actions: np.ndarray
    observations: np.ndarray
    discrete: bool = False

    def __post_init__(self):
        a, o = (np.asarray(x, dtype=float) for x in (self.actions, self.observations))
        if not {a.ndim, o.ndim} <= {1, 2}:
            raise ValueError(
                "actions and observations must be 1-d (one scalar per step) "
                f"or 2-d arrays, got {a.ndim}-d and {o.ndim}-d"
            )
        a, o = (x.reshape(-1, 1) if x.ndim == 1 else x for x in (a, o))
        if a.shape[0] != o.shape[0]:
            raise ValueError(
                f"length mismatch: {a.shape[0]} actions vs {o.shape[0]} observations"
            )
        if a.shape[0] < 1:
            raise ValueError("trajectory must contain at least one step")
        for name, x in (("actions", a), ("observations", o)):
            if x.shape[1] < 1:
                raise ValueError(f"{name} must have at least one column, got {x.shape}")
        if not (np.isfinite(a).all() and np.isfinite(o).all()):
            raise ValueError("trajectory contains non-finite values")
        object.__setattr__(self, "actions", a)
        object.__setattr__(self, "observations", o)

    @property
    def n(self) -> int:
        return self.actions.shape[0]

    @property
    def action_dim(self) -> int:
        return self.actions.shape[1]

    @property
    def obs_dim(self) -> int:
        return self.observations.shape[1]


@dataclass(frozen=True)
class WindowConfig:
    """Window lengths: ``history_length`` past pairs, ``test_length`` future steps."""

    history_length: int
    test_length: int

    def __post_init__(self):
        if self.history_length < 1:
            raise ValueError(
                f"history_length must be at least 1, got {self.history_length}"
            )
        if self.test_length < 1:
            raise ValueError(f"test_length must be at least 1, got {self.test_length}")

    def min_steps(self) -> int:
        """Shortest trajectory that yields one sample (shifted windows included)."""
        return self.history_length + self.test_length + 1


@dataclass(frozen=True)
class Standardizer:
    """Per-coordinate affine transform x -> (x - mean) / scale for both streams.

    Zero-variance coordinates get scale 1 so they are centered only.  The
    inverse observation map is what turns predictions back into raw units.
    """

    action_mean: np.ndarray
    action_scale: np.ndarray
    obs_mean: np.ndarray
    obs_scale: np.ndarray

    @classmethod
    def fit(cls, traj: Trajectory) -> "Standardizer":
        def stats(x):
            mean = x.mean(axis=0)
            scale = x.std(axis=0)
            scale = np.where(scale > 0, scale, 1.0)
            return mean, scale

        am, asc = stats(traj.actions)
        om, osc = stats(traj.observations)
        return cls(am, asc, om, osc)

    @classmethod
    def identity(cls, action_dim: int, obs_dim: int) -> "Standardizer":
        return cls(
            np.zeros(action_dim), np.ones(action_dim),
            np.zeros(obs_dim), np.ones(obs_dim),
        )

    def transform_actions(self, a: np.ndarray) -> np.ndarray:
        return (np.asarray(a, dtype=float) - self.action_mean) / self.action_scale

    def transform_obs(self, o: np.ndarray) -> np.ndarray:
        return (np.asarray(o, dtype=float) - self.obs_mean) / self.obs_scale

    def inverse_obs(self, o: np.ndarray) -> np.ndarray:
        return np.asarray(o, dtype=float) * self.obs_scale + self.obs_mean

    def transform(self, traj: Trajectory) -> Trajectory:
        return Trajectory(
            self.transform_actions(traj.actions),
            self.transform_obs(traj.observations),
            discrete=traj.discrete,
        )


@dataclass(frozen=True)
class WindowedData:
    """All window lists extracted from one standardized trajectory.

    Row s of every array corresponds to the same start index s; shapes are
    (T, L*(da+do)) for histories, (T, N*da) and (T, N*do) for the test
    window lists, and (T, da), (T, do) for the current pairs.
    """

    config: WindowConfig
    standardizer: Standardizer
    discrete: bool
    histories: np.ndarray
    test_actions: np.ndarray
    test_obs: np.ndarray
    shifted_test_actions: np.ndarray
    shifted_test_obs: np.ndarray
    cur_actions: np.ndarray
    cur_obs: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.histories.shape[0]


def _time_major_windows(x: np.ndarray, width: int) -> np.ndarray:
    """All contiguous windows of ``width`` rows of x, each flattened time-major."""
    v = sliding_window_view(x, width, axis=0)  # (n - width + 1, d, width)
    return v.transpose(0, 2, 1).reshape(x.shape[0] - width + 1, width * x.shape[1])


def build_windows(traj: Trajectory, config: WindowConfig) -> WindowedData:
    """Extract every window list the learner needs from one trajectory.

    Continuous streams are standardized (discrete ones are left as they
    are): the transform is fit on the raw trajectory and applied before
    windowing, and it travels with the result so downstream predictions
    can be mapped back to raw units.
    """
    L, N = config.history_length, config.test_length
    if traj.n < config.min_steps():
        raise ValueError(
            f"trajectory of {traj.n} steps is too short for history length {L} "
            f"and test length {N}; need at least {config.min_steps()}"
        )
    if traj.discrete:
        std = Standardizer.identity(traj.action_dim, traj.obs_dim)
    else:
        std = Standardizer.fit(traj)
    work = std.transform(traj)

    T = traj.n - L - N
    pairs = np.concatenate([work.actions, work.observations], axis=1)
    histories = _time_major_windows(pairs, L)[:T]
    act_windows = _time_major_windows(work.actions, N)
    obs_windows = _time_major_windows(work.observations, N)

    return WindowedData(
        config=config,
        standardizer=std,
        discrete=traj.discrete,
        histories=np.ascontiguousarray(histories),
        test_actions=np.ascontiguousarray(act_windows[L : L + T]),
        test_obs=np.ascontiguousarray(obs_windows[L : L + T]),
        shifted_test_actions=np.ascontiguousarray(act_windows[L + 1 : L + 1 + T]),
        shifted_test_obs=np.ascontiguousarray(obs_windows[L + 1 : L + 1 + T]),
        cur_actions=np.ascontiguousarray(work.actions[L : L + T]),
        cur_obs=np.ascontiguousarray(work.observations[L : L + T]),
    )


def write_trajectory_csv(path, traj: Trajectory) -> None:
    """Write a trajectory as CSV with header t,a_0..a_{da-1},o_0..o_{do-1}."""
    da, do = traj.action_dim, traj.obs_dim
    header = (
        ["t"]
        + [f"a_{i}" for i in range(da)]
        + [f"o_{i}" for i in range(do)]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(traj.n):
            row = [t]
            row += [repr(float(v)) for v in traj.actions[t]]
            row += [repr(float(v)) for v in traj.observations[t]]
            writer.writerow(row)


def read_trajectory_csv(path, discrete: bool = False) -> Trajectory:
    """Read a trajectory written by :func:`write_trajectory_csv`, skipping
    blank lines; a malformed row (too short, a non-numeric, NaN or infinite
    cell) raises ValueError naming file and line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty trajectory file")
        header = [h.strip() for h in header]
        if header[0] != "t":
            raise ValueError(f"{path}: first column must be 't', got {header[0]!r}")
        a_cols = [i for i, h in enumerate(header) if h.startswith("a_")]
        o_cols = [i for i, h in enumerate(header) if h.startswith("o_")]
        if not a_cols or not o_cols:
            raise ValueError(f"{path}: header must contain a_* and o_* columns")
        actions, observations = [], []
        for row in reader:
            if not row:
                continue
            where = f"{path}:{reader.line_num}"
            if len(row) < len(header):
                raise ValueError(
                    f"{where}: row has {len(row)} cells, header has {len(header)}"
                )
            try:
                values = [float(row[i]) for i in a_cols + o_cols]
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            if not np.isfinite(values).all():
                raise ValueError(f"{where}: non-finite value in {row}")
            actions.append(values[: len(a_cols)])
            observations.append(values[len(a_cols) :])
    if not actions:
        raise ValueError(f"{path}: no data rows")
    return Trajectory(np.array(actions), np.array(observations), discrete=discrete)
