"""Synthetic trajectories shared by the test modules."""

import numpy as np

from hsepsr.windows import Trajectory


def synthetic_trajectory(seed=0, n=60, da=1, do=1):
    """Smooth controlled process: leaky state pushed by the action."""
    rng = np.random.default_rng(seed)
    actions = rng.uniform(-1.0, 1.0, (n, da))
    obs = np.zeros((n, do))
    state = np.zeros(do)
    for t in range(n):
        state = 0.8 * state + 0.5 * np.tanh(actions[t, 0]) + 0.05 * rng.normal(size=do)
        obs[t] = state
    return Trajectory(actions, obs)
