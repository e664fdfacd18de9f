"""Synthetic nonlinear benchmark system driven by a blind random policy.

A planar state (x1, x2) evolves under

    dx1/dt = x2 - 0.1 cos(x1) (5 x1 - 4 x1^3 + x1^5) - 0.5 cos(x1) u
    dx2/dt = -65 x1 + 50 x1^3 - 15 x1^5 - x2 - 100 u
    y      = x1

sampled at 20 Hz.  The input u is zero-order-hold white noise: a fresh
uniform draw from [u_low, u_high] per sample interval, held constant while
the interval is integrated with fixed-step RK4.  Each observation is the
state after its interval, so observation t responds to action t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hsepsr.windows import Trajectory


@dataclass(frozen=True)
class SynthConfig:
    """Simulation settings; defaults give the 20 Hz benchmark system."""

    n_steps: int
    dt: float = 0.05
    substeps: int = 10
    u_low: float = -0.5
    u_high: float = 0.5
    seed: int = 0
    x0: tuple = (0.0, 0.0)

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be at least 1, got {self.n_steps}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.substeps < 1:
            raise ValueError("substeps must be at least 1")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.u_low <= self.u_high:
            raise ValueError("u_low must not exceed u_high")


def _deriv(x: np.ndarray, u: float) -> np.ndarray:
    x1, x2 = x
    c = np.cos(x1)
    return np.array(
        [
            x2 - 0.1 * c * (5.0 * x1 - 4.0 * x1**3 + x1**5) - 0.5 * c * u,
            -65.0 * x1 + 50.0 * x1**3 - 15.0 * x1**5 - x2 - 100.0 * u,
        ]
    )


def _rk4_interval(x: np.ndarray, u: float, dt: float, substeps: int) -> np.ndarray:
    h = dt / substeps
    for _ in range(substeps):
        k1 = _deriv(x, u)
        k2 = _deriv(x + 0.5 * h * k1, u)
        k3 = _deriv(x + 0.5 * h * k2, u)
        k4 = _deriv(x + h * k3, u)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def simulate_system(config: SynthConfig) -> Trajectory:
    """Simulate ``config.n_steps`` action-observation pairs.

    Deterministic given the seed.  Raises if the state leaves the finite
    range, naming the offending step.
    """
    rng = np.random.default_rng(config.seed)
    u_seq = rng.uniform(config.u_low, config.u_high, config.n_steps)
    x = np.asarray(config.x0, dtype=float)
    obs = np.empty(config.n_steps)
    for t, u in enumerate(u_seq):
        x = _rk4_interval(x, u, config.dt, config.substeps)
        if not np.all(np.isfinite(x)):
            raise FloatingPointError(
                f"state became non-finite at step {t}; "
                "reduce dt or the input range"
            )
        obs[t] = x[0]
    return Trajectory(u_seq.reshape(-1, 1), obs.reshape(-1, 1))
