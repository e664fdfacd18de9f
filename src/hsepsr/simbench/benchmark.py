"""Benchmark protocol: filter to extents, roll out horizons, tabulate MSE.

For each extent t1 the predictor sees the first t1 test action-observation
pairs, then predicts the observation a further t2 steps ahead for every
horizon t2; squared errors against the realized observation are averaged
over extents per horizon.  Extents are independent given the filtered
prefix, so the model driver filters the test stream once from the feasible
state, snapshots the belief at each extent, and advances all snapshots
through the rollout levels together in one row-batched pass.

Baselines predict the training-mean observation and the last observation
seen before the extent, each constant across horizons.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from hsepsr.filter import filter_trajectory
from hsepsr.learner import HsePsrModel
from hsepsr.predict import rollout_predict_many
from hsepsr.windows import Trajectory

DESK_HORIZONS = tuple(range(1, 11)) + (20, 50, 100)


@dataclass
class MseTable:
    """Mean squared prediction error per horizon for one named predictor.

    ``mse[i]`` is the average over ``extents`` of the squared error at
    ``horizons[i]``.  Horizons are strictly ascending and entries are
    finite and nonnegative by construction.
    """

    model: str
    horizons: list
    mse: np.ndarray
    extents: list
    train_size: int
    seed: int

    def __post_init__(self):
        self.horizons = [int(h) for h in self.horizons]
        self.extents = [int(e) for e in self.extents]
        self.mse = np.asarray(self.mse, dtype=float)
        if any(b <= a for a, b in zip(self.horizons, self.horizons[1:])):
            raise ValueError("horizons must be strictly ascending")
        if self.mse.shape != (len(self.horizons),):
            raise ValueError("need exactly one mse entry per horizon")
        if not np.isfinite(self.mse).all() or (self.mse < 0).any():
            raise ValueError("mse entries must be finite and nonnegative")

    @property
    def n_extents(self) -> int:
        return len(self.extents)

    def at(self, horizon: int) -> float:
        return float(self.mse[self.horizons.index(int(horizon))])


def write_csv(path, tables) -> None:
    """Write tables as CSV rows ``model,horizon,mse,n_extents,seed``."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["model", "horizon", "mse", "n_extents", "seed"])
        for table in tables:
            for h, m in zip(table.horizons, table.mse):
                writer.writerow([table.model, h, float(m), table.n_extents, table.seed])


@dataclass
class MeanBaseline:
    """Constant predictor: the training-mean observation at every horizon."""

    mean_obs: np.ndarray
    name: str = "mean"

    def predict_all(self, actions, observations, extents, horizons) -> np.ndarray:
        shape = (len(extents), len(horizons), self.mean_obs.size)
        return np.broadcast_to(self.mean_obs, shape).copy()


@dataclass
class PrevBaseline:
    """Persistence predictor: the observation at the extent, all horizons."""

    name: str = "previous"

    def predict_all(self, actions, observations, extents, horizons) -> np.ndarray:
        last = observations[np.asarray(extents, dtype=int) - 1]
        return np.repeat(last[:, None, :], len(horizons), axis=1)


def baseline_mean(train: Trajectory) -> MeanBaseline:
    """Mean-observation baseline fit on a training trajectory."""
    obs = np.asarray(train.observations, dtype=float)
    if obs.size == 0:
        raise ValueError("mean baseline needs a nonempty training trajectory")
    return MeanBaseline(obs.mean(axis=0))


def baseline_prev() -> PrevBaseline:
    """Previous-observation baseline (needs no training data)."""
    return PrevBaseline()


@dataclass
class ModelPredictor:
    """Protocol driver for a trained model: filter once, snapshot extents,
    roll all extents forward together.  The last call's restarts are kept:
    prefix pair indices in ``filter_resets``, (extent row, rollout level)
    pairs in ``rollout_resets``."""

    model: HsePsrModel
    renormalize: bool = True
    name: str = "hse-psr"
    filter_resets: list = field(default_factory=list, init=False)
    rollout_resets: list = field(default_factory=list, init=False)

    def predict_all(self, actions, observations, extents, horizons) -> np.ndarray:
        model = self.model
        N = model.config.test_length
        extents = [int(e) for e in extents]
        plan_len = max(N, max(int(h) for h in horizons))
        last = max(extents)
        if last + plan_len > len(actions):
            raise ValueError(
                f"extent {last} plus plan length {plan_len} exceeds the "
                f"{len(actions)} test steps"
            )
        result = filter_trajectory(
            model, None, actions[:last], observations[:last], self.renormalize
        )
        W = np.stack([result.states[e - 1].weights for e in extents])
        plans = np.stack([actions[e : e + plan_len] for e in extents])
        self.filter_resets = result.resets
        self.rollout_resets = []
        return rollout_predict_many(
            model, W, plans, horizons, self.renormalize, resets=self.rollout_resets
        )


def desk_extents(n_test: int, horizons, start: int = 101, step: int = 10) -> list:
    """Extent grid {start, start+step, ...} trimmed so every horizon has a
    realized observation inside the n_test test steps."""
    max_h = max(int(h) for h in horizons)
    return list(range(start, n_test - max_h + 1, step))


def full_extents(n_test: int, horizons, start: int = 101) -> list:
    """Every extent from start with all horizons in bounds (long-running)."""
    return desk_extents(n_test, horizons, start=start, step=1)


def run_protocol(
    predictor,
    test: Trajectory,
    extents,
    horizons,
    train_size: int = 0,
    seed: int = 0,
    renormalize: bool = True,
) -> MseTable:
    """Score a predictor over filtering extents and prediction horizons.

    ``predictor`` is a trained model (wrapped with the given renormalize
    flag) or any object with ``name`` and ``predict_all``.  Every extent
    and horizon must stay within the test trajectory so each prediction
    has a realized observation to score against.
    """
    actions = np.asarray(test.actions, dtype=float)
    observations = np.asarray(test.observations, dtype=float)
    extents = sorted(int(e) for e in set(extents))
    horizons = sorted(int(h) for h in set(horizons))
    if not extents or not horizons:
        raise ValueError("need at least one extent and one horizon")
    if extents[0] < 1 or horizons[0] < 1:
        raise ValueError("extents and horizons must be positive")
    if extents[-1] + horizons[-1] > len(observations):
        raise ValueError(
            f"extent {extents[-1]} plus horizon {horizons[-1]} exceeds the "
            f"{len(observations)} test steps"
        )
    if isinstance(predictor, HsePsrModel):
        predictor = ModelPredictor(predictor, renormalize=renormalize)
    preds = np.asarray(
        predictor.predict_all(actions, observations, extents, horizons), dtype=float
    )
    expected = (len(extents), len(horizons), observations.shape[1])
    if preds.shape != expected:
        raise ValueError(f"predictor returned shape {preds.shape}, expected {expected}")
    truth = observations[np.add.outer(extents, horizons) - 1]
    sq = ((preds - truth) ** 2).sum(axis=2)
    return MseTable(
        model=predictor.name,
        horizons=horizons,
        mse=sq.mean(axis=0),
        extents=extents,
        train_size=train_size,
        seed=seed,
    )
