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

``evaluate`` is the desk benchmark, the one driver of this protocol behind
``hsepsr evaluate``: it splits one trajectory into training and test
parts, trains the model, scores it and both baselines on the same extent
grid, and decides the two gates set by the ``*_GATE_*`` constants: short
horizons below both baselines, and the longest within a factor of the mean
baseline.  The desk defaults live in its signature and in the ``DESK_*``
constants.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from hsepsr.filter import filter_trajectory
from hsepsr.learner import DEFAULT_LAM, HsePsrModel, train
from hsepsr.predict import rollout_predict_many
from hsepsr.windows import Trajectory, WindowConfig

#: Desk protocol defaults; ``evaluate``'s signature and the CLI read them.
DESK_HORIZONS = tuple(range(1, 11)) + (20, 50, 100)
DESK_TRAIN_STEPS = 500
DESK_WINDOW = 10
DESK_EXTENT = 101
DESK_EXTENT_STEP = 10

#: Gates: horizons 1..SHORT_GATE_MAX below both baselines, and the MSE at
#: LONG_GATE_HORIZON at most LONG_GATE_RATIO times the mean baseline's.
SHORT_GATE_MAX = 10
LONG_GATE_HORIZON = 100
LONG_GATE_RATIO = 1.5


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
    pairs in ``rollout_resets``; its escalated solves, prefix filter first,
    are kept as ``SolveEvent``s in ``solve_events``."""

    model: HsePsrModel
    renormalize: bool = True
    name: str = "hse-psr"
    filter_resets: list = field(default_factory=list, init=False)
    rollout_resets: list = field(default_factory=list, init=False)
    solve_events: list = field(default_factory=list, init=False)

    def predict_all(self, actions, observations, extents, horizons) -> np.ndarray:
        model = self.model
        N = model.config.test_length
        extents = [int(e) for e in extents]
        if min(extents) < 1:
            raise ValueError(f"extents must be at least 1, got {min(extents)}")
        plan_len = max(N, max(int(h) for h in horizons))
        last = max(extents)
        if last + plan_len > len(actions):
            raise ValueError(
                f"extent {last} plus plan length {plan_len} exceeds the "
                f"{len(actions)} test steps"
            )
        self.solve_events = []
        result = filter_trajectory(
            model, None, actions[:last], observations[:last], self.renormalize,
            events=self.solve_events,
        )
        W = np.stack([result.states[e - 1].weights for e in extents])
        plans = np.stack([actions[e : e + plan_len] for e in extents])
        self.filter_resets = result.resets
        self.rollout_resets = []
        return rollout_predict_many(
            model, W, plans, horizons, self.renormalize,
            resets=self.rollout_resets, events=self.solve_events,
        )


def desk_extents(
    n_test: int, horizons, start: int = DESK_EXTENT, step: int = DESK_EXTENT_STEP
) -> list:
    """Extent grid {start, start+step, ...} trimmed so every horizon has a
    realized observation inside the n_test test steps."""
    if step < 1:
        raise ValueError(f"extent step must be at least 1, got {step}")
    max_h = max(int(h) for h in horizons)
    return list(range(start, n_test - max_h + 1, step))


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
        raise ValueError(
            "extents and horizons must be positive, got extent "
            f"{extents[0]} and horizon {horizons[0]}"
        )
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


@dataclass
class Evaluation:
    """One desk benchmark run: the model's and both baselines' MSE tables,
    the model's belief resets and escalated solves, and the two gates
    decided from the tables."""

    model: MseTable
    mean: MseTable
    previous: MseTable
    filter_resets: int = 0
    rollout_resets: int = 0
    solve_escalations: int = 0

    @property
    def tables(self) -> list:
        return [self.model, self.mean, self.previous]

    def below_both(self, horizon: int) -> bool:
        m = self.model.at(horizon)
        return m < self.mean.at(horizon) and m < self.previous.at(horizon)

    @property
    def short_failures(self) -> list | None:
        """Horizons up to SHORT_GATE_MAX where the model is not below both
        baselines, or None when the tables score none of them."""
        short = [h for h in self.model.horizons if h <= SHORT_GATE_MAX]
        if not short:
            return None
        return [h for h in short if not self.below_both(h)]

    @property
    def long_ratio(self) -> float | None:
        """Model over mean-baseline MSE at LONG_GATE_HORIZON, or None when
        that horizon is unscored."""
        if LONG_GATE_HORIZON not in self.model.horizons:
            return None
        return self.model.at(LONG_GATE_HORIZON) / self.mean.at(LONG_GATE_HORIZON)

    def summary_lines(self) -> list[str]:
        lines = [
            f"belief resets: {self.filter_resets} in the prefix filter, "
            f"{self.rollout_resets} in rollouts; "
            f"solve escalations: {self.solve_escalations}"
        ]
        for h in self.model.horizons:
            lines.append(
                f"h={h:>3} hse-psr {self.model.at(h):.5f} "
                f"mean {self.mean.at(h):.5f} previous {self.previous.at(h):.5f} "
                f"{'below both' if self.below_both(h) else 'not below both'}"
            )
        fails = self.short_failures
        if fails is not None:
            verdict = f"FAIL (horizons {fails})" if fails else "PASS"
            lines.append(
                f"horizons 1-{SHORT_GATE_MAX} below both baselines: {verdict}"
            )
        ratio = self.long_ratio
        if ratio is not None:
            verdict = "PASS" if ratio <= LONG_GATE_RATIO else "FAIL"
            lines.append(
                f"h={LONG_GATE_HORIZON} within {LONG_GATE_RATIO:g}x of mean "
                f"baseline: {verdict} (ratio {ratio:.3f})"
            )
        return lines


def evaluate(
    traj: Trajectory,
    *,
    train_steps: int = DESK_TRAIN_STEPS,
    history_length: int = DESK_WINDOW,
    test_length: int = DESK_WINDOW,
    lam: float = DEFAULT_LAM,
    extent: int = DESK_EXTENT,
    extent_step: int = DESK_EXTENT_STEP,
    horizons=DESK_HORIZONS,
    renormalize: bool = True,
    seed: int = 0,
    **train_kw,
) -> Evaluation:
    """Run the desk benchmark on one trajectory.

    The first ``train_steps`` steps train the model (further keyword
    arguments go to ``learner.train``); the rest are the test split, scored
    for the model and both baselines on the ``desk_extents`` grid from
    ``extent`` every ``extent_step`` steps.  ``seed`` only labels the
    tables.
    """
    if not 1 <= train_steps < traj.n:
        raise ValueError(
            f"train_steps must be in 1..{traj.n - 1} to leave a test split "
            f"of the {traj.n}-step trajectory, got {train_steps}"
        )
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    train_traj, test = (
        Trajectory(traj.actions[part], traj.observations[part], traj.discrete)
        for part in (slice(None, train_steps), slice(train_steps, None))
    )
    extents = desk_extents(test.n, horizons, start=extent, step=extent_step)
    if not extents:
        raise ValueError("no extent fits the test split with these horizons")
    common = dict(
        extents=extents, horizons=horizons, train_size=train_steps, seed=seed
    )
    # the baselines run first: run_protocol rejects a bad extent or horizon
    # before the model is trained
    mean = run_protocol(baseline_mean(train_traj), test, **common)
    previous = run_protocol(baseline_prev(), test, **common)
    model = train(
        train_traj, WindowConfig(history_length, test_length), lam=lam, **train_kw
    )
    predictor = ModelPredictor(model, renormalize)
    return Evaluation(
        model=run_protocol(predictor, test, **common),
        mean=mean,
        previous=previous,
        filter_resets=len(predictor.filter_resets),
        rollout_resets=len(predictor.rollout_resets),
        solve_escalations=len(predictor.solve_events),
    )
