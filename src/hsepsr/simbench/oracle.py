"""Explicit finite-dimensional twin of the Gram-matrix filter.

On discrete data every exact-match kernel is the inner product of one-hot
features over the finitely many distinct values, so every embedding and
conditional operator the learner estimates is a small dense matrix.  This
module trains those objects directly in feature space from the same
windowed samples and regularizer the Gram path uses, then filters with the
same recursion, carrying the identical weight vector over training
samples.  Ridge push-through (A^T (A A^T + c I)^{-1} = (A^T A + c I)^{-1}
A^T) makes the two implementations algebraically equal stage by stage, so
their per-step weights and one-step observation predictions must agree to
numerical precision; disagreement localizes a defect in either recursion.

Per-step cost here scales with the feature dimensions and T^2 rather than
T^3, which makes this path the practical one for convergence studies at
large sample counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from hsepsr.filter import condition_action, condition_observation, propagate
from hsepsr.learner import DEGENERATE_TOL, HsePsrModel
from hsepsr.simbench.discrete import (
    DiscreteOracleSystem,
    exact_filter,
    sample_trajectory,
)
from hsepsr.windows import WindowConfig, WindowedData, build_windows


class OneHotCodec:
    """One-hot features over the distinct rows of the training data.

    Unseen rows encode to the zero vector, matching an exact-match kernel
    evaluated between a novel point and the training set.
    """

    def __init__(self, *row_sets: np.ndarray):
        stacked = np.vstack([np.atleast_2d(r) for r in row_sets])
        self.vocab = np.unique(stacked, axis=0)
        self._index = {row.tobytes(): i for i, row in enumerate(self.vocab)}

    @property
    def size(self) -> int:
        return self.vocab.shape[0]

    def encode(self, row: np.ndarray) -> np.ndarray:
        out = np.zeros(self.size)
        i = self._index.get(np.ascontiguousarray(row, dtype=float).tobytes())
        if i is not None:
            out[i] = 1.0
        return out

    def encode_many(self, rows: np.ndarray) -> np.ndarray:
        """Feature matrix with one column per row of ``rows``."""
        return np.stack([self.encode(r) for r in np.atleast_2d(rows)], axis=1)


@dataclass
class ExplicitModel:
    """Feature-space form of a trained model (exact-match kernels only).

    ``prior_weights`` is the per-history weight matrix; ``state_feats``
    column t is the flattened conditional operator of training state t;
    ``state_cov`` is the regularized state covariance whose solves project
    window conditionals back onto the states; ``action_cov_inv`` holds the
    per-history inverted second moments of the executed action's features,
    which the action stage contracts instead of solving per sample.
    """

    action_codec: OneHotCodec
    obs_codec: OneHotCodec
    lam_T: float
    prior_weights: np.ndarray
    state_feats: np.ndarray
    state_cov: np.ndarray
    action_cov_inv: np.ndarray
    shifted_obs_feats: np.ndarray
    shifted_act_feats: np.ndarray
    cur_act_feats: np.ndarray
    cur_obs_feats: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.prior_weights.shape[0]

    def feasible_weights(self) -> np.ndarray:
        return np.full(self.n_samples, 1.0 / self.n_samples)


def _weighted_conditional(
    out_feats: np.ndarray, in_feats: np.ndarray, weights: np.ndarray, lam_T: float
) -> np.ndarray:
    """Operator out <- in under prior sample weights:
    out diag(w) in^T (in diag(w) in^T + lam_T I)^{-1}, solved in feature space."""
    in_w = in_feats * weights
    lhs = in_w @ in_feats.T + lam_T * np.eye(in_feats.shape[0])
    return np.linalg.solve(lhs, in_w @ out_feats.T).T


def train_explicit(windows: WindowedData, lam: float) -> ExplicitModel:
    """Estimate the feature-space filter from windowed discrete data."""
    T = windows.n_samples
    lam_T = lam * T
    hist = OneHotCodec(windows.histories)
    tact = OneHotCodec(windows.test_actions, windows.shifted_test_actions)
    tobs = OneHotCodec(windows.test_obs, windows.shifted_test_obs)
    act = OneHotCodec(windows.cur_actions)
    obs = OneHotCodec(windows.cur_obs)

    Hm = hist.encode_many(windows.histories)
    Ua = tact.encode_many(windows.test_actions)
    Ua_s = tact.encode_many(windows.shifted_test_actions)
    Uo = tobs.encode_many(windows.test_obs)
    Uo_s = tobs.encode_many(windows.shifted_test_obs)
    Va = act.encode_many(windows.cur_actions)
    Vo = obs.encode_many(windows.cur_obs)

    # per-history prior weights over samples, via the feature-space ridge
    A = Hm.T @ np.linalg.solve(Hm @ Hm.T + lam_T * np.eye(hist.size), Hm)
    A = np.ascontiguousarray(A)

    # training states: conditional operators of the test-observation window
    # given the test-action window, one per history
    d_state = tobs.size * tact.size
    Psi = np.empty((d_state, T))
    for t in range(T):
        Psi[:, t] = _weighted_conditional(Uo, Ua, A[:, t], lam_T).reshape(-1)
    state_cov = Psi @ Psi.T + lam_T * np.eye(d_state)

    # per-history second moments of the executed action's features
    covs = np.einsum("si,as,bs->iab", A, Va, Va) + lam_T * np.eye(act.size)
    action_cov_inv = np.linalg.inv(covs)

    return ExplicitModel(
        action_codec=act,
        obs_codec=obs,
        lam_T=lam_T,
        prior_weights=A,
        state_feats=Psi,
        state_cov=state_cov,
        action_cov_inv=action_cov_inv,
        shifted_obs_feats=Uo_s,
        shifted_act_feats=Ua_s,
        cur_act_feats=Va,
        cur_obs_feats=Vo,
    )


@dataclass
class OracleFilterResult:
    """Per-step one-step observation predictions from a filter run.

    ``distributions[t, k]`` approximates the probability of symbol k at
    step t given the history so far and the executed action; columns
    follow the observation codec's vocabulary order.  The readout is a
    raw expectation and may carry small negative entries; normalize with
    :func:`normalize_distributions` before comparing to probabilities.
    """

    distributions: np.ndarray
    resets: list = field(default_factory=list)


def explicit_filter(
    em: ExplicitModel,
    actions: np.ndarray,
    observations: np.ndarray,
    renormalize: bool = True,
) -> OracleFilterResult:
    """Run the feature-space filter over integer-coded pairs.

    Mirrors the Gram path stage by stage: propagate the weights through
    the belief's shifted-window conditional, condition on the executed
    action, read out the expected observation indicators, then absorb the
    received observation with a Bayes step.
    """
    a_rows = np.atleast_2d(np.asarray(actions, dtype=float))
    o_rows = np.atleast_2d(np.asarray(observations, dtype=float))
    n = a_rows.shape[0]
    T = em.n_samples
    d_o = em.obs_codec.size
    Vo, Va = em.cur_obs_feats, em.cur_act_feats
    dists = np.empty((n, d_o))
    resets = []
    eye_o = np.eye(d_o)
    w = em.feasible_weights()
    for t in range(n):
        shift_op = _weighted_conditional(
            em.shifted_obs_feats, em.shifted_act_feats, w, em.lam_T
        )
        ahat = em.state_feats.T @ np.linalg.solve(
            em.state_cov, shift_op.reshape(-1)
        )
        phi_a = em.action_codec.encode(a_rows[t])
        responses = Va.T @ (em.action_cov_inv @ phi_a).T
        w_a = (em.prior_weights * responses) @ ahat
        dists[t] = Vo @ w_a
        phi_o = em.obs_codec.encode(o_rows[t])
        x = np.linalg.solve((Vo * w_a) @ Vo.T + em.lam_T * eye_o, phi_o)
        w = w_a * (Vo.T @ x)
        if renormalize:
            total = w.sum()
            degenerate = abs(total) < DEGENERATE_TOL
            if not degenerate:
                w = w / total
        else:
            degenerate = float(np.abs(w).sum()) < DEGENERATE_TOL
        if degenerate:
            resets.append(t)
            w = em.feasible_weights()
    return OracleFilterResult(distributions=dists, resets=resets)


def gram_filter_distributions(
    model: HsePsrModel,
    actions: np.ndarray,
    observations: np.ndarray,
    renormalize: bool = True,
) -> OracleFilterResult:
    """Per-step one-step observation predictions from the Gram-matrix path.

    Runs the standard filter stages and, between the action and
    observation steps, reads off the expected indicator of each distinct
    training observation symbol.
    """
    codec = OneHotCodec(model.cur_obs)
    indicators = codec.encode_many(model.cur_obs)
    a_rows = np.atleast_2d(np.asarray(actions, dtype=float))
    o_rows = np.atleast_2d(np.asarray(observations, dtype=float))
    n = a_rows.shape[0]
    dists = np.empty((n, codec.size))
    resets = []
    state = model.feasible_state()
    for t in range(n):
        w = propagate(model, state)
        w = condition_action(model, w, a_rows[t])
        dists[t] = indicators @ w
        state = condition_observation(
            model, w, o_rows[t], renormalize=renormalize
        )
        if state.degenerate:
            resets.append(t)
            state = model.feasible_state()
    return OracleFilterResult(distributions=dists, resets=resets)


def normalize_distributions(raw: np.ndarray) -> np.ndarray:
    """Map raw indicator expectations to probability vectors.

    Negative entries are clipped to zero and each vector rescaled to unit
    sum along the last axis; a vector with no positive mass becomes
    uniform.
    """
    P = np.clip(np.asarray(raw, dtype=float), 0.0, None)
    totals = P.sum(axis=-1, keepdims=True)
    uniform = np.full(P.shape[-1], 1.0 / P.shape[-1])
    return np.where(totals > 0.0, P / np.where(totals > 0.0, totals, 1.0), uniform)


@dataclass
class ConvergencePoint:
    """One-step prediction error of models trained on ``n_samples`` pairs.

    ``tv_by_seed`` holds each training seed's total-variation distance to
    the exact filter, averaged over the probe steps; ``median_tv`` is the
    median across seeds.
    """

    n_samples: int
    lam: float
    median_tv: float
    tv_by_seed: np.ndarray


def convergence_curve(
    system: DiscreteOracleSystem,
    sample_counts,
    seeds=(0, 1, 2, 3, 4),
) -> list[ConvergencePoint]:
    """One-step prediction error against the exact filter as T grows.

    For each sample count T a model with one-step windows is trained per
    seed on a fresh trajectory, at the decaying regularizer 1/T, run over
    a held-out 210-step probe trajectory (seeded ``seed + 10000``) with
    per-step renormalization, and scored by the total-variation distance
    between its normalized one-step readouts and the exact filter's
    predictive distributions, averaged over the probe steps after the
    first 10.  Larger sample counts should give smaller median errors.
    """
    burn_in = 10
    points = []
    for T in sample_counts:
        tvs = []
        for seed in seeds:
            traj = sample_trajectory(system, T + 2, seed=seed)
            windows = build_windows(traj, WindowConfig(1, 1))
            em = train_explicit(windows, 1.0 / T)
            probe = sample_trajectory(system, 210, seed=seed + 10_000)
            run = explicit_filter(
                em, probe.actions, probe.observations, renormalize=True
            )
            truth = exact_filter(system, probe.actions, probe.observations)
            dists = normalize_distributions(run.distributions[burn_in:])
            # scatter the observed-symbol columns into the system's full
            # symbol range; symbols never seen in training keep zero mass
            cols = np.rint(
                windows.standardizer.inverse_obs(em.obs_codec.vocab).ravel()
            ).astype(int)
            full = np.zeros((dists.shape[0], system.n_obs))
            full[:, cols] = dists
            gap = full - truth.predicted_obs[burn_in:]
            tvs.append(0.5 * float(np.abs(gap).sum(axis=1).mean()))
        tvs = np.asarray(tvs)
        points.append(
            ConvergencePoint(
                n_samples=T,
                lam=1.0 / T,
                median_tv=float(np.median(tvs)),
                tv_by_seed=tvs,
            )
        )
    return points
