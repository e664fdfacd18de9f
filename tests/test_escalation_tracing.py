"""Every solve escalation goes through ``gramops.escalated_solve``.

perfbench's tracer counts escalations only by wrapping
``hsepsr.gramops.escalated_solve`` and reads its ``label=`` and
``events=`` keywords.  Each kernel Bayes path is forced to escalate one
row here under such a wrapper: a dense row, a Woodbury row and an action
factor; and so is the model build's readout inverse.
"""

import numpy as np
import pytest

import hsepsr.gramops as gramops
from hsepsr.gramops import conditioning_factors, kbr_form, kbr_step_batch
from hsepsr.learner import train
from hsepsr.simbench.discrete import default_system, sample_trajectory
from hsepsr.windows import WindowConfig


@pytest.fixture
def recorded(monkeypatch):
    """The (label, escalations) of every ``escalated_solve`` call, counted
    as perfbench's tracer counts them: in the ``events`` list passed by
    name.  Only a failing row reaches ``escalated_solve``, so each call
    here records one escalation."""
    calls = []
    real = gramops.escalated_solve

    def recorder(*args, **kwargs):
        assert "label" in kwargs and "events" in kwargs
        events = kwargs["events"]
        if events is None:
            events = kwargs["events"] = []
        before = len(events)
        try:
            return real(*args, **kwargs)
        finally:
            calls.append((kwargs["label"], len(events) - before))

    monkeypatch.setattr(gramops, "escalated_solve", recorder)
    return calls


def _low_rank(rng, T=40, r=3):
    Q, _ = np.linalg.qr(rng.normal(size=(T, T)))
    V = Q[:, :r] * np.sqrt([2.0, 1.0, 0.5])
    return V @ V.T, V


def _singular_row(G, lam):
    """Weights w that make diag(w) G + lam I singular (in either form)."""
    return -(lam / np.linalg.eigvalsh(G).max()) * np.ones(G.shape[0])


def _beliefs(rng, B, T, singular, G, lam):
    W = 1.0 / T + rng.normal(size=(B, T)) / T
    W[singular] = _singular_row(G, lam)
    return W


def test_dense_row(recorded, rng):
    T, lam = 12, 0.3
    A = rng.normal(size=(T, T))
    G = A @ A.T / T
    W = _beliefs(rng, 4, T, 2, G, lam)
    events = []
    kbr_step_batch(W, G, lam, rng.normal(size=(4, T)), label="obs", events=events)
    assert recorded == [("obs[2]", 1)]
    assert [e.label for e in events] == ["obs[2]"]


def test_woodbury_row(recorded, rng):
    lam = 0.3
    G, V = _low_rank(rng)
    T, r = V.shape
    assert kbr_form(T, r, 1) == "woodbury"
    W = _beliefs(rng, 3, T, 1, G, lam)
    events = []
    kbr_step_batch(
        W, G, lam, rng.normal(size=(3, T)), factor=V, label="shift",
        events=events, first_row=5,
    )
    assert recorded == [("shift[6]", 1)]
    assert [e.label for e in events] == ["shift[6]"]


def test_action_factor(recorded, rng):
    lam = 0.3
    G, V = _low_rank(rng)
    T = len(G)
    A = rng.uniform(0.5, 1.0, (T, 6)) / T
    A[:, 3] = _singular_row(G, lam)
    events = []
    factors = conditioning_factors(A, V, lam, label="action", events=events)
    assert recorded == [("action[3]", 1)]
    assert [e.label for e in events] == ["action[3]"]
    assert factors.lam[3] == events[0].used > lam


def test_readout(recorded, monkeypatch):
    """Spoil the first attempt of the discrete build's readout inverse,
    the second inverse it solves (after the state ridge): it escalates
    once on its 12 distinct rows and lands in the training report as
    ``readout``."""
    T = 240
    traj = sample_trajectory(default_system(), T + 2, seed=0)
    real = gramops._factor_solve
    inverses = []

    def spoil_second_inverse(lhs, rhs, sym):
        out = real(lhs, rhs, sym)
        if sym and np.array_equal(rhs, np.eye(len(rhs))):
            inverses.append(len(lhs))
            if len(inverses) == 2:
                return out + 1.0
        return out

    monkeypatch.setattr(gramops, "_factor_solve", spoil_second_inverse)
    model = train(traj, WindowConfig(1, 1), lam=1.0 / T)
    assert inverses[1] == 12
    assert [call for call in recorded if call[1]] == [("readout", 1)]
    events = model.report.solve_events
    assert [e.label for e in events] == ["readout"]
    assert events[0].attempts == 2
    assert events[0].used == pytest.approx(10.0 * model.grams.lam_T)
