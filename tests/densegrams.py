"""Dense training Grams for the oracle tests.

The model keeps only the Grams its runtime reads (``GramCache``); the
tests that check a factored path against the dense one evaluate the rest
here, with the same ``kernels.gram`` calls training uses, and the state
Gram S S^T, which the model keeps only as its ridge inverse.
"""

from types import SimpleNamespace

from hsepsr.kernels import gram


def dense_grams(windowed, kernels):
    """The eight training Grams of ``windowed`` under ``kernels``, by name;
    shifted window lists use the kernel of their unshifted stream."""
    w, k = windowed, kernels
    return SimpleNamespace(
        G_HH=gram(k.history, w.histories, w.histories),
        G_TA_TA=gram(k.test_action, w.test_actions, w.test_actions),
        G_TAs_TAs=gram(k.test_action, w.shifted_test_actions, w.shifted_test_actions),
        G_TO_TO=gram(k.test_obs, w.test_obs, w.test_obs),
        G_TO_TOs=gram(k.test_obs, w.test_obs, w.shifted_test_obs),
        G_TA_TAs=gram(k.test_action, w.test_actions, w.shifted_test_actions),
        G_A_A=gram(k.action, w.cur_actions, w.cur_actions),
        G_O_O=gram(k.obs, w.cur_obs, w.cur_obs),
    )


def factor_state_gram(model):
    """The training states' Gram S S^T from the model's ``state_factors``
    rows S, symmetrized as the model build does."""
    S = model.state_factors
    G = S @ S.T
    return (G + G.T) / 2.0
