import hypothesis
import numpy as np
import pytest

from hsepsr.learner import train
from hsepsr.windows import WindowConfig

from synthdata import synthetic_trajectory

hypothesis.settings.register_profile(
    "fast", max_examples=25, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("fast")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def model_factory():
    """Train-once cache of small models keyed by their construction args."""
    cache = {}

    def make(seed=0, n=60, L=2, N=3, da=1, do=1, lam=1e-3, **train_kw):
        key = (seed, n, L, N, da, do, lam, tuple(sorted(train_kw.items())))
        if key not in cache:
            traj = synthetic_trajectory(seed, n, da, do)
            model = train(traj, WindowConfig(L, N), lam=lam, **train_kw)
            cache[key] = (model, traj)
        return cache[key]

    return make
