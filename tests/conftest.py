import numpy as np
import pytest

from admissa import Dataset, Partition


@pytest.fixture
def fix4():
    """Two tight pairs 10 units apart; the canonical worked example."""
    pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    return Dataset(pts, labels=np.array([0, 0, 1, 1]), name="fix4")


@pytest.fixture
def fix4_truth(fix4):
    return fix4.true_partition()


@pytest.fixture
def fix4_shifted():
    """fix4 translated by (+1, +1) so no point is the zero vector."""
    pts = np.array([[1.0, 1.0], [1.0, 2.0], [11.0, 1.0], [11.0, 2.0]])
    return Dataset(pts, labels=np.array([0, 0, 1, 1]), name="fix4s")


def translated(ds, vector):
    """``ds`` with every point moved by ``vector``."""
    return Dataset(ds.points + np.asarray(vector, dtype=np.float64),
                   labels=ds.labels, name=ds.name)


def random_instance(rng, n_max=20, k_max=5):
    """A random dataset/partition pair with every cluster non-empty."""
    n = int(rng.integers(6, n_max + 1))
    d = int(rng.integers(1, 4))
    k = int(rng.integers(2, min(k_max, n - 1) + 1))
    pts = rng.normal(loc=3.0, scale=2.0, size=(n, d))
    labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
    rng.shuffle(labels)
    return Dataset(pts, name="rand"), Partition(labels)


def tie_grids(seed, draws=20):
    """Tie-heavy point sets: draws from {0..3}^2 (duplicate points
    included) and randomly permuted g x g unit grids."""
    rng = np.random.default_rng(seed)
    sets = [rng.integers(0, 4, size=(int(rng.integers(2, 17)), 2)).astype(float)
            for _ in range(draws)]
    for g in (2, 3, 4):
        gx, gy = np.meshgrid(np.arange(g), np.arange(g))
        grid = np.c_[gx.ravel(), gy.ravel()].astype(float)
        sets += [grid[rng.permutation(g * g)] for _ in range(draws // 4)]
    return sets
