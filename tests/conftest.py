import numpy as np
import pytest
from hypothesis import strategies as st

from admissa import Dataset, Partition
from admissa.admissibility import ABS_FLOOR, REL_TOL


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


def one_class(points, name="dataset"):
    """A dataset whose ground truth puts every point in one class, for
    tests that read only its geometry."""
    return Dataset(points, np.zeros(len(points), dtype=np.int64), name)


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
    return Dataset(pts, labels, name="rand"), Partition(labels)


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


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
# near zero ABS_FLOOR sets the tolerance, elsewhere REL_TOL does
centers = st.one_of(st.just(0.0), st.floats(-1e-11, 1e-11), finite)


def near(center):
    """Values within two tolerances of ``center``."""
    tol = max(REL_TOL * abs(center), ABS_FLOOR)
    return st.floats(-2.0, 2.0).map(lambda k: center + k * tol)


@st.composite
def edge_values(draw, widths=st.integers(1, 4)):
    """(rows x objectives) values at the tolerance's edges, as many
    objectives as ``widths`` draws (1-4 by default): zeros, sign flips,
    scalings by 1 +- 1e-9 and steps of about ABS_FLOOR from a shared
    center per objective."""
    cs = [draw(centers) for _ in range(draw(widths))]
    scale = st.sampled_from([1 - 2e-9, 1 - 1e-9, 1.0, 1 + 1e-9, 1 + 2e-9])
    step = st.sampled_from([-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0])
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        rows.append([draw(st.one_of(
            st.just(0.0), st.just(c), st.just(-c), scale.map(lambda f, c=c: c * f),
            step.map(lambda k, c=c: c + k * ABS_FLOOR), near(c), finite)) for c in cs])
    return np.array(rows)
