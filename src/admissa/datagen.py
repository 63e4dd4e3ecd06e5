"""Seeded 2-D dataset generators covering the four benchmark families:
well-separated Gaussian blob grids, nested multi-level structures,
elongated/spiral shapes, and mixed-shape composites.

The generators produce structural analogs (matching n, d and k*); real
benchmark point sets can be fed to the same pipeline as CSV files.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset


def _grid_centers(k: int, spacing: float) -> np.ndarray:
    side = int(np.ceil(np.sqrt(k)))
    centers = [(spacing * (i % side), spacing * (i // side)) for i in range(k)]
    return np.array(centers, dtype=np.float64)


def _split_sizes(n: int, weights) -> list[int]:
    weights = np.asarray(weights, dtype=np.float64)
    raw = weights / weights.sum() * n
    sizes = np.floor(raw).astype(int)
    rest = n - sizes.sum()
    order = np.argsort(-(raw - sizes), kind="stable")
    for i in range(rest):
        sizes[order[i % len(sizes)]] += 1
    sizes = np.maximum(sizes, 1)
    while sizes.sum() > n:
        sizes[int(np.argmax(sizes))] -= 1
    return sizes.tolist()


def gen_blobs(k_star: int = 4, per_cluster_n: int = 50, separation: float = 10.0,
              *, seed: int, name: str | None = None) -> Dataset:
    """Isotropic unit-variance Gaussian clusters on a grid with centers
    ``separation`` standard deviations apart."""
    if k_star < 2:
        raise ValueError("gen_blobs needs k_star >= 2")
    rng = np.random.default_rng(seed)
    centers = _grid_centers(k_star, separation)
    points = []
    labels = []
    for i in range(k_star):
        points.append(rng.normal(loc=centers[i], scale=1.0,
                                 size=(per_cluster_n, 2)))
        labels.extend([i] * per_cluster_n)
    return Dataset(np.vstack(points), labels=np.array(labels),
                   name=name or f"blobs{k_star}")


def _spiral_arm(rng, n, phase, b=1.0, noise=0.08,
                theta_lo=0.5 * np.pi, theta_hi=3.5 * np.pi) -> np.ndarray:
    # roughly arc-length-uniform sampling: cumulative length grows ~ theta^2
    u = rng.random(n)
    theta = np.sqrt(theta_lo ** 2 + u * (theta_hi ** 2 - theta_lo ** 2))
    r = b * theta + rng.normal(scale=noise, size=n)
    x = r * np.cos(theta + phase)
    y = r * np.sin(theta + phase)
    return np.column_stack([x, y])


def gen_elongated(kind: str = "long", n: int = 1000, *, seed: int,
                  name: str | None = None) -> Dataset:
    """Two interleaved elongated structures (k* = 2): parallel stretched
    Gaussians or a pair of spiral arms."""
    if n < 20:
        raise ValueError("gen_elongated needs n >= 20")
    if kind not in ("long", "spiral"):
        raise ValueError(f"unknown elongated kind {kind!r}")
    rng = np.random.default_rng(seed)
    n0 = n // 2
    n1 = n - n0
    if kind == "long":
        # uniform spread along x keeps the arm density even (no sparse
        # tails); clipped y-noise keeps the gap free of stragglers
        ya = np.clip(rng.normal(0.0, 0.5, n0), -1.25, 1.25)
        yb = np.clip(rng.normal(0.0, 0.5, n1), -1.25, 1.25) + 5.0
        a = np.column_stack([rng.uniform(-12.0, 12.0, n0), ya])
        bpts = np.column_stack([rng.uniform(-12.0, 12.0, n1), yb])
        points = np.vstack([a, bpts])
    else:
        arm0 = _spiral_arm(rng, n0, phase=0.0)
        arm1 = _spiral_arm(rng, n1, phase=np.pi)
        points = np.vstack([arm0, arm1])
    labels = np.array([0] * n0 + [1] * n1)
    return Dataset(points, labels=labels, name=name or kind)


# nested structure: 2 super-groups -> 5 mid-groups -> 13 blobs
_NESTED_TREE = (
    # (super offset, [mid offsets], [blobs per mid])
    ((0.0, 0.0), [(0.0, -12.0), (0.0, 12.0)], [3, 2]),
    ((80.0, 0.0), [(0.0, -16.0), (0.0, 0.0), (0.0, 16.0)], [3, 2, 3]),
)


def gen_nested(level: int = 1, *, seed: int, n: int = 588,
               name: str | None = None) -> Dataset:
    """One point set with three nested label sets: level 1 labels the 2
    super-groups, level 2 the 5 mid-groups, level 3 all 13 blobs. The
    points depend only on the seed, not the level."""
    if level not in (1, 2, 3):
        raise ValueError("nested level must be 1, 2 or 3")
    rng = np.random.default_rng(seed)
    blob_centers = []
    blob_super = []
    blob_mid = []
    mid_id = 0
    for (sx, sy), mids, blob_counts in _NESTED_TREE:
        for (mx, my), n_blobs in zip(mids, blob_counts):
            for j in range(n_blobs):
                angle = 2.0 * np.pi * j / n_blobs
                blob_centers.append((sx + mx + 4.0 * np.cos(angle),
                                     sy + my + 4.0 * np.sin(angle)))
                blob_super.append(0 if sx == 0.0 else 1)
                blob_mid.append(mid_id)
            mid_id += 1
    sizes = _split_sizes(n, [1.0] * len(blob_centers))
    points = []
    labels3 = []
    for b, (center, size) in enumerate(zip(blob_centers, sizes)):
        points.append(rng.normal(loc=center, scale=0.8, size=(size, 2)))
        labels3.extend([b] * size)
    labels3 = np.array(labels3)
    if level == 3:
        labels = labels3
    elif level == 2:
        labels = np.array(blob_mid)[labels3]
    else:
        labels = np.array(blob_super)[labels3]
    return Dataset(np.vstack(points), labels=labels,
                   name=name or f"nested_s{level}")


def _ring(rng, n, center, radius, noise):
    theta = rng.random(n) * 2.0 * np.pi
    r = radius + rng.normal(scale=noise, size=n)
    return np.column_stack([center[0] + r * np.cos(theta),
                            center[1] + r * np.sin(theta)])


MIXED_RECIPES = ("3mc", "aggregation", "spiralsquare")
_MIXED_DEFAULT_N = {"3mc": 400, "aggregation": 788, "spiralsquare": 2000}


def gen_mixed(recipe: str = "3mc", *, seed: int, n: int | None = None,
              name: str | None = None) -> Dataset:
    """Composites of different cluster types:

      - ``3mc``: ring + stretched ellipse + round blob (k* = 3),
      - ``aggregation``: seven blobs of varying size, two of them linked
        by a thin line of points (k* = 7),
      - ``spiralsquare``: two spiral arms plus four uniform squares
        (k* = 6).
    """
    if recipe not in MIXED_RECIPES:
        raise ValueError(f"unknown mixed recipe {recipe!r}")
    if n is None:
        n = _MIXED_DEFAULT_N[recipe]
    rng = np.random.default_rng(seed)

    if recipe == "3mc":
        sizes = _split_sizes(n, [1.0, 1.0, 1.0])
        ring = _ring(rng, sizes[0], (0.0, 0.0), radius=6.0, noise=0.4)
        ellipse = np.column_stack([rng.normal(22.0, 4.0, sizes[1]),
                                   rng.normal(0.0, 1.0, sizes[1])])
        blob = rng.normal(loc=(11.0, 16.0), scale=1.3, size=(sizes[2], 2))
        points = np.vstack([ring, ellipse, blob])
        labels = np.repeat(np.arange(3), sizes)
    elif recipe == "aggregation":
        centers = [(0.0, 0.0), (10.0, 0.0), (22.0, 2.0), (2.0, 12.0),
                   (12.0, 13.0), (24.0, 13.0), (6.0, 24.0)]
        weights = [2.5, 1.2, 1.5, 1.0, 2.0, 1.2, 1.0]
        n_bridge = max(4, n // 40)
        sizes = _split_sizes(n - n_bridge, weights)
        parts = [rng.normal(loc=c, scale=1.2, size=(s, 2))
                 for c, s in zip(centers, sizes)]
        # a thin line of points linking clusters 0 and 1, owned by cluster 0
        t = np.linspace(0.15, 0.85, n_bridge)
        bridge = (np.array(centers[0])[None, :] * (1 - t[:, None])
                  + np.array(centers[1])[None, :] * t[:, None])
        bridge += rng.normal(scale=0.25, size=bridge.shape)
        points = np.vstack(parts + [bridge])
        labels = np.concatenate([np.repeat(np.arange(7), sizes),
                                 np.zeros(n_bridge, dtype=np.int64)])
    else:  # spiralsquare
        sizes = _split_sizes(n, [2.0, 2.0, 1.0, 1.0, 1.0, 1.0])
        arm0 = _spiral_arm(rng, sizes[0], phase=0.0, b=0.8, noise=0.08)
        arm1 = _spiral_arm(rng, sizes[1], phase=np.pi, b=0.8, noise=0.08)
        square_centers = [(-28.0, -28.0), (28.0, -28.0), (-28.0, 28.0),
                          (28.0, 28.0)]
        squares = [np.column_stack([rng.uniform(cx - 4.0, cx + 4.0, s),
                                    rng.uniform(cy - 4.0, cy + 4.0, s)])
                   for (cx, cy), s in zip(square_centers, sizes[2:])]
        points = np.vstack([arm0, arm1] + squares)
        labels = np.repeat(np.arange(6), sizes)
    return Dataset(points, labels=labels, name=name or recipe)


GENERATORS = {"gaussian_blobs": gen_blobs, "elongated": gen_elongated,
              "nested": gen_nested, "mixed": gen_mixed}


@dataclass(frozen=True)
class GeneratorSpec:
    """Declarative dataset recipe used in config files and manifests."""

    archetype: str
    seed: int
    params: dict = field(default_factory=dict)
    name: str | None = None

    def __post_init__(self):
        if self.archetype not in GENERATORS:
            raise ValueError(f"unknown archetype {self.archetype!r}")

    def build(self) -> Dataset:
        return GENERATORS[self.archetype](seed=self.seed, name=self.name,
                                          **self.params)
