"""Base-partition generators: k-means, single/average linkage, shared
nearest neighbor clustering and MST clustering, plus the population
protocol that sweeps k over {2..2k*}.

Every algorithm is deterministic given its seed; ties always resolve
toward smaller point indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .data import (DataError, Dataset, Partition, canonical_labels, cluster_means,
                   components)
from .seeding import derive_seed, rng_for

KMEANS_RESTARTS = 5
KMEANS_MAX_ITER = 100
SNN_GRID = {
    "knn_k": (5, 10),
    "eps": (1, 2, 3),
    "min_pts": (3, 5),
}


# --------------------------------------------------------------------------
# k-means


def _seed_centroids(ds: Dataset, k: int, rng: np.random.Generator) -> np.ndarray:
    """Distance-squared weighted random seeding over the data points
    (k-means++). Each draw is ``rng.choice(n, p=d2 / total)`` written out:
    one uniform variate located in the normalised cumulative weights, so
    the index and the generator state are the ones ``choice`` gives."""
    n = ds.n
    chosen = [int(rng.integers(n))]
    d2 = ds.distances[chosen[0]] ** 2
    while len(chosen) < k:
        total = d2.sum()
        if total <= 0.0:
            # remaining mass is zero (duplicate-heavy data): first unchosen index
            mask = np.ones(n, dtype=bool)
            mask[chosen] = False
            nxt = int(np.flatnonzero(mask)[0])
        else:
            cdf = (d2 / total).cumsum()
            cdf /= cdf[-1]
            nxt = int(cdf.searchsorted(rng.random(), side="right"))
        chosen.append(nxt)
        d2 = np.minimum(d2, ds.distances[nxt] ** 2)
    return ds.points[chosen].copy()


def lloyd_run(ds: Dataset, k: int, rng: np.random.Generator,
              max_iter: int = KMEANS_MAX_ITER) -> tuple[Partition, list[float]]:
    """One Lloyd descent; returns the partition and the TWCV after each
    iteration (non-increasing). Emptied clusters are repaired by reseeding
    the centroid at the point farthest from its assigned centroid."""
    cents = _seed_centroids(ds, k, rng)
    assignment = None
    history: list[float] = []
    for _ in range(max_iter):
        diff = ds.points[:, None, :] - cents[None, :, :]
        d2 = np.einsum("nkd,nkd->nk", diff, diff)
        new_assignment = d2.argmin(axis=1)
        for _repair in range(k):
            counts = np.bincount(new_assignment, minlength=k)
            empty = np.flatnonzero(counts == 0)
            if empty.size == 0:
                break
            point_d2 = d2[np.arange(ds.n), new_assignment]
            # only steal from clusters with >= 2 members so none is emptied
            movable = counts[new_assignment] > 1
            far = int(np.where(movable, point_d2, -np.inf).argmax())
            cents[empty[0]] = ds.points[far]
            new_assignment[far] = empty[0]
            d2[:, empty[0]] = np.einsum(
                "nd,nd->n", ds.points - cents[empty[0]], ds.points - cents[empty[0]])
        # the repair loop ends on a pass that found no empty cluster, so
        # counts are the sizes of new_assignment
        cents = cluster_means(ds.points, new_assignment, counts)
        sq = ds.points - cents[new_assignment]
        history.append(float(np.einsum("nd,nd->", sq, sq)))
        if assignment is not None and np.array_equal(assignment, new_assignment):
            break
        assignment = new_assignment
    return Partition(canonical_labels(assignment)), history


def kmeans(ds: Dataset, k: int, seed: int) -> Partition:
    """Best of ``KMEANS_RESTARTS`` Lloyd runs by TWCV (ties keep the
    earlier run)."""
    if not 2 <= k <= ds.n:
        raise ValueError(f"kmeans needs 2 <= k <= n, got k={k}, n={ds.n}")
    best = None
    best_twcv = np.inf
    for r in range(KMEANS_RESTARTS):
        rng = rng_for(seed, "kmeans-restart", r)
        part, history = lloyd_run(ds, k, rng)
        if history[-1] < best_twcv:
            best, best_twcv = part, history[-1]
    return best


# --------------------------------------------------------------------------
# Agglomerative linkage


def _linkage_snapshots(ds: Dataset, mode: str, wanted: set[int]) -> dict[int, Partition]:
    """Merge from singletons down to min(wanted); snapshot each wanted k.

    Cluster slots keep the smallest member index, so the tie rule "smallest
    involved indices" is the row-major argmin over the active matrix. The
    matrix stays symmetric, and the first row-major minimum of a symmetric
    matrix is the same (a < b) pair as the first one in its upper triangle.
    """
    if mode not in ("single", "average"):
        raise ValueError(f"linkage mode must be 'single' or 'average', got {mode!r}")
    n = ds.n
    M = ds.distances.copy()
    np.fill_diagonal(M, np.inf)
    sizes = np.ones(n, dtype=np.int64)
    labels = np.arange(n)
    out: dict[int, Partition] = {}
    k = n
    if k in wanted:
        out[k] = Partition(canonical_labels(labels))
    while k > max(1, min(wanted, default=1)):
        a, b = divmod(int(M.argmin()), n)
        # merge b into a
        if mode == "single":
            merged = np.minimum(M[a], M[b])
        else:
            merged = (sizes[a] * M[a] + sizes[b] * M[b]) / (sizes[a] + sizes[b])
        M[a, :] = merged
        M[:, a] = merged
        M[a, a] = np.inf
        M[b, :] = np.inf
        M[:, b] = np.inf
        sizes[a] += sizes[b]
        labels[labels == labels[b]] = labels[a]
        k -= 1
        if k in wanted:
            out[k] = Partition(canonical_labels(labels))
    return out


def linkage(ds: Dataset, k: int, mode: str) -> Partition:
    """Agglomerative clustering cut at k clusters (single or average)."""
    if not 1 <= k <= ds.n:
        raise ValueError(f"linkage needs 1 <= k <= n, got k={k}, n={ds.n}")
    return _linkage_snapshots(ds, mode, {k})[k]


# --------------------------------------------------------------------------
# Shared nearest neighbor clustering


def snn_cluster(ds: Dataset, knn_k: int, eps: float, min_pts: int) -> Partition:
    """Density clustering on the shared-nearest-neighbor graph.

    Mutually kNN-linked pairs get a similarity equal to their shared
    neighbor count; points with at least ``min_pts`` links of similarity
    >= ``eps`` are core. Clusters are the components of the core subgraph;
    border points attach to their nearest qualifying core and everything
    else becomes a singleton so the partition stays total.

    Everything works on the n*knn_k pair list (a, nn[a, j]), looked up by
    the sorted keys a*n + b, in O(n * knn_k**2) memory and no n x n
    array. The list runs through each point's neighbors in (distance,
    index) order, so a border point's first qualifying pair is its nearest
    core, ties to the smaller index.
    """
    n = ds.n
    knn_k = max(1, min(int(knn_k), n - 1))
    nn = ds.neighbor_index[:, :knn_k]
    a = np.repeat(np.arange(n), knn_k)
    b = nn.ravel()
    keys = np.sort(a * n + b)

    def listed(key):
        """Is a*n + b a kNN pair, i.e. b among a's knn_k neighbors?"""
        return keys[np.minimum(keys.searchsorted(key), keys.size - 1)] == key

    mutual = listed(b * n + a)
    a, b = a[mutual], b[mutual]
    shared = listed(b[:, None] * n + nn[a]).sum(axis=1)
    strong = shared >= eps
    a, b = a[strong], b[strong]
    core = np.bincount(a, minlength=n) >= min_pts

    both = core[a] & core[b]
    labels = np.where(core, components(n, a[both], b[both]), -1)
    border = ~core[a] & core[b]
    attached, first = np.unique(a[border], return_index=True)
    labels[attached] = labels[b[border][first]]
    noise = np.flatnonzero(labels < 0)  # each its own singleton cluster
    labels[noise] = n + np.arange(noise.size)
    return Partition(canonical_labels(labels))


# --------------------------------------------------------------------------
# MST clustering


def interesting_mst_edges(ds: Dataset) -> np.ndarray:
    """(n-1, 2) array of MST edges (a < b) ordered by descending degree
    of interestingness.

    DI(a, b) = min(rank of b among a's neighbors, rank of a among b's);
    a high value means neither endpoint is a near neighbor of the other.
    Ties prefer the heavier edge, then the lexicographically smaller one.
    """
    edges = ds.mst_edges
    di = ds.neighbor_rank.min(axis=1)
    w = ds.distances[edges[:, 0], edges[:, 1]]
    order = np.lexsort((edges[:, 1], edges[:, 0], -w, -di))
    return edges[order]


def _mst_partition_sweep(ds: Dataset, wanted: set[int]) -> dict[int, Partition]:
    """Partitions for several k in [1, n]. The MST is a tree, so keeping
    its n-k least interesting edges leaves exactly k components."""
    ranked = interesting_mst_edges(ds)
    return {k: Partition(canonical_labels(
                components(ds.n, ranked[k - 1:, 0], ranked[k - 1:, 1])))
            for k in wanted}


def mst_cluster(ds: Dataset, k: int) -> Partition:
    """Remove the k-1 most interesting MST edges; components are clusters."""
    if not 1 <= k <= ds.n:
        raise ValueError(f"mst_cluster needs 1 <= k <= n, got k={k}, n={ds.n}")
    return _mst_partition_sweep(ds, {k})[k]


# --------------------------------------------------------------------------
# Population protocol

ALGORITHMS = ("km", "al", "sl", "snn", "mst")


@dataclass
class InitPopulation:
    """Base partitions from one initialization algorithm, each with a
    record ``{"seed", "params", "out_of_range"}`` at the same position.

    SNN members whose threshold-driven k falls outside {2..2k*} are kept
    but flagged ``out_of_range`` rather than silently dropped.
    """

    source: str
    dataset: str
    k_star: int
    master_seed: int
    partitions: list[Partition] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "dataset": self.dataset,
            "k_star": self.k_star,
            "master_seed": self.master_seed,
            "partitions": [{"assignment": p.assignment.tolist(), "k": p.k, **rec}
                           for p, rec in zip(self.partitions, self.records)],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "InitPopulation":
        """Inverse of ``to_dict``; other keys are ignored."""
        rows = doc["partitions"]
        return cls(source=doc["source"], dataset=doc["dataset"],
                   k_star=doc["k_star"], master_seed=doc["master_seed"],
                   partitions=[Partition(np.array(r["assignment"], dtype=np.int64))
                               for r in rows],
                   records=[{key: r[key] for key in ("seed", "params", "out_of_range")}
                            for r in rows])


def generate_population(ds: Dataset, algorithm: str, k_star: int | None = None,
                        master_seed: int = 0) -> InitPopulation:
    """One partition per k in {2..2k*} (km/al/sl/mst), or a fixed threshold
    grid sweep for snn. Of partitions equal up to relabeling, the first
    is kept as its generator returned it (canonical labels); the members
    are sorted by k, ties in generation order."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown initializer {algorithm!r}")
    if k_star is None:
        k_star = ds.k_star
    if k_star is None:
        raise ValueError("k_star unknown: dataset has no labels and none was given")
    if k_star < 1:
        raise ValueError(f"k_star must be >= 1, got {k_star}")
    k_max = 2 * k_star
    if k_max > ds.n:
        raise DataError(f"{ds.name}: 2*k_star={k_max} exceeds n={ds.n}")
    ks = range(2, k_max + 1)

    found: dict[bytes, tuple[Partition, dict]] = {}  # Partition.key -> member

    def keep(pi: Partition, seed: int | None, params: dict, in_range: bool = True):
        found.setdefault(pi.key, (pi, {"seed": seed, "params": params,
                                       "out_of_range": not in_range}))

    if algorithm == "km":
        for k in ks:
            seed = derive_seed(master_seed, "init-km", ds.name, k)
            keep(kmeans(ds, k, seed=seed), seed, {"k": k})
    elif algorithm in ("al", "sl"):
        mode = "average" if algorithm == "al" else "single"
        snaps = _linkage_snapshots(ds, mode, set(ks))
        for k in ks:
            keep(snaps[k], None, {"k": k, "mode": mode})
    elif algorithm == "mst":
        snaps = _mst_partition_sweep(ds, set(ks))
        for k in ks:
            keep(snaps[k], None, {"k": k})
    else:  # snn
        for knn_k, eps, min_pts in product(SNN_GRID["knn_k"], SNN_GRID["eps"],
                                           SNN_GRID["min_pts"]):
            pi = snn_cluster(ds, knn_k, eps, min_pts)
            params = {"knn_k": knn_k, "eps": eps, "min_pts": min_pts, "k": pi.k}
            keep(pi, None, params, 2 <= pi.k <= k_max)
    members = sorted(found.values(), key=lambda m: m[0].k)
    return InitPopulation(source=algorithm, dataset=ds.name, k_star=k_star,
                          master_seed=master_seed,
                          partitions=[pi for pi, _ in members],
                          records=[rec for _, rec in members])
