"""The 17 clustering objective functions.

Each criterion is a pure function of (Dataset, Partition) registered with
its optimization direction. Values are plain floats; preconditions that
cannot hold raise typed errors so callers can skip a partition instead of
propagating NaNs.

Conventions baked in here (see README for the reasoning):
  - connectivity charges the literal 1/k penalty per broken neighbor link,
  - the k_size neighbor graph is undirected with union semantics (an edge
    exists if either endpoint lists the other),
  - graph separation is the per-cluster mean cross-edge weight averaged
    over clusters,
  - memberships are hard everywhere, so ``xb`` takes no fuzzy exponent,
  - modularity sums ordered pairs consistently in all three ratios and is
    maximized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataError, Dataset, Partition, centroids, components

MINIMIZE = "minimize"
MAXIMIZE = "maximize"


class CriterionError(ValueError):
    """A criterion cannot be evaluated on this partition. The message
    names the criterion, except for ``ent``'s zero-vector errors."""


class KTooSmallError(CriterionError):
    """The criterion needs more (or fewer) clusters than the partition has."""


class DegenerateError(CriterionError):
    """A required denominator is zero."""


class ZeroVectorError(CriterionError):
    """Cosine similarity is undefined for a zero vector."""


# --------------------------------------------------------------------------
# Objective specs

DIRECTIONS = {
    "ent": MAXIMIZE, "dev": MINIMIZE, "var": MINIMIZE, "twcv": MINIMIZE,
    "con": MINIMIZE, "dcd": MAXIMIZE, "abgss": MAXIMIZE, "sep_al": MAXIMIZE,
    "sep_cl": MAXIMIZE, "sep_graph": MAXIMIZE, "ch": MAXIMIZE, "db": MINIMIZE,
    "dunn": MAXIMIZE, "mod": MAXIMIZE, "sil": MAXIMIZE, "pbm": MAXIMIZE,
    "xb": MINIMIZE,
}

ALL_IDS = tuple(DIRECTIONS)

# The ObjectiveSpec parameters each criterion reads; the others read none.
PARAMS = {"con": ("L",), "dcd": ("k_size",), "sep_graph": ("k_size",)}


@dataclass(frozen=True)
class ObjectiveSpec:
    """A criterion id plus evaluation parameters."""

    id: str
    L: int = 10
    k_size: int = 10

    def __post_init__(self):
        if self.id not in DIRECTIONS:
            raise ValueError(f"unknown criterion {self.id!r}")
        if self.L < 1 or self.k_size < 1:
            raise ValueError("L and k_size must be positive")

    @property
    def direction(self) -> str:
        """The criterion's fixed direction, MINIMIZE or MAXIMIZE."""
        return DIRECTIONS[self.id]


def objective(crit_id: str, **params) -> ObjectiveSpec:
    """Spec for a criterion id with the given evaluation parameters."""
    return ObjectiveSpec(id=crit_id, **params)


def objectives(*ids: str, **params) -> tuple[ObjectiveSpec, ...]:
    return tuple(objective(i, **params) for i in ids)


@dataclass(frozen=True)
class ObjectiveVector:
    """Criterion values in the order of the configured objective list."""

    specs: tuple[ObjectiveSpec, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.specs) != len(self.values):
            raise ValueError("specs and values length mismatch")
        if not all(np.isfinite(v) for v in self.values):
            raise ValueError("objective values must be finite")

    def minimized(self) -> np.ndarray:
        """Values with maximized objectives negated, so smaller is better."""
        return minimize_signs(self.specs) * np.asarray(self.values)


def minimize_signs(specs: tuple[ObjectiveSpec, ...]) -> np.ndarray:
    """+1 for each minimized objective and -1 for each maximized one."""
    return np.array([1.0 if s.direction == MINIMIZE else -1.0 for s in specs])


# --------------------------------------------------------------------------
# Helpers shared by several criteria


def _require_k_at_least_2(pi: Partition, crit: str):
    if pi.k < 2:
        raise KTooSmallError(f"{crit} needs k >= 2, got k={pi.k}")


def _centroid_pair_distances(cents: np.ndarray) -> np.ndarray:
    """(k, k) Euclidean distances between the centroids."""
    return np.linalg.norm(cents[:, None, :] - cents[None, :, :], axis=2)


def ksize_graph(ds: Dataset, k_size: int):
    """Undirected k_size-nearest-neighbor graph, shared by dcd/sep_graph.

    Returns (edges, weights) with edges (a < b) sorted by ascending
    (weight, a, b). Cached per dataset and k_size.
    """
    cache = ds.__dict__.setdefault("_ksize_graph_cache", {})
    if k_size in cache:
        return cache[k_size]
    nn = ds.neighbors(k_size)
    a = np.repeat(np.arange(ds.n), nn.shape[1])
    b = nn.ravel()
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    pair_ids = np.unique(lo * ds.n + hi)
    ea = pair_ids // ds.n
    eb = pair_ids % ds.n
    w = ds.distances[ea, eb]
    order = np.lexsort((eb, ea, w))
    edges = np.stack([ea[order], eb[order]], axis=1)
    edges.setflags(write=False)
    weights = w[order]
    weights.setflags(write=False)
    cache[k_size] = (edges, weights)
    return cache[k_size]


def _distance_total(ds: Dataset) -> float:
    """Sum of the whole distance matrix, cached per dataset."""
    cache = ds.__dict__
    if "_distance_total" not in cache:
        cache["_distance_total"] = ds.distances.sum()
    return cache["_distance_total"]


def _cluster_blocks(ds: Dataset, pi: Partition) -> tuple[np.ndarray, np.ndarray]:
    """Each cluster's summed distance over its ordered point pairs and its
    diameter, from one gathered block at a time (the ``np.ix_`` gather,
    without its per-call checks)."""
    D = ds.distances
    sums, diameters = np.empty(pi.k), np.empty(pi.k)
    for i, idx in enumerate(pi.members):
        block = D[idx[:, None], idx]
        sums[i], diameters[i] = block.sum(), block.max()
    return sums, diameters


_SHARED = {
    "centroids": centroids,
    "own_distances": lambda ds, pi: np.linalg.norm(
        ds.points - _shared(ds, pi, "centroids")[pi.assignment], axis=1),
    "pair_distances": lambda ds, pi: _centroid_pair_distances(
        _shared(ds, pi, "centroids")),
    "blocks": _cluster_blocks,
}


def _shared(ds: Dataset, pi: Partition, name: str):
    """The one home of the values several criteria read on a partition:
    its ``centroids``, each point's distance to its own centroid
    (``own_distances``), the centroid-pair distances (``pair_distances``)
    and the per-cluster block sums and diameters (``blocks``). Each is
    built by its ``_SHARED`` entry on first use and kept on ``pi`` for
    ``ds`` only, so a criterion computes it as it would alone, to the
    bit, and the others read it; none is an n x n array."""
    cache = pi.__dict__.get("_shared")
    if cache is None or cache["dataset"] is not ds:
        cache = pi.__dict__["_shared"] = {"dataset": ds}
    if name not in cache:
        value = cache[name] = _SHARED[name](ds, pi)
        for array in value if isinstance(value, tuple) else (value,):
            array.setflags(write=False)
    return cache[name]


# --------------------------------------------------------------------------
# Compactness criteria


def eval_ent(ds: Dataset, pi: Partition) -> float:
    """Intra-cluster entropy from cosine similarity between each centroid
    and its members; maximized.

    Each cluster keeps its own dot product and its own ``np.add.reduce``
    (the sum ``np.mean`` takes): one batched product, or one reduction
    over all clusters, changes the last bits. The cosine, the clip and the
    entropy run once over the whole partition, and the k-th root stays
    Python's ``pow``, which array ``np.power`` does not always equal."""
    norms = np.linalg.norm(ds.points, axis=1)
    if np.any(norms == 0.0):
        raise ZeroVectorError("cosine similarity undefined for zero point vector")
    cents = _shared(ds, pi, "centroids")
    cnorms = np.linalg.norm(cents, axis=1)
    if np.any(cnorms == 0.0):
        raise ZeroVectorError("cosine similarity undefined for zero centroid")
    members = pi.members
    dots = np.concatenate([ds.points[idx] @ cents[i] for i, idx in enumerate(members)])
    cos = dots / (norms[np.concatenate(members)] * np.repeat(cnorms, pi.sizes))
    np.clip(cos, -1.0, 1.0, out=cos)
    sims = 0.5 + cos / 2.0
    ends = np.cumsum(pi.sizes).tolist()
    g = np.array([np.add.reduce(sims[lo:hi])
                  for lo, hi in zip([0] + ends, ends)]) / pi.sizes
    h = np.zeros(pi.k)  # 0*log0 := 0 at both ends
    inner = (g > 0.0) & (g < 1.0)
    gi = g[inner]
    h[inner] = -(gi * np.log2(gi) + (1.0 - gi) * np.log2(1.0 - gi))
    total = 0.0
    for term in ((1.0 - h) * g).tolist():
        total += term ** (1.0 / pi.k)
    return total


def eval_dev(ds: Dataset, pi: Partition) -> float:
    """Summed distance of every point to its cluster centroid; minimized."""
    return float(_shared(ds, pi, "own_distances").sum())


def eval_var(ds: Dataset, pi: Partition) -> float:
    """Overall deviation scaled by 1/n; minimized."""
    return eval_dev(ds, pi) / ds.n


def eval_twcv(ds: Dataset, pi: Partition) -> float:
    """Total within-cluster variance (squared distances); minimized."""
    return float((_shared(ds, pi, "own_distances") ** 2).sum())


# --------------------------------------------------------------------------
# Connectedness criteria


def eval_con(ds: Dataset, pi: Partition, L: int = 10) -> float:
    """Connectivity: the number of broken links from a point to one of its
    L nearest neighbors in another cluster, divided by k; minimized."""
    nn = ds.neighbors(L)
    labels = pi.assignment
    split = labels[nn] != labels[:, None]
    return float(split.sum()) / pi.k


def eval_dcd(ds: Dataset, pi: Partition, k_size: int = 10) -> float:
    """Data continuity degree: summed MST weight of every connected
    component each cluster induces on the k_size-graph, divided by k;
    maximized.

    The forest comes from Borůvka's rounds over the same-cluster edges:
    each component takes its first outgoing edge in the graph's strict
    (weight, a, b) order. Under a strict order the minimum spanning forest
    is unique, so it is the edge set Kruskal's scan would keep, and its
    weights are added one by one in that order, as the scan adds them.
    """
    edges, weights = ksize_graph(ds, k_size)
    labels = pi.assignment
    same = labels[edges[:, 0]] == labels[edges[:, 1]]
    a, b = edges[same, 0], edges[same, 1]
    m = a.size
    chosen = np.zeros(m, dtype=bool)
    label = np.arange(ds.n)
    while True:
        la, lb = label[a], label[b]
        out = np.flatnonzero(la != lb)
        if out.size == 0:
            break
        first = np.full(ds.n, m)
        np.minimum.at(first, la[out], out)
        np.minimum.at(first, lb[out], out)
        take = first[first < m]
        chosen[take] = True
        label = components(ds.n, la[take], lb[take])[label]
    w = weights[same][chosen]
    return float(np.cumsum(w)[-1]) / pi.k if w.size else 0.0


# --------------------------------------------------------------------------
# Separation criteria


def eval_abgss(ds: Dataset, pi: Partition) -> float:
    """Size-weighted mean distance of cluster centroids to the dataset
    centroid; maximized."""
    cents = _shared(ds, pi, "centroids")
    d = np.linalg.norm(cents - ds.points.mean(axis=0), axis=1)
    return float((pi.sizes * d).sum() / pi.k)


def eval_sep_al(ds: Dataset, pi: Partition) -> float:
    """Mean centroid-pair distance; maximized."""
    _require_k_at_least_2(pi, "sep_al")
    sep = _shared(ds, pi, "pair_distances")[np.triu_indices(pi.k, k=1)]
    return float(sep.mean())


def eval_sep_cl(ds: Dataset, pi: Partition) -> float:
    """Summed distance over point pairs in different clusters; maximized."""
    _require_k_at_least_2(pi, "sep_cl")
    intra = 0.0
    for block in _shared(ds, pi, "blocks")[0]:
        intra += block / 2.0  # a singleton's block is 0.0, which adds exactly
    return float(_distance_total(ds) / 2.0 - intra)


def eval_sep_graph(ds: Dataset, pi: Partition, k_size: int = 10) -> float:
    """Per-cluster mean weight of k_size-graph edges leaving the cluster,
    averaged over clusters; maximized."""
    _require_k_at_least_2(pi, "sep_graph")
    edges, weights = ksize_graph(ds, k_size)
    labels = pi.assignment
    la = labels[edges[:, 0]]
    lb = labels[edges[:, 1]]
    cross = la != lb
    sums = np.zeros(pi.k)
    counts = np.zeros(pi.k)
    np.add.at(sums, la[cross], weights[cross])
    np.add.at(sums, lb[cross], weights[cross])
    np.add.at(counts, la[cross], 1.0)
    np.add.at(counts, lb[cross], 1.0)
    per_cluster = np.divide(sums, counts, out=np.zeros(pi.k), where=counts > 0)
    return float(per_cluster.mean())


# --------------------------------------------------------------------------
# Combined compactness-and-separation criteria


def eval_ch(ds: Dataset, pi: Partition) -> float:
    """Between/within dispersion ratio scaled by (n-k)/(k-1), with plain
    (non-squared) distances; maximized."""
    if pi.k < 2 or pi.k >= ds.n:
        raise KTooSmallError(f"ch needs 2 <= k <= n-1, got k={pi.k}")
    within = float(_shared(ds, pi, "own_distances").sum())
    if within == 0.0:
        raise DegenerateError("ch: zero within-cluster dispersion")
    gbar = ds.points.mean(axis=0)
    cents = _shared(ds, pi, "centroids")
    between = float((pi.sizes * np.linalg.norm(cents - gbar, axis=1)).sum())
    return (between / within) * (ds.n - pi.k) / (pi.k - 1)


def eval_db(ds: Dataset, pi: Partition) -> float:
    """Davies-Bouldin: mean over clusters of the worst scatter-to-separation
    ratio; minimized."""
    _require_k_at_least_2(pi, "db")
    scatter = np.zeros(pi.k)
    np.add.at(scatter, pi.assignment, _shared(ds, pi, "own_distances"))
    scatter /= pi.sizes
    sep = _shared(ds, pi, "pair_distances")
    if np.any(sep[np.triu_indices(pi.k, k=1)] == 0.0):
        raise DegenerateError("db: coincident centroids")
    ratio = (scatter[:, None] + scatter[None, :]) / np.where(sep > 0, sep, 1.0)
    np.fill_diagonal(ratio, -np.inf)
    return float(ratio.max(axis=1).mean())


def eval_dunn(ds: Dataset, pi: Partition) -> float:
    """Minimum cross-cluster distance over maximum cluster diameter;
    maximized."""
    _require_k_at_least_2(pi, "dunn")
    max_diam = float(_shared(ds, pi, "blocks")[1].max())
    if max_diam == 0.0:
        raise DegenerateError("dunn: every cluster has zero diameter")
    # The path in the MST between the closest cross-cluster pair crosses
    # clusters on an edge no longer than that pair (the cycle property),
    # so the smallest cross-cluster MST edge is that distance.
    a, b = ds.mst_edges.T
    labels = pi.assignment
    cross = labels[a] != labels[b]
    return float(ds.distances[a[cross], b[cross]].min()) / max_diam


def eval_mod(ds: Dataset, pi: Partition) -> float:
    """Distance-based modularity over ordered point pairs; maximized."""
    total = float(_distance_total(ds))
    if total == 0.0:
        raise DegenerateError("mod: all points identical")
    D = ds.distances
    value = 0.0
    # Every block is gathered and freed before the first row gather, so a
    # block and a cluster's rows are never held at once.
    for idx, intra in zip(pi.members, _shared(ds, pi, "blocks")[0]):
        row = float(D[idx].sum())
        value += float(intra) / total - (row / total) ** 2
    return value


def eval_sil(ds: Dataset, pi: Partition) -> float:
    """Mean silhouette width; maximized. Points in singleton clusters
    contribute 0."""
    _require_k_at_least_2(pi, "sil")
    D = ds.distances
    n, k = ds.n, pi.k
    sums = np.zeros((n, k))
    # D is exactly symmetric, so each cluster's rows, added one by one in
    # index order, give the sums of its columns to the bit.
    for i, idx in enumerate(pi.members):
        sums[:, i] = D[idx].sum(axis=0)
    own = pi.assignment
    own_size = pi.sizes[own]
    rows = np.arange(n)

    a = np.zeros(n)
    multi = own_size > 1
    a[multi] = sums[rows[multi], own[multi]] / (own_size[multi] - 1)

    means = sums / pi.sizes[None, :]
    means[rows, own] = np.inf
    b = means.min(axis=1)

    denom = np.maximum(a, b)
    s = np.zeros(n)
    ok = multi & (denom > 0)
    s[ok] = (b[ok] - a[ok]) / denom[ok]
    return float(s.mean())


def eval_pbm(ds: Dataset, pi: Partition) -> float:
    """PBM index with hard memberships: (1/k) * (E0/Ek) * Dk; maximized."""
    _require_k_at_least_2(pi, "pbm")
    e0 = float(np.linalg.norm(ds.points - ds.points.mean(axis=0), axis=1).sum())
    ek = float((_shared(ds, pi, "own_distances") ** 2).sum())
    if ek == 0.0:
        raise DegenerateError("pbm: zero within-cluster scatter")
    dk = float(_shared(ds, pi, "pair_distances").max())
    return (e0 / ek) * dk / pi.k


def eval_xb(ds: Dataset, pi: Partition) -> float:
    """Xie-Beni-style ratio with hard memberships and non-squared
    distances; minimized."""
    _require_k_at_least_2(pi, "xb")
    sep = _shared(ds, pi, "pair_distances")[np.triu_indices(pi.k, k=1)]
    min_sep = float(sep.min())
    if min_sep == 0.0:
        raise DegenerateError("xb: coincident centroids")
    return float(_shared(ds, pi, "own_distances").sum()) / (ds.n * min_sep)


# --------------------------------------------------------------------------
# Dispatch


def evaluate(ds: Dataset, pi: Partition, spec: ObjectiveSpec) -> float:
    """The value of ``spec``'s criterion on ``pi``. ``eval_<id>`` is looked
    up at call time, so a wrapper put in its place sees every call. A
    partition of another size than ``ds`` is a ``DataError``; a
    ``CriterionError`` passes through as the criterion raised it."""
    if pi.n != ds.n:
        raise DataError(f"partition has {pi.n} points, dataset {ds.name!r} has {ds.n}")
    params = {name: getattr(spec, name) for name in PARAMS.get(spec.id, ())}
    return globals()[f"eval_{spec.id}"](ds, pi, **params)


def evaluate_vector(ds: Dataset, pi: Partition, specs,
                    evaluator=evaluate) -> ObjectiveVector:
    """Evaluate a list of objectives; the first criterion error aborts, as
    raised. ``evaluator`` computes one criterion; the evolutionary
    clusterer passes the component-level ``ComponentGeometry.evaluate``."""
    specs = tuple(specs)
    return ObjectiveVector(specs=specs,
                           values=tuple(evaluator(ds, pi, spec) for spec in specs))
