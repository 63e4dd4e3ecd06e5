"""The 17 clustering objective functions.

Each criterion is a pure function of (Dataset, Partition) registered with
its optimization direction. Values are plain floats; preconditions that
cannot hold raise typed errors so callers can skip a partition instead of
propagating NaNs.

Conventions baked in here (see README for the reasoning):
  - connectivity charges the literal 1/k penalty per broken neighbor link
    by default; ``con_penalty="rank"`` switches to the 1/h variant,
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

from .data import Dataset, Partition, centroids, components

MINIMIZE = "minimize"
MAXIMIZE = "maximize"


class CriterionError(ValueError):
    """A criterion cannot be evaluated on this partition."""

    def __init__(self, message: str, criterion: str | None = None):
        super().__init__(message)
        self.criterion = criterion


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


@dataclass(frozen=True)
class ObjectiveSpec:
    """A criterion id plus evaluation parameters."""

    id: str
    L: int = 10
    k_size: int = 10
    con_penalty: str = "paper"

    def __post_init__(self):
        if self.id not in DIRECTIONS:
            raise ValueError(f"unknown criterion {self.id!r}")
        if self.L < 1 or self.k_size < 1:
            raise ValueError("L and k_size must be positive")
        if self.con_penalty not in ("paper", "rank"):
            raise ValueError("con_penalty must be 'paper' or 'rank'")

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
        raise KTooSmallError(f"{crit} needs k >= 2, got k={pi.k}", crit)


def _centroid_pair_distances(cents: np.ndarray) -> np.ndarray:
    """(k, k) Euclidean distances between the centroids."""
    return np.linalg.norm(cents[:, None, :] - cents[None, :, :], axis=2)


def _own_centroid_distances(ds: Dataset, pi: Partition):
    cents, gbar = centroids(ds, pi)
    diffs = ds.points - cents[pi.assignment]
    return np.linalg.norm(diffs, axis=1), cents, gbar


def ksize_graph(ds: Dataset, k_size: int):
    """Undirected k_size-nearest-neighbor graph, shared by dcd/sep_graph.

    Returns (edges, weights) with edges (a < b) sorted by ascending
    (weight, a, b). Cached per dataset and k_size.
    """
    k_size = max(1, min(int(k_size), ds.n - 1))
    cache = ds.__dict__.setdefault("_ksize_graph_cache", {})
    if k_size in cache:
        return cache[k_size]
    nn = ds.neighbor_index[:, :k_size]
    a = np.repeat(np.arange(ds.n), k_size)
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


def _binary_entropy(g: float) -> float:
    # 0*log0 := 0 at both ends
    h = 0.0
    if 0.0 < g < 1.0:
        h = -(g * np.log2(g) + (1.0 - g) * np.log2(1.0 - g))
    return float(h)


# --------------------------------------------------------------------------
# Compactness criteria


def eval_ent(ds: Dataset, pi: Partition) -> float:
    """Intra-cluster entropy from cosine similarity between each centroid
    and its members; maximized."""
    norms = np.linalg.norm(ds.points, axis=1)
    if np.any(norms == 0.0):
        raise ZeroVectorError("cosine similarity undefined for zero point vector", "ent")
    cents, _ = centroids(ds, pi)
    cnorms = np.linalg.norm(cents, axis=1)
    if np.any(cnorms == 0.0):
        raise ZeroVectorError("cosine similarity undefined for zero centroid", "ent")
    total = 0.0
    for i, idx in enumerate(pi.members):
        cos = (ds.points[idx] @ cents[i]) / (norms[idx] * cnorms[i])
        np.clip(cos, -1.0, 1.0, out=cos)
        g = float(np.mean(0.5 + cos / 2.0))
        term = (1.0 - _binary_entropy(g)) * g
        total += term ** (1.0 / pi.k)
    return total


def eval_dev(ds: Dataset, pi: Partition) -> float:
    """Summed distance of every point to its cluster centroid; minimized."""
    dists, _, _ = _own_centroid_distances(ds, pi)
    return float(dists.sum())


def eval_var(ds: Dataset, pi: Partition) -> float:
    """Overall deviation scaled by 1/n; minimized."""
    return eval_dev(ds, pi) / ds.n


def eval_twcv(ds: Dataset, pi: Partition) -> float:
    """Total within-cluster variance (squared distances); minimized."""
    dists, _, _ = _own_centroid_distances(ds, pi)
    return float((dists ** 2).sum())


# --------------------------------------------------------------------------
# Connectedness criteria


def eval_con(ds: Dataset, pi: Partition, L: int = 10,
             penalty: str = "paper") -> float:
    """Connectivity: penalty per point whose near neighbors land in a
    different cluster; minimized. ``penalty="paper"`` charges 1/k per
    broken link, ``"rank"`` charges 1/h for the h-th neighbor."""
    L = max(1, min(int(L), ds.n - 1))
    nn = ds.neighbor_index[:, :L]
    labels = pi.assignment
    split = labels[nn] != labels[:, None]
    if penalty == "paper":
        return float(split.sum()) / pi.k
    if penalty == "rank":
        return float((split / np.arange(1.0, L + 1.0)).sum())
    raise ValueError(f"unknown con penalty {penalty!r}")


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
    cents, gbar = centroids(ds, pi)
    d = np.linalg.norm(cents - gbar, axis=1)
    return float((pi.sizes * d).sum() / pi.k)


def eval_sep_al(ds: Dataset, pi: Partition) -> float:
    """Mean centroid-pair distance; maximized."""
    _require_k_at_least_2(pi, "sep_al")
    cents, _ = centroids(ds, pi)
    sep = _centroid_pair_distances(cents)[np.triu_indices(pi.k, k=1)]
    return float(sep.mean())


def eval_sep_cl(ds: Dataset, pi: Partition) -> float:
    """Summed distance over point pairs in different clusters; maximized."""
    _require_k_at_least_2(pi, "sep_cl")
    D = ds.distances
    total = D.sum() / 2.0
    intra = 0.0
    for idx in pi.members:
        if idx.size > 1:
            intra += D[np.ix_(idx, idx)].sum() / 2.0
    return float(total - intra)


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
        raise KTooSmallError(f"ch needs 2 <= k <= n-1, got k={pi.k}", "ch")
    dists, cents, gbar = _own_centroid_distances(ds, pi)
    within = float(dists.sum())
    if within == 0.0:
        raise DegenerateError("ch: zero within-cluster dispersion", "ch")
    between = float((pi.sizes * np.linalg.norm(cents - gbar, axis=1)).sum())
    return (between / within) * (ds.n - pi.k) / (pi.k - 1)


def eval_db(ds: Dataset, pi: Partition) -> float:
    """Davies-Bouldin: mean over clusters of the worst scatter-to-separation
    ratio; minimized."""
    _require_k_at_least_2(pi, "db")
    dists, cents, _ = _own_centroid_distances(ds, pi)
    scatter = np.zeros(pi.k)
    np.add.at(scatter, pi.assignment, dists)
    scatter /= pi.sizes
    sep = _centroid_pair_distances(cents)
    if np.any(sep[np.triu_indices(pi.k, k=1)] == 0.0):
        raise DegenerateError("db: coincident centroids", "db")
    ratio = (scatter[:, None] + scatter[None, :]) / np.where(sep > 0, sep, 1.0)
    np.fill_diagonal(ratio, -np.inf)
    return float(ratio.max(axis=1).mean())


def eval_dunn(ds: Dataset, pi: Partition) -> float:
    """Minimum cross-cluster distance over maximum cluster diameter;
    maximized."""
    _require_k_at_least_2(pi, "dunn")
    D = ds.distances
    labels = pi.assignment
    same = labels[:, None] == labels[None, :]
    max_diam = float(D.max(where=same, initial=0.0))
    if max_diam == 0.0:
        raise DegenerateError("dunn: every cluster has zero diameter", "dunn")
    cross = np.logical_not(same, out=same)  # in place: one n x n mask at a time
    return float(D.min(where=cross, initial=np.inf)) / max_diam


def eval_mod(ds: Dataset, pi: Partition) -> float:
    """Distance-based modularity over ordered point pairs; maximized."""
    D = ds.distances
    total = float(D.sum())
    if total == 0.0:
        raise DegenerateError("mod: all points identical", "mod")
    value = 0.0
    for idx in pi.members:
        intra = float(D[np.ix_(idx, idx)].sum())
        row = float(D[idx, :].sum())
        value += intra / total - (row / total) ** 2
    return value


def eval_sil(ds: Dataset, pi: Partition) -> float:
    """Mean silhouette width; maximized. Points in singleton clusters
    contribute 0."""
    _require_k_at_least_2(pi, "sil")
    D = ds.distances
    sums = np.zeros((ds.n, pi.k))
    for i, idx in enumerate(pi.members):
        sums[:, i] = D[:, idx].sum(axis=1)
    return silhouette(sums, pi)


def silhouette(sums: np.ndarray, pi: Partition) -> float:
    """Mean silhouette width from the (n, k) summed distances of each point
    to each cluster."""
    n = pi.n
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
    dists, cents, gbar = _own_centroid_distances(ds, pi)
    e0 = float(np.linalg.norm(ds.points - gbar, axis=1).sum())
    ek = float((dists ** 2).sum())
    if ek == 0.0:
        raise DegenerateError("pbm: zero within-cluster scatter", "pbm")
    dk = float(_centroid_pair_distances(cents).max())
    return (e0 / ek) * dk / pi.k


def eval_xb(ds: Dataset, pi: Partition) -> float:
    """Xie-Beni-style ratio with hard memberships and non-squared
    distances; minimized."""
    _require_k_at_least_2(pi, "xb")
    dists, cents, _ = _own_centroid_distances(ds, pi)
    sep = _centroid_pair_distances(cents)[np.triu_indices(pi.k, k=1)]
    min_sep = float(sep.min())
    if min_sep == 0.0:
        raise DegenerateError("xb: coincident centroids", "xb")
    return float(dists.sum()) / (ds.n * min_sep)


# --------------------------------------------------------------------------
# Dispatch


def evaluate(ds: Dataset, pi: Partition, spec: ObjectiveSpec) -> float:
    """The value of ``spec``'s criterion on ``pi``. ``eval_<id>`` is looked
    up at call time, so a wrapper put in its place sees every call."""
    params = {}
    if spec.id == "con":
        params = {"L": spec.L, "penalty": spec.con_penalty}
    elif spec.id in ("dcd", "sep_graph"):
        params = {"k_size": spec.k_size}
    try:
        return globals()[f"eval_{spec.id}"](ds, pi, **params)
    except CriterionError as err:
        if err.criterion is None:
            err.criterion = spec.id
        raise


def evaluate_vector(ds: Dataset, pi: Partition, specs,
                    evaluator=evaluate) -> ObjectiveVector:
    """Evaluate a list of objectives; the first criterion error aborts,
    annotated with the offending criterion id. ``evaluator`` computes one
    criterion; the evolutionary clusterer passes the component-level
    ``ComponentGeometry.evaluate``."""
    specs = tuple(specs)
    values = []
    for spec in specs:
        try:
            values.append(evaluator(ds, pi, spec))
        except CriterionError as err:
            raise type(err)(f"[{spec.id}] {err}", spec.id) from None
    return ObjectiveVector(specs=specs, values=tuple(values))
