"""Independent brute-force oracles for every criterion, ARI, the MST,
single linkage, connected components, SNN clustering and Lloyd's k-means.

Everything here is written with plain Python loops over raw point arrays,
deliberately sharing no code with the library so the two routes can check
each other. The exceptions keep the plain numpy form the library had as
the bit-level reference for its later form: the k-means pair (a
``rng.choice`` draw per seed, a per-cluster ``mean`` per iteration) for
the one-call draw and centroid step, and ``oracle_masked_dunn`` (a
per-cluster diameter, a copy of the cross-cluster distances) for the
masked reductions.
"""

import collections
import itertools
import math

import numpy as np


def dist(p, q) -> float:
    return math.dist(p, q)


def clusters_of(labels) -> list[list[int]]:
    k = int(max(labels)) + 1
    return [[i for i in range(len(labels)) if labels[i] == c] for c in range(k)]


def centroid(points, idx):
    return [sum(points[i][r] for i in idx) / len(idx)
            for r in range(len(points[0]))]


def global_centroid(points):
    return centroid(points, range(len(points)))


def neighbor_list(points, a):
    """Other points by ascending distance, ties by index."""
    others = [i for i in range(len(points)) if i != a]
    return sorted(others, key=lambda b: (dist(points[a], points[b]), b))


def oracle_distances(points):
    """The distance matrix as one expression over whole n x n arrays:
    Gram trick on bounding-box-centred points, then symmetrized."""
    points = np.asarray(points, dtype=np.float64)
    x = points - (points.min(axis=0) + points.max(axis=0)) / 2.0
    sq = np.sum(x ** 2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d2, 0.0, out=d2)
    dm = np.sqrt(d2)
    dm = 0.5 * (dm + dm.T)
    np.fill_diagonal(dm, 0.0)
    return dm


def oracle_neighbor_index(distances):
    """Stable argsort of a copy of every row with its own entry at -1, so
    each row lists the other points by (distance, index)."""
    dm = np.array(distances, dtype=np.float64)
    np.fill_diagonal(dm, -1.0)
    return np.argsort(dm, axis=1, kind="stable")[:, 1:]


# --------------------------------------------------------------------------
# Criteria


def oracle_ent(points, labels):
    clusters = clusters_of(labels)
    k = len(clusters)
    total = 0.0
    for idx in clusters:
        z = centroid(points, idx)
        nz = math.sqrt(sum(v * v for v in z))
        sims = []
        for a in idx:
            na = math.sqrt(sum(v * v for v in points[a]))
            cos = sum(points[a][r] * z[r] for r in range(len(z))) / (na * nz)
            cos = max(-1.0, min(1.0, cos))
            sims.append(0.5 + cos / 2.0)
        g = sum(sims) / len(sims)
        if 0.0 < g < 1.0:
            h = -(g * math.log2(g) + (1.0 - g) * math.log2(1.0 - g))
        else:
            h = 0.0
        total += ((1.0 - h) * g) ** (1.0 / k)
    return total


def oracle_dev(points, labels):
    total = 0.0
    for idx in clusters_of(labels):
        z = centroid(points, idx)
        total += sum(dist(points[a], z) for a in idx)
    return total


def oracle_var(points, labels):
    return oracle_dev(points, labels) / len(points)


def oracle_twcv(points, labels):
    total = 0.0
    for idx in clusters_of(labels):
        z = centroid(points, idx)
        for a in idx:
            total += sum((points[a][r] - z[r]) ** 2 for r in range(len(z)))
    return total


def oracle_con(points, labels, L, penalty="paper"):
    k = int(max(labels)) + 1
    total = 0.0
    for a in range(len(points)):
        for h, b in enumerate(neighbor_list(points, a)[:L], start=1):
            if labels[a] != labels[b]:
                total += (1.0 / k) if penalty == "paper" else (1.0 / h)
    return total


def oracle_ksize_edges(points, k_size):
    """Undirected union-semantics neighbor graph as an edge dict."""
    edges = {}
    for a in range(len(points)):
        for b in neighbor_list(points, a)[:k_size]:
            edges[(min(a, b), max(a, b))] = dist(points[a], points[b])
    return edges


def _prim_forest_weight(nodes, edges):
    """Total MST weight over the connected components of (nodes, edges)."""
    adj = {v: [] for v in nodes}
    for (a, b), w in edges.items():
        adj[a].append((w, b))
        adj[b].append((w, a))
    seen = set()
    total = 0.0
    for start in nodes:
        if start in seen:
            continue
        seen.add(start)
        candidates = list(adj[start])
        while candidates:
            candidates.sort()
            w, v = candidates.pop(0)
            if v in seen:
                continue
            seen.add(v)
            total += w
            candidates.extend(adj[v])
    return total


def oracle_dcd(points, labels, k_size):
    all_edges = oracle_ksize_edges(points, k_size)
    k = int(max(labels)) + 1
    total = 0.0
    for idx in clusters_of(labels):
        nodes = set(idx)
        sub = {e: w for e, w in all_edges.items()
               if e[0] in nodes and e[1] in nodes}
        total += _prim_forest_weight(nodes, sub)
    return total / k


def oracle_abgss(points, labels):
    zbar = global_centroid(points)
    clusters = clusters_of(labels)
    total = sum(len(idx) * dist(centroid(points, idx), zbar)
                for idx in clusters)
    return total / len(clusters)


def oracle_sep_al(points, labels):
    cents = [centroid(points, idx) for idx in clusters_of(labels)]
    k = len(cents)
    s = sum(dist(cents[i], cents[j])
            for i in range(k) for j in range(i + 1, k))
    return s / (k * (k - 1) / 2)


def oracle_sep_cl(points, labels):
    n = len(points)
    return sum(dist(points[a], points[b])
               for a in range(n) for b in range(a + 1, n)
               if labels[a] != labels[b])


def oracle_sep_graph(points, labels, k_size):
    edges = oracle_ksize_edges(points, k_size)
    per_cluster = []
    for idx in clusters_of(labels):
        nodes = set(idx)
        cross = [w for (a, b), w in edges.items()
                 if (a in nodes) != (b in nodes)]
        per_cluster.append(sum(cross) / len(cross) if cross else 0.0)
    return sum(per_cluster) / len(per_cluster)


def oracle_ch(points, labels):
    n = len(points)
    clusters = clusters_of(labels)
    k = len(clusters)
    zbar = global_centroid(points)
    between = sum(len(idx) * dist(centroid(points, idx), zbar)
                  for idx in clusters)
    within = sum(dist(points[a], centroid(points, idx))
                 for idx in clusters for a in idx)
    return (between / within) * (n - k) / (k - 1)


def oracle_db(points, labels):
    clusters = clusters_of(labels)
    k = len(clusters)
    cents = [centroid(points, idx) for idx in clusters]
    scatter = [sum(dist(points[a], cents[i]) for a in idx) / len(idx)
               for i, idx in enumerate(clusters)]
    total = 0.0
    for i in range(k):
        total += max((scatter[i] + scatter[j]) / dist(cents[i], cents[j])
                     for j in range(k) if j != i)
    return total / k


def oracle_dunn(points, labels):
    clusters = clusters_of(labels)
    k = len(clusters)
    max_diam = max((dist(points[a], points[b])
                    for idx in clusters
                    for a, b in itertools.combinations(idx, 2)),
                   default=0.0)
    min_cross = min(dist(points[a], points[b])
                    for i in range(k) for j in range(i + 1, k)
                    for a in clusters[i] for b in clusters[j])
    return min_cross / max_diam


def oracle_masked_dunn(distances, labels):
    """Dunn from the distance matrix: the largest diameter over the
    clusters of two or more points, the smallest of the copied
    cross-cluster distances. None when every diameter is zero."""
    labels = np.asarray(labels)
    max_diam = 0.0
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        if idx.size > 1:
            max_diam = max(max_diam, float(distances[np.ix_(idx, idx)].max()))
    if max_diam == 0.0:
        return None
    cross = labels[:, None] != labels[None, :]
    return float(distances[cross].min()) / max_diam


def oracle_mod(points, labels):
    n = len(points)
    total = sum(dist(points[a], points[b])
                for a in range(n) for b in range(n))
    value = 0.0
    for idx in clusters_of(labels):
        intra = sum(dist(points[a], points[b]) for a in idx for b in idx)
        row = sum(dist(points[a], points[b]) for a in idx for b in range(n))
        value += intra / total - (row / total) ** 2
    return value


def oracle_sil(points, labels):
    n = len(points)
    clusters = clusters_of(labels)
    total = 0.0
    for a in range(n):
        own = [i for i in clusters[labels[a]] if i != a]
        if not own:
            continue  # singleton contributes 0
        ad = sum(dist(points[a], points[b]) for b in own) / len(own)
        bd = min(sum(dist(points[a], points[b]) for b in idx) / len(idx)
                 for c, idx in enumerate(clusters) if c != labels[a])
        if max(ad, bd) > 0:
            total += (bd - ad) / max(ad, bd)
    return total / n


def oracle_pbm(points, labels):
    clusters = clusters_of(labels)
    k = len(clusters)
    zbar = global_centroid(points)
    e0 = sum(dist(p, zbar) for p in points)
    ek = sum(dist(points[a], centroid(points, idx)) ** 2
             for idx in clusters for a in idx)
    cents = [centroid(points, idx) for idx in clusters]
    dk = max(dist(cents[i], cents[j])
             for i in range(k) for j in range(i + 1, k))
    return (e0 / ek) * dk / k


def oracle_xb(points, labels):
    clusters = clusters_of(labels)
    k = len(clusters)
    cents = [centroid(points, idx) for idx in clusters]
    num = sum(dist(points[a], cents[i])
              for i, idx in enumerate(clusters) for a in idx)
    min_sep = min(dist(cents[i], cents[j])
                  for i in range(k) for j in range(i + 1, k))
    return num / (len(points) * min_sep)


ORACLES = {
    "ent": lambda pts, lab, prm: oracle_ent(pts, lab),
    "dev": lambda pts, lab, prm: oracle_dev(pts, lab),
    "var": lambda pts, lab, prm: oracle_var(pts, lab),
    "twcv": lambda pts, lab, prm: oracle_twcv(pts, lab),
    "con": lambda pts, lab, prm: oracle_con(pts, lab, prm["L"], prm["con_penalty"]),
    "dcd": lambda pts, lab, prm: oracle_dcd(pts, lab, prm["k_size"]),
    "abgss": lambda pts, lab, prm: oracle_abgss(pts, lab),
    "sep_al": lambda pts, lab, prm: oracle_sep_al(pts, lab),
    "sep_cl": lambda pts, lab, prm: oracle_sep_cl(pts, lab),
    "sep_graph": lambda pts, lab, prm: oracle_sep_graph(pts, lab, prm["k_size"]),
    "ch": lambda pts, lab, prm: oracle_ch(pts, lab),
    "db": lambda pts, lab, prm: oracle_db(pts, lab),
    "dunn": lambda pts, lab, prm: oracle_dunn(pts, lab),
    "mod": lambda pts, lab, prm: oracle_mod(pts, lab),
    "sil": lambda pts, lab, prm: oracle_sil(pts, lab),
    "pbm": lambda pts, lab, prm: oracle_pbm(pts, lab),
    "xb": lambda pts, lab, prm: oracle_xb(pts, lab),
}


# --------------------------------------------------------------------------
# ARI, MST and single linkage


def oracle_ari_paircount(la, lb) -> float:
    """Hubert-Arabie adjustment from agreeing/disagreeing pair counts."""
    n = len(la)
    ss = sd = ds_ = dd = 0
    for a in range(n):
        for b in range(a + 1, n):
            same_a = la[a] == la[b]
            same_b = lb[a] == lb[b]
            if same_a and same_b:
                ss += 1
            elif same_a:
                sd += 1
            elif same_b:
                ds_ += 1
            else:
                dd += 1
    num = 2.0 * (ss * dd - sd * ds_)
    den = (ss + sd) * (sd + dd) + (ss + ds_) * (ds_ + dd)
    if den == 0:
        return 1.0
    return num / den


def oracle_mst_weight(points) -> float:
    """Minimum total weight over all spanning trees (n <= 7)."""
    n = len(points)
    all_edges = [(a, b) for a in range(n) for b in range(a + 1, n)]
    best = math.inf
    for combo in itertools.combinations(all_edges, n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for a, b in combo:
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if ok:
            best = min(best, sum(dist(points[a], points[b]) for a, b in combo))
    return best


def oracle_mst_edges(points):
    """Kruskal over all pairs sorted by (distance, a, b); the sorted list
    of (a, b) edges with a < b."""
    n = len(points)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    pairs = sorted((dist(points[a], points[b]), a, b)
                   for a in range(n) for b in range(a + 1, n))
    edges = []
    for _, a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            edges.append([a, b])
    return sorted(edges)


def oracle_single_linkage(points):
    """Single-linkage partitions for every k, as {k: one label per point}.
    Each step merges the two clusters at the smallest closest-member
    distance; ties go to the smallest (min member, min member) pair."""
    clusters = [[i] for i in range(len(points))]
    out = {}
    while True:
        labels = [0] * len(points)
        for c, idx in enumerate(clusters):
            for a in idx:
                labels[a] = c
        out[len(clusters)] = labels
        if len(clusters) == 1:
            return out
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                d = min(dist(points[a], points[b])
                        for a in clusters[i] for b in clusters[j])
                key = (d, *sorted((min(clusters[i]), min(clusters[j]))))
                if best is None or key < best[0]:
                    best = (key, i, j)
        _, i, j = best
        clusters[i] += clusters.pop(j)


# --------------------------------------------------------------------------
# Delta-locus decoding


def oracle_components(n, edges):
    """Cluster of every node of the undirected graph (range(n), edges):
    breadth-first search, with clusters numbered in order of their
    smallest node."""
    adjacent = [[] for _ in range(n)]
    for a, b in edges:
        adjacent[a].append(b)
        adjacent[b].append(a)
    labels = [-1] * n
    k = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        labels[start] = k
        queue = collections.deque([start])
        while queue:
            v = queue.popleft()
            for w in adjacent[v]:
                if labels[w] < 0:
                    labels[w] = k
                    queue.append(w)
        k += 1
    return labels


def oracle_decode(n, fixed_edges, loci, genes):
    """Cluster of every point under a delta-locus genotype: the components
    of the fixed MST edges plus each locus's edge to its gene, unless the
    gene is the locus itself. Clusters are numbered in order of their
    smallest point."""
    links = list(fixed_edges) + [(i, g) for i, g in zip(loci, genes) if i != g]
    return oracle_components(n, links)


# --------------------------------------------------------------------------
# Shared nearest neighbor clustering


def oracle_snn(points, knn_k, eps, min_pts):
    """SNN clustering: mutual kNN links, similarity = shared neighbor
    count, core points by link density, clusters = components of the core
    links, border points to their nearest qualifying core (ties to the
    smaller index), noise as singletons. Clusters are numbered in order of
    their smallest point."""
    n = len(points)
    knn_k = max(1, min(knn_k, n - 1))
    nn = [set(neighbor_list(points, a)[:knn_k]) for a in range(n)]
    strong = [[b for b in range(n)
               if b in nn[a] and a in nn[b] and len(nn[a] & nn[b]) >= eps]
              for a in range(n)]
    core = [len(strong[a]) >= min_pts for a in range(n)]
    core_links = [(a, b) for a in range(n) if core[a]
                  for b in strong[a] if core[b]]
    cluster = oracle_components(n, core_links)
    labels = [cluster[a] if core[a] else None for a in range(n)]
    for p in range(n):
        if core[p]:
            continue
        cores = [c for c in strong[p] if core[c]]
        if cores:
            labels[p] = cluster[min(cores, key=lambda c: (dist(points[p], points[c]), c))]
        else:
            labels[p] = ("noise", p)
    first = {}
    for lab in labels:
        first.setdefault(lab, len(first))
    return [first[lab] for lab in labels]


# --------------------------------------------------------------------------
# k-means


def oracle_seed_centroids(points, distances, k, rng):
    """k-means++ seeding: a uniform first point, then each next point with
    probability proportional to its squared distance to the nearest chosen
    one, drawn by ``rng.choice``; when that mass is zero, the first
    unchosen index."""
    n = len(points)
    chosen = [int(rng.integers(n))]
    d2 = distances[chosen[0]] ** 2
    while len(chosen) < k:
        total = d2.sum()
        if total <= 0.0:
            nxt = min(set(range(n)) - set(chosen))
        else:
            nxt = int(rng.choice(n, p=d2 / total))
        chosen.append(nxt)
        d2 = np.minimum(d2, distances[nxt] ** 2)
    return points[chosen].copy()


def oracle_lloyd(points, distances, k, rng, max_iter=100):
    """Lloyd descent from ``oracle_seed_centroids``: each point to its
    nearest centroid (first on ties), empty clusters reseeded at the
    farthest point of a cluster with two or more members, each centroid
    the mean of its cluster. Returns the final assignment and the TWCV
    after each iteration."""
    n = len(points)
    cents = oracle_seed_centroids(points, distances, k, rng)
    assignment = None
    history = []
    for _ in range(max_iter):
        diff = points[:, None, :] - cents[None, :, :]
        d2 = np.einsum("nkd,nkd->nk", diff, diff)
        new_assignment = d2.argmin(axis=1)
        for _repair in range(k):
            counts = np.bincount(new_assignment, minlength=k)
            empty = np.flatnonzero(counts == 0)
            if empty.size == 0:
                break
            point_d2 = d2[np.arange(n), new_assignment]
            movable = counts[new_assignment] > 1
            far = int(np.where(movable, point_d2, -np.inf).argmax())
            cents[empty[0]] = points[far]
            new_assignment[far] = empty[0]
            d2[:, empty[0]] = np.einsum(
                "nd,nd->n", points - cents[empty[0]], points - cents[empty[0]])
        for i in range(k):
            cents[i] = points[new_assignment == i].mean(axis=0)
        sq = points - cents[new_assignment]
        history.append(float(np.einsum("nd,nd->", sq, sq)))
        if assignment is not None and np.array_equal(assignment, new_assignment):
            break
        assignment = new_assignment
    return assignment, history
