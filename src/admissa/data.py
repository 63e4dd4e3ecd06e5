"""Datasets, partitions and shared geometry (distances, neighbors, MST).

Everything downstream (criteria, initializers, the evolutionary clusterer)
consumes the cached O(n^2) distance table built here, so it is computed
once per dataset. All types are immutable after construction; ties are
broken by ascending point index throughout so runs are bit-reproducible.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Rows (or tiles, or MST edge ends) of the n x n geometry handled at once.
BLOCK = 256


class DataError(ValueError):
    """Malformed input data (CSV parsing, shape or label problems)."""


def canonical_labels(assignment: np.ndarray) -> np.ndarray:
    """Relabel clusters densely, ordered by smallest member index.

    Two assignments describe the same partition iff their canonical forms
    are equal, which is the duplicate-detection rule used everywhere.
    """
    assignment = np.asarray(assignment)
    _, first, inverse = np.unique(assignment, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    remap = np.empty(len(order), dtype=np.int64)
    remap[order] = np.arange(len(order))
    return remap[inverse]


@dataclass(eq=False)
class Partition:
    """A hard assignment of every point to exactly one of k clusters."""

    assignment: np.ndarray
    k: int = field(init=False)
    sizes: np.ndarray = field(init=False, repr=False)  # points per cluster

    def __post_init__(self):
        self.assignment = np.asarray(self.assignment, dtype=np.int64)
        if self.assignment.ndim != 1 or self.assignment.size == 0:
            raise DataError("assignment must be a non-empty 1-d array")
        # The ids are bounded before bincount sizes its output by them.
        if self.assignment.min() < 0 or self.assignment.max() >= self.n:
            raise DataError(f"cluster ids must lie in [0, {self.n - 1}]")
        self.sizes = np.bincount(self.assignment)
        self.k = self.sizes.size
        if not self.sizes.all():
            raise DataError("every cluster id in [0, k-1] must be non-empty")
        self.assignment.setflags(write=False)
        self.sizes.setflags(write=False)

    @property
    def n(self) -> int:
        return self.assignment.size

    @cached_property
    def members(self) -> list[np.ndarray]:
        """Per-cluster arrays of point indices (ascending)."""
        order = np.argsort(self.assignment, kind="stable")
        bounds = np.searchsorted(self.assignment[order], np.arange(self.k + 1))
        return [order[bounds[i]:bounds[i + 1]] for i in range(self.k)]

    @cached_property
    def key(self) -> bytes:
        """Hashable identity up to cluster relabeling."""
        return canonical_labels(self.assignment).tobytes()

    def same_as(self, other: "Partition") -> bool:
        return self.n == other.n and self.key == other.key


@dataclass(eq=False)
class Dataset:
    """Points in d-dimensional space with optional ground-truth labels.

    Heavy geometry (distance matrix, neighbor index, MST) is computed
    lazily and cached; the arrays are marked read-only so a dataset can be
    shared freely across workers.
    """

    points: np.ndarray
    labels: np.ndarray | None = None
    name: str = "dataset"

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2:
            raise DataError("points must be a 2-d array")
        n, d = self.points.shape
        if n < 2:
            raise DataError("a dataset needs at least 2 points")
        if d < 1:
            raise DataError("points need at least one feature")
        if not np.all(np.isfinite(self.points)):
            raise DataError("points must be finite")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (n,):
                raise DataError("labels must have one entry per point")
            present = np.unique(self.labels)
            k = present.size
            if present[0] != 0 or present[-1] != k - 1:
                raise DataError("labels must be dense ids 0..k*-1")
            self.labels.setflags(write=False)
        self.points.setflags(write=False)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def k_star(self) -> int | None:
        if self.labels is None:
            return None
        return int(self.labels.max()) + 1

    def true_partition(self) -> Partition:
        if self.labels is None:
            raise DataError(f"dataset {self.name!r} has no ground-truth labels")
        return Partition(canonical_labels(self.labels))

    @cached_property
    def distances(self) -> np.ndarray:
        """Symmetric n x n Euclidean distance matrix with zero diagonal."""
        # The Gram trick cancels in proportion to the squared norms, so the
        # points are centred first: far from the origin it would otherwise
        # lose the small distances. The centre of the bounding box is a
        # half-integer on integer data, where the arithmetic stays exact
        # and tied distances stay tied; the mean is not.
        x = self.points - (self.points.min(axis=0) + self.points.max(axis=0)) / 2.0
        sq = np.sum(x ** 2, axis=1)
        # (sq_a + sq_b) - 2 x_a.x_b, built in place: at most two n x n
        # arrays are alive at once.
        dm = np.add.outer(sq, sq)
        g = x @ x.T
        g *= 2.0
        dm -= g
        del g
        np.maximum(dm, 0.0, out=dm)
        np.sqrt(dm, out=dm)
        # Exact symmetry, tile by tile: both halves take 0.5 * (a + b).
        n = self.n
        for i in range(0, n, BLOCK):
            for j in range(i, n, BLOCK):
                upper = dm[i:i + BLOCK, j:j + BLOCK]
                lower = dm[j:j + BLOCK, i:i + BLOCK]
                mean = 0.5 * (upper + lower.T)
                upper[...] = mean
                lower[...] = mean.T
        np.fill_diagonal(dm, 0.0)
        dm.setflags(write=False)
        return dm

    @cached_property
    def neighbor_index(self) -> np.ndarray:
        """(n, n-1) index array: row a lists the other points by ascending
        distance from a, ties broken by ascending point index."""
        # A row is sorted by the fast default sort, which is exact when the
        # row holds no two equal distances: its order is then unique. A
        # row with a tie lists two equal distances or a zero (a duplicate
        # point, tied with the row's own zero, which may then be listed
        # in its place). Only those rows are sorted again, stably, with
        # the own entry at -1 so it sorts first. Rows go BLOCK at a time,
        # so no copy of the matrix is made.
        dm = self.distances
        n = self.n
        out = np.empty((n, n - 1), dtype=np.int64)
        for lo in range(0, n, BLOCK):
            rows = dm[lo:lo + BLOCK]
            out[lo:lo + BLOCK] = np.argsort(rows, axis=1)[:, 1:]
            listed = np.take_along_axis(rows, out[lo:lo + BLOCK], axis=1)
            tied = (listed[:, 0] <= 0.0) | (listed[:, 1:] == listed[:, :-1]).any(axis=1)
            del listed
            if tied.any():
                own = lo + np.flatnonzero(tied)
                again = dm[own]
                again[np.arange(own.size), own] = -1.0
                out[own] = np.argsort(again, axis=1, kind="stable")[:, 1:]
        out.setflags(write=False)
        return out

    @cached_property
    def neighbor_rank(self) -> np.ndarray:
        """(n-1, 2) array: for MST edge r = (a, b), the 1-based position of
        b in a's neighbor list and of a in b's. A position is a count: 1
        plus the points j != a with (D[a, j], j) < (D[a, b], b). The
        distance rows are read BLOCK edge ends at a time; nothing is
        sorted."""
        dm = self.distances
        ends = self.mst_edges
        src, dst = ends.ravel(), ends[:, ::-1].ravel()
        index = np.arange(self.n)
        rank = np.empty(src.size, dtype=np.int64)
        for lo in range(0, src.size, BLOCK):
            a, b = src[lo:lo + BLOCK], dst[lo:lo + BLOCK]
            rows = dm[a]
            d = rows[np.arange(a.size), b][:, None]
            ahead = (rows < d) | ((rows == d) & (index < b[:, None]))
            ahead[np.arange(a.size), a] = False
            rank[lo:lo + BLOCK] = np.count_nonzero(ahead, axis=1) + 1
        rank = rank.reshape(-1, 2)
        rank.setflags(write=False)
        return rank

    @cached_property
    def mst_parent(self) -> np.ndarray:
        """MST parent of every point on its path to point 0 (the root is
        its own parent)."""
        return minimum_spanning_tree(self.distances)

    @cached_property
    def mst_edges(self) -> np.ndarray:
        """(n-1, 2) array of MST edges (a < b), sorted lexicographically."""
        edges = np.sort(np.column_stack([np.arange(1, self.n),
                                         self.mst_parent[1:]]), axis=1)
        edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
        edges.setflags(write=False)
        return edges


def cluster_means(points: np.ndarray, assignment: np.ndarray,
                  sizes: np.ndarray) -> np.ndarray:
    """Mean of each cluster's points. Each cluster's rows are added in
    index order, as ``points[assignment == i].mean(axis=0)`` adds them
    for two or more columns, so the means have the same bits."""
    sums = np.zeros((sizes.size, points.shape[1]))
    np.add.at(sums, assignment, points)
    return sums / sizes[:, None]


def centroids(ds: Dataset, pi: Partition) -> tuple[np.ndarray, np.ndarray]:
    """Per-cluster mean vectors plus the overall dataset centroid."""
    if pi.n != ds.n:
        raise DataError("partition size does not match dataset")
    return cluster_means(ds.points, pi.assignment, pi.sizes), ds.points.mean(axis=0)


def components(n: int, a, b) -> np.ndarray:
    """Smallest member of each node's connected component in the
    undirected graph on 0..n-1 with edges (a[i], b[i]).

    Min-hooking and pointer jumping (Shiloach & Vishkin, J. Algorithms
    1982): each round, every edge hooks the larger of its two labels onto
    the smaller and every label jumps once to its label's label, until no
    edge joins two labels and every label is its own label. A label is
    always a node of the same component and never larger than its node,
    so each component ends on its smallest member.
    """
    label = np.arange(n)
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    while True:
        la, lb = label[a], label[b]
        if (la == lb).all() and (label[label] == label).all():
            return label
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        label = label[label]


def minimum_spanning_tree(dm: np.ndarray) -> np.ndarray:
    """Dense Prim grown from point 0; returns the parent array, with
    ``parent[0] == 0``.

    Edges are ordered by (weight, min end, max end). The order is strict,
    so the tree is unique given the matrix: it is the tree Kruskal builds
    in that order. Each outside point keeps its smallest edge into the
    tree; of two edges to one point with equal weight, the one to the
    smaller tree point is smaller in that order.
    """
    n = dm.shape[0]
    if n < 2:
        raise DataError("MST needs at least 2 points")
    parent = np.zeros(n, dtype=np.int64)
    inside = np.zeros(n, dtype=bool)
    best = np.full(n, np.inf)  # weight of each outside point's pending edge
    v = 0
    for _ in range(n - 1):
        inside[v] = True
        best[v] = np.inf
        d = dm[v]
        take = ~inside & ((d < best) | ((d == best) & (v < parent)))
        best[take] = d[take]
        parent[take] = v
        v = int(np.argmin(best))
        tied = np.flatnonzero(best == best[v])
        if tied.size > 1:
            lo = np.minimum(tied, parent[tied])
            hi = np.maximum(tied, parent[tied])
            v = int(tied[np.lexsort((hi, lo))[0]])
    parent.setflags(write=False)
    return parent


def load_dataset(path, label_column: str | None = None, name: str | None = None) -> Dataset:
    """Read a headered CSV of numeric feature columns plus an optional label
    column. Labels are re-indexed densely in order of first appearance."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: inconsistent arity "
                                f"({len(row)} fields, expected {len(header)})")
            rows.append(row)
    if not rows:
        raise DataError(f"{path}: no data rows")

    if label_column is not None:
        if label_column not in header:
            raise DataError(f"{path}: label column {label_column!r} absent")
        label_pos = header.index(label_column)
    else:
        label_pos = None

    feature_pos = [i for i in range(len(header)) if i != label_pos]
    points = np.empty((len(rows), len(feature_pos)))
    for r, row in enumerate(rows):
        for c, pos in enumerate(feature_pos):
            try:
                points[r, c] = float(row[pos])
            except ValueError:
                raise DataError(f"{path}: non-numeric feature {row[pos]!r} "
                                f"in column {header[pos]!r}") from None

    labels = None
    if label_pos is not None:
        raw = [row[label_pos] for row in rows]
        mapping = {v: i for i, v in enumerate(dict.fromkeys(raw))}
        labels = np.array([mapping[v] for v in raw], dtype=np.int64)

    if name is None:
        name = str(path).rsplit("/", 1)[-1].removesuffix(".csv")
    return Dataset(points, labels=labels, name=name)


def write_dataset_csv(ds: Dataset, path) -> None:
    """Emit the same CSV schema load_dataset consumes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = [f"x{i}" for i in range(ds.dim)]
        if ds.labels is not None:
            header.append("label")
        writer.writerow(header)
        for i in range(ds.n):
            row = [repr(float(v)) for v in ds.points[i]]
            if ds.labels is not None:
                row.append(str(int(ds.labels[i])))
            writer.writerow(row)
