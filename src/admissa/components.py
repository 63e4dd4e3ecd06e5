"""Criteria evaluated on the base components of a delta-locus scheme.

Every partition the evolutionary clusterer decodes is a union of the
``n_base`` components that the scheme's fixed MST links induce (about
5*sqrt(n) of them, against n points). The criteria that read the n x n
distance matrix need only its sums, minima and maxima over component
pairs, and connectivity needs only the neighbor links that cross
components. ``ComponentGeometry`` builds those aggregates once per scheme,
each on first use, so an evaluation of sep_cl, mod, sil, dunn or con costs
O(n_base^2) or O(n * n_base) instead of O(n^2).

``criteria`` stays the point-level reference: each kernel here raises the
same ``CriterionError`` subtype as its reference and agrees with it to
1e-9 relative; dunn and con with the ``paper`` penalty agree exactly.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .criteria import (DegenerateError, ObjectiveSpec, _require_k_at_least_2,
                       evaluate, silhouette)
from .data import Dataset, Partition


class ComponentGeometry:
    """Distance aggregates between the components ``base_labels`` numbers
    0..n_base-1 in order of their smallest point."""

    def __init__(self, ds: Dataset, base_labels: np.ndarray, n_base: int):
        self.ds = ds
        self.labels = base_labels
        self.n_base = n_base
        self._order = np.argsort(base_labels, kind="stable")
        self._starts = np.searchsorted(base_labels[self._order], np.arange(n_base))
        self.first = self._order[self._starts]  # smallest point per component
        self._links: dict[tuple[int, str], tuple[np.ndarray, ...]] = {}

    def _row_blocks(self):
        """Each component's rows of the distance matrix, in component order."""
        D = self.ds.distances
        for idx in np.split(self._order, self._starts[1:]):
            yield D[idx]

    @cached_property
    def point_sums(self) -> np.ndarray:
        """(n_base, n): summed distance from each component to each point."""
        out = np.empty((self.n_base, self.ds.n))
        for c, rows in enumerate(self._row_blocks()):
            rows.sum(axis=0, out=out[c])
        return out

    @cached_property
    def sums(self) -> np.ndarray:
        """(n_base, n_base): summed distance over the point pairs of each
        component pair."""
        return np.add.reduceat(self.point_sums[:, self._order], self._starts,
                               axis=1)

    @cached_property
    def row_sums(self) -> np.ndarray:
        """Summed distance from each component to every point."""
        return self.sums.sum(axis=1)

    @cached_property
    def extremes(self) -> tuple[np.ndarray, np.ndarray]:
        """(n_base, n_base) minimum and maximum distance over the point pairs
        of each component pair; the diagonal of the maximum holds each
        component's diameter."""
        lo = np.empty((self.n_base, self.n_base))
        hi = np.empty((self.n_base, self.n_base))
        for c, rows in enumerate(self._row_blocks()):
            lo[c] = np.minimum.reduceat(rows.min(axis=0)[self._order], self._starts)
            hi[c] = np.maximum.reduceat(rows.max(axis=0)[self._order], self._starts)
        return lo, hi

    def links(self, L: int, penalty: str) -> tuple[np.ndarray, ...]:
        """Neighbor links between different components, as a sparse list of
        (component a, component b, weight): each of a point's L nearest
        neighbors in another component adds 1 (``paper``) or 1/h for the
        h-th neighbor (``rank``). Links inside a component never split."""
        L = max(1, min(int(L), self.ds.n - 1))
        key = (L, penalty)
        if key not in self._links:
            nn = self.ds.neighbor_index[:, :L]
            a = np.broadcast_to(self.labels[:, None], nn.shape)
            b = self.labels[nn]
            h = np.broadcast_to(np.arange(1.0, L + 1.0), nn.shape)
            cross = a != b
            pairs, inverse = np.unique(a[cross] * self.n_base + b[cross],
                                       return_inverse=True)
            weights = 1.0 / h[cross] if penalty == "rank" else None
            self._links[key] = (pairs // self.n_base, pairs % self.n_base,
                                np.bincount(inverse, weights=weights,
                                            minlength=pairs.size).astype(float))
        return self._links[key]

    def evaluate(self, ds: Dataset, pi: Partition, spec: ObjectiveSpec) -> float:
        """``criteria.evaluate`` for a partition that is a union of the
        components: sep_cl, mod, sil, dunn and con from the aggregates, every
        other criterion from the points."""
        kernel = _KERNELS.get(spec.id)
        if kernel is None:
            return evaluate(ds, pi, spec)
        return kernel(self, pi, pi.assignment[self.first], spec)


def _onehot(cc: np.ndarray, k: int) -> np.ndarray:
    """(n_base, k) float indicator of each component's cluster."""
    return (cc[:, None] == np.arange(k)).astype(float)


def _sep_cl(geo: ComponentGeometry, pi: Partition, cc, spec) -> float:
    _require_k_at_least_2(pi, "sep_cl")
    cross = cc[:, None] != cc[None, :]
    return float(geo.sums[cross].sum()) / 2.0


def _con(geo: ComponentGeometry, pi: Partition, cc, spec) -> float:
    a, b, w = geo.links(spec.L, spec.con_penalty)
    broken = float(w[cc[a] != cc[b]].sum())
    return broken / pi.k if spec.con_penalty == "paper" else broken


def _mod(geo: ComponentGeometry, pi: Partition, cc, spec) -> float:
    total = float(geo.row_sums.sum())
    if total == 0.0:
        raise DegenerateError("mod: all points identical", "mod")
    onehot = _onehot(cc, pi.k)
    intra = (onehot * (geo.sums @ onehot)).sum(axis=0)
    row = geo.row_sums @ onehot
    return float((intra / total - (row / total) ** 2).sum())


def _sil(geo: ComponentGeometry, pi: Partition, cc, spec) -> float:
    _require_k_at_least_2(pi, "sil")
    return silhouette(geo.point_sums.T @ _onehot(cc, pi.k), pi)


def _dunn(geo: ComponentGeometry, pi: Partition, cc, spec) -> float:
    _require_k_at_least_2(pi, "dunn")
    lo, hi = geo.extremes
    same = cc[:, None] == cc[None, :]
    max_diam = float(hi[same].max())
    if max_diam == 0.0:
        raise DegenerateError("dunn: every cluster has zero diameter", "dunn")
    return float(lo[~same].min()) / max_diam


_KERNELS = {"sep_cl": _sep_cl, "con": _con, "mod": _mod, "sil": _sil,
            "dunn": _dunn}
