"""Criteria evaluated on the base components of a delta-locus scheme.

Every partition the evolutionary clusterer decodes is a union of the
``n_base`` components that the scheme's fixed MST links induce (about
5*sqrt(n) of them, against n points). sep_cl needs only the distance
sums over component pairs, and connectivity only the neighbor links that
cross components. ``ComponentGeometry`` builds those aggregates once per
scheme, each on first use, so an evaluation of sep_cl or con reads at
most n_base^2 aggregates instead of n^2 distances or n * L neighbors;
every other criterion is evaluated on the points.

``criteria`` stays the point-level reference: each kernel here raises the
same ``CriterionError`` subtype as its reference and agrees with it to
1e-9 relative; con agrees exactly.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .criteria import ObjectiveSpec, _require_k_at_least_2, evaluate
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
        self._links: dict[int, tuple[np.ndarray, ...]] = {}

    @cached_property
    def sums(self) -> np.ndarray:
        """(n_base, n_base): summed distance over the point pairs of each
        component pair, from one component's distance rows at a time."""
        D = self.ds.distances
        out = np.empty((self.n_base, self.n_base))
        for c, idx in enumerate(np.split(self._order, self._starts[1:])):
            out[c] = np.add.reduceat(D[idx].sum(axis=0)[self._order], self._starts)
        return out

    def links(self, L: int) -> tuple[np.ndarray, ...]:
        """Neighbor links between different components, as a sparse list of
        (component a, component b, count): each of a point's L nearest
        neighbors in another component adds 1. Links inside a component
        never split."""
        if L not in self._links:
            nn = self.ds.neighbors(L)
            a = np.broadcast_to(self.labels[:, None], nn.shape)
            b = self.labels[nn]
            cross = a != b
            pairs, counts = np.unique(a[cross] * self.n_base + b[cross],
                                      return_counts=True)
            self._links[L] = (pairs // self.n_base, pairs % self.n_base, counts)
        return self._links[L]

    def evaluate(self, ds: Dataset, pi: Partition, spec: ObjectiveSpec) -> float:
        """``criteria.evaluate`` for a partition that is a union of the
        components: sep_cl and con from the aggregates, every other
        criterion from the points."""
        kernel = _KERNELS.get(spec.id)
        if kernel is None:
            return evaluate(ds, pi, spec)
        return kernel(self, pi, pi.assignment[self.first], spec)


def _sep_cl(geo: ComponentGeometry, pi: Partition, cc, spec) -> float:
    _require_k_at_least_2(pi, "sep_cl")
    cross = cc[:, None] != cc[None, :]
    return float(geo.sums[cross].sum()) / 2.0


def _con(geo: ComponentGeometry, pi: Partition, cc, spec) -> float:
    a, b, w = geo.links(spec.L)
    return float(w[cc[a] != cc[b]].sum()) / pi.k


_KERNELS = {"sep_cl": _sep_cl, "con": _con}
